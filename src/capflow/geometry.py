"""Axisymmetric half-section mesh: construction, vertical displacement, queries.

The computational domain is half a vertical section of a cylinder, meshed
with a structured triangulation.  The boundary splits into four tagged arcs:
the free surface on top, the wall on the right, the open bottom, and the
symmetry axis on the left.  Mesh motion is vertical only, so radial node
positions (and with them the wall and axis) are invariant for all time.

Meshes are immutable; :func:`displace_mesh` returns a new mesh.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from functools import cached_property

import numpy as np

from .errors import DimensionMismatch, MeshTangled, SurfaceFolded, WallViolation
from .fields import VectorFieldP1


class BoundaryTag(Enum):
    FREE_SURFACE = "free_surface"
    WALL = "wall"
    BOTTOM = "bottom"
    AXIS = "axis"


class _Memo:
    """Per-object cache of derived data; the object itself is immutable."""

    def memo(self, build):
        """build(self) on the first call with this build function, its stored result after."""
        cache = self.__dict__.setdefault("_memo", {})
        if build not in cache:
            cache[build] = build(self)
        return cache[build]


@dataclass(frozen=True, eq=False)
class MeshTopology(_Memo):
    """Connectivity and tagged boundary arcs, shared by a mesh and every mesh
    displaced from it.

    Mesh motion never changes connectivity, so whatever derives from it alone
    (boundary node sets, free dofs, sparsity patterns through :meth:`memo`)
    is computed once per topology, not once per mesh.
    """

    triangles: np.ndarray
    boundary_edges: dict
    contact_node: int
    num_nodes: int

    def __post_init__(self):
        gamma = self.boundary_edges[BoundaryTag.FREE_SURFACE]
        wall = self.boundary_edges[BoundaryTag.WALL]
        shared = np.intersect1d(gamma.ravel(), wall.ravel())
        if shared.size != 1 or shared[0] != self.contact_node:
            raise DimensionMismatch("free surface and wall must share exactly the contact node")

    def matches(self, triangles, boundary_edges, contact_node, num_nodes) -> bool:
        """Whether these are this topology's connectivity and tags."""
        def same(a, b):
            return a is b or np.array_equal(a, b)
        return (num_nodes == self.num_nodes and contact_node == self.contact_node
                and same(triangles, self.triangles)
                and all(same(boundary_edges[t], self.boundary_edges[t]) for t in BoundaryTag))

    def _boundary_nodes(self, tag: BoundaryTag) -> np.ndarray:
        return np.unique(self.boundary_edges[tag])

    @cached_property
    def wall_nodes(self) -> np.ndarray:
        return self._boundary_nodes(BoundaryTag.WALL)

    @cached_property
    def axis_nodes(self) -> np.ndarray:
        return self._boundary_nodes(BoundaryTag.AXIS)

    @cached_property
    def bottom_nodes(self) -> np.ndarray:
        return self._boundary_nodes(BoundaryTag.BOTTOM)

    @cached_property
    def surface_nodes(self) -> np.ndarray:
        """Free-surface node indices ordered by increasing r."""
        edges = self.boundary_edges[BoundaryTag.FREE_SURFACE]
        chain = [edges[0, 0]]
        chain.extend(edges[:, 1])
        return np.asarray(chain, dtype=np.int64)

    @cached_property
    def radial_constrained_nodes(self) -> np.ndarray:
        """Nodes whose radial velocity component is an essential zero."""
        return np.union1d(self.wall_nodes, self.axis_nodes)

    @cached_property
    def free_dofs(self) -> np.ndarray:
        """Free dofs of the monolithic (u_r, u_z, p) system: all but the radial
        dofs of the wall and axis nodes."""
        mask = np.ones(3 * self.num_nodes, dtype=bool)
        mask[self.radial_constrained_nodes] = False
        return np.flatnonzero(mask)


def _on_topology(name: str) -> property:
    return property(lambda mesh: getattr(mesh.topology, name),
                    doc=f"The shared topology's ``{name}``.")


@dataclass(frozen=True)
class AxiMesh(_Memo):
    """Triangulated half-section with tagged boundary arcs.

    nodes          (N, 2) array of (r, z) coordinates [m]
    triangles      (M, 3) vertex index triples, positively oriented
    boundary_edges tag -> (E, 2) node-pair array; free-surface edges are
                   ordered by increasing r with each pair (left, right)
    contact_node   index of the single node shared by free surface and wall
    radius         cylinder radius [m]
    topology       the :class:`MeshTopology` of the four above; built when not
                   given, and rejected with DimensionMismatch when it differs
    """

    nodes: np.ndarray
    triangles: np.ndarray
    boundary_edges: dict
    contact_node: int
    radius: float
    topology: MeshTopology | None = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        nodes = np.ascontiguousarray(self.nodes, dtype=float)
        tris = np.ascontiguousarray(self.triangles, dtype=np.int64)
        nodes.setflags(write=False)
        tris.setflags(write=False)
        object.__setattr__(self, "nodes", nodes)
        object.__setattr__(self, "triangles", tris)
        for tag in BoundaryTag:
            edges = np.ascontiguousarray(self.boundary_edges[tag], dtype=np.int64)
            edges.setflags(write=False)
            self.boundary_edges[tag] = edges
        parts = (tris, self.boundary_edges, self.contact_node, len(nodes))
        if self.topology is None:
            object.__setattr__(self, "topology", MeshTopology(*parts))
        elif not self.topology.matches(*parts):
            raise DimensionMismatch("mesh connectivity differs from the topology it was given")
        self._validate()

    # -- derived data ------------------------------------------------------

    @property
    def num_nodes(self) -> int:
        return self.nodes.shape[0]

    @cached_property
    def areas(self) -> np.ndarray:
        """Signed triangle areas."""
        p = self.nodes[self.triangles]
        d1 = p[:, 1] - p[:, 0]
        d2 = p[:, 2] - p[:, 0]
        return 0.5 * (d1[:, 0] * d2[:, 1] - d1[:, 1] * d2[:, 0])

    wall_nodes = _on_topology("wall_nodes")
    axis_nodes = _on_topology("axis_nodes")
    bottom_nodes = _on_topology("bottom_nodes")
    surface_nodes = _on_topology("surface_nodes")
    radial_constrained_nodes = _on_topology("radial_constrained_nodes")

    # -- invariants --------------------------------------------------------

    def _validate(self):
        r = self.nodes[:, 0]
        if np.any(r < -1e-15 * self.radius):
            raise DimensionMismatch("negative radial coordinate")
        if np.any(np.abs(r[self.axis_nodes]) > 1e-15 * self.radius):
            raise DimensionMismatch("axis node off r = 0")
        dev = np.abs(r[self.wall_nodes] - self.radius)
        if np.any(dev > 1e-12 * self.radius):
            raise WallViolation(
                f"wall node off the cylinder by {dev.max():.3e} m"
            )
        if np.any(self.areas <= 0.0):
            raise MeshTangled(
                f"{int(np.sum(self.areas <= 0.0))} triangle(s) with non-positive area"
            )
        surface_normals(self)  # raises SurfaceFolded on a folded surface


def build_structured_mesh(radius: float, height: float, n1: int, n3: int) -> AxiMesh:
    """Structured (n1+1) x (n3+1) grid over [0, radius] x [0, height].

    Every cell splits along the same lower-left to upper-right diagonal, so
    element bookkeeping (and the vertical mesh size at the wall) stays
    deterministic.  The contact node sits at (radius, height).
    """
    if radius <= 0 or height <= 0:
        raise ValueError("radius and height must be positive")
    if n1 < 2 or n3 < 2:
        raise ValueError("n1 and n3 must be at least 2")

    def idx(i, j):
        return i * (n3 + 1) + j

    rr = radius * np.arange(n1 + 1) / n1
    zz = height * np.arange(n3 + 1) / n3
    nodes = np.empty(((n1 + 1) * (n3 + 1), 2))
    for i in range(n1 + 1):
        nodes[idx(i, 0):idx(i, n3) + 1, 0] = rr[i]
        nodes[idx(i, 0):idx(i, n3) + 1, 1] = zz
    nodes[n1 * (n3 + 1):, 0] = radius  # exact wall radius
    nodes[: n3 + 1, 0] = 0.0           # exact axis

    tris = []
    for i in range(n1):
        for j in range(n3):
            a, b = idx(i, j), idx(i + 1, j)
            c, d = idx(i + 1, j + 1), idx(i, j + 1)
            tris.append((a, b, c))
            tris.append((a, c, d))

    edges = {
        BoundaryTag.BOTTOM: [(idx(i, 0), idx(i + 1, 0)) for i in range(n1)],
        BoundaryTag.WALL: [(idx(n1, j), idx(n1, j + 1)) for j in range(n3)],
        BoundaryTag.FREE_SURFACE: [(idx(i, n3), idx(i + 1, n3)) for i in range(n1)],
        BoundaryTag.AXIS: [(idx(0, j), idx(0, j + 1)) for j in range(n3)],
    }
    return AxiMesh(
        nodes=nodes,
        triangles=np.asarray(tris),
        boundary_edges={t: np.asarray(e) for t, e in edges.items()},
        contact_node=idx(n1, n3),
        radius=float(radius),
    )


def displace_mesh(mesh: AxiMesh, V: VectorFieldP1, dt: float) -> AxiMesh:
    """Move node positions by dt * V, keeping connectivity, tags and the shared topology."""
    if V.mesh is not mesh:
        raise DimensionMismatch("domain velocity lives on a different mesh")
    vals = V.values
    if np.any(vals[mesh.bottom_nodes] != 0.0):
        raise DimensionMismatch("domain velocity must vanish on the bottom boundary")
    new_nodes = mesh.nodes + dt * vals
    dev = np.abs(new_nodes[mesh.wall_nodes, 0] - mesh.radius)
    if np.any(dev > 1e-12 * mesh.radius):
        raise WallViolation(f"wall node displaced off the cylinder by {dev.max():.3e} m")
    return AxiMesh(
        nodes=new_nodes,
        triangles=mesh.triangles,
        boundary_edges=dict(mesh.boundary_edges),
        contact_node=mesh.contact_node,
        radius=mesh.radius,
        topology=mesh.topology,
    )


def contact_line_height(mesh: AxiMesh) -> float:
    """Height of the contact line, i.e. the z of the node on the wall/surface junction."""
    return float(mesh.nodes[mesh.contact_node, 1])


def surface_normals(mesh: AxiMesh) -> np.ndarray:
    """Outward unit normals per free-surface edge (same order as the edge list).

    The free surface must be a graph over r; every normal satisfies nu_3 > 0,
    otherwise :class:`SurfaceFolded` is raised.
    """
    edges = mesh.boundary_edges[BoundaryTag.FREE_SURFACE]
    p1 = mesh.nodes[edges[:, 0]]
    p2 = mesh.nodes[edges[:, 1]]
    t = p2 - p1
    length = np.sqrt((t ** 2).sum(axis=1))
    if np.any(length == 0.0):
        raise SurfaceFolded("degenerate free-surface edge")
    normals = np.column_stack((-t[:, 1], t[:, 0])) / length[:, None]
    if np.any(normals[:, 1] <= 0.0):
        raise SurfaceFolded("free surface stopped being a graph over r (nu_3 <= 0)")
    return normals


def surface_slopes(mesh: AxiMesh) -> np.ndarray:
    """Nodal slopes dz/dr along the free surface, ordered like surface_nodes.

    Interior surface nodes average the two adjacent edge slopes; the end
    nodes take the one-sided value.
    """
    edges = mesh.boundary_edges[BoundaryTag.FREE_SURFACE]
    p1 = mesh.nodes[edges[:, 0]]
    p2 = mesh.nodes[edges[:, 1]]
    dr = p2[:, 0] - p1[:, 0]
    if np.any(dr <= 0.0):
        raise SurfaceFolded("free-surface edges must advance in r")
    e_slope = (p2[:, 1] - p1[:, 1]) / dr
    n = len(e_slope)
    slopes = np.empty(n + 1)
    slopes[0] = e_slope[0]
    slopes[-1] = e_slope[-1]
    slopes[1:-1] = 0.5 * (e_slope[:-1] + e_slope[1:])
    return slopes


def mesh_quality(mesh: AxiMesh) -> tuple[float, float]:
    """(min signed area, max aspect ratio) over all triangles.

    Aspect ratio is circumradius / (2 * inradius); 1 for an equilateral
    triangle, growing without bound as a triangle degenerates.
    """
    p = mesh.nodes[mesh.triangles]
    a = np.sqrt(((p[:, 1] - p[:, 2]) ** 2).sum(axis=1))
    b = np.sqrt(((p[:, 2] - p[:, 0]) ** 2).sum(axis=1))
    c = np.sqrt(((p[:, 0] - p[:, 1]) ** 2).sum(axis=1))
    area = mesh.areas
    s = 0.5 * (a + b + c)
    aspect = a * b * c * s / (8.0 * area ** 2)
    return float(area.min()), float(aspect.max())
