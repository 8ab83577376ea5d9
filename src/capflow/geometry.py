"""Axisymmetric half-section mesh: construction, vertical displacement, queries.

The computational domain is half a vertical section of a cylinder, meshed
with a structured triangulation.  The boundary splits into four tagged arcs:
the free surface on top, the wall on the right, the open bottom, and the
symmetry axis on the left.  Mesh motion is vertical only, so radial node
positions (and with them the wall and axis) are invariant for all time.

A mesh is the node heights over a :class:`MeshTopology`, which holds what a
run never changes: the connectivity, the tags and the node radii.  Meshes
are immutable; :func:`displace_mesh` returns a new mesh over the same
topology, so what depends on the topology alone is computed once per run
through :meth:`MeshTopology.memo`.  The topology checks its free-surface arc
once; as the radii never change, it stays a graph over r, and a mesh checks
only that its triangles keep positive areas.  The arrays of both are
read-only, the topology's node sets too, and hold no kernel pointer: the
topology's workspace binds the topology's once and copies a mesh's heights
and areas in per step.  A copy or an unpickled mesh or topology is rebuilt
from its fields through its constructor, and computes its memo anew.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from functools import cached_property

import numpy as np

from .errors import DimensionMismatch, MeshTangled, SurfaceFolded, WallViolation
from .fields import VectorFieldP1, _Memo


class BoundaryTag(Enum):
    FREE_SURFACE = "free_surface"
    WALL = "wall"
    BOTTOM = "bottom"
    AXIS = "axis"


@dataclass(frozen=True, eq=False)
class MeshTopology(_Memo):
    """Connectivity, tagged boundary arcs and node radii, shared by a mesh and
    every mesh displaced from it.

    triangles      (M, 3) vertex index triples, positively oriented
    boundary_edges tag -> (E, 2) node-pair array; the free-surface edges run
                   as (left, right) pairs from an axis node to the contact
                   node, each starting where the previous one ends, with r
                   strictly increasing
    contact_node   index of the single node shared by free surface and wall
    radii          (N,) node radii r [m]: mesh motion is vertical only, so
                   they are fixed for a run; N is num_nodes
    radius         cylinder radius [m]

    The arrays are kept as read-only C-contiguous copies (int64 indices,
    float radii), which the topology's workspace binds once for the compiled
    kernels; the caller's stay as they were.  All is checked once, here: the
    shapes, tags and vertex indices, and finite radii, none negative, the
    axis nodes on r = 0 and the wall nodes on a cylinder of finite positive
    radius; a free-surface arc that breaks its order raises
    :class:`SurfaceFolded`.  Whatever derives from the topology alone
    (boundary node sets, the radial kernel table, the vertex order and
    sparsity patterns through :meth:`memo`) is computed once per topology,
    not once per mesh.
    """

    triangles: np.ndarray
    boundary_edges: dict
    contact_node: int
    radii: np.ndarray
    radius: float

    def __post_init__(self):
        if not all(tag in self.boundary_edges for tag in BoundaryTag):
            raise DimensionMismatch("every boundary tag must have its edges")
        tris = np.array(self.triangles, dtype=np.int64, order="C")
        edges = {tag: np.array(self.boundary_edges[tag], dtype=np.int64, order="C")
                 for tag in BoundaryTag}
        r = np.array(self.radii, dtype=float)
        for a in (tris, *edges.values(), r):
            a.setflags(write=False)
        object.__setattr__(self, "triangles", tris)
        object.__setattr__(self, "boundary_edges", edges)
        object.__setattr__(self, "radii", r)
        object.__setattr__(self, "radius", float(self.radius))
        if tris.shape[1:] != (3,) or any(e.shape[1:] != (2,) for e in edges.values()):
            raise DimensionMismatch("triangles must be (M, 3) and boundary edges (E, 2)")
        indices = (tris, *edges.values())
        if r.ndim != 1 or any(a.min(initial=0) < 0 or a.max(initial=-1) >= len(r)
                              for a in indices):
            raise DimensionMismatch(f"radii of shape {r.shape} must give one r per vertex "
                                    "index, and no vertex index may be negative")
        gamma = self.boundary_edges[BoundaryTag.FREE_SURFACE]
        wall = self.boundary_edges[BoundaryTag.WALL]
        shared = np.intersect1d(gamma.ravel(), wall.ravel())
        if shared.size != 1 or shared[0] != self.contact_node:
            raise DimensionMismatch("free surface and wall must share exactly the contact node")
        if not (0 < self.radius < np.inf and np.all((r >= -1e-15 * self.radius) & (r < np.inf))):
            raise DimensionMismatch("negative radial coordinate, or r or the radius not finite")
        if np.any(np.abs(r[self.axis_nodes]) > 1e-15 * self.radius):
            raise DimensionMismatch("axis node off r = 0")
        dev = np.abs(r[self.wall_nodes] - self.radius)
        if np.any(dev > 1e-12 * self.radius):
            raise WallViolation(f"wall node off the cylinder by {dev.max():.3e} m")
        left, right = gamma.T
        bad = np.concatenate(([left[0] not in self.axis_nodes], left[1:] != right[:-1]))
        bad |= r[left] >= r[right]
        bad[-1] |= right[-1] != self.contact_node
        if bad.any():
            k = int(np.argmax(bad))
            raise SurfaceFolded(f"free-surface edge {k} ({left[k]}, {right[k]}) breaks the arc "
                                "from the axis to the contact node with r increasing")

    @property
    def num_nodes(self) -> int:
        return len(self.radii)

    def _boundary_nodes(self, tag: BoundaryTag) -> np.ndarray:
        return _frozen(np.unique(self.boundary_edges[tag]))

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
        """Free-surface node indices along the arc, from the axis to the
        contact node, r increasing."""
        edges = self.boundary_edges[BoundaryTag.FREE_SURFACE]
        return _frozen(np.append(edges[0, 0], edges[:, 1]))

    @cached_property
    def radial_constrained_nodes(self) -> np.ndarray:
        """Nodes whose radial velocity component is an essential zero."""
        return _frozen(np.union1d(self.wall_nodes, self.axis_nodes))


def _frozen(nodes: np.ndarray) -> np.ndarray:
    """nodes, made read-only: a node set is kept for the topology's lifetime."""
    nodes.setflags(write=False)
    return nodes


def _on_topology(name: str) -> property:
    return property(lambda mesh: getattr(mesh.topology, name),
                    doc=f"The shared topology's ``{name}``.")


@dataclass(frozen=True)
class AxiMesh(_Memo):
    """Node heights over a :class:`MeshTopology`.

    z              (N,) finite node heights [m], N = topology.num_nodes; kept
                   as a read-only copy
    topology       connectivity, tags and radii, also read through the mesh's
                   properties
    """

    z: np.ndarray
    topology: MeshTopology = field(repr=False)

    def __post_init__(self):
        z = np.array(self.z, dtype=float)   # the caller's array stays writeable
        if z.shape != (self.topology.num_nodes,):
            raise DimensionMismatch(f"mesh heights have shape {z.shape}, the topology "
                                    f"has {self.topology.num_nodes} nodes")
        if not np.all(np.isfinite(z)):
            raise DimensionMismatch("non-finite mesh height")
        z.setflags(write=False)
        object.__setattr__(self, "z", z)
        tangled = self.areas <= 0.0
        if tangled.any():
            k = int(np.argmax(tangled))
            at = ", ".join(f"({self.topology.radii[v]:.6e}, {z[v]:.6e})"
                           for v in self.triangles[k])
            raise MeshTangled(f"{np.count_nonzero(tangled)} triangle(s) with non-positive area, "
                              f"the first triangle {k} of area {self.areas[k]:.3e} m^2 at "
                              f"(r, z) = {at} m")

    # -- derived data ------------------------------------------------------

    @cached_property
    def nodes(self) -> np.ndarray:
        """(N, 2) (r, z) node coordinates [m]; read-only."""
        nodes = np.column_stack((self.topology.radii, self.z))
        nodes.setflags(write=False)
        return nodes

    @cached_property
    def areas(self) -> np.ndarray:
        """Signed triangle areas: half the sum of z_i dr_i over the vertices,
        with dr the :func:`radial_differences`, taken relative to z_0."""
        z = self.z[self.triangles]
        dr = radial_differences(self.topology)
        areas = 0.5 * ((z[:, 1] - z[:, 0]) * dr[:, 1] + (z[:, 2] - z[:, 0]) * dr[:, 2])
        areas.setflags(write=False)
        return areas

    num_nodes = _on_topology("num_nodes")
    radius = _on_topology("radius")
    triangles = _on_topology("triangles")
    boundary_edges = _on_topology("boundary_edges")
    contact_node = _on_topology("contact_node")
    wall_nodes = _on_topology("wall_nodes")
    axis_nodes = _on_topology("axis_nodes")
    bottom_nodes = _on_topology("bottom_nodes")
    surface_nodes = _on_topology("surface_nodes")
    radial_constrained_nodes = _on_topology("radial_constrained_nodes")


def radial_differences(topology: MeshTopology) -> np.ndarray:
    """(M, 3) r_{i+2} - r_{i+1} for each vertex i of each triangle, indices mod 3:
    with A the signed area, dN_i/dz = dr_i / 2A and 2A = sum_i z_i dr_i.  Kept
    once per topology; read-only."""
    return topology.memo(_radial_differences)


def _radial_differences(topology: MeshTopology) -> np.ndarray:
    r = topology.radii[topology.triangles]
    # np.take keeps dr, and the tables made from it, C-contiguous for the compiled kernels
    dr = np.take(r, [2, 0, 1], axis=1) - np.take(r, [1, 2, 0], axis=1)
    dr.setflags(write=False)
    return dr


def build_structured_mesh(radius: float, height: float, n1: int, n3: int) -> AxiMesh:
    """Structured (n1+1) x (n3+1) grid over [0, radius] x [0, height].

    Every cell splits along the same lower-left to upper-right diagonal, so
    element bookkeeping (and the vertical mesh size at the wall) stays
    deterministic.  The contact node sits at (radius, height).
    """
    if not (0 < radius < math.inf and 0 < height < math.inf):     # NaN fails too
        raise ValueError("radius and height must be positive and finite")
    if n1 < 2 or n3 < 2:
        raise ValueError("n1 and n3 must be at least 2")

    ids = np.arange((n1 + 1) * (n3 + 1)).reshape(n1 + 1, n3 + 1)   # node at (rr[i], zz[j])
    rr = radius * np.arange(n1 + 1) / n1
    rr[-1] = radius                    # exact wall radius; rr[0] = 0 is the exact axis
    zz = height * np.arange(n3 + 1) / n3

    # cell (i, j), i-major, splits into (a, b, c) and (a, c, d)
    a, b, c, d = ids[:-1, :-1], ids[1:, :-1], ids[1:, 1:], ids[:-1, 1:]
    tris = np.stack((a, b, c, a, c, d), axis=-1).reshape(-1, 3)

    def arc(nodes):
        return np.column_stack((nodes[:-1], nodes[1:]))

    edges = {BoundaryTag.BOTTOM: arc(ids[:, 0]), BoundaryTag.WALL: arc(ids[-1]),
             BoundaryTag.FREE_SURFACE: arc(ids[:, -1]), BoundaryTag.AXIS: arc(ids[0])}
    topology = MeshTopology(triangles=tris, boundary_edges=edges, contact_node=int(ids[-1, -1]),
                            radii=np.repeat(rr, n3 + 1), radius=radius)
    return AxiMesh(z=np.tile(zz, n1 + 1), topology=topology)


def displace_mesh(mesh: AxiMesh, V: VectorFieldP1, dt: float) -> AxiMesh:
    """Move the node heights by dt * V_z over the same topology.

    Mesh motion is vertical only: a radial component anywhere, or a nonzero
    velocity on the bottom, raises DimensionMismatch, so radii never change.
    A tangled result raises MeshTangled, its message ending with dt.
    """
    if V.mesh is not mesh:
        raise DimensionMismatch("domain velocity lives on a different mesh")
    vals = V.values
    if np.any(vals[:, 0] != 0.0):
        raise DimensionMismatch("domain velocity must be vertical: radial component nonzero")
    if np.any(vals[mesh.bottom_nodes, 1] != 0.0):
        raise DimensionMismatch("domain velocity must vanish on the bottom boundary")
    try:
        return AxiMesh(z=mesh.z + dt * vals[:, 1], topology=mesh.topology)
    except MeshTangled as exc:
        raise MeshTangled(f"{exc}, after a step of dt = {dt:.6e} s") from None


def contact_line_height(mesh: AxiMesh) -> float:
    """Height of the contact line, i.e. the z of the node on the wall/surface junction."""
    return float(mesh.z[mesh.contact_node])


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
