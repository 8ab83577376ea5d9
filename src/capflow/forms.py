"""Piecewise-linear axisymmetric finite-element kernels.

All volume integrals carry the axisymmetric measure r dr dz; the common 2*pi
factor is dropped on both sides of every equation, so the bottom-boundary
measure used by the controller is radius^2/2 and the contact-line measure is
the wall radius.  Volume terms use the 3-point mid-edge rule on triangles
(exact for quadratics), boundary terms 2-point Gauss on edges.

Velocity dof layout: radial components first (node k -> row k), then vertical
components (node k -> row N + k); pressure dofs follow in the monolithic
saddle system.

Every form is a kernel of dense per-element (or per-edge) blocks, and there
is one assembly path: :func:`assemble_state_system` sums the blocks of all
forms straight into the reduced saddle matrix through a :class:`FixedPattern`
built once per mesh topology, and the mesh-velocity extension fills its
stiffness the same way.  The tests check that fill against dense
element-by-element quadrature written apart from these kernels.  A
:class:`LinearSystem` carries its pattern, which maps every load onto the
kept dofs (:meth:`FixedPattern.reduce`), and the fill's read-only CSC data
on the pattern's structure; only :func:`factorize` knows
the band storage, and the :class:`BandLU` it returns, an LU without pivoting
from the compiled kernels of :mod:`capflow.kernels`, carries the system it
factors: every solve is one :meth:`BandLU.solve` of all its loads, one
compiled call that gates each on its own residual in that system's matrix,
formed from the data and the pattern's ``indices`` and ``indptr``.  The
package needs numpy alone: the vertex order is a reverse Cuthill-McKee
search in plain Python, once per topology, and SciPy is imported only to
build a system's matrix when its ``matrix`` is read (the tests).  The LU
is restricted to the envelope of the pattern's structure, found once with
its :class:`BandLayout`: without pivoting it makes no fill outside it
(George & Liu 1981, ch. 4).

Every per-element and per-edge loop of the step is compiled
(:mod:`capflow.kernels`): per-element numpy products cost more in call
overhead than in arithmetic at these sizes.  The element data, each
triangle's 9x9 block and the wall and free-surface blocks are written
straight into the pattern's values, and so is the fill; the old velocity's
mass action over dt and the loads are summed straight onto the kept dofs;
the mass action of a velocity and the bottom load are compiled too.  What
the kernels read of a record is bound once, when the record is made
(:class:`~capflow.kernels.Pointers`): every record here keeps its arrays
read-only and C-contiguous.  The numpy expressions these loops replaced are
the tests' reference (``tests/pattern_forms.py``).

Each element tensor splits into a part that depends on the radii alone and
a small geometric part that changes with z (Kirby & Logg 2006, ACM TOMS
32(3)).  Mesh motion is vertical, so the radii live on the mesh topology and
the first part, the :class:`RadialTable`, is computed once per topology and
shared by every mesh of a run: r and 1/r at the points, the r-differences
that give dN/dz, the z rows of the coupling block, the hoop block per unit
area and the dN/dz products times the area.  What changes with z (the area, dN/dr,
the r-weighted quadrature weights) is computed once per mesh in
:class:`ElementData`, and the mass action (:func:`mass_action`) once per
velocity field, where the objective (:func:`kinetic_energy`) and gradient of
step n and the assembly of step n+1 meet; it is read-only.  The r-weighted stiffness
is not kept per mesh: the saddle blocks of step n and the mesh-velocity
extension of step n+1 each compute it, since holding it from one to the
other raised the 32x64 peak resident memory by about 4 MiB.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import kernels
from .errors import DimensionMismatch, ResidualTooLarge, SingularMatrix
from .fields import ScalarFieldP1, VectorFieldP1
from .geometry import AxiMesh, BoundaryTag, MeshTopology, contact_line_height, radial_differences
from .kernels import Pointers, factor_band, solve_band, triangle_blocks

# mid-edge quadrature: rows = points, cols = vertex basis values
_QBASIS = np.array([
    [0.5, 0.5, 0.0],
    [0.0, 0.5, 0.5],
    [0.5, 0.0, 0.5],
])
# basis products at each point: _QQ[q, 3 i + j] = _QBASIS[q, i] * _QBASIS[q, j]
_QQ = (_QBASIS[:, :, None] * _QBASIS[:, None, :]).reshape(3, 9)
# (i, j) of entry 3 i + j of a flattened 3 x 3 block
_ROW, _COL = np.divmod(np.arange(9), 3)
# x @ _ONES sums the rows of an (M, 3) array, faster than a short-axis sum
_ONES = np.ones(3)


@dataclass(frozen=True)
class RadialTable:
    """The parts of the volume kernels that depend on the node radii alone,
    computed once per topology (see :func:`radial_table`); read-only and
    C-contiguous, each bound once for the kernels (``ptr``).  A is a
    triangle's signed area."""

    rq: np.ndarray          # (M, 3) r at the quadrature points
    inv_r: np.ndarray       # (M, 3) 1/r at the points, 0 within 1e-14 radius of the axis
    dr: np.ndarray          # (M, 3) r_{i+2} - r_{i+1}: dN_i/dz = dr_i / 2A
    rn: np.ndarray          # (M, 3) integral of r N_j over the element, per unit area
    hoop: np.ndarray        # (M, 9) integral of N_i N_j / r, per unit area
    zz: np.ndarray          # (M, 3, 3) integral of r dN_i/dz dN_j/dz, times A
    coupling_z: np.ndarray  # (M, 3, 3) -integral of r dN_i/dz N_j, the z rows of the coupling

    def __post_init__(self):
        object.__setattr__(self, "ptr", Pointers(**vars(self)))


def radial_table(topology: MeshTopology) -> RadialTable:
    """The radial table of topology, shared by every mesh a run reaches."""
    return topology.memo(_radial_table)


def _radial_table(topology: MeshTopology) -> RadialTable:
    rq = topology.radii[topology.triangles] @ _QBASIS.T
    on_axis = rq <= 1e-14 * topology.radius
    inv_r = np.where(on_axis, 0.0, 1.0 / np.where(on_axis, 1.0, rq))
    dr = radial_differences(topology)
    rn = (rq @ _QBASIS) / 3.0
    r_mean = (rq @ _ONES) / 3.0
    parts = dict(rq=rq, inv_r=inv_r, dr=dr, rn=rn, hoop=(inv_r @ _QQ) / 3.0,
                 zz=_outer(dr, dr) * (0.25 * r_mean)[:, None, None],
                 coupling_z=-0.5 * _outer(dr, rn))
    for a in parts.values():
        a.setflags(write=False)
    return RadialTable(**parts)


@dataclass(frozen=True)
class ElementData:
    """Per-triangle geometry reused by every volume form: what changes with z,
    read-only, C-contiguous and bound once for the kernels (``ptr``), and the
    mesh's :class:`RadialTable`."""

    tri: np.ndarray         # (M, 3) vertex indices
    area: np.ndarray        # (M,)
    grad_r: np.ndarray      # (M, 3) constant dN_i/dr
    grad_z: np.ndarray      # (M, 3) constant dN_i/dz
    wr: np.ndarray          # (M, 3) r-weighted quadrature weight: area/3 times r at each point
    r_int: np.ndarray       # (M,) integral of r over the element
    radial: RadialTable

    def __post_init__(self):
        object.__setattr__(self, "ptr", Pointers(
            tri=(self.tri, np.int64), area=self.area, grad_r=self.grad_r, grad_z=self.grad_z,
            wr=self.wr, r_int=self.r_int))


def element_data(mesh: AxiMesh) -> ElementData:
    """Per-triangle geometry of mesh, computed once per mesh."""
    return mesh.memo(_element_data)


def _element_data(mesh: AxiMesh) -> ElementData:
    table = radial_table(mesh.topology)
    m = len(mesh.triangles)
    out = np.empty(10 * m)
    kernels.kernel().element_data(m, mesh.topology.ptr.triangles, mesh.ptr.z, mesh.ptr.areas,
                                  table.ptr.rq, table.ptr.dr, out)
    out.setflags(write=False)
    grad_r, grad_z, wr = out[:9 * m].reshape(3, m, 3)
    return ElementData(tri=mesh.triangles, area=mesh.areas, grad_r=grad_r, grad_z=grad_z, wr=wr,
                       r_int=out[9 * m:], radial=table)


def _outer(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """(M, 3, 3) outer products x[m, i] y[m, j] of the rows of two (M, 3) arrays,
    C-contiguous (np.take, unlike x[:, _ROW], keeps the rows' order)."""
    return (np.take(x, _ROW, axis=1) * np.take(y, _COL, axis=1)).reshape(-1, 3, 3)


# -- velocity dofs, mass action and loads -------------------------------------

def _vector_dofs(nodes: np.ndarray, n: int) -> np.ndarray:
    """Velocity dofs of per-element node lists, local order (r..., z...)."""
    return np.concatenate((nodes, nodes + n), axis=1)


def mass_action(u: VectorFieldP1) -> np.ndarray:
    """The consistent r-weighted mass matrix of u.mesh times u, flattened,
    summed element by element.

    Computed once per field: the objective and the control gradient of the
    slab that made u, and the assembly of the next slab, share it, so it is
    read-only."""
    return u.memo(_mass_action)


def _mass_action(u: VectorFieldP1) -> np.ndarray:
    ed = element_data(u.mesh)
    n = u.mesh.num_nodes
    f = np.zeros(2 * n)
    kernels.kernel().mass_action(len(ed.tri), n, ed.ptr.tri, ed.ptr.wr, u.ptr.values, f)
    f.setflags(write=False)
    return f


def kinetic_energy(u: VectorFieldP1) -> float:
    """Half u^T M u, M the consistent r-weighted mass matrix, from the
    memoised :func:`mass_action`."""
    return 0.5 * float(_flatten(u.values) @ mass_action(u))


def beta_h(chi: float, h3: float, nu: float) -> float:
    """Discrete wall friction nu/(chi * h3); h3 is the current vertical mesh size at the wall."""
    if chi <= 0 or h3 <= 0:
        raise ValueError("chi and h3 must be positive")
    return nu / (chi * h3)


def bottom_load_vector(mesh: AxiMesh) -> np.ndarray:
    """Load of a unit vertical stress on the open bottom: entries of integral phi_i r dr.

    It is d rhs / d zeta, the right-hand side of the solve that gives the
    control gradient (:func:`~capflow.stepping.step`), so that gradient is
    the exact derivative of the discrete objective.  Computed once per mesh and shared,
    so it is read-only.
    """
    return mesh.memo(_bottom_load_vector)


def _bottom_load_vector(mesh: AxiMesh) -> np.ndarray:
    n, topology = mesh.num_nodes, mesh.topology
    f = np.zeros(2 * n)
    kernels.kernel().bottom_load(n, len(topology.boundary_edges[BoundaryTag.BOTTOM]),
                                 topology.ptr.bottom, topology.ptr.radii, mesh.ptr.z, f)
    f.setflags(write=False)
    return f


def _loads(mesh, u, dt, zeta, phys, pattern) -> np.ndarray:
    """On the kept dofs of pattern, 0 on a pressure dof: the mass action of
    u, a field over mesh's topology, over dt, plus the loads on mesh: gravity,
    bottom stress (p_bar + zeta) e3, the Laplace-Beltrami weak form of surface
    tension (integrated by parts, so no curvature is evaluated) and the
    contact-line force gamma cos(theta_s) on the contact circle."""
    ed, topology, n = element_data(mesh), mesh.topology, mesh.num_nodes
    surface = topology.boundary_edges[BoundaryTag.FREE_SURFACE]
    contact = phys.gamma * np.cos(phys.theta_s) * topology.radii[mesh.contact_node]
    rhs = np.empty(len(pattern.free))
    kernels.kernel().state_rhs(n, len(ed.tri), ed.ptr.tri, ed.ptr.wr, len(surface),
                               topology.ptr.free_surface, topology.ptr.radii, mesh.ptr.z,
                               mass_action(u), bottom_load_vector(mesh), dt, phys.g,
                               phys.p_bar + zeta, phys.gamma, mesh.contact_node, contact,
                               len(pattern.free), pattern.ptr.free, np.zeros(4 * n), rhs)
    return rhs


# -- monolithic system ------------------------------------------------------

@dataclass(frozen=True)
class BandLayout:
    """Where each stored entry of a CSC matrix goes in band storage, and the
    envelope of the matrix's structure that its LU without pivoting fills.

    Entry (i, j) goes to row ku + i - j of column j of the (ldab, n)
    Fortran-ordered array :func:`factorize` factors without pivoting, LAPACK's
    column layout without fill rows; ``position`` is that flat index for
    every stored entry, in data order.

    Without pivoting, L keeps the row profile of the structure and U its
    column profile: no fill leaves the envelope (George & Liu 1981, ch. 4).
    So column j of L reaches lower[j] rows below the diagonal, to the last
    row whose first entry lies in a column up to j, and row j of U reaches
    upper[j] columns right of it, the same over the columns.  j + lower[j]
    and j + upper[j] never decrease; on a full band both are
    min(k, n - 1 - j).  The compiled factor and solve loop over the envelope
    alone.
    """

    kl: int                 # subdiagonals
    ku: int                 # superdiagonals
    position: np.ndarray    # int32 flat band index of each entry
    lower: np.ndarray       # int32 (n,) multipliers of column j of L
    upper: np.ndarray       # int32 (n,) entries of row j of U right of the diagonal

    def __post_init__(self):
        # the compiled kernels index the band storage by the reaches
        n = len(self.lower)
        j = np.arange(n)
        valid = all(
            reach.dtype == np.int32 and reach.shape == (n,)
            and np.all((reach >= 0) & (reach <= np.minimum(k, n - 1 - j)))
            and np.all(np.diff(j + reach) >= 0)
            for reach, k in ((self.lower, self.kl), (self.upper, self.ku)))
        if not valid:
            raise DimensionMismatch(f"no envelope of a band with kl = {self.kl}, "
                                    f"ku = {self.ku} on {n} columns")
        object.__setattr__(self, "ptr", Pointers(position=(self.position, np.int32),
                                                 lower=(self.lower, np.int32),
                                                 upper=(self.upper, np.int32)))

    @property
    def ldab(self) -> int:
        """Rows of the band storage: without pivoting, U keeps the upper band."""
        return self.kl + self.ku + 1

    @classmethod
    def of(cls, indices: np.ndarray, indptr: np.ndarray) -> "BandLayout":
        """The layout of the square CSC structure (indices, indptr).  Raises
        DimensionMismatch when the band storage would pass 2**31 entries (16
        GiB), beyond the int32 positions the compiled scatter reads."""
        n = len(indptr) - 1
        row = indices.astype(np.int32, copy=False)
        column = np.repeat(np.arange(n, dtype=np.int32), np.diff(indptr))
        offset = row - column
        kl, ku = int(offset.max(initial=0)), int(-offset.min(initial=0))
        ldab = kl + ku + 1
        if ldab * n >= 2 ** 31:
            raise DimensionMismatch(f"band storage of {ldab} x {n} = {ldab * n} entries "
                                    f"passes 2**31")
        position = offset
        position += ku
        position += column * np.int32(ldab)
        position.setflags(write=False)
        # the first column of each row and the first row of each column
        first_column, first_row = np.full(n, n, np.int32), np.full(n, n, np.int32)
        np.minimum.at(first_column, row, column)
        np.minimum.at(first_row, column, row)
        return cls(kl=kl, ku=ku, position=position,
                   lower=_reach(first_column), upper=_reach(first_row))


def _reach(first: np.ndarray) -> np.ndarray:
    """max(j, max{i : first[i] <= j}) - j for each j, read-only int32: the
    reach past the diagonal of an envelope whose line i starts at first[i]."""
    n = len(first)
    last = np.arange(n)
    starts = first < n
    np.maximum.at(last, first[starts], np.flatnonzero(starts))
    reach = (np.maximum.accumulate(last) - np.arange(n)).astype(np.int32)
    reach.setflags(write=False)
    return reach


@dataclass(frozen=True)
class FixedPattern:
    """CSC sparsity of a reduced square matrix summed from local blocks, and
    the position in its data of every local entry.

    Connectivity never changes, so a pattern is built once per mesh topology
    and each fill is one compiled ``scatter_add``.  Local entries on an
    eliminated row or column go to the trash slot len(indices), past the
    stored entries.  The pattern depends on no values: entries that cancel to
    zero stay stored.  ``free``, ``slot``, ``indices`` and ``indptr`` are
    read-only, bound once for the kernels (``ptr``).

    Reduced row and column k is the dof free[k]: the caller numbers the kept
    dofs, the build keeps that order, and :meth:`reduce` maps every load onto
    them.  Both patterns of a step pass them vertex by vertex in the
    topology's :func:`vertex_order`, which keeps every stored entry in a
    narrow band about the diagonal that :func:`factorize` factors as a banded
    matrix.  The band layout of the stored entries is found once, at build time.
    """

    free: np.ndarray      # int64 kept dof of each reduced row/column, in the caller's order
    size: int             # number of dofs before the reduction
    shapes: list          # (E, k) of each family of local blocks
    slot: np.ndarray      # int32 data position of each local entry, families in order
    indices: np.ndarray   # int32 row of each stored entry
    indptr: np.ndarray    # int32 column starts
    band: BandLayout      # band storage position of each stored entry

    def __post_init__(self):
        object.__setattr__(self, "ptr", Pointers(free=(self.free, np.int64),
                                                 slot=(self.slot, np.int32),
                                                 indices=(self.indices, np.int32),
                                                 indptr=(self.indptr, np.int32)))

    @classmethod
    def build(cls, families: list[np.ndarray], free: np.ndarray, size: int) -> "FixedPattern":
        """families: (E, k) dof arrays; entry (i, j) of element e's k x k block
        adds to row dofs[e, i], column dofs[e, j] of the size x size matrix."""
        free = np.array(free, dtype=np.int64)
        free.setflags(write=False)
        nf = len(free)
        base = nf + 1
        key_type = np.int32 if base ** 2 < 2 ** 31 else np.int64
        trash = key_type(nf * base)                 # sorts after every kept (column, row)
        reduced = np.full(size, nf, dtype=key_type)
        reduced[free] = np.arange(nf)
        keys = np.empty(sum(d.size * d.shape[1] for d in families), key_type)
        at = 0
        for dofs in families:
            r = reduced[dofs]
            block = keys[at:at + r.size * r.shape[1]].reshape(*r.shape, r.shape[1])
            np.add(r[:, None, :] * key_type(base), r[:, :, None], out=block)
            block[(r == nf)[:, :, None] | (r == nf)[:, None, :]] = trash
            at += block.size
        # sort-based unique: np.unique's temporaries cost more resident memory
        stored = np.sort(keys)                      # column-major order
        stored = stored[np.concatenate(([True], stored[1:] != stored[:-1]))]
        slot = np.searchsorted(stored, keys).astype(np.int32)
        del keys, block, reduced        # freed before the CSC arrays: peak memory
        if stored[-1] == trash:
            stored = stored[:-1]
        indices = (stored % base).astype(np.int32)
        indptr = np.searchsorted(stored // base, np.arange(base)).astype(np.int32)
        for a in (slot, indices, indptr):   # every filled matrix shares indices and indptr
            a.setflags(write=False)
        del stored
        return cls(free=free, size=size, shapes=[d.shape for d in families], slot=slot,
                   indices=indices, indptr=indptr, band=BandLayout.of(indices, indptr))

    def reduce(self, f: np.ndarray) -> np.ndarray:
        """A load f, float64, on the first len(f) dofs, zero on the rest (the
        pressure rows, for a velocity load), on the reduced dofs in their order."""
        out = np.empty(len(self.free))
        kernels.kernel().gather(len(self.free), self.ptr.free, len(f), f, out)
        return out

    def values(self) -> tuple[np.ndarray, np.ndarray, list[np.ndarray]]:
        """A zeroed data array and an uninitialised flat value array for
        :meth:`fill`, and the value array's (E, k, k) view per family, in build
        order.  The data array comes first, below the values and the kernel
        temporaries on the heap: allocated after them, it kept glibc from
        giving their pages back and raised the first step's peak memory."""
        data = np.zeros(len(self.indices) + 1)
        vals = np.empty(len(self.slot))
        views, at = [], 0
        for e, k in self.shapes:
            views.append(vals[at:at + e * k * k].reshape(e, k, k))
            at += e * k * k
        return data, vals, views

    def fill(self, data: np.ndarray, vals: np.ndarray) -> np.ndarray:
        """The reduced matrix's CSC data, one value per stored entry on
        (indices, indptr), read-only: the flat local values summed into data,
        both from :meth:`values`, in their order; the sums are those of a
        bincount, bit for bit."""
        kernels.expect("data", data, (len(self.indices) + 1,))
        kernels.expect("values", vals, self.slot.shape)
        kernels.kernel().scatter_add(len(self.slot), self.ptr.slot, vals, data)
        data.setflags(write=False)
        return data[:-1]


@dataclass(frozen=True)
class LinearSystem:
    """A reduced system filled on a :class:`FixedPattern`: the saddle system
    of one slab's state solve, or the mesh-velocity extension's; frozen, and
    its data read-only, so a :class:`BandLU` gates on the matrix it factored."""

    pattern: FixedPattern      # the matrix's sparsity, band layout, dof order and load reduction
    data: np.ndarray           # the pattern's fill, a value per stored entry, kept dofs only
    rhs: np.ndarray
    mesh: AxiMesh

    @property
    def matrix(self) -> "scipy.sparse.csc_matrix":
        """The CSC matrix of data on the pattern's structure, built when read,
        and SciPy imported with it: the run path reads data alone."""
        import scipy.sparse
        n = len(self.pattern.indptr) - 1
        return scipy.sparse.csc_matrix((self.data, self.pattern.indices, self.pattern.indptr),
                                       shape=(n, n))


def vertex_order(topology: MeshTopology) -> np.ndarray:
    """The reverse Cuthill-McKee order of topology's vertices
    (:func:`reverse_cuthill_mckee` of the vertex graph), found once per
    topology; read-only.  Both patterns number their kept dofs vertex by
    vertex in it, which keeps the band about as narrow as the vertex graph's
    times the dofs per vertex (the quotient graph; George & Liu 1981, ch. 4)."""
    return topology.memo(_vertex_order)


def _vertex_order(topology: MeshTopology) -> np.ndarray:
    tri, n = topology.triangles, topology.num_nodes
    edges = np.unique(tri[:, _COL].ravel() * n + tri[:, _ROW].ravel())  # column * n + row
    order = reverse_cuthill_mckee(edges % n, np.searchsorted(edges // n, np.arange(n + 1)))
    order.setflags(write=False)
    return order


def reverse_cuthill_mckee(indices: np.ndarray, indptr: np.ndarray) -> np.ndarray:
    """The reverse Cuthill-McKee order of the symmetric CSC structure
    (indices, indptr) (Cuthill & McKee 1969; George & Liu 1981, ch. 4), step
    for step scipy's ``reverse_cuthill_mckee(graph, symmetric_mode=True)``:
    a degree is a column's length with the diagonal counted twice; the
    seeds come in numpy's default, unstable argsort of the int32 degrees
    (a stable sort breaks ties otherwise); from each unplaced seed a
    breadth-first search places a node's unplaced neighbours in index
    order, each batch sorted stably by degree; the order is reversed."""
    n = len(indptr) - 1
    degree = np.diff(indptr).astype(np.int32)
    column = np.repeat(np.arange(n), degree)
    degree[column[indices == column]] += 1
    seeds = np.argsort(degree).tolist()
    key, indices, indptr = degree.tolist().__getitem__, indices.tolist(), indptr.tolist()
    placed, order = [False] * n, []
    for seed in seeds:
        if placed[seed]:
            continue
        placed[seed] = True
        order.append(seed)
        head = len(order) - 1
        while head < len(order):
            i = order[head]
            head += 1
            batch = []
            for j in indices[indptr[i]:indptr[i + 1]]:
                if not placed[j]:
                    placed[j] = True
                    batch.append(j)
            batch.sort(key=key)
            order += batch
    return np.array(order[::-1])


def in_vertex_order(topology: MeshTopology, components: int, fixed: np.ndarray) -> np.ndarray:
    """The dofs of a field with components dofs per vertex (c N + v is component
    c of vertex v) less the dofs fixed, vertex by vertex in :func:`vertex_order`
    with each vertex's kept dofs next to each other."""
    dofs = (vertex_order(topology)[:, None] + topology.num_nodes * np.arange(components)).ravel()
    return dofs[~np.isin(dofs, fixed)]


def _saddle_pattern(topology: MeshTopology) -> FixedPattern:
    """Triangles over (u_r, u_z, p) of their vertices, wall edges over u_z of
    their ends, then free-surface edges over (u_r, u_z) of their ends.  The
    radial dofs of the wall and axis nodes are eliminated, so the wall
    friction acts on u_z alone, and each vertex's kept dofs are numbered
    together, in vertex order."""
    n = topology.num_nodes
    tri = topology.triangles
    edges = topology.boundary_edges
    free = in_vertex_order(topology, 3, topology.radial_constrained_nodes)
    return FixedPattern.build([np.concatenate((tri, tri + n, tri + 2 * n), axis=1),
                               edges[BoundaryTag.WALL] + n,
                               _vector_dofs(edges[BoundaryTag.FREE_SURFACE], n)], free, 3 * n)


def _edge_blocks(mesh, w, V, beta, gamma, dt, wall, surface) -> None:
    """Write the wall friction, beta times the r-weighted edge mass on u_z of
    each wall edge's ends, into wall (E, 2, 2), and on (u_r, u_z) of each
    free-surface edge's ends the flux of w - V on both components plus dt
    times the surface stabilization of tension gamma into surface (E, 4, 4);
    w and V are fields over mesh's topology."""
    topology = mesh.topology
    kernels.expect("wall blocks", wall, (len(topology.boundary_edges[BoundaryTag.WALL]), 2, 2))
    kernels.expect("surface blocks", surface,
                   (len(topology.boundary_edges[BoundaryTag.FREE_SURFACE]), 4, 4))
    kernels.kernel().edge_blocks(len(wall), topology.ptr.wall, len(surface),
                                 topology.ptr.free_surface, topology.ptr.radii, mesh.ptr.z,
                                 w.ptr.values, V.ptr.values, beta, gamma, dt, wall, surface)


def assemble_state_system(mesh_new, mesh_old, u_old, V_old, zeta, phys, num) -> LinearSystem:
    """Monolithic [[K, B], [-B^T, Sp]] system with essential radial dofs eliminated.

    K = M/dt + A + C + S + dt S_Gamma on the new mesh: the mass, the viscous
    form with wall friction, the relative transport, its stabilization and
    the free-surface stabilization; B is the velocity-pressure coupling and
    Sp the pressure stabilization.  Their local blocks are summed into the
    saddle pattern of the mesh topology, which both meshes must share.  The
    right-hand side is the mass action of u_old on the old mesh over dt
    plus the loads on the new mesh (gravity, the bottom stress, surface
    tension and the contact-line force).
    """
    _check_fields(mesh_old, u_old, V_old)
    if mesh_new.topology is not mesh_old.topology:
        raise DimensionMismatch("old and new mesh must share one topology")
    dt = num.dt
    beta = beta_h(phys.chi, contact_line_height(mesh_new) / num.N3, phys.nu)
    topology = mesh_new.topology
    pattern = topology.memo(_saddle_pattern)
    data, vals, (tri, wall, surface) = pattern.values()
    # each triangle's block couples (u_r, u_z, p) of its three vertices
    triangle_blocks(element_data(mesh_new), u_old, V_old, dt, phys.nu, num.Cs, tri)
    _edge_blocks(mesh_new, u_old, V_old, beta, phys.gamma, dt, wall, surface)
    rhs = _loads(mesh_new, u_old, dt, zeta, phys, pattern)
    return LinearSystem(pattern=pattern, data=pattern.fill(data, vals), rhs=rhs, mesh=mesh_new)


@dataclass(frozen=True)
class BandLU:
    """LU without pivoting of system's matrix, from :func:`factorize`; the
    band's kl and ku are its pattern's."""

    system: LinearSystem
    lu: np.ndarray      # (kl + ku + 1, n) band storage, Fortran order: U on and above row ku, L below

    @property
    def growth(self) -> float:
        """max |U| / max |A|, the growth of the factorization; computed when read."""
        ku = self.system.pattern.band.ku
        return float(np.abs(self.lu[:ku + 1]).max() / np.abs(self.system.data).max())

    def solve(self, rhs: np.ndarray, what: tuple[str, ...]) -> tuple[np.ndarray, list[float]]:
        """x, (k, n), with A x_t = rhs_t for each row of rhs, C-contiguous
        float64 (k, n) with k = 1 or 2, A the system's matrix, and the rows'
        residuals ||A x_t - rhs_t|| / ||rhs_t||, from one call of
        :func:`~capflow.kernels.solve_band`, which checks the shapes.  Row by
        row, a non-finite x_t raises SingularMatrix and a residual above
        1e-10 ResidualTooLarge, each naming the row's solve by what[t]."""
        system = self.system
        if len(what) != len(rhs):
            raise DimensionMismatch(f"{len(rhs)} right-hand sides, {len(what)} names")
        x = rhs.copy()
        out, flags = solve_band(self.lu, system.pattern.band, system.pattern, system.data, rhs, x)
        rels = []
        for t, name in enumerate(what):
            if flags >> t & 1:
                raise SingularMatrix(f"{name} solve produced non-finite values")
            res, bnorm = math.sqrt(out[t, -2]), math.sqrt(out[t, -1])
            rel = res / bnorm if bnorm > 0 else res
            if rel > 1e-10:
                raise ResidualTooLarge(f"{name} solve: relative residual {rel:.3e}")
            rels.append(rel)
        return x, rels


def band_storage(system: LinearSystem) -> np.ndarray:
    """System's matrix scattered by the compiled ``scatter_add`` into zeroed
    (kl + ku + 1, n) Fortran-ordered band storage of its pattern's layout."""
    band = system.pattern.band
    n = len(band.lower)
    kernels.expect("matrix data", system.data, band.position.shape)
    ab = np.zeros(band.ldab * n)
    kernels.kernel().scatter_add(len(band.position), band.ptr.position, system.data, ab)
    return ab.reshape((band.ldab, n), order="F")


def factorize(system: LinearSystem) -> BandLU:
    """Banded LU without pivoting of system's matrix, the one factorization
    of the run path: the state and the bottom-load of the control gradient
    are one solve with the saddle matrix's, the mesh-velocity extension
    factors its stiffness.  The saddle matrix's symmetric part is positive
    semidefinite and the stiffness is positive definite, so neither needs
    pivoting (see :mod:`capflow.kernels`).

    The band layout is that of system's pattern, whose dofs come vertex by
    vertex in the topology's reverse Cuthill-McKee order
    (:func:`vertex_order`, numpy and Python alone), which keeps the band
    narrow.  The matrix is scattered through that layout into band
    storage (:func:`band_storage`), and the kernel factors it in place
    within the layout's envelope, outside which an LU without pivoting makes
    no fill (George & Liu 1981, ch. 4).  Raises SingularMatrix on an exactly
    zero pivot."""
    ab = band_storage(system)
    info = factor_band(ab, system.pattern.band)
    if info > 0:
        raise SingularMatrix(f"zero pivot in column {info} of the banded LU")
    return BandLU(system=system, lu=ab)


def solve(lu: BandLU, rhs: np.ndarray, bottom_load: np.ndarray | None = None
          ) -> tuple[VectorFieldP1, ScalarFieldP1, float, np.ndarray | None, float]:
    """Solve lu's saddle system for the state load rhs, and bottom_load under
    it if given, in one :meth:`BandLU.solve`: (velocity, pressure, residual,
    w = A^{-1} bottom_load, its residual), the last two None and 0.0 without."""
    loads = rhs[None] if bottom_load is None else np.array((rhs, bottom_load))
    x, rels = lu.solve(loads, ("state", "bottom-load")[:len(loads)])
    w, bottom_rel = (x[1], rels[1]) if len(x) == 2 else (None, 0.0)
    system = lu.system
    n = system.mesh.num_nodes
    full = np.zeros(3 * n)
    full[system.pattern.free] = x[0]
    u = VectorFieldP1(np.column_stack((full[:n], full[n:2 * n])), system.mesh)
    p = ScalarFieldP1(full[2 * n:], system.mesh)
    return u, p, rels[0], w, bottom_rel


# -- helpers ----------------------------------------------------------------

def _flatten(values: np.ndarray) -> np.ndarray:
    return np.concatenate((values[:, 0], values[:, 1]))


def _check_fields(mesh, *fields):
    for f in fields:
        if f.mesh is not mesh:
            raise DimensionMismatch("field defined on a different mesh")

