"""Piecewise-linear axisymmetric finite-element kernels.

All volume integrals carry the axisymmetric measure r dr dz; the common 2*pi
factor is dropped on both sides of every equation, so the bottom-boundary
measure used by the controller is radius^2/2 and the contact-line measure is
the wall radius.  Volume terms use the 3-point mid-edge rule on triangles
(exact for quadratics), boundary terms 2-point Gauss on edges.

Velocity dof layout: radial components first (node k -> row k), then vertical
components (node k -> row N + k); pressure dofs follow in the monolithic
saddle system.

Every form is a compiled kernel of dense per-element (or per-edge) blocks
(:mod:`capflow.kernels`), summed straight into the reduced saddle matrix
through a :class:`FixedPattern` built once per mesh topology; the
mesh-velocity extension fills its stiffness the same way.  The tests check
each kernel against the numpy expressions it replaced and the fill against
dense element-by-element quadrature.  Each element tensor splits into a part
of the radii alone and a small part that changes with z (Kirby & Logg 2006,
ACM TOMS 32(3)); mesh motion is vertical, so the former, the
:class:`RadialTable`, is computed once per topology.

A slab runs as one compiled call on the topology's :class:`Workspace`
(:meth:`Workspace.step`), which binds every array of the topology, its
radial table and its two patterns once, and owns, once per topology, the
storage its phases use, which the compiled code sizes and lays out: the
motion, whose first part is the mesh velocity, the assembly, the factor and
the solve, with the old state, which the step copies in, and the new one,
which it copies out as the arrays of its records.  A slab is inspected in
what the step leaves there: its mesh velocity; a :class:`LinearSystem`,
copied out by :meth:`Workspace.system`, carries the topology's saddle
pattern, the fill's read-only CSC data, its right-hand side and the load of
a unit bottom stress; the band holds the LU of its matrix without pivoting,
within the envelope of the pattern's :class:`BandLayout` (George & Liu 1981,
ch. 4), which eliminated the loads forward as it went, and the solution
rows hold their back-substitution, each gated on its own residual in the
system's matrix.  The mesh-velocity system is filled, factored and solved
within the motion.  The symbolic phase is compiled too and runs once per
topology: the structure and slots of both patterns (``fixed_pattern``),
their band layouts (``band_layout``), and the vertex order behind the
narrow band, a reverse Cuthill-McKee search (``reverse_cuthill_mckee``) on
the vertex graph that ``fixed_pattern`` finds from the triangles.  The
package needs numpy alone, and SciPy is imported only to build a system's
matrix when its ``matrix`` is read (the tests).  The mass action of a
velocity (:func:`mass_action`) is computed once per field, where the
objective and gradient of step n and the assembly of step n+1 meet: the
solve phase writes it with the field.  No record holds the workspace's
storage or addresses, so a copied record takes none along.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import kernels
from .errors import DimensionMismatch, DomainEmptied, ResidualTooLarge, SingularMatrix
from .fields import ScalarFieldP1, VectorFieldP1, trusted
from .geometry import AxiMesh, BoundaryTag, MeshTopology, displace_mesh, radial_differences

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
    C-contiguous, as the topology's :class:`Workspace` binds them.  A is a
    triangle's signed area."""

    rq: np.ndarray          # (M, 3) r at the quadrature points
    inv_r: np.ndarray       # (M, 3) 1/r at the points, 0 within 1e-14 radius of the axis
    dr: np.ndarray          # (M, 3) r_{i+2} - r_{i+1}: dN_i/dz = dr_i / 2A
    rn: np.ndarray          # (M, 3) integral of r N_j over the element, per unit area
    hoop: np.ndarray        # (M, 9) integral of N_i N_j / r, per unit area
    zz: np.ndarray          # (M, 3, 3) integral of r dN_i/dz dN_j/dz, times A
    coupling_z: np.ndarray  # (M, 3, 3) -integral of r dN_i/dz N_j, the z rows of the coupling


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
    mesh = u.mesh
    f = np.zeros(2 * mesh.num_nodes)
    kernels.kernel().mass_action(len(mesh.areas), mesh.num_nodes, mesh.triangles, mesh.areas,
                                 radial_table(mesh.topology).rq, u.values, f)
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


# -- monolithic system ------------------------------------------------------

@dataclass(frozen=True)
class BandLayout:
    """Where each stored entry of a CSC matrix goes in band storage, and the
    envelope of the matrix's structure that its LU without pivoting fills.

    Entry (i, j) goes to row ku + i - j of column j of the (ldab, n)
    Fortran-ordered array the factor phase factors without pivoting, LAPACK's
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

    @property
    def ldab(self) -> int:
        """Rows of the band storage: without pivoting, U keeps the upper band."""
        return self.kl + self.ku + 1

    @classmethod
    def of(cls, indices: np.ndarray, indptr: np.ndarray) -> "BandLayout":
        """The layout of the square CSC structure (indices, indptr), from the
        compiled ``band_layout``.  Raises DimensionMismatch for what is no
        such structure, or when the band storage would pass 2**31 entries
        (16 GiB), beyond the int32 positions the compiled scatter reads."""
        n = len(indptr) - 1
        indices, indptr = _checked(indices, indptr)
        position, lower, upper = (np.empty(k, np.int32) for k in (len(indices), n, n))
        kl_ku = np.empty(2, np.intp)
        if kernels.kernel().band_layout(n, indptr, indices, position, lower, upper, kl_ku):
            ldab = kl_ku.sum() + 1
            raise DimensionMismatch(f"band storage of {ldab} x {n} = {ldab * n} entries "
                                    f"passes 2**31")
        for a in (position, lower, upper):
            a.setflags(write=False)
        return cls(kl=int(kl_ku[0]), ku=int(kl_ku[1]), position=position, lower=lower,
                   upper=upper)


def _checked(indices: np.ndarray, indptr: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """indices and indptr as C-contiguous int32 arrays, for the compiled
    kernels to read; DimensionMismatch unless they are a CSC structure of
    len(indptr) - 1 columns with every row among them."""
    n = len(indptr) - 1
    indices, indptr = (np.ascontiguousarray(a, dtype=np.int32) for a in (indices, indptr))
    if n < 0 or indptr[0] != 0 or indptr[-1] != len(indices) or np.any(np.diff(indptr) < 0) \
            or np.any((indices < 0) | (indices >= n)):
        raise DimensionMismatch(f"no CSC structure of {n} columns")
    return indices, indptr


@dataclass(frozen=True)
class FixedPattern:
    """CSC sparsity of a reduced square matrix summed from local blocks, and
    the position in its data of every local entry.

    Connectivity never changes, so a pattern is built once per mesh topology,
    by one compiled pass over the local entries (``fixed_pattern``, see
    :meth:`build`), and each fill is one compiled ``scatter_add``.  Local
    entries on an eliminated row or column go to the trash slot
    len(indices), past the stored entries.  The pattern depends on no
    values: entries that cancel to zero stay stored.  ``free``, ``slot``,
    ``indices`` and ``indptr`` are read-only, as the topology's
    :class:`Workspace` binds them.

    Reduced row and column k is the dof free[k]: the caller numbers the kept
    dofs, and the build keeps that order.  Both patterns of a step pass them
    vertex by vertex in the topology's :func:`vertex_order`, which keeps every
    stored entry in a narrow band about the diagonal that the factor phase
    factors as a banded matrix.  The band layout of the stored entries is
    found once, at build time.
    """

    free: np.ndarray      # int64 kept dof of each reduced row/column, in the caller's order
    size: int             # number of dofs before the reduction
    shapes: list          # (E, k) of each family of local blocks
    slot: np.ndarray      # int32 data position of each local entry, families in order
    indices: np.ndarray   # int32 row of each stored entry
    indptr: np.ndarray    # int32 column starts
    band: BandLayout      # band storage position of each stored entry

    @classmethod
    def build(cls, families: list[np.ndarray], free: np.ndarray, size: int) -> "FixedPattern":
        """families: (E, k) dof arrays; entry (i, j) of element e's k x k block
        adds to row dofs[e, i], column dofs[e, j] of the size x size matrix.
        The compiled ``fixed_pattern`` (:func:`_structure`) counts the kept
        entries of each column, sorts each column's distinct rows and writes
        indptr, indices and every local entry's slot, with no sort of the
        entries; the compiled ``band_layout`` then lays them out in the band
        (:meth:`BandLayout.of`).  Raises DimensionMismatch for a family that
        is not (E, k), a dof outside the matrix or a kept dof given twice."""
        free = np.array(free, dtype=np.int64)
        free.setflags(write=False)
        families = [np.ascontiguousarray(d, dtype=np.int64) for d in families]
        if any(d.ndim != 2 for d in families) or free.ndim != 1:
            raise DimensionMismatch("families must be (E, k) and free one-dimensional")
        slot, indices, indptr = _structure(families, free, size)
        return cls(free=free, size=size, shapes=[d.shape for d in families], slot=slot,
                   indices=indices, indptr=indptr, band=BandLayout.of(indices, indptr))


def _structure(families: list[np.ndarray], free: np.ndarray,
               size: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The slot of each local entry of the (E, k) int64 dof arrays families,
    families in order, and the CSC indices and indptr of the reduced matrix
    they sum into, its row and column k the dof free[k] of size: the
    compiled ``fixed_pattern``, whose first call sizes its work array; each
    read-only int32.  Raises DimensionMismatch for a dof outside the matrix,
    a kept dof given twice, or more entries than int32 slots number."""
    nf, nslot = len(free), sum(d.size * d.shape[1] for d in families)
    if max(size, nslot) >= 2 ** 31:
        raise DimensionMismatch(f"{nslot} local entries on {size} dofs pass int32 slots")
    shape = np.array([d.shape for d in families], dtype=np.int64).reshape(-1, 2)
    dofs = np.array([d.ctypes.data for d in families], dtype=np.uintp)   # their addresses
    slot, indptr = np.empty(nslot, np.int32), np.empty(nf + 1, np.int32)
    lib = kernels.kernel()
    args = (size, nf, free, len(families), shape, dofs, slot, indptr)
    work = np.empty(lib.fixed_pattern(*args, None), np.int32)
    nnz = lib.fixed_pattern(*args, work.ctypes.data)
    if nnz < 0:
        raise DimensionMismatch(f"a dof outside 0..{size - 1} or a kept dof twice")
    indices = work[:nnz].copy()         # the stored rows lead the work array
    for a in (slot, indices, indptr):   # every filled matrix shares indices and indptr
        a.setflags(write=False)
    return slot, indices, indptr


@dataclass(frozen=True)
class LinearSystem:
    """The saddle system of one slab's state solve, filled on its topology's
    saddle :class:`FixedPattern` (:meth:`Workspace.system`); frozen, and its
    data read-only."""

    pattern: FixedPattern      # the matrix's sparsity, band layout and dof order
    data: np.ndarray           # the pattern's fill, a value per stored entry, kept dofs only
    rhs: np.ndarray
    mesh: AxiMesh
    bottom_load: np.ndarray | None = None   # a saddle system's d rhs / d zeta, on the kept dofs

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
    n = topology.num_nodes
    _, indices, indptr = _structure([topology.triangles], np.arange(n), n)
    order = reverse_cuthill_mckee(indices, indptr)
    order.setflags(write=False)
    return order


def reverse_cuthill_mckee(indices: np.ndarray, indptr: np.ndarray) -> np.ndarray:
    """The reverse Cuthill-McKee order of the symmetric CSC structure
    (indices, indptr) (Cuthill & McKee 1969; George & Liu 1981, ch. 4), step
    for step scipy's ``reverse_cuthill_mckee(graph, symmetric_mode=True)``:
    a degree is a column's length with the diagonal counted twice; the
    seeds come in numpy's default, unstable argsort of the int32 degrees
    (a stable sort breaks ties otherwise); the compiled
    ``reverse_cuthill_mckee`` searches breadth first from each unplaced
    seed, places a node's unplaced neighbours in index order, each batch
    sorted stably by degree, and reverses the order.  Raises
    DimensionMismatch for what is no CSC structure of n columns."""
    n = len(indptr) - 1
    indices, indptr = _checked(indices, indptr)
    degree = np.diff(indptr)
    column = np.repeat(np.arange(n), degree)
    degree[column[indices == column]] += 1
    order = np.empty(n, np.int64)
    kernels.kernel().reverse_cuthill_mckee(n, indptr, indices, degree, np.argsort(degree),
                                           np.zeros(n, np.uint8), order)
    return order


def in_vertex_order(topology: MeshTopology, components: int, fixed: np.ndarray) -> np.ndarray:
    """The dofs of a field with components dofs per vertex (c N + v is component
    c of vertex v) less the dofs fixed, vertex by vertex in :func:`vertex_order`
    with each vertex's kept dofs next to each other."""
    n = topology.num_nodes
    dofs = (vertex_order(topology)[:, None] + n * np.arange(components)).ravel()
    kept = np.ones(components * n, dtype=bool)
    kept[fixed] = False
    return dofs[kept[dofs]]


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


def _extension_pattern(topology: MeshTopology) -> FixedPattern:
    """The mesh-velocity stiffness's pattern, its nodes in the topology's
    vertex order; surface and bottom nodes carry Dirichlet data."""
    free = in_vertex_order(topology, 1, np.union1d(topology.surface_nodes, topology.bottom_nodes))
    return FixedPattern.build([topology.triangles], free, topology.num_nodes)


# -- the workspace -------------------------------------------------------------

def workspace(topology: MeshTopology) -> Workspace:
    """The workspace of topology, built on its first slab, once per topology."""
    return topology.memo(_workspace)


def _workspace(topology: MeshTopology) -> Workspace:
    edges = topology.boundary_edges
    sizes = (topology.num_nodes, len(topology.triangles), len(edges[BoundaryTag.WALL]),
             len(edges[BoundaryTag.FREE_SURFACE]), len(edges[BoundaryTag.BOTTOM]),
             topology.contact_node)
    arrays = dict(tri=topology.triangles, wall=edges[BoundaryTag.WALL],
                  surface=edges[BoundaryTag.FREE_SURFACE], bottom=edges[BoundaryTag.BOTTOM],
                  r=topology.radii)
    return Workspace(arrays, sizes, radial_table(topology), topology.memo(_saddle_pattern),
                     topology.memo(_extension_pattern))


def _bind(pattern: FixedPattern, into: kernels.Pattern) -> None:
    """Fill into with the sizes and arrays of pattern and its band layout."""
    band = pattern.band
    into.n, into.nslot, into.nnz = len(pattern.free), len(pattern.slot), len(pattern.indices)
    into.kl, into.ku = band.kl, band.ku
    into.free = kernels.address(pattern.free, np.int64)
    for record, names in ((pattern, "slot indices indptr"), (band, "position lower upper")):
        for name in names.split():
            setattr(into, name, kernels.address(getattr(record, name), np.int32))


class Workspace:
    """The :class:`~capflow.kernels.Workspace` struct that a topology's slabs
    run on, and the storage it points to, allocated once, here.  The arrays
    of the topology (``arrays``, by the struct's names), its
    :class:`RadialTable` and its two patterns with their band layouts are
    bound once too, each through :func:`~capflow.kernels.address`.  The
    workspace holds the topology's arrays, not the topology, whose memo
    holds the workspace.

    The storage is one block, which the compiled ``slab_storage`` sizes and
    lays out: among it the mesh velocity, which the motion leaves for the
    assembly (:attr:`V`), the saddle system's data and loads, the solution
    rows and the reduced mass action of the new velocity, the old state a
    slab reads (:attr:`old`) and the new one it writes (:attr:`new`), and
    the region that each phase in turn uses for the arrays of its own size,
    the saddle band last.  :meth:`step` copies the old state in, advances a
    slab in one compiled call on that storage and copies the new state out
    as its records' arrays, so nothing a caller holds is the workspace's and
    nothing carries from one call to the next.  Until the next step on the
    workspace, the storage holds the slab it solved: its mesh velocity in
    :attr:`V`, the saddle system's data and loads (:meth:`system` copies
    them out), the LU of its matrix in :attr:`band` and the solutions of its
    loads in :attr:`x`.  A failing phase's status and details raise the
    typed error, with the message, of the check it replaced (:meth:`error`).
    The storage is shared, so a topology's slabs run one at a time, in one
    thread.  The struct holds raw addresses, so a workspace cannot be
    deep-copied or pickled; a copied topology builds its own on its first
    slab.
    """

    def __init__(self, arrays: dict, sizes: tuple, table: RadialTable, saddle: FixedPattern,
                 extension: FixedPattern):
        self.saddle = saddle
        self.n, self.m = n, m = sizes[:2]
        s = self.struct = kernels.Workspace(*sizes)
        for name, a in arrays.items():
            setattr(s, name, kernels.address(a, np.float64 if name == "r" else np.int64))
        for name, a in vars(table).items():
            setattr(s, name, kernels.address(a))
        _bind(saddle, s.saddle)
        _bind(extension, s.extension)
        lib = kernels.kernel()
        self.storage = np.empty(lib.storage(s, None))
        base = self.storage.ctypes.data
        lib.storage(s, base)

        def view(at, shape, order="C"):
            return np.ndarray(shape, buffer=self.storage, offset=at - base, order=order)

        nf = len(saddle.free)
        self.V, self.data = view(s.V, (n, 2)), view(s.data, len(saddle.indices))
        self.loads = view(s.b[0], (2, nf))          # b[1] follows b[0]
        self.x, self.reduced = view(s.x, (2, nf)), view(s.reduced, nf)
        self.w = self.x[1]
        self.band = view(s.lu, (saddle.band.ldab, nf), "F")
        # the old state: z (n), areas (m), u (n, 2) and its mass action (2 n);
        # the new one: the same and p (n)
        self.old, self.new = view(s.z_old, 5 * n + m), view(s.z, 6 * n + m)

    def error(self, status: int, what: tuple[str, ...], mesh: AxiMesh | None) -> Exception:
        """The typed error of a phase's status, row t of a solve named
        what[t]; for a mesh moved badly, what displacing mesh by the mesh
        velocity raises."""
        s = self.struct
        if status == kernels.ZERO_PIVOT:
            return SingularMatrix(f"zero pivot in column {s.column} of the banded LU")
        if status == kernels.NOT_FINITE:
            return SingularMatrix(f"{what[s.row]} solve produced non-finite values")
        if status == kernels.OVER_GATE:
            return ResidualTooLarge(f"{what[s.row]} solve: relative residual {s.rel[s.row]:.3e}")
        if status == kernels.EMPTIED:
            # checked before displacing: an emptying column is reported as
            # DomainEmptied, not as the mesh tangle it would soon cause
            return DomainEmptied(f"contact line headed to {s.z_next:.3e} m "
                                 f"(guard {s.floor:.3e} m)")
        if status == kernels.MOVED_BADLY:
            # the checked displacement of the same velocity raises its error and message
            displace_mesh(mesh, VectorFieldP1(self.V, mesh), s.dt)
        raise AssertionError(f"compiled phase status {status}")

    def step(self, mesh: AxiMesh, u: VectorFieldP1, zeta: float, phys, num, floor: float,
             gradient: bool) -> tuple[AxiMesh, VectorFieldP1, ScalarFieldP1]:
        """The slab from mesh and velocity u with the bottom control stress
        zeta, one compiled call between copying the old state into
        :attr:`old` and the new one out of :attr:`new`: the new mesh,
        velocity (with its mass action) and pressure, each a slice of that
        one read-only copy.  Nothing is cached from call to call, so one
        state may be stepped any number of times.  The struct then holds the
        residuals, the phases' times and, with gradient, the bottom-load
        solve's solution in :attr:`w` and the reduced mass action of the new
        velocity in :attr:`reduced`.  Raises the typed error of a failing
        phase (:meth:`error`)."""
        if u.mesh is not mesh:
            raise DimensionMismatch("velocity field lives on a different mesh")
        s, n, m = self.struct, self.n, self.m
        # the mass action of a velocity the solve wrote is its memo's
        np.concatenate((mesh.z, mesh.areas, u.values.reshape(-1), mass_action(u)), out=self.old)
        s.floor, s.k = floor, 1 + gradient
        s.dt, s.nu, s.Cs, s.chi, s.N3 = num.dt, phys.nu, num.Cs, phys.chi, num.N3
        s.gamma, s.g, s.stress = phys.gamma, phys.g, phys.p_bar + zeta
        s.contact_force = phys.gamma * np.cos(phys.theta_s) * mesh.topology.radii[s.contact]
        status = kernels.kernel().step(s)
        if status:
            raise self.error(status, ("mesh-velocity",) if kernels.PHASES[s.failed] == "motion"
                             else ("state", "bottom-load"), mesh)
        new = self.new.copy()
        new.setflags(write=False)
        mesh_new = trusted(AxiMesh, z=new[:n], topology=mesh.topology, areas=new[n:n + m])
        u_new = trusted(VectorFieldP1, values=new[n + m:3 * n + m].reshape(n, 2), mesh=mesh_new,
                        _memo={_mass_action: new[3 * n + m:5 * n + m]})
        return mesh_new, u_new, trusted(ScalarFieldP1, values=new[5 * n + m:], mesh=mesh_new)

    def system(self, mesh: AxiMesh) -> LinearSystem:
        """The saddle system that the last step factored, on mesh, its new
        mesh: read-only copies of its data, its rhs and its bottom load, which
        keep their bits while later steps run here."""
        data, loads = self.data.copy(), self.loads.copy()
        data.setflags(write=False)
        loads.setflags(write=False)
        return LinearSystem(pattern=self.saddle, data=data, rhs=loads[0], mesh=mesh,
                            bottom_load=loads[1])


# -- helpers ----------------------------------------------------------------

def _flatten(values: np.ndarray) -> np.ndarray:
    return np.concatenate((values[:, 0], values[:, 1]))
