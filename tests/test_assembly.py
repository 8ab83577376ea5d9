"""The step's fixed-pattern assembly against the dense oracle of the whole system."""

from dataclasses import replace

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.sparse.csgraph import reverse_cuthill_mckee as scipy_rcm

from capflow.acceptance import run_tc1, tc1_config, tc2_config
from capflow.config import num_params, phys_params
from capflow.errors import DimensionMismatch
from capflow.fields import NumParams, zero_scalar_field, zero_vector_field
from capflow.forms import (BandLayout, FixedPattern, _extension_pattern, _saddle_pattern, beta_h,
                           mass_action, reverse_cuthill_mckee, vertex_order, workspace)
from capflow.geometry import AxiMesh, build_structured_mesh, contact_line_height, displace_mesh
from capflow.stepping import FlowState, initial_state, slab_system, step

from .compiled import (band_storage, edge_blocks, element_data, extension_rhs, factor_band, fill,
                       loads, r_stiffness, triangle_blocks, values)
from .conftest import factored_systems, mesh_velocity, random_vector_field
from .oracles import oracle_pattern, oracle_saddle
from .pattern_forms import (_gradient_products, bottom_load_reference, edge_blocks_reference,
                            element_data_reference, extension_rhs_reference, filled,
                            mass_action_reference, reduced, state_rhs_reference,
                            triangle_blocks_reference)
from .test_forms import PHYS, meshes

NUM = NumParams(dt=2e-3, Cs=0.4, N1=2, N3=2, alpha=0.0, lam=0.0, T=0.1)


def reference_system(mesh_new, mesh_old, u_old, V_old, zeta, phys, num, free):
    """Dense reduced matrix and rhs of the oracle, on the dofs free in that order."""
    matrix, rhs = oracle_saddle(mesh_new, mesh_old, u_old, V_old, zeta, phys, num)
    return matrix[np.ix_(free, free)], rhs[free]


def same_grid(mesh):
    """mesh with a topology of its own, built independently of mesh's."""
    return AxiMesh(z=mesh.z, topology=replace(mesh.topology))


def form_case(idx):
    mesh = meshes()[idx]
    u = random_vector_field(mesh, seed=50 + idx)
    V = random_vector_field(mesh, seed=60 + idx)
    return mesh, mesh, u, V, 0.3e-3, PHYS, NUM


def moved_case(idx):
    """The slab from form_case's mesh and velocity: the mesh moved by the
    mesh velocity V of the velocity, and the rest of form_case with that V."""
    _, mesh, u, _, zeta, phys, num = form_case(idx)
    V, _ = mesh_velocity(mesh, u)
    return displace_mesh(mesh, V, num.dt), mesh, u, V, zeta, phys, num


def tc1_slab(n1=16, n3=32):
    """The fourth slab of the tc1 refill on an n1 x n3 grid (16x32 is the
    reference), zeta = 1e-4."""
    return slab(tc1_config, n1, n3)


def slab(config, n1=16, n3=32):
    """The fourth slab of the run of config on an n1 x n3 grid, zeta = 1e-4:
    the new mesh, the old mesh and velocity, the mesh velocity V and the
    parameters, which the dense oracles and the kernels called one by one
    take, and from which :func:`saddle` steps."""
    cfg = replace(config(), N1=n1, N3=n3)
    phys, num = phys_params(cfg), num_params(cfg)
    state = initial_state(cfg.radius, cfg.init_height, num)
    for _ in range(3):
        state, *_ = step(state, 1e-4, phys, num)
    V, _ = mesh_velocity(state.mesh, state.u)
    return displace_mesh(state.mesh, V, num.dt), state.mesh, state.u, V, 1e-4, phys, num


def saddle(mesh_new, mesh_old, u, V, zeta, phys, num):
    """The saddle system that stepping.slab_system copies out for the slab
    from mesh_old and u at zeta; its new mesh is checked to have mesh_new's
    heights bit for bit, so a slab's prefix here (V, then the displacement)
    cannot drift from the step's."""
    state = FlowState(mesh=mesh_old, u=u, p=zero_scalar_field(mesh_old), t=0.0)
    system = slab_system(state, zeta, phys, num)
    assert system.mesh.z.tobytes() == mesh_new.z.tobytes()
    return system


def rel(matrix, dense):
    return np.abs(matrix.toarray() - dense).max() / np.abs(dense).max()


@pytest.mark.parametrize("case", [lambda: moved_case(0), lambda: moved_case(1),
                                  lambda: moved_case(2), tc1_slab],
                         ids=["two-triangle", "perturbed", "structured", "tc1-16x32-slab"])
def test_fixed_pattern_equals_coo_reference(case):
    """The step's reduced matrix and rhs equal the dense oracle's on its
    dofs, and its bottom load is the numpy reference's, bit for bit."""
    args = case()
    system = saddle(*args)
    matrix, rhs = reference_system(*args, system.pattern.free)
    # the reduced order is a permutation of the free dofs fixed by the connectivity alone
    kept = np.setdiff1d(np.arange(3 * args[0].num_nodes), args[0].radial_constrained_nodes)
    assert np.array_equal(np.sort(system.pattern.free), kept)
    twin = same_grid(args[0])
    assert twin.topology is not args[0].topology
    assert np.array_equal(twin.topology.memo(_saddle_pattern).free, system.pattern.free)
    assert system.matrix.shape == matrix.shape
    assert rel(system.matrix, matrix) <= 1e-14
    assert np.abs(system.rhs - rhs).max() <= 1e-14 * np.abs(rhs).max()
    assert system.bottom_load.tobytes() == reduced(system.pattern,
                                                   bottom_load_reference(system.mesh)).tobytes()


# meshes with quadrature points on the axis
BLOCK_CASES = pytest.mark.parametrize(
    "case", [lambda: form_case(0), lambda: form_case(1), lambda: form_case(2), tc1_slab,
             lambda: slab(tc2_config)],
    ids=["two-triangle", "perturbed", "structured", "tc1-16x32-slab", "tc2-16x32-slab"])


def compiled_kernels(mesh_new, mesh_old, u, V, zeta, phys, num):
    """What each compiled kernel computes for a slab, by name, and the same
    from the numpy kernels it replaced: the triangle blocks, the r-weighted
    stiffness, the element data of the new mesh, the boundary-edge blocks,
    the mass action of u, the reduced right-hand side and the mesh-velocity
    extension's data and right-hand side on the old mesh."""
    ed = element_data(mesh_new)
    m = len(ed.tri)
    blocks, stiffness = np.empty((m, 9, 9)), np.empty((m, 3, 3))
    triangle_blocks(ed, u, V, num.dt, phys.nu, num.Cs, blocks)
    r_stiffness(ed, stiffness)
    got = {"triangle blocks": blocks, "stiffness": stiffness}
    want = {"triangle blocks": triangle_blocks_reference(ed, u.values, V.values, num.dt,
                                                         phys.nu, num.Cs),
            "stiffness": _gradient_products(ed)[2]}
    for name, array in element_data_reference(mesh_new).items():
        got[name], want[name] = getattr(ed, name), array
    saddle = mesh_new.topology.memo(_saddle_pattern)
    _, _, (_, wall, surface) = values(saddle)
    beta = beta_h(phys.chi, contact_line_height(mesh_new) / num.N3, phys.nu)
    edge_blocks(mesh_new, u, V, beta, phys.gamma, num.dt, wall, surface)
    got["wall"], got["surface"] = wall, surface
    want["wall"], want["surface"] = edge_blocks_reference(mesh_new, u.values, V.values, beta,
                                                          phys, num.dt)
    got["mass action"], want["mass action"] = mass_action(u), mass_action_reference(u)
    got["rhs"] = loads(mesh_new, u, num.dt, zeta, phys, saddle, bottom_load_reference(mesh_new))
    want["rhs"] = state_rhs_reference(saddle, mesh_new, u, zeta, phys, num.dt)
    extension = mesh_old.topology.memo(_extension_pattern)
    stiffness = np.empty((m, 3, 3))
    r_stiffness(element_data(mesh_old), stiffness)
    got["g"], got["extension rhs"] = extension_rhs(u, stiffness)
    want["g"], want["extension rhs"] = extension_rhs_reference(extension, u, stiffness)
    return got, want


@BLOCK_CASES
def test_compiled_blocks_equal_the_numpy_kernels(case):
    """Every compiled kernel equals the numpy kernel it replaced to 1e-15 of
    each block's largest entry (of the largest entry of a vector), on random
    fields, perturbed meshes and quadrature points on the axis."""
    mesh_new, mesh_old, u, V, *rest = case()
    assert (element_data(mesh_new).radial.rq == 0.0).any()
    got, want = compiled_kernels(mesh_new, mesh_old, u, V, *rest)
    assert got.keys() == want.keys()
    for name in got:
        g, w = got[name], want[name]
        assert g.shape == w.shape, name
        axes = tuple(range(1, g.ndim)) or None
        scale = np.abs(w).max(axis=axes, initial=0.0)
        assert np.all(np.abs(g - w).max(axis=axes, initial=0.0) <= 1e-15 * scale), name


@BLOCK_CASES
def test_axis_points_carry_no_weight(case):
    """The radial table's axis points, where 1/r is 0, are the points at
    r = 0 exactly, and there the r-weighted quadrature weight is exactly 0:
    the 1/r terms of the triangle blocks need no branch for the axis."""
    ed = element_data(case()[0])
    on_axis = ed.radial.rq == 0.0
    assert on_axis.any()
    assert np.array_equal(ed.radial.inv_r == 0.0, on_axis)
    assert np.all(ed.wr[on_axis] == 0.0)


def test_kernel_arguments_are_checked_before_the_kernel_runs():
    mesh, _, u, V, _, phys, num = form_case(1)
    ed = element_data(mesh)
    m = len(ed.tri)
    with pytest.raises(DimensionMismatch):
        triangle_blocks(ed, u, V, num.dt, phys.nu, num.Cs, np.empty((m, 6, 6)))
    with pytest.raises(DimensionMismatch):
        triangle_blocks(ed, u, zero_vector_field(same_grid(mesh)), num.dt, phys.nu, num.Cs,
                        np.empty((m, 9, 9)))
    with pytest.raises(DimensionMismatch):
        r_stiffness(ed, np.empty((m + 1, 3, 3)))
    pattern = mesh.topology.memo(_saddle_pattern)
    data, vals, (_, wall, surface) = values(pattern)
    with pytest.raises(DimensionMismatch):
        fill(pattern, data[:-1], vals)
    with pytest.raises(DimensionMismatch):
        fill(pattern, data, vals[:-1])
    for blocks in ((wall[:-1], surface), (wall, surface[:, :2, :2])):
        with pytest.raises(DimensionMismatch):
            edge_blocks(mesh, u, V, 1.0, phys.gamma, num.dt, *blocks)
    other = zero_vector_field(same_grid(mesh))
    with pytest.raises(DimensionMismatch):    # checked once, for every kernel of the step
        slab_system(FlowState(mesh=mesh, u=other, p=zero_scalar_field(mesh), t=0.0), 0.0, phys,
                    num)
    with pytest.raises(DimensionMismatch):
        extension_rhs(u, np.empty((m - 1, 3, 3)))


@pytest.mark.parametrize("grid, nnz, width", [((16, 32), 31811, 51), ((32, 64), 128147, 102)],
                         ids=["16x32", "32x64"])
def test_pattern_order_keeps_the_band_narrow(grid, nnz, width):
    system = saddle(*tc1_slab(*grid))
    band = system.pattern.band
    assert system.matrix.nnz == nnz
    # the layout found once with the pattern is the layout of every fill
    own = BandLayout.of(system.matrix.indices, system.matrix.indptr)
    assert (own.kl, own.ku, own.ldab) == (band.kl, band.ku, band.ldab)
    assert np.array_equal(own.position, band.position)
    assert band.position.dtype == np.int32
    # with (u_r, u_z, p) of each vertex together, vertex by vertex in the
    # vertex graph's reverse Cuthill-McKee order, the band is about 3 N1
    # wide: 51 at 16x32, 102 at 32x64
    assert band.kl == band.ku
    assert band.kl == width if grid == (16, 32) else band.kl <= width
    x = workspace(system.mesh.topology).x[0]        # the step's state solution
    assert np.linalg.norm(system.matrix @ x - system.rhs) <= 1e-10 * np.linalg.norm(system.rhs)


def test_band_storage_holds_the_matrix_on_its_diagonals():
    system = saddle(*tc1_slab(4, 8))
    band, dense = system.pattern.band, system.matrix.toarray()
    # the band storage the factor phase factors: the factor kernel on
    # band_storage's scatter gives the LU that the step leaves, bit for bit
    ab = band_storage(system)
    factored = ab.copy(order="F")
    assert factor_band(factored, band) == 0
    assert factored.tobytes(order="F") == workspace(system.mesh.topology).band.tobytes(order="F")
    # no fill rows: without pivoting U keeps the upper band
    assert band.ldab == band.kl + band.ku + 1
    assert ab.shape == (band.ldab, len(dense)) and ab.flags.f_contiguous
    # entry (i, j) sits in row ku + i - j of column j, bit for bit
    i, j = np.indices(dense.shape)
    inside = (i - j <= band.kl) & (j - i <= band.ku)
    assert np.array_equal(ab[(band.ku + i - j)[inside], j[inside]], dense[inside])
    assert not dense[~inside].any()
    # the corners of the storage that no matrix entry reaches stay zero
    outside = np.ones(ab.shape, dtype=bool)
    outside[(band.ku + i - j)[inside], j[inside]] = False
    assert not ab[outside].any()


@pytest.mark.parametrize("pattern_of, components", [(_saddle_pattern, 3), (_extension_pattern, 1)],
                         ids=["saddle", "mesh-velocity"])
def test_patterns_number_dofs_vertex_by_vertex(pattern_of, components):
    topology = build_structured_mesh(1.0, 1.0, 6, 10).topology
    n = topology.num_nodes
    free = topology.memo(pattern_of).free
    vertex, component = free % n, free // n
    # each vertex's kept dofs are consecutive, in component order (u_r, u_z, p)
    starts = np.flatnonzero(np.diff(vertex, prepend=-1))
    assert len(starts) == len(np.unique(vertex))
    assert np.all(np.diff(component)[np.diff(vertex) == 0] > 0)
    assert component.max() == components - 1
    # and the vertices come in the topology's one order, shared by both patterns
    order = vertex_order(topology)
    assert vertex_order(topology) is order
    assert np.array_equal(vertex[starts], order[np.isin(order, vertex)])


@pytest.mark.parametrize("grid", [(4, 4), (8, 16), (16, 32), (32, 64)],
                         ids=["4x4", "8x16", "16x32", "32x64"])
def test_vertex_order_is_scipys_on_the_vertex_graph(grid):
    """The vertex order is scipy's reverse Cuthill-McKee order of the vertex
    graph, built here from the triangles through scipy, so the band and the
    LU's bits are those the order of scipy gives."""
    topology = build_structured_mesh(1.0, 1.0, *grid).topology
    tri = topology.triangles
    rows, cols = np.repeat(tri, 3, axis=1).ravel(), np.tile(tri, 3).ravel()
    graph = sp.coo_matrix((np.ones(len(rows)), (rows, cols))).tocsc()
    expected = scipy_rcm(graph, symmetric_mode=True)
    assert np.array_equal(vertex_order(topology), expected)
    assert np.array_equal(reverse_cuthill_mckee(graph.indices, graph.indptr), expected)


def _random_graph(rng, n, p, diagonal):
    """A random symmetric n-node graph with edge probability p, each node
    carrying a diagonal entry with probability diagonal."""
    m = rng.random((n, n)) < p
    m |= m.T
    np.fill_diagonal(m, rng.random(n) < diagonal)
    return m


def _disconnected(rng):
    """Random components and lone nodes, with and without a diagonal, their
    nodes shuffled."""
    m = sp.block_diag([_random_graph(rng, k, 0.2, 0.5) for k in (12, 30, 1, 7, 1, 25)]).toarray()
    shuffle = rng.permutation(len(m))
    return m[np.ix_(shuffle, shuffle)]


def _ties(rng):
    """A ring lattice of 60 nodes, each joined to the next two, a few chords,
    and diagonals on half the nodes: a few degrees shared by many nodes."""
    n = 60
    m = np.zeros((n, n), dtype=bool)
    for offset in (1, 2):
        m[np.arange(n), (np.arange(n) + offset) % n] = True
    m[rng.integers(0, n, 8), rng.integers(0, n, 8)] = True
    m |= m.T
    np.fill_diagonal(m, rng.random(n) < 0.5)
    return m


@pytest.mark.parametrize("graph", [
    _ties,
    lambda rng: _random_graph(rng, 50, 0.08, 0.0),
    lambda rng: _random_graph(rng, 80, 0.05, 0.5),
    _disconnected,
    lambda rng: np.ones((1, 1), dtype=bool),
    lambda rng: np.zeros((1, 1), dtype=bool),
], ids=["ties", "no-diagonal", "some-diagonals", "disconnected", "one-node", "one-lone-node"])
@pytest.mark.parametrize("seed", range(3))
def test_reverse_cuthill_mckee_is_scipys(graph, seed):
    """On graphs with degree ties, with no or some diagonal entries, with
    several components and with a single node, the order is scipy's."""
    m = sp.csc_matrix(graph(np.random.default_rng(seed)).astype(float))
    assert np.array_equal(reverse_cuthill_mckee(m.indices, m.indptr),
                          scipy_rcm(m, symmetric_mode=True))


@pytest.mark.parametrize("grid", [(4, 8), (8, 16)], ids=["4x8", "8x16"])
@pytest.mark.parametrize("controlled", [False, True], ids=["free", "controlled"])
@pytest.mark.parametrize("config", [tc1_config, tc2_config], ids=["tc1", "tc2"])
def test_symmetric_part_of_the_step_matrix_is_semidefinite(monkeypatch, config, controlled, grid):
    """On every 5th of 40 steps, the coupling blocks B and -B^T of the step
    matrix A = [[K, B], [-B^T, Sp]] cancel in its symmetric part, which is
    diag(K_sym, Sp), and K_sym and Sp are positive semidefinite.  The mass
    and viscous terms dominate K_sym, so this cannot see the skew form of
    the transport and surface terms; an energy bound over a run would."""
    systems = factored_systems(monkeypatch)       # the saddle system of each step
    cfg = config()
    hist = run_tc1(controlled, cfg, N1=grid[0], N3=grid[1], T=40 * cfg.dt)
    assert hist.abort_reason is None and len(systems) == 40
    eps = np.finfo(float).eps
    for k in range(5, 41, 5):
        system = systems[k - 1]
        A = system.matrix.toarray()
        S = 0.5 * (A + A.T)
        vel = system.pattern.free < 2 * system.mesh.num_nodes
        # B and -B^T cancel exactly in the symmetric part
        assert not S[np.ix_(vel, ~vel)].any(), f"step {k}: velocity-pressure block"
        for name, block in (("K_sym", S[np.ix_(vel, vel)]), ("Sp", S[np.ix_(~vel, ~vel)])):
            lam = np.linalg.eigvalsh(block)
            assert lam[0] >= -10 * eps * lam[-1], f"step {k}: {name} lambda_min {lam[0]:.3e}"


def test_fill_sums_like_bincount():
    """The fill adds each local value into its slot in order, as a bincount
    does, bit for bit."""
    mesh = build_structured_mesh(1.0, 1.0, 3, 4)
    pattern = mesh.topology.memo(_saddle_pattern)
    data, vals, _ = values(pattern)
    vals[:] = np.random.default_rng(5).standard_normal(len(vals))
    reference = np.bincount(pattern.slot, weights=vals, minlength=len(pattern.indices) + 1)
    assert np.array_equal(fill(pattern, data, vals), reference[:-1])


def test_build_keeps_the_callers_dof_order():
    mesh = build_structured_mesh(1.0, 1.0, 3, 4)
    n = mesh.num_nodes
    free = np.setdiff1d(np.arange(n), mesh.surface_nodes)
    shuffled = np.random.default_rng(3).permutation(free)
    blocks = np.random.default_rng(4).standard_normal((len(mesh.triangles), 3, 3))
    matrices = []
    for dofs in (free, shuffled):
        pattern = FixedPattern.build([mesh.triangles], dofs, n)
        # a read-only copy, whose pointer the kernels bind once
        assert np.array_equal(pattern.free, dofs) and not pattern.free.flags.writeable
        data, vals, (view,) = values(pattern)
        view[:] = blocks
        matrices.append(filled(pattern, data, vals).toarray())
    # row and column k of a fill are the dof free[k]
    sorted_matrix, shuffled_matrix = matrices
    at = np.searchsorted(free, shuffled)
    assert np.array_equal(shuffled_matrix, sorted_matrix[np.ix_(at, at)])


def test_build_on_50000_kept_dofs_fills_like_the_build_on_40():
    """A family on the first 40 of 50 000 kept dofs fills as it does on
    those 40 alone, bit for bit, with int32 slots and rows, and the 49 960
    columns it does not reach stay empty."""
    rng = np.random.default_rng(0)
    family = np.array([rng.choice(40, 3, replace=False) for _ in range(30)])
    small = FixedPattern.build([family], np.arange(40), 40)
    large = FixedPattern.build([family], np.arange(50_000), 50_000)
    assert (len(small.indices), small.band.kl, small.band.ku) == (205, 35, 35)
    assert all(a.dtype == np.int32 for a in (large.slot, large.indices, large.indptr))
    assert np.array_equal(large.slot, small.slot)
    assert np.array_equal(large.indices, small.indices)
    assert np.array_equal(large.indptr[:41], small.indptr) and np.all(large.indptr[41:] == 205)
    assert large.band.kl == large.band.ku == 35
    blocks = rng.standard_normal((30, 3, 3))
    fills = []
    for pattern in (small, large):
        data, vals, (view,) = values(pattern)
        view[:] = blocks
        fills.append(filled(pattern, data, vals))
    assert np.array_equal(fills[1].data, fills[0].data)
    assert np.array_equal(fills[1][:40, :40].toarray(), fills[0].toarray())


def flipped_grid() -> tuple[AxiMesh, AxiMesh]:
    """The 2x2 structured mesh, and the same nodes with every cell split
    along its other diagonal."""
    mesh = build_structured_mesh(1.0, 1.0, 2, 2)
    other = []
    for i in range(2):
        for j in range(2):
            a, b, c, d = 3 * i + j, 3 * (i + 1) + j, 3 * (i + 1) + j + 1, 3 * i + j + 1
            other += [(a, b, d), (b, c, d)]
    return mesh, AxiMesh(z=mesh.z, topology=replace(mesh.topology, triangles=other))


def test_other_connectivity_is_rejected_and_gets_its_own_pattern():
    mesh, flipped = flipped_grid()
    u = zero_vector_field(mesh)
    with pytest.raises(DimensionMismatch):
        slab_system(FlowState(mesh=flipped, u=u, p=zero_scalar_field(flipped), t=0.0), 0.0, PHYS,
                    NUM)

    w = random_vector_field(flipped, seed=4)
    V, _ = mesh_velocity(flipped, w)
    args = displace_mesh(flipped, V, NUM.dt), flipped, w, V, 0.0, PHYS, NUM
    system = saddle(*args)
    # the flipped connectivity's own vertex order
    assert not np.array_equal(system.pattern.free, mesh.topology.memo(_saddle_pattern).free)
    matrix, rhs = reference_system(*args, system.pattern.free)
    assert rel(system.matrix, matrix) <= 1e-14
    assert np.abs(system.rhs - rhs).max() <= 1e-14 * np.abs(rhs).max()


def assert_same_pattern(got: FixedPattern, want: FixedPattern) -> None:
    """got has want's dofs, shapes, slots, CSC arrays and band layout, the
    slots, rows and column starts int32."""
    assert (got.size, got.shapes) == (want.size, want.shapes)
    assert np.array_equal(got.free, want.free)
    for name in ("slot", "indices", "indptr"):
        assert getattr(got, name).dtype == np.int32, name
        assert np.array_equal(getattr(got, name), getattr(want, name)), name
    assert (got.band.kl, got.band.ku) == (want.band.kl, want.band.ku)
    for name in ("position", "lower", "upper"):
        assert np.array_equal(getattr(got.band, name), getattr(want.band, name)), name


@pytest.mark.parametrize("grid", [(4, 4), (8, 16), (16, 32), (32, 64), None],
                         ids=["4x4", "8x16", "16x32", "32x64", "flipped"])
@pytest.mark.parametrize("pattern_of", [_saddle_pattern, _extension_pattern],
                         ids=["saddle", "mesh-velocity"])
def test_compiled_pattern_is_the_numpy_build(monkeypatch, pattern_of, grid):
    """Each pattern of a topology, on structured grids and on the flipped
    connectivity, is the numpy build's of the same families and dofs."""
    mesh = flipped_grid()[1] if grid is None else build_structured_mesh(1.0, 1.0, *grid)
    built, build = [], FixedPattern.build
    monkeypatch.setattr(FixedPattern, "build", lambda *args: built.append(args) or build(*args))
    assert_same_pattern(pattern_of(mesh.topology), oracle_pattern(*built[0]))


@pytest.mark.parametrize("seed", range(3))
def test_compiled_pattern_is_the_numpy_build_on_random_families(seed):
    """Random families of several widths, repeated dofs within an element
    included, on a shuffled set of kept dofs, with a family wholly on
    eliminated dofs and an empty one among them, build the numpy build's
    pattern; so does the family on eliminated dofs alone, which stores
    nothing; an empty family alone stores nothing either."""
    rng = np.random.default_rng(seed)
    size = 60
    free = rng.permutation(size)[:45]
    eliminated = np.setdiff1d(np.arange(size), free)
    on_eliminated = rng.choice(eliminated, (6, 2))
    families = [rng.integers(0, size, (40, 3)), on_eliminated, rng.integers(0, size, (25, 5)),
                np.empty((0, 4), np.int64), rng.integers(0, size, (10, 1))]
    assert_same_pattern(FixedPattern.build(families, free, size),
                        oracle_pattern(families, free, size))
    alone = FixedPattern.build([on_eliminated], free, size)
    assert_same_pattern(alone, oracle_pattern([on_eliminated], free, size))
    assert len(alone.indices) == 0 and np.all(alone.slot == 0)
    empty = FixedPattern.build([np.empty((0, 4), np.int64)], free, size)
    assert len(empty.slot) == len(empty.indices) == 0
    assert np.array_equal(empty.indptr, np.zeros(46, np.int32))


@pytest.mark.parametrize("families, free", [
    ([[[0, 1, 3]]], [0, 1, 2]), ([[[-1, 1, 2]]], [0, 1, 2]), ([[[0, 1, 2]]], [0, 1, 3]),
    ([[[0, 1, 2]]], [0, 1, 1]), ([[0, 1, 2]], [0, 1, 2]), ([[[0, 1, 2]]], [[0, 1, 2]])],
    ids=["dof past", "negative dof", "kept dof past", "kept twice", "flat family", "2-d free"])
def test_build_refuses_dofs_outside_the_matrix_or_kept_twice(families, free):
    with pytest.raises(DimensionMismatch):
        FixedPattern.build([np.array(d) for d in families], free, 3)


@pytest.mark.parametrize("indices, indptr", [([0, 2], [0, 1, 2]), ([0, -1], [0, 1, 2]),
                                             ([0, 1], [0, 1, 3]), ([0, 1], [0, 2, 1])],
                         ids=["row past", "negative row", "short indices", "column backwards"])
@pytest.mark.parametrize("reader", [reverse_cuthill_mckee, BandLayout.of],
                         ids=["order", "band layout"])
def test_compiled_readers_refuse_what_is_no_structure_of_its_columns(reader, indices, indptr):
    with pytest.raises(DimensionMismatch):
        reader(np.array(indices), np.array(indptr))
