import copy
import ctypes
import gc
import pickle
import platform
import re
import subprocess
import sys
from dataclasses import FrozenInstanceError, replace
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp

import capflow.forms
import capflow.control
from capflow import kernels
from capflow.acceptance import run_tc1, tc1_config, tc2_config
from capflow.config import num_params, phys_params
from capflow.errors import DimensionMismatch, KernelBuildError, ResidualTooLarge, SingularMatrix
from capflow.fields import NumParams, PhysParams, zero_scalar_field, zero_vector_field
from capflow.forms import (BandLayout, FixedPattern, LinearSystem, kinetic_energy,
                           _extension_pattern, _saddle_pattern, radial_table, vertex_order,
                           workspace)
from capflow.geometry import BoundaryTag, build_structured_mesh
from capflow.stepping import FlowState, initial_state, slab_system, step

from .pattern_forms import bottom_load_reference, filled, form_a, mass_matrix, reduced
from .compiled import (band_storage, element_data, entries, factor_band, lib,
                       mesh_velocity_system, r_stiffness, residual, solve_band, solve_system,
                       triangle_blocks, values)
from .conftest import factored_systems
from .test_assembly import compiled_kernels, saddle, slab, tc1_slab

PHYS = PhysParams(nu=1.87e-5, gamma=3.91e-8, chi=850.0, theta_s=np.pi / 2,
                  p_bar=9.81e-4, g=9.81)
NUM = NumParams(dt=2e-3, Cs=0.4, N1=4, N3=4, alpha=0.0, lam=0.0, T=0.1)


def on_saddle(mesh, full, b):
    """The LinearSystem on the saddle pattern of mesh's topology of the
    (3 N, 3 N) sparse matrix full and the (3 N,) load b, each reduced to the
    pattern's kept dofs: hand-made data on the real pattern, none of the
    reduced matrix's nonzeros outside it."""
    pattern = mesh.topology.memo(_saddle_pattern)
    reduced = sp.csr_matrix(full)[pattern.free][:, pattern.free].toarray()
    column = np.repeat(np.arange(len(pattern.free)), np.diff(pattern.indptr))
    data = reduced[pattern.indices, column]
    reduced[pattern.indices, column] = 0.0
    assert not reduced.any()
    return LinearSystem(pattern=pattern, data=read_only(data), rhs=b[pattern.free], mesh=mesh)


def pattern_of(matrix, free, size):
    """A FixedPattern of the CSC matrix's own structure, its reduced rows the
    dofs free of size."""
    return FixedPattern(free=read_only(free), size=size, shapes=[],
                        slot=read_only(np.empty(0, np.int32)),
                        indices=read_only(matrix.indices.astype(np.int32)),
                        indptr=read_only(matrix.indptr.astype(np.int32)),
                        band=BandLayout.of(matrix.indices, matrix.indptr))


def assert_rows_solve_alone(ab, band, pattern, data, b):
    """The factor of the band storage ab, on a copy, with the forward
    elimination of b, (2, n), then the back-substitution and checks: the
    factors are those of a factor with no load and with either row alone,
    and each row's solution and out have the bits of a one-row call for that
    row; returns the factors, the two-row call's solutions and out."""
    lu, x, out, flags = solve_system(ab, band, pattern, data, b)
    assert flags == 0
    bare = ab.copy(order="F")
    assert factor_band(bare, band) == 0
    assert np.array_equal(bits(bare), bits(lu))
    for t in range(2):
        alone, one, single, flags = solve_system(ab, band, pattern, data, b[t])
        assert flags == 0
        assert np.array_equal(bits(alone), bits(lu)), t
        assert np.array_equal(bits(one[0]), bits(x[t])), t
        assert np.array_equal(bits(single[0]), bits(out[t])), t
    return lu, x, out


def read_only(a):
    """A read-only copy of a, which the kernels bind."""
    a = np.array(a)
    a.setflags(write=False)
    return a


def band_lu(system, b=None):
    """The LU of system's matrix on any pattern, as the factor phase makes
    it: the compiled scatter and band factor, one by one, with the forward
    elimination of the loads b, one (n,) or k (k, n), the system's rhs by
    default; the band storage and the eliminated loads, (k, n)."""
    ab = band_storage(system)
    loads = np.atleast_2d(system.rhs if b is None else b).copy()
    assert factor_band(ab, system.pattern.band, loads) == 0
    return ab, loads


def solve_rows(system, b):
    """The LU of system's matrix on any pattern with the forward elimination
    of the k rows of b (:func:`band_lu`), and the solve kernel's solutions,
    (k, n), each row finite and its relative residual, (k,), under the
    phases' 1e-10 gate."""
    lu, x = band_lu(system, b)
    out, flags = solve_band(lu, system.pattern.band, system.pattern, system.data,
                            np.atleast_2d(b), x)
    assert flags == 0
    rel = relative_residuals(out)
    assert np.all(rel <= 1e-10)
    return lu, x, rel


def relative_residuals(out):
    """Each row's ||A x_t - b_t|| / ||b_t||, or ||A x_t - b_t|| for b_t = 0,
    from the checks out, (k, n + 2), of the solve kernel, as the phases
    compute it."""
    res, norm = np.sqrt(out[:, -2]), np.sqrt(out[:, -1])
    return np.where(norm > 0, res / np.where(norm > 0, norm, 1.0), res)


def growth(lu, system):
    """max |U| / max |A| of the band storage lu of system's matrix."""
    return np.abs(lu[:system.pattern.band.ku + 1]).max() / np.abs(system.data).max()


def state_of(mesh, u):
    """The state of the velocity u on mesh, with zero pressure, at t = 0."""
    return FlowState(mesh=mesh, u=u, p=zero_scalar_field(mesh), t=0.0)


def mapped(status, **details):
    """The error that :meth:`~capflow.forms.Workspace.error` makes of a
    phase's status, the struct holding the details of the failure given
    (column, row, rel), row t of a solve named ("state", "bottom-load")[t]."""
    ws = workspace(build_structured_mesh(1.0, 1.0, 2, 2).topology)
    for name, value in details.items():
        setattr(ws.struct, name, value)
    return ws.error(status, ("state", "bottom-load"), None)


def test_identity_system_returns_rhs():
    """The identity, hand-made on the saddle pattern: the solution is the
    load, with a zero residual."""
    mesh = build_structured_mesh(1.0, 1.0, 2, 2)
    n = mesh.num_nodes
    rng = np.random.default_rng(0)
    b = rng.standard_normal(3 * n)
    sys = on_saddle(mesh, sp.eye(3 * n), b)
    _, x, rel = solve_rows(sys, sys.rhs)
    assert np.array_equal(x[0], sys.rhs)
    assert rel[0] <= 1e-15


def test_spd_block_manufactured_solution():
    mesh = build_structured_mesh(1.0, 1.0, 2, 2)
    n = mesh.num_nodes
    A = form_a(mesh, 1.0, PHYS) + mass_matrix(mesh)
    rng = np.random.default_rng(1)
    x = rng.standard_normal(2 * n)
    x[mesh.radial_constrained_nodes] = 0.0
    b = np.zeros(3 * n)
    b[:2 * n] = A @ x
    sys = on_saddle(mesh, sp.block_diag((A, sp.eye(n))), b)
    _, solved, _ = solve_rows(sys, sys.rhs)
    full = np.zeros(3 * n)
    full[sys.pattern.free] = solved[0]
    got = full[:2 * n]
    assert np.abs(got - x).max() <= 1e-10 * max(np.abs(x).max(), 1.0)


def test_singular_matrix_detected():
    """An exactly zero first pivot: the factor kernel returns its 1-based
    column, which the workspace reports as SingularMatrix naming it."""
    mesh = build_structured_mesh(1.0, 1.0, 2, 2)
    n = mesh.num_nodes
    first = mesh.topology.memo(_saddle_pattern).free[0]     # reduced column 1
    mat = sp.eye(3 * n, format="lil")
    mat[first, first] = 0.0
    sys = on_saddle(mesh, mat, np.ones(3 * n))
    assert factor_band(band_storage(sys), sys.pattern.band) == 1
    with pytest.raises(SingularMatrix, match="^zero pivot in column 1 of the banded LU$"):
        raise mapped(kernels.ZERO_PIVOT, column=1)


def test_zero_pivot_left_by_the_elimination_names_its_column():
    """The block [[1, 1], [1, 1]] on reduced dofs 4 and 5 leaves U(5, 5) = 0:
    1-based column 6."""
    mesh = build_structured_mesh(1.0, 1.0, 2, 2)
    n = mesh.num_nodes
    i, j = mesh.topology.memo(_saddle_pattern).free[[4, 5]]
    mat = sp.eye(3 * n, format="lil")
    mat[i, j] = mat[j, i] = 1.0
    sys = on_saddle(mesh, mat, np.ones(3 * n))
    assert factor_band(band_storage(sys), sys.pattern.band) == 6
    with pytest.raises(SingularMatrix, match="^zero pivot in column 6 of the banded LU$"):
        raise mapped(kernels.ZERO_PIVOT, column=6)


def misplaced_saddle(monkeypatch, diagonal):
    """From here on, each saddle pattern built sends one entry of column 0
    to another entry's place in the band, so the factor phase factors
    another matrix than the one its residuals are checked in: the diagonal
    entry to the first off-diagonal's place, or that entry to the
    diagonal's.  Returns the tc1 refill's initial state on a 4x8 grid, whose
    topology builds its pattern so, and its parameters."""
    build = capflow.forms._saddle_pattern

    def misplaced(topology):
        pattern = build(topology)
        column = pattern.indices[:pattern.indptr[1]]
        on, off = np.flatnonzero(column == 0)[0], np.flatnonzero(column != 0)[0]
        moved, place = (on, off) if diagonal else (off, on)
        position = pattern.band.position.copy()
        position[moved] = position[place]
        position.setflags(write=False)
        return replace(pattern, band=replace(pattern.band, position=position))

    monkeypatch.setattr(capflow.forms, "_saddle_pattern", misplaced)
    cfg = replace(tc1_config(), N1=4, N3=8)
    phys, num = phys_params(cfg), num_params(cfg)
    return initial_state(cfg.radius, cfg.init_height, num), phys, num


def test_a_zero_pivot_of_the_step_raises_singular_matrix(monkeypatch):
    """A step whose band lacks the first diagonal entry meets an exactly
    zero first pivot: SingularMatrix naming column 1."""
    state, phys, num = misplaced_saddle(monkeypatch, diagonal=True)
    with pytest.raises(SingularMatrix, match="^zero pivot in column 1 of the banded LU$"):
        step(state, 1e-4, phys, num, gradient=True)


def test_a_step_whose_factors_miss_the_matrix_fails_the_state_gate(monkeypatch):
    """A step that factors another matrix than its own raises the state
    row's ResidualTooLarge; the residual of each row, state and bottom load,
    is numpy's ||A x_t - b_t|| / ||b_t|| of the data, loads and solution
    rows the step left in the workspace."""
    state, phys, num = misplaced_saddle(monkeypatch, diagonal=False)
    with pytest.raises(ResidualTooLarge, match="^state solve: relative residual "):
        step(state, 1e-4, phys, num, gradient=True)
    ws = workspace(state.mesh.topology)
    pattern = ws.saddle
    A = sp.csc_matrix((ws.data, pattern.indices, pattern.indptr), shape=(len(pattern.free),) * 2)
    for t in range(2):
        b, x = ws.loads[t], ws.x[t]
        reference = np.linalg.norm(A @ x - b) / np.linalg.norm(b)
        assert ws.struct.rel[t] == pytest.approx(reference, rel=1e-12, abs=0.0), t
    assert ws.struct.rel[0] > 1e-10


def test_mismatched_field_mesh_rejected():
    mesh_a = build_structured_mesh(1.0, 1.0, 4, 4)
    mesh_b = build_structured_mesh(1.0, 1.0, 4, 4)
    state = state_of(mesh_a, zero_vector_field(mesh_b))
    for slab_of in (step, slab_system):
        with pytest.raises(DimensionMismatch):
            slab_of(state, 0.0, PHYS, NUM)


def test_solved_velocity_respects_essential_conditions():
    mesh_old = build_structured_mesh(5e-4, 5e-5, 4, 4)
    new, _ = step(state_of(mesh_old, zero_vector_field(mesh_old)), 0.0, PHYS, NUM)
    assert np.abs(new.u.values).max() > 0.0
    assert np.abs(new.u.values[mesh_old.radial_constrained_nodes, 0]).max() == 0.0


def test_the_slab_system_is_frozen():
    """The system slab_system copies out is frozen and its arrays read-only:
    the matrix the residual gate read is the one factored."""
    mesh = build_structured_mesh(5e-4, 5e-5, 4, 4)
    system = slab_system(state_of(mesh, zero_vector_field(mesh)), 0.0, PHYS, NUM)
    with pytest.raises(FrozenInstanceError):
        system.data = np.ones_like(system.data)
    for a in (system.data, system.rhs, system.bottom_load):
        with pytest.raises(ValueError):
            a[0] = 1.0


# -- the compiled kernel -------------------------------------------------------

def dense_lu_without_pivoting(A):
    """Doolittle's LU of A, on a copy, one column at a time: the kernel's
    arithmetic, one division or one multiply-subtract per entry and column."""
    lu = A.copy()
    for k in range(len(lu) - 1):
        lu[k + 1:, k] /= lu[k, k]
        lu[k + 1:, k + 1:] -= np.outer(lu[k + 1:, k], lu[k, k + 1:])
    return lu


def on_band(A, kl, ku):
    """The entries of A inside the band, and their places in band storage."""
    i, j = np.indices(A.shape)
    inside = (i - j <= kl) & (j - i <= ku)
    return A[inside], ((ku + i - j)[inside], j[inside])


def full_band(n, kl, ku):
    """The layout of a full band on n columns, every reach min(k, n - 1 - j)."""
    j = np.arange(n)
    return BandLayout(kl=kl, ku=ku, position=read_only(np.empty(0, np.int32)),
                      lower=read_only(np.minimum(kl, n - 1 - j).astype(np.int32)),
                      upper=read_only(np.minimum(ku, n - 1 - j).astype(np.int32)))


def bits(a):
    return np.ascontiguousarray(a).view(np.uint64)


def test_kernel_factors_equal_the_dense_lu_without_pivoting():
    """The LU that a step leaves in the workspace is Doolittle's, bit for bit."""
    system = saddle(*tc1_slab(4, 8))
    band = system.pattern.band
    reference = dense_lu_without_pivoting(system.matrix.toarray())
    values, places = on_band(reference, band.kl, band.ku)
    assert np.array_equal(workspace(system.mesh.topology).band[places], values)
    assert np.count_nonzero(values) == np.count_nonzero(reference)    # none outside the band


def test_kernel_handles_every_band_shape():
    """kl from 0 to 6, ku from 0 to 9 and n from 1 to 16, odd and even (the
    kernel eliminates two pivot columns at a time) and narrower than the
    band, so the later columns both pivots reach come in every count mod 4
    (the kernel updates them four at a time; on a full band those only the
    second reaches are at most one but for kl = 0, and the unsymmetric
    envelope test covers them): the factors equal the dense loop's bit for
    bit, and a solve matches a dense solve.  Each row of a two-row solve, and
    its residual check, has the bits of a one-row call, the factors do not
    depend on the loads eliminated with them, and the check's A x has the
    bits of scipy's product."""
    rng = np.random.default_rng(9)
    for n in range(1, 17):
        for kl in range(7):
            for ku in range(10):
                i, j = np.indices((n, n))
                A = np.where((i - j <= kl) & (j - i <= ku), rng.standard_normal((n, n)), 0.0)
                A += 4.0 * np.eye(n)
                values, places = on_band(A, kl, ku)
                ab = np.zeros((kl + ku + 1, n), order="F")
                ab[places] = values
                band = full_band(n, kl, ku)
                b = rng.standard_normal((2, n))
                matrix = sp.csc_matrix(A)
                lu, x, out = assert_rows_solve_alone(ab, band, pattern_of(matrix, np.arange(n), n),
                                                     read_only(matrix.data), b)
                assert np.array_equal(lu[places], on_band(dense_lu_without_pivoting(A), kl, ku)[0])
                for t in range(2):
                    ref = np.linalg.solve(A, b[t])
                    assert np.abs(x[t] - ref).max() <= 1e-12 * np.abs(ref).max(), (n, kl, ku)
                    assert np.array_equal(bits(out[t, :n]), bits(matrix @ x[t]))


def profile_reach(S):
    """For each column j of the square boolean structure S, the reach below
    the diagonal of its row profile: max(j, max{i : row i of S has an entry
    in a column up to j}) - j."""
    n = len(S)
    first = [np.flatnonzero(row)[0] if row.any() else n for row in S]
    return np.array([max([j] + [i for i in range(n) if first[i] <= j]) - j for j in range(n)])


def outside_envelope(band, n):
    """The places (i, j) of an n x n matrix outside band's envelope."""
    i, j = np.indices((n, n))
    below = (i > j) & (i - j <= band.lower[j])
    above = (i < j) & (j - i <= band.upper[i])
    return ~(below | above | (i == j))


def unsymmetric_envelope(n=14, kl=4, ku=3, seed=11):
    """An n x n band, at most kl sub- and ku superdiagonals, whose row and
    column profiles differ, every entry inside them nonzero and the pivots
    positive."""
    rng = np.random.default_rng(seed)
    i, j = np.indices((n, n))
    first_column = np.maximum(np.arange(n) - rng.integers(0, kl + 1, n), 0)
    first_row = np.maximum(np.arange(n) - rng.integers(0, ku + 1, n), 0)
    inside = ((i >= j) & (j >= first_column[i])) | ((i < j) & (i >= first_row[j]))
    return np.where(inside, rng.uniform(0.5, 1.0, (n, n)) * rng.choice([-1.0, 1.0], (n, n)),
                    0.0) + 8.0 * np.eye(n)


def extension_system(n1, n3):
    """The mesh-velocity stiffness of the tc1 slab on an n1 x n3 grid, filled
    on its pattern."""
    mesh = tc1_slab(n1, n3)[0]
    pattern = mesh.topology.memo(capflow.forms._extension_pattern)
    data, vals, (stiffness,) = values(pattern)
    r_stiffness(element_data(mesh), stiffness)
    return pattern, filled(pattern, data, vals)


def test_band_layout_reaches_are_the_profiles_of_the_structure():
    """L's reach of every column is the row profile's, U's reach of every
    row the column profile's; both stay in the band and never end earlier
    for a later column."""
    system = saddle(*tc1_slab(4, 8))
    structures = [system.matrix, extension_system(4, 8)[1],
                  sp.csc_matrix(unsymmetric_envelope())]
    for matrix in structures:
        band = BandLayout.of(matrix.indices, matrix.indptr)
        S = sp.csc_matrix((np.ones(matrix.nnz), matrix.indices, matrix.indptr),
                          shape=matrix.shape).toarray() != 0        # stored zeros included
        n = len(S)
        j = np.arange(n)
        for reach, profile, k in ((band.lower, S, band.kl), (band.upper, S.T, band.ku)):
            assert reach.dtype == np.int32
            assert np.array_equal(reach, profile_reach(profile))
            assert np.all(np.diff(j + reach) >= 0)
            assert np.all((reach >= 0) & (reach <= np.minimum(k, n - 1 - j)))
    # the step matrices are structurally symmetric, the hand-built one is not
    band = system.pattern.band
    assert np.array_equal(band.lower, band.upper)
    assert (band.lower < full_band(len(band.lower), band.kl, band.ku).lower).any()
    other = BandLayout.of(structures[2].indices, structures[2].indptr)
    assert not np.array_equal(other.lower, other.upper)


@pytest.mark.parametrize("grid", [(4, 8), (8, 16)], ids=["4x8", "8x16"])
def test_lu_without_pivoting_fills_nothing_outside_the_envelope(grid):
    systems = [saddle(*slab(config, *grid)) for config in (tc1_config, tc2_config)]
    matrices = [(system.pattern.band, system.matrix) for system in systems]
    pattern, stiffness = extension_system(*grid)
    matrices.append((pattern.band, stiffness))
    for band, matrix in matrices:
        lu = dense_lu_without_pivoting(matrix.toarray())
        outside = outside_envelope(band, len(lu))
        assert outside.any()
        assert not lu[outside].any()


def test_unsymmetric_envelope_factors_like_the_dense_loop():
    """Row and column profiles that differ: swapping L's and U's reach would
    leave entries of the factors out.  The second, wider envelope (kl and ku
    at least 8) has reaches that change from column to column: for the pivot
    columns j, j + 1 of a pass, the later columns both reach, and those only
    j + 1 reaches, come in every count mod 4 and in full groups of four, so
    the groups of four later columns the kernel updates together start and
    end at every offset.  Each row of a two-row solve is a one-row solve, bit
    for bit, and so is each row's residual check; the factors and the solve
    are those of the full band."""
    for A in (unsymmetric_envelope(), unsymmetric_envelope(n=40, kl=9, ku=10, seed=12)):
        matrix = sp.csc_matrix(A)
        band = BandLayout.of(matrix.indices, matrix.indptr)
        n = len(A)
        values, places = on_band(A, band.kl, band.ku)
        ab = np.zeros((band.ldab, n), order="F")
        ab[places] = values
        b = np.random.default_rng(12).standard_normal((2, n))
        pattern, data = pattern_of(matrix, np.arange(n), n), read_only(matrix.data)
        lu, x, out = assert_rows_solve_alone(ab, band, pattern, data, b)
        assert np.array_equal(bits(lu[places]), bits(on_band(dense_lu_without_pivoting(A),
                                                             band.kl, band.ku)[0]))
        for t in range(2):
            ref = np.linalg.solve(A, b[t])
            assert np.abs(x[t] - ref).max() <= 1e-12 * np.abs(ref).max()
        full_lu, full, full_out, _ = solve_system(ab, full_band(n, band.kl, band.ku), pattern,
                                                  data, b)
        assert np.array_equal(bits(lu), bits(full_lu))
        assert np.array_equal(bits(x), bits(full))
        assert np.array_equal(bits(out), bits(full_out))
    assert band.kl >= 8 and band.ku >= 8
    both, only = [], []
    for j in range(0, n - 1, 2):
        last = max(band.upper[j] if band.lower[j] > 0 else 1, 1)   # the last one j reaches
        both.append(last - 1)
        only.append(band.upper[j + 1] + 1 - last)
    for counts in (both, only):
        assert {c % 4 for c in counts} == {0, 1, 2, 3} and max(counts) >= 4, counts


def test_envelope_factor_equals_the_full_band_on_the_reference_slab():
    """On the 16x32 tc1 slab, whose envelope leaves part of the band out,
    the factors, the eliminated loads and a solve are those of the full
    band, bit for bit, and so are the LU and the solutions of the system's
    rhs and bottom load that the step left in the workspace; the bottom
    load is the numpy reference's, bit for bit."""
    system = saddle(*tc1_slab())
    ws = workspace(system.mesh.topology)
    band = system.pattern.band
    n = system.matrix.shape[0]
    full = full_band(n, band.kl, band.ku)
    assert band.lower.sum() < full.lower.sum() and band.upper.sum() < full.upper.sum()
    ab = np.zeros(band.ldab * n)
    ab[band.position] = system.matrix.data
    ab = ab.reshape((band.ldab, n), order="F")
    assert np.array_equal(bits(system.bottom_load),
                          bits(reduced(system.pattern, bottom_load_reference(system.mesh))))
    b = np.stack((system.rhs, system.bottom_load))
    factors = []
    for layout in (band, full):
        loads, factored = b.copy(), ab.copy(order="F")
        assert factor_band(factored, layout, loads) == 0
        factors.append((factored, loads))
    (envelope, eliminated), (factored, loads) = factors
    assert np.array_equal(bits(factored), bits(envelope))
    assert np.array_equal(bits(factored), bits(ws.band))
    assert np.array_equal(bits(loads), bits(eliminated))
    _, x, _, _ = solve_system(ab, band, system.pattern, system.data, b)
    _, y, _, _ = solve_system(ab, full, system.pattern, system.data, b)
    assert np.array_equal(bits(x), bits(y))
    assert np.array_equal(bits(x), bits(ws.x))


def test_band_storage_past_int32_positions_is_refused():
    """Two entries n - 1 off the diagonal of n = 50 000 columns make a band
    of 99 999 x 50 000 entries, past the int32 positions the compiled
    scatter reads: refused before anything of the band's size is allocated."""
    n = 50_000
    indices = np.array([n - 1, 0], dtype=np.int32)
    indptr = np.ones(n + 1, dtype=np.int32)
    indptr[0], indptr[-1] = 0, 2
    with pytest.raises(DimensionMismatch, match="99999 x 50000 = 4999950000 entries"):
        BandLayout.of(indices, indptr)


def test_band_layout_refuses_an_envelope_that_leaves_the_band():
    band = full_band(6, 2, 1)
    for lower, upper in ((band.lower + 1, band.upper), (band.lower, band.upper[::-1]),
                         (band.lower.astype(np.int64), band.upper)):
        with pytest.raises(DimensionMismatch):
            replace(band, lower=lower, upper=np.ascontiguousarray(upper))


@pytest.mark.parametrize("controlled", [False, True], ids=["free", "controlled"])
@pytest.mark.parametrize("config", [tc1_config, tc2_config], ids=["tc1", "tc2"])
def test_kernel_solves_every_step_system_like_a_dense_solve(monkeypatch, config, controlled):
    """Every mesh-velocity and saddle system of 20 steps at 8x16, factored by
    the band factor with the forward elimination of the system's own and a
    random right-hand side, solves them in one two-row solve as a dense solve
    does, to 1e-10 relative, with growth max|U|/max|A| at most 10.  The
    mesh-velocity system of each step is rebuilt from its state, kernel by
    kernel, and its solution is the mesh velocity that the step left in the
    workspace, bit for bit."""
    systems = factored_systems(monkeypatch)
    extensions = []
    run_step = capflow.control.step

    def moving(state, *args, **kwargs):
        system = mesh_velocity_system(state.mesh, state.u)
        extensions.append(system)
        _, (x,), _ = solve_rows(system, system.rhs)
        result = run_step(state, *args, **kwargs)
        V = workspace(state.mesh.topology).V
        assert np.array_equal(bits(V[system.pattern.free, 1]), bits(x))
        return result

    monkeypatch.setattr(capflow.control, "step", moving)
    cfg = config()
    hist = run_tc1(controlled, cfg, N1=8, N3=16, T=20 * cfg.dt)
    assert hist.abort_reason is None and len(systems) == len(extensions) == 20
    rng = np.random.default_rng(8)
    for k, system in enumerate(s for pair in zip(extensions, systems) for s in pair):
        A = system.matrix.toarray()
        b = np.stack((system.rhs, rng.standard_normal(len(A))))
        lu, x, _ = solve_rows(system, b)
        for t in range(2):
            ref = np.linalg.solve(A, b[t])
            assert np.linalg.norm(x[t] - ref) <= 1e-10 * np.linalg.norm(ref), k
        assert growth(lu, system) <= 10.0, (k, growth(lu, system))


def test_factorizations_are_bitwise_equal():
    """Two steps from one state leave the same LU and solutions, bit for bit."""
    _, mesh, u, _, zeta, phys, num = tc1_slab(8, 16)
    ws = workspace(mesh.topology)
    left = []
    for _ in range(2):
        step(state_of(mesh, u), zeta, phys, num, gradient=True)
        left.append((ws.band.copy(order="F"), ws.x.copy()))
    (first, x), (second, y) = left
    assert np.array_equal(bits(first), bits(second))
    assert np.array_equal(bits(x), bits(y))


def step_solves():
    """(system, rhs, what, x, relative residual) of each solve of one
    controlled step from the fourth 16x32 tc1 slab's state, its gradient's
    bottom-load solve included, one per row of each call: the mesh
    velocity's with its system rebuilt kernel by kernel, the step's mesh
    velocity on the kept nodes and the step's residual; the state's and the
    bottom load's with the slab's system as slab_system copies it out, the
    step's solutions (the bottom load's read from the workspace) and its
    residuals."""
    _, mesh, u, _, zeta, phys, num = tc1_slab()
    state = state_of(mesh, u)
    new, diag = step(state, zeta, phys, num, gradient=True)
    ws = workspace(mesh.topology)
    w, V = ws.w.copy(), ws.V.copy()
    system = slab_system(state, zeta, phys, num)
    extension = mesh_velocity_system(mesh, u)
    full = np.concatenate((new.u.values[:, 0], new.u.values[:, 1], new.p.values))
    return [(extension, extension.rhs, "mesh-velocity", V[extension.pattern.free, 1],
             diag.ale_residual),
            (system, system.rhs, "state", full[system.pattern.free], diag.residual),
            (system, system.bottom_load, "bottom-load", w, diag.bottom_residual)]


def test_residual_kernel_is_scipys_product_and_numpys_norms():
    """The solve kernel's A x is scipy's product bit for bit, for the step's
    solution and for that of a random right-hand side solved with it in one
    two-row call, each row of which has the bits of a one-row call, and each
    solve's relative residual is numpy's norm of A x - b over that of b, to
    1e-12 relative."""
    solves = step_solves()
    assert [what for _, _, what, _, _ in solves] == ["mesh-velocity", "state", "bottom-load"]
    rng = np.random.default_rng(13)
    for system, rhs, what, x, rel in solves:
        A = system.matrix
        b = np.stack((rhs, rng.standard_normal(len(rhs))))
        _, y, out = assert_rows_solve_alone(band_storage(system), system.pattern.band,
                                            system.pattern, system.data, b)
        assert np.array_equal(bits(y[0]), bits(x)), what
        for t in range(2):
            assert np.array_equal(bits(out[t, :-2]), bits(A @ y[t])), what
        reference = np.linalg.norm(A @ x - rhs) / np.linalg.norm(rhs)
        assert 0.0 < rel <= 1e-10
        assert rel == pytest.approx(reference, rel=1e-12, abs=0.0), what


def test_non_finite_solution_raises_singular_matrix_naming_the_solve():
    """The kernel flags each row whose solution is not finite: a finite load
    checked with a poisoned solution, a finite load whose solve overflows on
    a pivot of 1e-320, and a load with a non-finite entry; the workspace
    reports the flagged row t as SingularMatrix naming its solve.  A step
    whose state load is poisoned, by a NaN zeta, raises it for the state."""
    system = saddle(*tc1_slab(4, 8))
    band, what = system.pattern.band, ("state", "bottom-load")
    loads = np.stack((system.rhs, system.bottom_load))
    lu, x, _ = solve_rows(system, loads)
    n = loads.shape[1]
    for bad in (np.nan, np.inf, -np.inf):
        for t in range(2):
            y = x.copy()
            y[t, -1 - t] = bad
            for b, rows, flag in ((loads, y, 1 << t), (loads[t:t + 1], y[t:t + 1], 1)):
                out = np.empty((len(b), n + 2))
                assert residual(system.pattern, system.data, b, rows, out) == flag
    tiny = lu.copy(order="F")
    tiny[band.ku] = 1e-320                  # every pivot: the backward solve overflows
    for t in range(2):
        b = np.zeros_like(loads)
        b[t] = loads[t]
        assert np.all(np.isfinite(b))
        # L, and so the forward elimination, does not see the pivots
        _, eliminated = band_lu(system, b)
        assert solve_band(tiny, band, system.pattern, system.data, b,
                          eliminated.copy())[1] == 1 << t
        assert solve_band(tiny, band, system.pattern, system.data, b[t:t + 1],
                          eliminated[t:t + 1].copy())[1] == 1
        with pytest.raises(SingularMatrix, match=f"^{what[t]} solve produced non-finite values$"):
            raise mapped(kernels.NOT_FINITE, row=t)
    for bad in (np.nan, np.inf, -np.inf):
        for t in range(2):
            b = loads.copy()
            b[t, -1] = bad
            ab = band_storage(system)
            assert solve_system(ab, band, system.pattern, system.data, b)[3] == 1 << t
            assert solve_system(ab, band, system.pattern, system.data, b[t])[3] == 1
    _, mesh, u, _, _, phys, num = tc1_slab(4, 8)
    with pytest.raises(SingularMatrix, match="^state solve produced non-finite values$"):
        step(state_of(mesh, u), np.nan, phys, num, gradient=True)


@pytest.mark.parametrize("row, what", [(1, "bottom-load"), (0, "state")],
                         ids=["bottom-load", "state"])
def test_each_row_of_a_solve_has_its_own_residual_gate(row, what):
    """A slab's two-row solve gates each row on its own relative residual.
    Two entries of one row i of the matrix that the residuals are checked
    in, not of its LU, move by d_j and d_k: row t's residual moves by
    d_j x_t[j] + d_k x_t[k] in row i, which is made 0 for one row and 1e-9
    of its load's norm for the other.  The solve kernel's checks put that
    row over the 1e-10 gate, for which the workspace raises
    ResidualTooLarge naming its solve, and keep the other's under it.  The
    two loads' norms differ by far more than 1e-9 / 1e-10, so a row checked
    against the other's norm would pass or fail the other way."""
    system = saddle(*tc1_slab(4, 8))
    b = np.stack((system.rhs, system.bottom_load))
    lu, eliminated = band_lu(system, b)
    x = workspace(system.mesh.topology).x.copy()        # the step's solutions
    pattern, other = system.pattern, x[1 - row]
    # row i = j of the largest |x_t[j]| / ||b_t||, against the other row's
    j = int(np.argmax(np.abs(x[row]) / (np.abs(other) + 1e-300)))
    column = np.repeat(np.arange(len(pattern.indptr) - 1), np.diff(pattern.indptr))
    in_row = np.flatnonzero(pattern.indices == j)           # entries (j, c) of row j
    at_j = in_row[column[in_row] == j][0]
    at_k = in_row[np.argmax(np.abs(other[column[in_row]]) * (column[in_row] != j))]
    k = column[at_k]
    ratio = other[j] / other[k]         # d_k = -ratio d_j: the other row's moves cancel
    d_j = 1e-9 * np.linalg.norm(b[row]) / abs(x[row, j] - ratio * x[row, k])
    data = system.data.copy()
    data[at_j] += d_j
    data[at_k] -= ratio * d_j
    out, flags = solve_band(lu, pattern.band, pattern, read_only(data), b, eliminated)
    assert flags == 0
    assert np.array_equal(bits(eliminated), bits(x))
    rel = relative_residuals(out)
    assert rel[row] == pytest.approx(1e-9, rel=0.01)
    assert rel[1 - row] <= 1e-10
    with pytest.raises(ResidualTooLarge, match=f"^{what} solve: relative residual "
                                               f"{rel[row]:.3e}$"):
        raise mapped(kernels.OVER_GATE, row=row, rel=tuple(rel))
    norms = np.linalg.norm(b, axis=1)
    assert max(norms[0] / norms[1], norms[1] / norms[0]) > 100


# every function of the kernel source with target clones, those of them
# that only the phases call, static in the source, and every function that
# kernels.Kernel binds, the run path's
KERNELS = ("element_data", "r_stiffness", "triangle_blocks", "edge_blocks", "mass_action",
           "bottom_load", "state_rhs", "extension_rhs", "gather", "scatter_add", "band_factor",
           "band_solve", "residual")
STATIC_KERNELS = ("bottom_load", "gather")
BOUND_KERNELS = tuple(name for name in KERNELS if name not in STATIC_KERNELS)
RUN_PATH = ("fixed_pattern", "band_layout", "reverse_cuthill_mckee", "slab_storage", "slab_step",
            "mass_action", "fill_template")


def test_every_kernel_is_listed():
    """The kernels with target clones, static ones included, are KERNELS.
    kernels.Kernel binds exactly the run path's functions, RUN_PATH: the
    symbolic pass of a topology (its patterns' structure and band layout
    and its vertex order), the workspace's storage, the slab's one call,
    the mass action and the formatter; the tests bind the other kernels
    (compiled.Entries).  The
    functions the source exports at file scope, every definition that is
    not static, are exactly those two sets of bindings, which share none.
    An entry no caller binds cannot stay exported."""
    cloned = re.findall(r"^(static )?CLONES \w+ (\w+)\(", kernels.SOURCE, re.M)
    assert sorted(name for _, name in cloned) == sorted(KERNELS)
    assert sorted(name for static, name in cloned if static) == sorted(STATIC_KERNELS)
    exported = re.findall(r"^(?:CLONES )?(?!static\b)\w+ \**(\w+)\(", kernels.SOURCE, re.M)
    kernel = kernels.kernel()
    run_path = [fn.__name__ for name, fn in vars(kernel).items() if name != "lib"]
    tested = [fn.__name__ for fn in vars(entries(kernel)).values()]
    assert sorted(run_path) == sorted(RUN_PATH)
    assert sorted(exported) == sorted(run_path + tested) == sorted({*BOUND_KERNELS, *RUN_PATH})


def test_portable_build_gives_the_same_bits(monkeypatch, tmp_path):
    """The source built without target clones, the code any x86-64 or other
    host runs, computes every kernel's output, the vertex order and both
    patterns with their band layouts of a fresh topology, a controlled
    step's outputs, the LU, solutions and reduced mass action it leaves in
    the workspace and the saddle system slab_system copies out, and one- and
    two-row solves and residual checks of that system, bit for bit as the
    run path's build, every function of which dispatches among its clones on
    x86-64."""
    cloned = ctypes.CDLL(str(kernels.build()))
    monkeypatch.setattr(kernels, "CACHE", tmp_path)
    path = kernels.build(flags=kernels.FLAGS + ("-DKERNELS_PORTABLE",))
    portable = kernels.Kernel(path)
    if platform.machine() == "x86_64":      # only the cloned build dispatches
        for name in BOUND_KERNELS:
            cloned[f"{name}.resolver"]
            with pytest.raises(AttributeError):
                ctypes.CDLL(str(path))[f"{name}.resolver"]

    def computed():
        """Each kernel's output on a fresh 16x32 tc1 slab, and the step's."""
        slab = tc1_slab()
        got, _ = compiled_kernels(*slab)
        _, mesh, u, _, zeta, phys, num = slab
        topology = mesh.topology
        got["vertex order"] = vertex_order(topology)
        for name, pattern_of in (("saddle", _saddle_pattern), ("extension", _extension_pattern)):
            pattern = topology.memo(pattern_of)
            for record, fields in ((pattern, "slot indices indptr"),
                                   (pattern.band, "position lower upper")):
                for field in fields.split():
                    got[f"{name} {field}"] = getattr(record, field).astype(np.int64)
            got[f"{name} kl, ku"] = np.array([pattern.band.kl, pattern.band.ku])
        new, _ = step(state_of(mesh, u), zeta, phys, num, gradient=True)
        ws = workspace(mesh.topology)
        got |= {"z": new.mesh.z, "u": new.u.values, "p": new.p.values, "lu": ws.band.copy(),
                "step's solutions": ws.x.copy(), "reduced mass action": ws.reduced.copy()}
        system = saddle(*slab)
        pattern, n = system.pattern, len(system.rhs)
        loads = np.stack((system.rhs, system.bottom_load))
        ab = band_storage(system)
        _, one, one_out, _ = solve_system(ab, pattern.band, pattern, system.data, loads[0])
        _, two, two_out, _ = solve_system(ab, pattern.band, pattern, system.data, loads)
        checks = np.empty((2, n + 2))
        residual(pattern, system.data, loads, two, checks)
        got |= {"matrix": system.data, "rhs": system.rhs, "reduced bottom load": loads[1],
                "solve": one, "residual": one_out, "two-row solve": two,
                "two-row residual": two_out, "residual alone": checks}
        return got

    run_path = computed()
    monkeypatch.setattr(kernels, "kernel", lambda: portable)
    for name, array in computed().items():
        assert np.array_equal(bits(array), bits(run_path[name])), name


def test_band_arguments_are_checked_before_the_kernel_runs():
    ab = np.zeros((5, 4), order="F")
    with pytest.raises(DimensionMismatch):
        factor_band(ab, full_band(4, 2, 1))
    with pytest.raises(DimensionMismatch):
        factor_band(ab, full_band(5, 2, 2))
    for loads in (np.ones((1, 5)), np.ones((3, 4)), np.ones(4)):
        with pytest.raises(DimensionMismatch):
            factor_band(ab, full_band(4, 2, 2), loads)
    mesh = build_structured_mesh(1.0, 1.0, 2, 2)
    system = on_saddle(mesh, sp.eye(3 * mesh.num_nodes), np.ones(3 * mesh.num_nodes))
    n = len(system.rhs)
    (lu, _), band, pattern, data = band_lu(system), system.pattern.band, system.pattern, \
        system.data
    other = pattern_of(sp.eye(n + 1, format="csc"), np.arange(n + 1), n + 1)
    b = np.ones((2, n))
    for args in ((full_band(n + 1, band.kl, band.ku), pattern, data, b, b.copy()),
                 (band, other, data, b, b.copy()),
                 (band, pattern, data[:-1], b, b.copy()),
                 (band, pattern, data, b[:, :-1], b.copy()),
                 (band, pattern, data, b, np.ones((2, n - 1))),
                 (band, pattern, data, b[:1], b.copy()),
                 (band, pattern, data, np.ones((3, n)), np.ones((3, n))),
                 (band, pattern, data, b[0], b[0].copy())):
        with pytest.raises(DimensionMismatch):
            solve_band(lu, *args)


def test_kernel_calls_leave_no_garbage_cycles():
    """Every kernel call, and every binding of a new mesh's and field's
    arrays, frees what it allocates by reference counting, so the steps never
    wake the cyclic garbage collector; an array of the wrong dtype or layout
    is still refused before the kernel runs."""
    mesh_new, mesh_old, u, V, zeta, phys, num = slab = tc1_slab(4, 8)
    ed = element_data(mesh_new)
    system = saddle(*slab)
    band = system.pattern.band
    lu, _ = band_lu(system)
    blocks = np.empty((len(ed.tri), 9, 9))
    stiffness = np.empty((len(ed.tri), 3, 3))
    b = np.stack((system.rhs, system.rhs))
    x = b.copy()
    state = state_of(mesh_old, u)
    gc.collect()
    gc.disable()
    try:
        for _ in range(20):
            triangle_blocks(ed, u, V, num.dt, phys.nu, num.Cs, blocks)
            r_stiffness(ed, stiffness)
            factor_band(lu.copy(order="F"), band, b.copy())
            solve_band(lu, band, system.pattern, system.data, b, x)
            # a whole step and its gradient: every kernel, on new meshes and fields
            new, _ = step(state, zeta, phys, num, gradient=True)
            kinetic_energy(new.u)
        assert gc.collect() == 0
    finally:
        gc.enable()
    with pytest.raises(ctypes.ArgumentError):
        lib().scatter_add(0, system.pattern.slot, np.zeros(0, np.float32), np.zeros(1))
    with pytest.raises(ctypes.ArgumentError):
        factor_band(np.ascontiguousarray(lu), band)
    with pytest.raises(ctypes.ArgumentError):
        factor_band(lu.copy(order="F"), band, b.astype(np.float32))
    with pytest.raises(ctypes.ArgumentError):
        solve_band(lu, band, system.pattern, system.data, b,
                           np.zeros(b.shape, np.float32))


def test_binding_refuses_a_writeable_or_wrongly_typed_array():
    """A workspace binds the arrays of its topology, radial table and
    patterns through pointers taken once, with no check per step: only a
    read-only C-contiguous array of the kernel's dtype is bound, so a
    workspace of any other cannot be made."""
    topology = build_structured_mesh(1.0, 1.0, 2, 2).topology
    table = radial_table(topology)
    rq = table.rq.copy()
    assert kernels.address(table.rq) == table.rq.ctypes.data
    for array, dtype in ((rq, np.float64),                          # writeable
                         (table.rq.astype(np.float32), np.float64),
                         (table.rq, np.int64),
                         (np.asfortranarray(np.tile(table.rq, 2)), np.float64),
                         (table.rq.tolist(), np.float64)):
        if isinstance(array, np.ndarray):
            array.setflags(write=array is rq)
        with pytest.raises(TypeError):
            kernels.address(array, dtype)
    edges = topology.boundary_edges
    wall, surface, bottom = (edges[tag] for tag in (BoundaryTag.WALL, BoundaryTag.FREE_SURFACE,
                                                    BoundaryTag.BOTTOM))
    sizes = (topology.num_nodes, len(topology.triangles), len(wall), len(surface), len(bottom),
             topology.contact_node)
    arrays = dict(tri=topology.triangles, wall=wall, surface=surface, bottom=bottom,
                  r=topology.radii)
    saddle = topology.memo(_saddle_pattern)
    extension = topology.memo(capflow.forms._extension_pattern)
    capflow.forms.Workspace(arrays, sizes, table, saddle, extension)     # the parts bind
    wrong_tri = dict(arrays, tri=read_only(topology.triangles.astype(np.int32)))
    band = replace(saddle.band, position=np.zeros(0, np.int32))
    for parts in ((arrays, sizes, replace(table, rq=rq), saddle, extension),
                  (wrong_tri, sizes, table, saddle, extension),
                  (arrays, sizes, table, replace(saddle, band=band), extension)):
        with pytest.raises(TypeError):
            capflow.forms.Workspace(*parts)


def spoil(*arrays):
    """Overwrite the memory of each array, read-only or not, with NaN (0 for indices)."""
    for a in arrays:
        owner = a if a.base is None else a.base
        owner.setflags(write=True)
        owner[...] = np.nan if owner.dtype.kind == "f" else 0


@pytest.mark.parametrize("copy_of", [copy.deepcopy, lambda s: pickle.loads(pickle.dumps(s))],
                         ids=["deepcopy", "pickle"])
def test_a_copied_state_reads_only_its_own_arrays(copy_of):
    """deepcopy and pickle rebuild a state's mesh, topology and fields from
    their fields, through their constructors, and take no memo along: the
    copy builds its own radial table, patterns and workspace, which binds
    the copy's arrays and copies in the copied state.  With every array of
    the original and of its caches overwritten, a step from the copy gives
    the original's bits."""
    mesh_new, mesh, u, V, zeta, phys, num = tc1_slab(4, 8)
    state = state_of(mesh, u)
    expected, _ = step(state, zeta, phys, num)     # fills the memos, which the copy leaves
    copied = copy_of(state)
    topology, ed, table = mesh.topology, element_data(mesh), radial_table(mesh.topology)
    patterns = [topology.memo(_saddle_pattern), topology.memo(capflow.forms._extension_pattern)]
    spoil(mesh.z, u.values, topology.radii, topology.triangles, *topology.boundary_edges.values(),
          ed.area, ed.grad_r, table.rq, table.inv_r, table.dr, table.rn, table.hoop, table.zz,
          table.coupling_z, *(a for p in patterns for a in (p.free, p.slot, p.indices, p.indptr,
                                                              p.band.position, p.band.lower,
                                                              p.band.upper)))
    got, _ = step(copied, zeta, phys, num)
    assert np.array_equal(bits(got.u.values), bits(expected.u.values))
    assert np.array_equal(bits(got.mesh.z), bits(expected.mesh.z))


@pytest.mark.parametrize("defines", [[], ["-DKERNELS_PORTABLE"]], ids=["cloned", "portable"])
def test_kernel_source_compiles_without_warnings(tmp_path, defines):
    """kernels.c, the file the package ships and SOURCE reads byte for byte,
    builds with the library's flags and the compiler's common and extra
    warnings as errors, with and without the target clones; at -O3 the
    optimiser's passes add warnings that a syntax check does not see."""
    source = Path(kernels.__file__).with_name("kernels.c")
    assert source.read_text() == kernels.SOURCE
    proc = subprocess.run([kernels.COMPILER, *kernels.FLAGS, "-Wall", "-Wextra", "-Werror",
                           *defines, "-o", str(tmp_path / "kernels.so"), str(source)],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


def test_import_and_initial_state_load_no_kernels():
    """Importing capflow and making a run's initial state builds and loads no
    kernel library: the records hold plain arrays, and only a topology's
    first step, which builds its workspace, loads the kernels."""
    code = ("import capflow\n"
            "from capflow import kernels\n"
            "from capflow.acceptance import tc1_config\n"
            "from capflow.config import num_params\n"
            "cfg = tc1_config()\n"
            "capflow.initial_state(cfg.radius, cfg.init_height, num_params(cfg))\n"
            "assert kernels.kernel.cache_info().currsize == 0\n")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


def test_a_cached_kernel_starts_no_compiler(monkeypatch):
    path = kernels.build()

    def no_compiler(*args, **kwargs):
        raise AssertionError("compiler started on a cache hit")

    monkeypatch.setattr(subprocess, "run", no_compiler)
    assert kernels.build() == path
    kernels.Kernel(path)


def test_a_build_removes_the_libraries_it_supersedes(monkeypatch, tmp_path):
    """A build deletes every other library of the kernels' prefix in the
    cache, and nothing else; a process that loaded one keeps it."""
    monkeypatch.setattr(kernels, "CACHE", tmp_path)
    stale = tmp_path / f"{kernels.PREFIX}-{'0' * 64}.so"
    stale.write_bytes(b"")
    unrelated = tmp_path / "other-0.so"
    unrelated.write_bytes(b"")
    first = kernels.build(source="int one(void) { return 1; }")
    assert sorted(tmp_path.iterdir()) == [first, unrelated]
    loaded = ctypes.CDLL(str(first))
    second = kernels.build(source="int two(void) { return 2; }")
    assert sorted(tmp_path.iterdir()) == [second, unrelated]
    assert loaded.one() == 1


def test_missing_compiler_is_a_kernel_build_error(monkeypatch, tmp_path):
    missing = str(tmp_path / "no-such-cc")
    monkeypatch.setattr(kernels, "COMPILER", missing)
    monkeypatch.setattr(kernels, "CACHE", tmp_path / "cache")
    with pytest.raises(KernelBuildError) as err:
        kernels.build()
    assert err.value.command[0] == missing
    assert "no-such-cc" in err.value.stderr
    assert list((tmp_path / "cache").iterdir()) == []


def test_unwritable_cache_is_a_kernel_build_error(monkeypatch, tmp_path):
    """A cache path under a regular file cannot be made: the OS error comes
    as a KernelBuildError that names the path and the OS's message."""
    blocker = tmp_path / "file"
    blocker.write_bytes(b"")
    cache = blocker / "cache"
    monkeypatch.setattr(kernels, "CACHE", cache)
    with pytest.raises(KernelBuildError) as err:
        kernels.build(source="int one(void) { return 1; }")
    assert err.value.command == []
    assert str(cache) in err.value.stderr and "Not a directory" in err.value.stderr
    assert str(err.value).startswith("building the compiled kernels failed: ")
    assert isinstance(err.value.__cause__, NotADirectoryError)


def test_failing_compiler_is_a_kernel_build_error(monkeypatch, tmp_path):
    monkeypatch.setattr(kernels, "CACHE", tmp_path)
    with pytest.raises(KernelBuildError) as err:
        kernels.build(source="this is not C")
    assert err.value.command[0] == kernels.COMPILER
    assert "error" in err.value.stderr
    assert str(err.value).startswith("building the compiled kernels failed: ")
    assert list(tmp_path.iterdir()) == []


def test_workspace_struct_matches_the_source(tmp_path):
    """The ctypes mirrors of struct workspace and struct pattern have the
    source's size and every field at the source's offset, so a phase reads
    what the bindings wrote."""
    source = kernels.SOURCE
    structs = source[source.index("enum status"):source.index("static double clock_ms")]
    checks = [(struct, name) for struct, mirror in (("workspace", kernels.Workspace),
                                                     ("pattern", kernels.Pattern))
              for name in ("", *(field for field, _ in mirror._fields_))]
    program = tmp_path / "layout.c"
    program.write_text("#include <stddef.h>\n#include <stdint.h>\n#include <stdio.h>\n" + structs
                       + "int main(void)\n{\n" + "".join(
                           f'    printf("%zu\\n", offsetof(struct {struct}, {name}));\n' if name
                           else f'    printf("%zu\\n", sizeof(struct {struct}));\n'
                           for struct, name in checks) + "}\n")
    subprocess.run([kernels.COMPILER, "-o", str(tmp_path / "layout"), str(program)], check=True)
    got = subprocess.run([str(tmp_path / "layout")], capture_output=True, text=True, check=True)
    mirrors = {"workspace": kernels.Workspace, "pattern": kernels.Pattern}
    want = [getattr(mirrors[struct], name).offset if name else ctypes.sizeof(mirrors[struct])
            for struct, name in checks]
    assert list(map(int, got.stdout.split())) == want


@pytest.mark.parametrize("grid, doubles", [((4, 4), 4852), ((16, 32), 219155)],
                         ids=["4x4", "16x32"])
def test_workspace_storage_keeps_its_size(grid, doubles):
    """The storage block that slab_storage sizes holds the phases' storage,
    4513 doubles at 4x4 and 210936 at 16x32, and the old state (5 n + m)
    and the new one (6 n + m) between the reduced mass action and the
    region, V first and the saddle band last in it."""
    ws = workspace(build_structured_mesh(1.0, 1.0, *grid).topology)
    s, start = ws.struct, ws.storage.ctypes.data
    phases = {(4, 4): 4513, (16, 32): 210936}[grid]
    assert ws.storage.size == doubles == phases + 11 * ws.n + 2 * ws.m
    assert s.reduced < s.z_old == ws.old.ctypes.data < s.z == ws.new.ctypes.data < s.region
    assert s.z == s.z_old + ws.old.nbytes and s.region == s.z + ws.new.nbytes
    assert s.V == start and s.lu == s.region == ws.band.ctypes.data
    assert s.lu + ws.band.nbytes <= start + ws.storage.nbytes
