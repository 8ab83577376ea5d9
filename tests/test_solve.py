from dataclasses import FrozenInstanceError

import numpy as np
import pytest
import scipy.sparse as sp

from capflow.errors import DimensionMismatch, SingularMatrix
from capflow.fields import NumParams, PhysParams, zero_vector_field
from capflow.forms import (BandLayout, FixedPattern, LinearSystem, assemble_state_system,
                           factorize, solve)
from capflow.geometry import build_structured_mesh

from .pattern_forms import form_a, mass_matrix

PHYS = PhysParams(nu=1.87e-5, gamma=3.91e-8, chi=850.0, theta_s=np.pi / 2,
                  p_bar=9.81e-4, g=9.81)
NUM = NumParams(dt=2e-3, Cs=0.4, N1=4, N3=4, alpha=0.0, lam=0.0, T=0.1)


def system_of(matrix, rhs, free, mesh):
    """A saddle LinearSystem on a hand-built CSC matrix, over a pattern of the
    matrix's own structure whose reduced rows are the dofs free of mesh's 3 N,
    in that order."""
    pattern = FixedPattern(free=free, size=3 * mesh.num_nodes, shapes=[],
                           slot=np.empty(0, np.int32),
                           indices=matrix.indices, indptr=matrix.indptr,
                           band=BandLayout.of(matrix.indices, matrix.indptr))
    return LinearSystem(pattern=pattern, matrix=matrix, rhs=rhs, mesh=mesh)


def lu_solve(system):
    return solve(factorize(system), system.rhs)


def wrap_system(mesh, matrix, rhs):
    """Embed a (2N, 2N) velocity operator in a reduced monolithic system."""
    n = mesh.num_nodes
    full = sp.lil_matrix((3 * n, 3 * n))
    full[:2 * n, :2 * n] = matrix
    full[2 * n:, 2 * n:] = sp.eye(n, format="lil")
    b = np.zeros(3 * n)
    b[:len(rhs)] = rhs
    free = np.setdiff1d(np.arange(3 * n), mesh.radial_constrained_nodes)
    return system_of(full.tocsr()[np.ix_(free, free)].tocsc(), rhs=b[free],
                     free=free, mesh=mesh)


def test_identity_system_returns_rhs():
    mesh = build_structured_mesh(1.0, 1.0, 2, 2)
    n = mesh.num_nodes
    rng = np.random.default_rng(0)
    b = rng.standard_normal(3 * n)
    b[mesh.radial_constrained_nodes] = 0.0      # scattered into u_r slots
    sys = system_of(sp.eye(3 * n, format="csc"), rhs=b,
                    free=np.arange(3 * n), mesh=mesh)
    u, p, res = lu_solve(sys)
    assert np.array_equal(np.concatenate((u.values[:, 0], u.values[:, 1], p.values)), b)
    assert res <= 1e-15


def test_spd_block_manufactured_solution():
    mesh = build_structured_mesh(1.0, 1.0, 2, 2)
    n = mesh.num_nodes
    A = (form_a(mesh, 1.0, PHYS) + mass_matrix(mesh)).tolil()
    rng = np.random.default_rng(1)
    x = rng.standard_normal(2 * n)
    x[mesh.radial_constrained_nodes] = 0.0
    b = np.asarray(A.tocsr() @ x)
    sys = wrap_system(mesh, A, b)
    u, p, res = lu_solve(sys)
    got = np.concatenate((u.values[:, 0], u.values[:, 1]))
    assert np.abs(got - x).max() <= 1e-10 * max(np.abs(x).max(), 1.0)


def test_singular_matrix_detected():
    mesh = build_structured_mesh(1.0, 1.0, 2, 2)
    n = mesh.num_nodes
    mat = sp.eye(3 * n, format="lil")
    mat[0, 0] = 0.0
    sys = system_of(mat.tocsc(), rhs=np.ones(3 * n),
                    free=np.arange(3 * n), mesh=mesh)
    with pytest.raises(SingularMatrix):
        lu_solve(sys)


def test_mismatched_field_mesh_rejected():
    mesh_a = build_structured_mesh(1.0, 1.0, 4, 4)
    mesh_b = build_structured_mesh(1.0, 1.0, 4, 4)
    u = zero_vector_field(mesh_b)
    V = zero_vector_field(mesh_b)
    with pytest.raises(DimensionMismatch):
        assemble_state_system(mesh_a, mesh_a, u, V, 0.0, PHYS, NUM)


def test_solved_velocity_respects_essential_conditions():
    mesh_old = build_structured_mesh(5e-4, 5e-5, 4, 4)
    u = zero_vector_field(mesh_old)
    V = zero_vector_field(mesh_old)
    sys = assemble_state_system(mesh_old, mesh_old, u, V, 0.0, PHYS, NUM)
    u_new, _, _ = lu_solve(sys)
    assert np.abs(u_new.values[mesh_old.radial_constrained_nodes, 0]).max() == 0.0


def test_lu_carries_the_system_it_factors():
    mesh = build_structured_mesh(5e-4, 5e-5, 4, 4)
    u = zero_vector_field(mesh)
    system = assemble_state_system(mesh, mesh, u, u, 0.0, PHYS, NUM)
    lu = factorize(system)
    assert lu.system is system
    # frozen: the matrix the residual gate reads is the one factored
    with pytest.raises(FrozenInstanceError):
        system.matrix = sp.eye(system.matrix.shape[0], format="csc")
