import numpy as np
import pytest
import scipy.sparse as sp

from capflow.errors import DimensionMismatch, SingularMatrix
from capflow.fields import NumParams, PhysParams, zero_vector_field
from capflow.forms import LinearSystem, assemble_state_system, form_a, mass_matrix, solve
from capflow.geometry import build_structured_mesh

PHYS = PhysParams(nu=1.87e-5, gamma=3.91e-8, chi=850.0, theta_s=np.pi / 2,
                  p_bar=9.81e-4, g=9.81)
NUM = NumParams(dt=2e-3, Cs=0.4, N1=4, N3=4, alpha=0.0, lam=0.0, T=0.1)


def wrap_system(mesh, matrix, rhs):
    """Embed a (2N, 2N) velocity operator in a reduced monolithic system."""
    n = mesh.num_nodes
    full = sp.lil_matrix((3 * n, 3 * n))
    full[:2 * n, :2 * n] = matrix
    full[2 * n:, 2 * n:] = sp.eye(n, format="lil")
    b = np.zeros(3 * n)
    b[:len(rhs)] = rhs
    free = mesh.topology.free_dofs
    return LinearSystem(matrix=full.tocsr()[np.ix_(free, free)].tocsr(), rhs=b[free],
                        free=free, size_full=3 * n, n_velocity=2 * n, mesh=mesh)


def test_identity_system_returns_rhs():
    mesh = build_structured_mesh(1.0, 1.0, 2, 2)
    n = mesh.num_nodes
    rng = np.random.default_rng(0)
    b = rng.standard_normal(3 * n)
    b[mesh.radial_constrained_nodes] = 0.0      # scattered into u_r slots
    sys = LinearSystem(matrix=sp.eye(3 * n, format="csr"), rhs=b,
                       free=np.arange(3 * n), size_full=3 * n,
                       n_velocity=2 * n, mesh=mesh)
    u, p, res = solve(sys)
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
    u, p, res = solve(sys)
    got = np.concatenate((u.values[:, 0], u.values[:, 1]))
    assert np.abs(got - x).max() <= 1e-10 * max(np.abs(x).max(), 1.0)


def test_singular_matrix_detected():
    mesh = build_structured_mesh(1.0, 1.0, 2, 2)
    n = mesh.num_nodes
    mat = sp.eye(3 * n, format="lil")
    mat[0, 0] = 0.0
    sys = LinearSystem(matrix=mat.tocsr(), rhs=np.ones(3 * n),
                       free=np.arange(3 * n), size_full=3 * n,
                       n_velocity=2 * n, mesh=mesh)
    with pytest.raises(SingularMatrix):
        solve(sys)


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
    u_new, _, _ = solve(sys)
    assert np.abs(u_new.values[mesh_old.radial_constrained_nodes, 0]).max() == 0.0
