"""The fixed-pattern assembly against the form-by-form COO reference."""

import numpy as np
import pytest
import scipy.sparse as sp

from capflow.acceptance import tc1_config
from capflow.ale import solve_domain_velocity
from capflow.config import num_params, phys_params
from capflow.errors import DimensionMismatch
from capflow.fields import NumParams, zero_vector_field
from capflow.forms import assemble_state_system, state_blocks
from capflow.geometry import AxiMesh, build_structured_mesh, displace_mesh
from capflow.stepping import initial_state, step

from .conftest import random_vector_field
from .test_forms import PHYS, meshes

NUM = NumParams(dt=2e-3, Cs=0.4, N1=2, N3=2, alpha=0.0, lam=0.0, T=0.1)


def reference_system(mesh_new, mesh_old, u_old, V_old, zeta, phys, num):
    """Reduced matrix and rhs from state_blocks, bmat and dof slicing."""
    K, B, Sp, rhs_top = state_blocks(mesh_new, mesh_old, u_old, V_old, zeta, phys, num)
    matrix = sp.bmat([[K, B], [-B.T, Sp]], format="csr")
    rhs = np.concatenate((rhs_top, np.zeros(mesh_new.num_nodes)))
    free = mesh_new.topology.free_dofs
    return matrix[np.ix_(free, free)], rhs[free]


def form_case(idx):
    mesh = meshes()[idx]
    u = random_vector_field(mesh, seed=50 + idx)
    V = random_vector_field(mesh, seed=60 + idx)
    return mesh, mesh, u, V, 0.3e-3, PHYS, NUM


def tc1_slab():
    """The fourth slab of the 16x32 reference refill, zeta = 1e-4."""
    cfg = tc1_config()
    phys, num = phys_params(cfg), num_params(cfg)
    state = initial_state(cfg.radius, cfg.init_height, num)
    for _ in range(3):
        state, *_ = step(state, 1e-4, phys, num)
    V = solve_domain_velocity(state.mesh, state.u).field
    return displace_mesh(state.mesh, V, num.dt), state.mesh, state.u, V, 1e-4, phys, num


def rel(a, b):
    return abs(a - b).max() / abs(b).max()


@pytest.mark.parametrize("case", [lambda: form_case(0), lambda: form_case(1),
                                  lambda: form_case(2), tc1_slab],
                         ids=["two-triangle", "perturbed", "structured", "tc1-16x32-slab"])
def test_fixed_pattern_equals_coo_reference(case):
    args = case()
    system = assemble_state_system(*args)
    matrix, rhs = reference_system(*args)
    assert np.array_equal(system.free, args[0].topology.free_dofs)
    assert system.matrix.shape == matrix.shape
    assert rel(system.matrix, matrix) <= 1e-14
    assert np.abs(system.rhs - rhs).max() <= 1e-14 * np.abs(rhs).max()


def test_other_connectivity_is_rejected_and_gets_its_own_pattern():
    mesh = build_structured_mesh(1.0, 1.0, 2, 2)
    # the same nodes with every cell split along its other diagonal
    other = []
    for i in range(2):
        for j in range(2):
            a, b, c, d = 3 * i + j, 3 * (i + 1) + j, 3 * (i + 1) + j + 1, 3 * i + j + 1
            other += [(a, b, d), (b, c, d)]
    parts = dict(nodes=mesh.nodes, triangles=np.array(other),
                 boundary_edges=dict(mesh.boundary_edges),
                 contact_node=mesh.contact_node, radius=mesh.radius)
    with pytest.raises(DimensionMismatch):
        AxiMesh(**parts, topology=mesh.topology)

    flipped = AxiMesh(**parts)
    u, V = zero_vector_field(mesh), zero_vector_field(mesh)
    assemble_state_system(mesh, mesh, u, V, 0.0, PHYS, NUM)   # builds mesh's pattern
    with pytest.raises(DimensionMismatch):
        assemble_state_system(flipped, mesh, u, V, 0.0, PHYS, NUM)

    w = random_vector_field(flipped, seed=4)
    system = assemble_state_system(flipped, flipped, w, w, 0.0, PHYS, NUM)
    matrix, rhs = reference_system(flipped, flipped, w, w, 0.0, PHYS, NUM)
    assert rel(system.matrix, matrix) <= 1e-14
    assert np.abs(system.rhs - rhs).max() <= 1e-14 * np.abs(rhs).max()
