import numpy as np
import pytest

from capflow.errors import DimensionMismatch
from capflow.fields import VectorFieldP1, zero_vector_field
from capflow.geometry import build_structured_mesh, contact_line_height, displace_mesh

from .conftest import mesh_velocity, perturbed_mesh
from .oracles import oracle_form_sp


def test_zero_velocity_extends_to_zero():
    mesh = build_structured_mesh(1.0, 1.0, 4, 4)
    u = VectorFieldP1(np.zeros((mesh.num_nodes, 2)), mesh)
    V, residual = mesh_velocity(mesh, u)
    assert np.abs(V.values).max() == 0.0
    assert residual == 0.0


def test_field_on_another_mesh_is_a_dimension_mismatch():
    mesh = build_structured_mesh(1.0, 1.0, 4, 4)
    twin = build_structured_mesh(1.0, 1.0, 4, 4)
    with pytest.raises(DimensionMismatch):
        mesh_velocity(mesh, zero_vector_field(twin))


def test_uniform_surface_speed_gives_linear_profile():
    # flat surface, u.nu = c: the unique harmonic extension is V_z = c z / H
    mesh = build_structured_mesh(1.0, 2.0, 4, 4)
    c = 0.7
    vals = np.zeros((mesh.num_nodes, 2))
    vals[:, 1] = c
    V, residual = mesh_velocity(mesh, VectorFieldP1(vals, mesh))
    assert residual <= 1e-13
    expected = c * mesh.nodes[:, 1] / 2.0
    assert np.allclose(V.values[:, 1], expected, rtol=1e-12, atol=1e-14)
    assert np.abs(V.values[:, 0]).max() == 0.0


def test_tangential_surface_velocity_extends_to_zero():
    # flat surface: any horizontal u has zero normal trace
    mesh = build_structured_mesh(1.0, 1.0, 4, 4)
    vals = np.zeros((mesh.num_nodes, 2))
    vals[:, 0] = np.sin(np.pi * mesh.nodes[:, 0])   # vanishes at wall and axis
    vals[mesh.radial_constrained_nodes, 0] = 0.0
    V, _ = mesh_velocity(mesh, VectorFieldP1(vals, mesh))
    assert np.abs(V.values).max() < 1e-15


def test_maximum_principle_bounds():
    mesh = build_structured_mesh(1.0, 1.0, 6, 6)
    rng = np.random.default_rng(8)
    vals = np.zeros((mesh.num_nodes, 2))
    vals[mesh.surface_nodes, 1] = rng.uniform(-1.0, 2.0, len(mesh.surface_nodes))
    V, _ = mesh_velocity(mesh, VectorFieldP1(vals, mesh))
    f = vals[mesh.surface_nodes, 1]     # flat surface: data = u_z
    lo = min(f.min(), 0.0) - 1e-12
    hi = max(f.max(), 0.0) + 1e-12
    assert np.all(V.values[:, 1] >= lo)
    assert np.all(V.values[:, 1] <= hi)


def test_contact_line_composition_consistency():
    mesh = perturbed_mesh(seed=2)
    rng = np.random.default_rng(9)
    vals = np.zeros((mesh.num_nodes, 2))
    vals[mesh.surface_nodes, 1] = 0.1 * rng.standard_normal(len(mesh.surface_nodes))
    V, _ = mesh_velocity(mesh, VectorFieldP1(vals, mesh))
    dt = 0.05
    moved = displace_mesh(mesh, V, dt)
    expected = contact_line_height(mesh) + dt * V.values[mesh.contact_node, 1]
    assert contact_line_height(moved) == expected


def test_zero_on_bottom_and_wall_radial():
    mesh = perturbed_mesh(seed=4)
    u = VectorFieldP1(0.01 * np.random.default_rng(3).standard_normal((mesh.num_nodes, 2))
                      * np.array([0.0, 1.0]), mesh)
    V, _ = mesh_velocity(mesh, u)
    assert np.abs(V.values[mesh.bottom_nodes]).max() == 0.0
    assert np.abs(V.values[:, 0]).max() == 0.0


def test_fixed_pattern_extension_matches_coo_reference():
    # the same Dirichlet problem solved densely on the oracle r-weighted stiffness
    # (the pressure stabilization with Cs = h = 1)
    rng = np.random.default_rng(4)
    flat = build_structured_mesh(1.0, 1.0, 6, 6)
    lift = np.zeros((flat.num_nodes, 2))
    lift[:, 1] = 0.05 * rng.uniform(-1, 1, flat.num_nodes) * (flat.nodes[:, 1] > 0)
    mesh = displace_mesh(flat, VectorFieldP1(lift, flat), 1.0)
    vals = rng.standard_normal((mesh.num_nodes, 2))
    vals[mesh.radial_constrained_nodes, 0] = 0.0
    V = mesh_velocity(mesh, VectorFieldP1(vals, mesh))[0].values[:, 1]
    A = oracle_form_sp(mesh, 1.0, h=1.0)
    fixed = np.union1d(mesh.surface_nodes, mesh.bottom_nodes)
    free = np.setdiff1d(np.arange(mesh.num_nodes), fixed)
    g = np.zeros(mesh.num_nodes)
    g[fixed] = V[fixed]
    ref = np.linalg.solve(A[np.ix_(free, free)], -(A @ g)[free])
    assert np.abs(V[free] - ref).max() <= 1e-13 * np.abs(ref).max()
