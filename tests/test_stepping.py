import ctypes

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.sparse._compressed import _cs_matrix

import capflow.stepping
from capflow.fields import NumParams, PhysParams
from capflow.forms import bottom_load_vector, _flatten
from capflow.geometry import mesh_quality
from capflow.stepping import initial_state, pin_heap, step


def _volume(mesh):
    p = mesh.nodes[mesh.triangles]
    rbar = p[..., 0].mean(axis=1)
    return float((mesh.areas * rbar).sum())


def tc1_params():
    phys = PhysParams(nu=1.87e-5, gamma=3.91e-8, chi=850.0, theta_s=np.pi / 2,
                      p_bar=9.81e-4, g=9.81)
    num = NumParams(dt=2e-3, Cs=0.4, N1=16, N3=32, alpha=0.0, lam=0.0, T=0.2)
    return phys, num


def test_hydrostatic_state_is_steady():
    phys, num = tc1_params()
    z_eq = phys.p_bar / phys.g
    state = initial_state(5e-4, z_eq, num)
    new, diag = step(state, 0.0, phys, num)
    assert diag.u_max <= 1e-8
    assert abs(diag.z_cl - z_eq) <= 1e-12


def test_rise_from_rest_matches_reference_peak():
    # five steps from rest reach the first-peak neighbourhood of the reference
    phys, num = tc1_params()
    state = initial_state(5e-4, 5e-5, num)
    for _ in range(5):
        state, diag = step(state, 0.0, phys, num)
    assert diag.z_cl == pytest.approx(1.608e-4, rel=0.05)
    assert state.t == pytest.approx(0.01)


def test_first_step_moves_upward():
    # below the rest height the net bottom/capillary imbalance drives inflow
    phys, num = tc1_params()
    state = initial_state(5e-4, 5e-5, num)
    new, diag = step(state, 0.0, phys, num)
    assert new.u.values[:, 1].max() > 0.0
    surface = new.u.values[new.mesh.surface_nodes, 1]
    assert surface.mean() > 0.0


def test_step_is_bitwise_deterministic():
    phys, num = tc1_params()
    state = initial_state(5e-4, 5e-5, num)
    a1, *_ = step(state, 1e-4, phys, num)
    a2, *_ = step(state, 1e-4, phys, num)
    assert np.array_equal(a1.u.values, a2.u.values)
    assert np.array_equal(a1.p.values, a2.p.values)
    assert np.array_equal(a1.mesh.nodes, a2.mesh.nodes)


def test_mesh_quality_diagnostics_are_those_of_the_new_mesh():
    phys, num = tc1_params()
    state = initial_state(5e-4, 5e-5, num)
    for _ in range(2):
        state, diag = step(state, 1e-4, phys, num)
        assert diag.mesh is state.mesh
        assert (diag.min_area, diag.max_aspect) == mesh_quality(state.mesh)
    with pytest.raises(AttributeError):
        diag.min_area = 1.0


def test_volume_change_equals_bottom_flux():
    # the free surface moves with the flow; the open bottom is the only flux
    # boundary, so dVol = dt * integral of u_z over the bottom (old velocity)
    phys, num = tc1_params()
    state = initial_state(5e-4, 5e-5, num)
    for _ in range(3):
        prev = state
        state, *_ = step(state, 0.0, phys, num)
    dvol = _volume(state.mesh) - _volume(prev.mesh)
    flux = float(bottom_load_vector(prev.mesh) @ _flatten(prev.u.values))
    assert dvol == pytest.approx(num.dt * flux, rel=1e-6)


def test_stability_over_full_run():
    phys, num = tc1_params()
    state = initial_state(5e-4, 5e-5, num)
    radius = state.mesh.radius
    for _ in range(100):
        state, diag = step(state, 0.0, phys, num)
        assert diag.min_area > 0
        assert diag.residual <= 1e-10
        # structural degrees of freedom are never written
        assert np.all(state.mesh.nodes[state.mesh.wall_nodes, 0] == radius)
        assert np.all(state.mesh.nodes[state.mesh.bottom_nodes, 1] == 0.0)
        assert np.all(state.mesh.nodes[state.mesh.axis_nodes, 0] == 0.0)
    assert state.t == pytest.approx(0.2)


def test_a_step_makes_no_scipy_matrix_and_no_scipy_product(monkeypatch):
    """Once the first step has built the patterns, a controlled step and its
    gradient's bottom-load solve build no scipy sparse matrix and take no
    scipy product: the fill hands its data on, and every residual is one
    compiled call."""
    phys, num = tc1_params()
    state = initial_state(5e-4, 5e-5, num)
    state, *_ = step(state, 1e-4, phys, num)

    def refused(*args, **kwargs):
        raise AssertionError("scipy.sparse on the step")

    for name in ("__init__", "_matmul_vector"):
        monkeypatch.setattr(_cs_matrix, name, refused)
    with pytest.raises(AssertionError, match="scipy.sparse on the step"):
        sp.csc_matrix(np.eye(2))
    for _ in range(2):
        state, diag = step(state, 1e-4, phys, num, gradient=True)
        assert max(diag.residual, diag.ale_residual, diag.bottom_residual) <= 1e-10


def test_gradient_figures_are_zero_unless_asked_for():
    phys, num = tc1_params()
    state = initial_state(5e-4, 5e-5, num)
    plain, asked = (step(state, 1e-4, phys, num, gradient=g) for g in (False, True))
    assert (plain[1].bottom_integral, plain[1].bottom_residual) == (0.0, 0.0)
    assert asked[1].bottom_integral > 0.0 and 0.0 < asked[1].bottom_residual <= 1e-10
    # the gradient's solve comes after the state's and changes nothing of it
    assert np.array_equal(plain[0].u.values, asked[0].u.values)
    assert plain[1].residual == asked[1].residual


def test_pin_heap_is_idempotent():
    if not hasattr(ctypes.CDLL(None), "mallopt"):
        pytest.skip("the C library has no mallopt")
    assert pin_heap() is True
    assert pin_heap() is True


@pytest.mark.parametrize("libc", ["raises", "no mallopt"])
def test_pin_heap_is_a_no_op_without_mallopt(monkeypatch, libc):
    def cdll(name):
        if libc == "raises":
            raise OSError("no C library")
        return object()

    monkeypatch.setattr(capflow.stepping.ctypes, "CDLL", cdll)
    assert pin_heap() is False
    _, num = tc1_params()
    assert initial_state(5e-4, 5e-5, num).t == 0.0
