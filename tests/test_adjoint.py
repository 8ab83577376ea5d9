import numpy as np
import pytest

import capflow.control
from capflow.acceptance import run_tc1, tc1_config
from capflow.fields import (NumParams, PhysParams, VectorFieldP1, zero_scalar_field,
                            zero_vector_field)
from capflow.forms import _flatten, mass_action, workspace
from capflow.geometry import build_structured_mesh
from capflow.stepping import FlowState, slab_system, step

from .conftest import factored_systems
from .oracles import oracle_adjoint, oracle_adjoint_solution, oracle_bottom_integral
from .pattern_forms import mass_matrix, reduced

PHYS = PhysParams(nu=1.87e-5, gamma=3.91e-8, chi=850.0, theta_s=np.pi / 2,
                  p_bar=9.81e-4, g=9.81)
NUM = NumParams(dt=2e-3, Cs=0.4, N1=4, N3=4, alpha=0.0, lam=0.0, T=0.1)


def start_state(seed=None, radius=5e-4, height=1e-4):
    mesh = build_structured_mesh(radius, height, NUM.N1, NUM.N3)
    if seed is None:
        u_old = zero_vector_field(mesh)
    else:
        rng = np.random.default_rng(seed)
        vals = 1e-3 * rng.standard_normal((mesh.num_nodes, 2))
        vals[mesh.radial_constrained_nodes, 0] = 0.0
        u_old = VectorFieldP1(vals, mesh)
    return FlowState(mesh=mesh, u=u_old, p=zero_scalar_field(mesh), t=0.0)


def test_rest_state_has_zero_adjoint():
    # hydrostatic rest at the equilibrium height: the new velocity is noise-level
    state = start_state()
    system = slab_system(state, 0.0, PHYS, NUM)
    mass_u = mass_action(zero_vector_field(system.mesh))
    assert np.abs(oracle_adjoint_solution(system, mass_u)).max() == 0.0
    assert oracle_bottom_integral(system, mass_u) == 0.0
    # the step's gradient solve, its tangent w weighted by the same zero mass action
    step(state, 0.0, PHYS, NUM, gradient=True)
    ws = workspace(state.mesh.topology)
    assert np.all(np.isfinite(ws.w))
    assert float(reduced(system.pattern, mass_u) @ ws.w) == 0.0


def test_velocity_block_is_state_transpose():
    state = start_state(seed=12)
    system = slab_system(state, 0.0, PHYS, NUM)
    V = VectorFieldP1((system.mesh.nodes - state.mesh.nodes) / NUM.dt, state.mesh)
    free = system.pattern.free
    ref = oracle_adjoint(system.mesh, state.mesh, state.u, V, PHYS, NUM)[np.ix_(free, free)]
    vel = free < 2 * system.mesh.num_nodes
    scale = abs(system.matrix[vel][:, vel]).max()
    # the full monolithic operator is the exact transpose
    assert np.abs(system.matrix.T.toarray() - ref).max() <= 1e-13 * scale


def bottom_gradient(state, zeta=0.0):
    """The new state and (I_b, residual) of the step's gradient solve."""
    new, diag = step(state, zeta, PHYS, NUM, gradient=True)
    return new, (diag.bottom_integral, diag.bottom_residual)


def test_slab_adjoint_is_a_pure_function():
    state = start_state(seed=3)
    new, first = bottom_gradient(state)
    system = slab_system(state, 0.0, PHYS, NUM)
    z_first = oracle_adjoint_solution(system, mass_action(new.u))
    # advance another unrelated slab, then recompute the same adjoint
    step(new, 0.0, PHYS, NUM)
    new, second = bottom_gradient(state)
    system = slab_system(state, 0.0, PHYS, NUM)
    assert np.array_equal(z_first, oracle_adjoint_solution(system, mass_action(new.u)))
    assert first == second


def test_hydrostatic_gradient_is_negligible():
    # at rest the objective is at a minimum w.r.t. zeta: near-zero bottom integral
    phys = PHYS
    _, (ib, _) = bottom_gradient(start_state(height=phys.p_bar / phys.g))
    # the floor is set by the pressure-stabilization perturbation of the
    # otherwise exact hydrostatic balance; compare against the transient
    # magnitude of the same quantity (~4e-12 for the filling flow)
    assert abs(ib) <= 1e-7 * 4e-12


def test_gradient_sign_from_rest_below_equilibrium():
    # capillary/pressure inflow: the first control update must be negative
    _, (ib, _) = bottom_gradient(start_state(height=5e-5))
    assert ib > 0.0        # update -alpha * I_b < 0


def test_finite_difference_duality_single_slab():
    # the perturbed objectives weigh the new velocity with the test forms'
    # mass matrix, independent of the step's mass action
    state = start_state(height=5e-5)

    def j_of(zeta):
        new, _ = step(state, zeta, PHYS, NUM)
        uf = _flatten(new.u.values)
        return 0.5 * float(uf @ (mass_matrix(new.mesh) @ uf))

    _, (ib, _) = bottom_gradient(state)
    eps = 1e-4
    fd = (j_of(eps) - j_of(-eps)) / (2 * eps)
    assert fd == pytest.approx(ib, rel=1e-6)


def relative_gap(ib, ref):
    return abs(ib - ref) / abs(ref)


def test_bottom_integral_matches_transposed_reference_on_a_random_slab():
    state = start_state(seed=12)
    new, (ib, residual) = bottom_gradient(state)
    system = slab_system(state, 0.0, PHYS, NUM)
    assert relative_gap(ib, oracle_bottom_integral(system, mass_action(new.u))) <= 1e-12
    assert 0.0 <= residual <= 1e-10     # the gate the solve passed


def test_run_path_bottom_integral_matches_transposed_reference(monkeypatch):
    # m . A^-1 b from the step's plain solve equals b . A^-T m on each slab
    # of a controlled 16x32 refill, A the system the step factored
    gaps = []
    run_step = capflow.control.step

    def checked(*args, **kwargs):
        new, diag = run_step(*args, **kwargs)
        gaps.append(relative_gap(diag.bottom_integral,
                                 oracle_bottom_integral(factored[-1], mass_action(new.u))))
        return new, diag

    factored = factored_systems(monkeypatch)
    monkeypatch.setattr(capflow.control, "step", checked)
    hist = run_tc1(controlled=True, T=10 * tc1_config().dt)
    assert hist.abort_reason is None
    assert len(gaps) == 10
    assert max(gaps) <= 1e-12, gaps
