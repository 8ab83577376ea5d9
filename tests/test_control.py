from dataclasses import replace

import numpy as np
import pytest
import scipy.sparse
from hypothesis import given, settings
from hypothesis import strategies as st

import capflow.forms
from capflow.acceptance import run_tc1, tc1_config
from capflow.config import num_params
from capflow.control import (ControlState, gradient, objective_increment,
                             run_instantaneous_control, update_control)
from capflow.errors import DomainEmptied
from capflow.fields import NumParams, PhysParams, ScalarFieldP1, zero_vector_field
from capflow.forms import _flatten
from capflow.geometry import build_structured_mesh
from capflow.stepping import FlowState, initial_state

from . import oracles
from .conftest import random_vector_field

SB = (5e-4) ** 2 / 2


def make_state(u=None, radius=5e-4, height=1e-4):
    mesh = build_structured_mesh(radius, height, 4, 4)
    uf = u(mesh) if callable(u) else zero_vector_field(mesh)
    return FlowState(mesh=mesh, u=uf, p=ScalarFieldP1(np.zeros(mesh.num_nodes), mesh), t=0.0)


class TestObjective:
    def test_zero_state_zero_control(self):
        ctrl = ControlState(zeta=0.0, alpha=1.0, lam=1.0, sigma_b_measure=SB)
        assert objective_increment(make_state(), 0.0, ctrl) == 0.0

    def test_pure_penalty(self):
        c = 0.37
        ctrl = ControlState(zeta=c, alpha=1.0, lam=1.0, sigma_b_measure=SB)
        assert objective_increment(make_state(), c, ctrl) == pytest.approx(
            0.5 * c * c * SB, rel=1e-15)

    def test_kinetic_term_matches_mass_oracle(self):
        state = make_state(u=lambda m: random_vector_field(m, seed=5))
        ctrl = ControlState(zeta=0.0, alpha=1.0, lam=0.0, sigma_b_measure=SB)
        dense = oracles.oracle_mass(state.mesh)
        uf = _flatten(state.u.values)
        assert objective_increment(state, 0.0, ctrl) == pytest.approx(
            0.5 * uf @ dense @ uf, rel=1e-12)


class TestGradientUpdate:
    def test_gradient_reduces_to_bottom_integral_without_penalty(self):
        ctrl = ControlState(zeta=2.0, alpha=1.0, lam=0.0, sigma_b_measure=SB)
        assert gradient(2.0, 3.5e-12, ctrl) == 3.5e-12

    def test_gradient_pure_penalty(self):
        ctrl = ControlState(zeta=1.0, alpha=1.0, lam=1e-5, sigma_b_measure=SB)
        assert gradient(1.0, 0.0, ctrl) == pytest.approx(1e-5 * SB, rel=1e-15)

    def test_update_identity_cases(self):
        ctrl = ControlState(zeta=0.7, alpha=0.0, lam=1e-5, sigma_b_measure=SB)
        assert update_control(ctrl, 123.0).zeta == 0.7          # alpha = 0
        ctrl = ControlState(zeta=0.7, alpha=2.0, lam=0.0, sigma_b_measure=SB)
        assert update_control(ctrl, 0.0).zeta == 0.7            # lam = 0, no input

    def test_geometric_decay_under_constant_input(self):
        alpha, lam = 1.5e8, 1e-5
        ib = 2.0e-12
        ctrl = ControlState(zeta=0.0, alpha=alpha, lam=lam, sigma_b_measure=SB)
        rho = 1.0 - alpha * lam * SB
        fixed_point = -ib / (lam * SB)
        for n in range(1, 200):
            ctrl = update_control(ctrl, ib)
            expected = fixed_point * (1.0 - rho ** n)
            assert ctrl.zeta == pytest.approx(expected, rel=1e-12)
        # decay is monotone toward the fixed point
        assert 0 > ctrl.zeta > fixed_point

    @settings(max_examples=30, deadline=None)
    @given(st.floats(1e-3, 1.9),
           st.one_of(st.just(0.0),
                     st.floats(1e-9, 10), st.floats(-10, -1e-9)))
    def test_rest_fixed_point_unique(self, decay, zeta):
        # with lam > 0 and zero adjoint input, zeta = 0 is the unique fixed
        # point and every iterate contracts toward it (decay = alpha lam |Sb|);
        # magnitudes are kept away from the subnormal floor where the
        # contraction rounds to a no-op
        lam = 0.1
        alpha = decay / (lam * SB)
        ctrl = ControlState(zeta=zeta, alpha=alpha, lam=lam, sigma_b_measure=SB)
        new = update_control(ctrl, 0.0).zeta
        if zeta == 0.0:
            assert new == 0.0
        else:
            assert abs(new) < abs(zeta)


class TestRunLoop:
    def test_uncontrolled_keeps_constant_control(self):
        phys = PhysParams(nu=1.87e-5, gamma=3.91e-8, chi=850.0, theta_s=np.pi / 2,
                          p_bar=9.81e-4, g=9.81)
        num = NumParams(dt=2e-3, Cs=0.4, N1=8, N3=8, alpha=2.2e7, lam=0.22, T=0.01)
        hist = run_instantaneous_control(phys, num, 5e-4, 5e-5, controlled=False,
                                         zeta0=-1e-4)
        assert hist.abort_reason is None
        assert all(z == -1e-4 for z in hist.zeta)
        assert all(g == 0.0 for g in hist.grad)

    def test_history_time_grid(self):
        phys = PhysParams(nu=1.87e-5, gamma=3.91e-8, chi=850.0, theta_s=np.pi / 2,
                          p_bar=9.81e-4, g=9.81)
        num = NumParams(dt=2e-3, Cs=0.4, N1=8, N3=8, alpha=2.2e7, lam=0.22, T=0.02)
        hist = run_instantaneous_control(phys, num, 5e-4, 5e-5, controlled=True)
        t = np.asarray(hist.t)
        assert np.allclose(np.diff(t), 2e-3, rtol=1e-12)
        assert len(t) == 11

    def test_two_runs_bitwise_identical(self):
        phys = PhysParams(nu=1.87e-5, gamma=3.91e-8, chi=850.0, theta_s=np.pi / 2,
                          p_bar=9.81e-4, g=9.81)
        num = NumParams(dt=2e-3, Cs=0.4, N1=8, N3=8, alpha=2.2e7, lam=0.22, T=0.02)
        h1 = run_instantaneous_control(phys, num, 5e-4, 5e-5, controlled=True)
        h2 = run_instantaneous_control(phys, num, 5e-4, 5e-5, controlled=True)
        assert h1.z_cl == h2.z_cl
        assert h1.zeta == h2.zeta
        assert h1.j_increment == h2.j_increment

    def test_controlled_run_reduces_objective_sum(self, tc1_controlled, tc1_uncontrolled):
        # no claim of optimality, but the controlled cost over [0, T] must
        # undercut the uncontrolled one
        assert sum(tc1_controlled.j_increment) < sum(tc1_uncontrolled.j_increment)

    def test_domain_emptied_returns_partial_history(self):
        phys = PhysParams(nu=1.87e-5, gamma=3.91e-8, chi=850.0, theta_s=np.pi / 2,
                          p_bar=9.81e-4, g=9.81)
        num = NumParams(dt=2e-3, Cs=0.4, N1=16, N3=32, alpha=5e8, lam=0.0, T=0.2)
        hist = run_instantaneous_control(phys, num, 5e-4, 5e-5, controlled=True)
        assert isinstance(hist.abort_reason, DomainEmptied)
        assert hist.abort_step is not None
        assert (hist.abort_step + 1) * num.dt <= 0.012
        assert len(hist.t) == hist.abort_step + 1   # history up to the failure

    def test_refined_controlled_run_passes_residual_gates(self):
        # the adjoint residual on 32x64 stays under the 1e-10 gate when the
        # adjoint is solved with the state LU, transposed
        dt = tc1_config().dt
        hist = run_tc1(controlled=True, N1=32, N3=64, T=5 * dt)
        assert hist.abort_reason is None
        assert len(hist.t) == 6

    def test_one_factorization_per_step_at_most_one_alive(self, monkeypatch):
        splu = capflow.forms.splu
        alive = []          # factorizations alive when each new one is made
        live = [0]

        class Counted:
            def __init__(self, lu):
                self._lu = lu
                live[0] += 1

            def __del__(self):
                live[0] -= 1

            def __getattr__(self, key):
                return getattr(self._lu, key)

        def counting_splu(*args, **kwargs):
            alive.append(live[0])
            return Counted(splu(*args, **kwargs))

        monkeypatch.setattr(capflow.forms, "splu", counting_splu)
        dt = tc1_config().dt
        hist = run_tc1(controlled=True, N1=4, N3=4, T=3 * dt)
        assert hist.abort_reason is None
        assert len(alive) == 3
        assert alive == [0, 0, 0]

    def test_pattern_built_once_and_no_sparse_construction_per_step(self, monkeypatch):
        build = capflow.forms.FixedPattern.build.__func__
        builds = []
        calls = []

        def counting_build(cls, *args, **kwargs):
            builds.append(args[2])
            return build(cls, *args, **kwargs)

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls.append(name)
                return fn(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(capflow.forms.FixedPattern, "build", classmethod(counting_build))
        for owner, name in ((scipy.sparse, "coo_matrix"), (scipy.sparse, "bmat"), (np, "ix_"),
                            (capflow.forms, "mass_matrix"), (capflow.forms, "state_blocks")):
            monkeypatch.setattr(owner, name, counted(name, getattr(owner, name)))
        cfg = tc1_config()
        initial_state(cfg.radius, cfg.init_height, replace(num_params(cfg), N1=4, N3=4))
        assert builds == []         # patterns are built lazily, on the first step
        hist = run_tc1(controlled=True, N1=4, N3=4, T=3 * cfg.dt)
        assert hist.abort_reason is None
        assert len(hist.t) == 4
        # one saddle pattern (3 dofs per node) and one mesh-extension pattern
        assert sorted(builds) == [25, 75]
        assert calls == []
