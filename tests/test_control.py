import ctypes
import importlib
import math
import sys
from dataclasses import replace

import numpy as np
import pytest
import scipy.sparse
import scipy.sparse.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

import capflow.acceptance
import capflow.control
import capflow.fields
import capflow.forms
import capflow.geometry
import capflow.writers
from capflow.acceptance import run_tc1, tc1_config
from capflow.config import num_params, phys_params
from capflow.control import run_instantaneous_control
from capflow.errors import DomainEmptied, ResidualTooLarge
from capflow.fields import NumParams, PhysParams, ScalarFieldP1, zero_vector_field
from capflow.forms import _flatten
from capflow.geometry import build_structured_mesh, contact_line_height
from capflow.stepping import FlowState, StepDiagnostics, initial_state, step
from capflow.writers import write_vtk_snapshot

from . import oracles
from .conftest import phase_calls, random_vector_field

RADIUS = 5e-4
SB = RADIUS ** 2 / 2
PHYS = PhysParams(nu=1.87e-5, gamma=3.91e-8, chi=850.0, theta_s=np.pi / 2, p_bar=9.81e-4, g=9.81)
DT = 2e-3


def make_state(u=None, radius=RADIUS, height=1e-4):
    mesh = build_structured_mesh(radius, height, 4, 4)
    uf = u(mesh) if callable(u) else zero_vector_field(mesh)
    return FlowState(mesh=mesh, u=uf, p=ScalarFieldP1(np.zeros(mesh.num_nodes), mesh), t=0.0)


def stubbed_run(integrals, alpha=1.0, lam=1.0, zeta0=0.0, u=None, controlled=True):
    """The history of a run of len(integrals) steps on a 4x4 grid whose step
    is stubbed: step n returns the same state (at rest, or with the velocity
    u(mesh)) and diagnostics whose bottom integral I_b is integrals[n]."""
    state = make_state(u)
    slabs = iter(integrals)

    def fixed_step(prev, zeta, phys, num, floor, gradient):
        return state, StepDiagnostics(residual=0.0, ale_residual=0.0, bottom_residual=0.0,
                                      bottom_integral=next(slabs), u_max=0.0,
                                      z_cl=contact_line_height(state.mesh), mesh=state.mesh)

    num = NumParams(dt=DT, Cs=0.4, N1=4, N3=4, alpha=alpha, lam=lam, T=len(integrals) * DT)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(capflow.control, "step", fixed_step)
        hist = run_instantaneous_control(PHYS, num, RADIUS, 1e-4, controlled=controlled,
                                         zeta0=zeta0)
    assert hist.abort_reason is None and len(hist.zeta) == len(integrals) + 1
    return hist


# alpha with alpha lam |Sigma_b| = 1/2: each update halves zeta, so any value
# read at the updated control differs from the one read at the slab's own
HALVING = 0.5 / SB


class TestObjective:
    def test_zero_state_zero_control(self):
        hist = stubbed_run([0.0, 0.0])
        assert hist.j_increment == [0.0, 0.0, 0.0]

    def test_pure_penalty(self):
        # at rest J_n is the penalty of the slab's control, the one before its update
        c = 0.37
        hist = stubbed_run([1e-9, -2e-9, 3e-9], alpha=HALVING, zeta0=c)
        assert hist.zeta[0] == c and len(set(hist.zeta)) == 4
        assert hist.j_increment[1] == pytest.approx(0.5 * c * c * SB, rel=1e-15)
        for n in range(1, 4):
            assert hist.j_increment[n] == pytest.approx(0.5 * hist.zeta[n - 1] ** 2 * SB,
                                                        rel=1e-15)

    def test_kinetic_term_matches_mass_oracle(self):
        hist = stubbed_run([1e-9], lam=0.0, zeta0=0.5,
                           u=lambda m: random_vector_field(m, seed=5))
        mesh = make_state().mesh
        dense = oracles.oracle_mass(mesh)
        uf = _flatten(random_vector_field(mesh, seed=5).values)
        assert hist.j_increment[1] == pytest.approx(0.5 * uf @ dense @ uf, rel=1e-12)


class TestGradientUpdate:
    def test_gradient_reduces_to_bottom_integral_without_penalty(self):
        hist = stubbed_run([3.5e-12, -1e-12], lam=0.0, zeta0=2.0)
        assert hist.grad == [0.0, 3.5e-12, -1e-12]

    def test_gradient_pure_penalty(self):
        # the gradient at the slab's control, before its update
        hist = stubbed_run([0.0, 0.0], alpha=HALVING, zeta0=1.0)
        assert hist.zeta == [1.0, 0.5, 0.25]
        assert hist.grad[1:] == pytest.approx([SB, 0.5 * SB], rel=1e-15)

    def test_gradient_sums_penalty_and_bottom_integral(self):
        integrals = [2e-8, -3e-8, 5e-9]
        hist = stubbed_run(integrals, alpha=HALVING, lam=1.0, zeta0=-0.2)
        for n, ib in enumerate(integrals, start=1):
            assert hist.grad[n] == pytest.approx(SB * hist.zeta[n - 1] + ib, rel=1e-14)
            assert hist.zeta[n] == pytest.approx(hist.zeta[n - 1] - HALVING * hist.grad[n],
                                                 rel=1e-14)

    def test_update_identity_cases(self):
        hist = stubbed_run([123.0], alpha=0.0, lam=1e-5, zeta0=0.7)
        assert hist.zeta == [0.7, 0.7]                      # alpha = 0
        hist = stubbed_run([0.0], alpha=2.0, lam=0.0, zeta0=0.7)
        assert hist.zeta == [0.7, 0.7]                      # lam = 0, no input

    def test_geometric_decay_under_constant_input(self):
        alpha, lam = 1.5e8, 1e-5
        ib = 2.0e-12
        hist = stubbed_run([ib] * 199, alpha=alpha, lam=lam)
        rho = 1.0 - alpha * lam * SB
        fixed_point = -ib / (lam * SB)
        for n in range(1, 200):
            expected = fixed_point * (1.0 - rho ** n)
            assert hist.zeta[n] == pytest.approx(expected, rel=1e-12)
        # decay is monotone toward the fixed point
        assert 0 > hist.zeta[-1] > fixed_point

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
        new = stubbed_run([0.0], alpha=alpha, lam=lam, zeta0=zeta).zeta[1]
        if zeta == 0.0:
            assert new == 0.0
        else:
            assert abs(new) < abs(zeta)


class TestRunLoop:
    @pytest.mark.parametrize("bad", [dict(zeta=np.nan), dict(zeta=np.inf), dict(alpha=np.nan),
                                     dict(lam=np.nan), dict(alpha=-1.0),
                                     dict(sigma_b_measure=np.nan),
                                     dict(sigma_b_measure=np.inf), dict(sigma_b_measure=0.0)],
                             ids=lambda bad: ",".join(f"{k}={v}" for k, v in bad.items()))
    def test_bad_control_inputs_rejected_before_any_step(self, bad, monkeypatch):
        # |Sigma_b| = radius^2 / 2 is set through the radius; NumParams checks alpha and lam
        def refused(*args, **kwargs):
            raise AssertionError("the run started")

        monkeypatch.setattr(capflow.control, "initial_state", refused)
        monkeypatch.setattr(capflow.control, "step", refused)
        cfg = tc1_config()
        given = {**dict(zeta=0.0, alpha=cfg.alpha, lam=cfg.lam, sigma_b_measure=SB), **bad}
        with pytest.raises(ValueError):
            num = replace(num_params(cfg), alpha=given["alpha"], lam=given["lam"])
            run_instantaneous_control(phys_params(cfg), num,
                                      math.sqrt(2 * given["sigma_b_measure"]), cfg.init_height,
                                      zeta0=given["zeta"])

    def test_alpha_zero_solves_for_the_gradient_and_keeps_zeta(self):
        """An alpha = 0 run records a nonzero gradient and leaves zeta at
        zeta0; an uncontrolled run makes no gradient solve and records 0.
        The state path is the same in both."""
        cfg = tc1_config()
        num = replace(num_params(cfg), N1=4, N3=4, alpha=0.0, T=5 * cfg.dt)
        frozen, free = (run_instantaneous_control(phys_params(cfg), num, cfg.radius,
                                                  cfg.init_height, controlled=controlled,
                                                  zeta0=-1e-4)
                        for controlled in (True, False))
        for hist in (frozen, free):
            assert hist.abort_reason is None
            assert hist.zeta == [-1e-4] * 6
        assert all(g != 0.0 for g in frozen.grad[1:])
        assert frozen.residuals["bottom-load"] > 0.0
        assert free.grad == [0.0] * 6 and free.residuals["bottom-load"] == 0.0
        assert frozen.z_cl == free.z_cl and frozen.j_increment == free.j_increment

    def test_history_keeps_the_largest_residual_of_each_solve(self, monkeypatch):
        """The run's largest state, bottom-load and mesh-velocity residuals,
        which history.csv does not hold."""
        seen = {"state": [], "bottom-load": [], "mesh-velocity": []}

        def recording_step(*args, **kwargs):
            out = step(*args, **kwargs)
            seen["state"].append(out[1].residual)
            seen["bottom-load"].append(out[1].bottom_residual)
            seen["mesh-velocity"].append(out[1].ale_residual)
            return out

        monkeypatch.setattr(capflow.control, "step", recording_step)
        hist = run_tc1(controlled=True, N1=4, N3=4, T=5 * tc1_config().dt)
        assert hist.abort_reason is None
        assert all(len(values) == 5 for values in seen.values())
        assert hist.residuals == {what: max(values) for what, values in seen.items()}
        assert all(0.0 < res <= 1e-10 for res in hist.residuals.values())

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
        # every solve with the state LU stays under the 1e-10 residual gate on
        # refined grids; at 64x128 the transposed adjoint solve, whose
        # right-hand side is tiny while the flow starts from rest, did not
        dt = tc1_config().dt
        for n1, n3, nsteps in ((32, 64, 5), (64, 128, 2)):
            hist = run_tc1(controlled=True, N1=n1, N3=n3, T=nsteps * dt)
            assert hist.abort_reason is None, (n1, n3, hist.abort_reason)
            assert len(hist.t) == nsteps + 1

    def test_one_factorization_per_step_at_most_one_alive(self, monkeypatch):
        # each step factors the mesh-velocity stiffness, then the saddle
        # matrix, in the workspace's one region, the same storage every step:
        # one factorization is alive at a time
        def factors(struct):
            sizes.extend((struct.extension.n, struct.saddle.n))
            bands.append((struct.lu, struct.region))

        phase_calls(monkeypatch, factors)
        dt = tc1_config().dt
        for controlled in (True, False):
            sizes = []
            bands = []          # the saddle band's and the region's address in each step
            hist = run_tc1(controlled=controlled, N1=4, N3=4, T=3 * dt)
            assert hist.abort_reason is None
            # per step: the mesh-velocity stiffness (15 dofs), then the saddle matrix (65)
            assert sizes == [15, 65] * 3
            assert len(bands) == 3 and len(set(bands)) == 1
            (band, region), = set(bands)
            assert band == region, controlled

    def test_one_two_column_solve_per_controlled_step(self, monkeypatch):
        solves = []         # size and right-hand sides of each solve with a band LU

        def counting_solve(struct):
            solves.append((struct.extension.n, (1, struct.extension.n)))
            n = struct.saddle.n
            solves.append((n, (struct.k, n)))

        phase_calls(monkeypatch, counting_solve)
        nsteps = 3
        for controlled, columns in ((True, 2), (False, 1)):
            solves.clear()
            hist = run_tc1(controlled=controlled, N1=4, N3=4, T=nsteps * tc1_config().dt)
            assert hist.abort_reason is None
            # per step: the mesh velocity (15 dofs), then one solve with the
            # saddle LU (65), for the state and, controlled, the bottom load
            assert solves == [(15, (1, 15)), (65, (columns, 65))] * nsteps, controlled

    @pytest.mark.parametrize("controlled, per_step",
                             [(True, ["mesh-velocity", "state", "bottom-load"]),
                              (False, ["mesh-velocity", "state"])])
    def test_every_solve_is_gated(self, monkeypatch, controlled, per_step):
        gated = []          # the name of each gated solve: the rows each phase checks

        def counting(struct):
            gated.append("mesh-velocity")
            gated.extend(("state", "bottom-load")[:struct.k])

        phase_calls(monkeypatch, counting)
        nsteps = 3
        hist = run_tc1(controlled=controlled, N1=4, N3=4, T=nsteps * tc1_config().dt)
        assert hist.abort_reason is None
        assert gated == per_step * nsteps

    def test_mesh_velocity_solve_over_the_gate_aborts_the_run(self, monkeypatch):
        # the mesh-velocity band takes its diagonal's first entry plus an
        # entry below it, which no longer reaches its own place: the motion
        # phase factors another matrix than the one its residual is checked
        # in.  The flow starts with a uniform upward velocity, so the
        # surface data b are not zero: for the zero b of the flow at rest
        # any factors give x = 0
        build, start = capflow.forms._extension_pattern, capflow.control.initial_state

        def misplaced(topology):
            pattern = build(topology)
            column = pattern.indices[:pattern.indptr[1]]
            position = pattern.band.position.copy()
            position[np.flatnonzero(column != 0)[0]] = position[np.flatnonzero(column == 0)[0]]
            position.setflags(write=False)
            return replace(pattern, band=replace(pattern.band, position=position))

        def moving(radius, height, num):
            state = start(radius, height, num)
            values = np.zeros((state.mesh.num_nodes, 2))
            values[:, 1] = 1e-3
            return replace(state, u=capflow.fields.VectorFieldP1(values, state.mesh))

        monkeypatch.setattr(capflow.forms, "_extension_pattern", misplaced)
        monkeypatch.setattr(capflow.control, "initial_state", moving)
        hist = run_tc1(controlled=True, N1=4, N3=4, T=3 * tc1_config().dt)
        assert isinstance(hist.abort_reason, ResidualTooLarge)
        assert "mesh-velocity solve" in str(hist.abort_reason)
        assert hist.abort_step == 0
        assert len(hist.t) == 1

    def test_mesh_velocity_residual_in_every_step_diagnostics(self, monkeypatch):
        residuals = []

        def recording(*args, **kwargs):
            out = step(*args, **kwargs)
            residuals.append(out[1].ale_residual)
            return out

        monkeypatch.setattr(capflow.control, "step", recording)
        hist = run_tc1(controlled=True)
        assert hist.abort_reason is None
        assert len(residuals) == len(hist.t) - 1
        assert all(np.isfinite(r) and r <= 1e-10 for r in residuals), max(residuals)

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
        # the run path has one assembly path: the COO reference forms are gone
        retired = {capflow.forms: ("_coo", "form_a", "form_b", "form_c_ALE", "form_s",
                                   "form_S_Gamma", "form_s_p", "mass_matrix", "state_blocks",
                                   "scalar_stiffness"),
                   capflow.acceptance: ("reference_adjoint_matrix", "criterion_transpose")}
        assert [name for module, names in retired.items() for name in names
                if hasattr(capflow, name) or hasattr(module, name)] == []
        # the mesh-velocity module is gone with its stiffness: the solve is in forms
        with pytest.raises(ModuleNotFoundError):
            importlib.import_module("capflow.ale")
        for owner, name in ((scipy.sparse, "coo_matrix"), (scipy.sparse, "bmat"), (np, "ix_")):
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

    def test_no_discarded_geometry_work_on_the_run_path(self, monkeypatch, tmp_path):
        # mesh quality is computed only when read, and the snapshot template
        # once per run
        quality, templates = [], []

        def counting(calls, fn):
            def wrapper(mesh):
                calls.append(mesh)
                return fn(mesh)
            return wrapper

        mesh_quality = capflow.geometry.mesh_quality
        for mod in [m for name, m in sys.modules.items() if name.startswith("capflow")]:
            if getattr(mod, "mesh_quality", None) is mesh_quality:
                monkeypatch.setattr(mod, "mesh_quality", counting(quality, mesh_quality))
        monkeypatch.setattr(capflow.writers, "_snapshot_template",
                            counting(templates, capflow.writers._snapshot_template))
        snapshots = []

        def snapshot(n, state):
            snapshots.append(state.mesh)
            write_vtk_snapshot(state, tmp_path / f"snapshot_{n:05d}.vtk")

        nsteps = 3
        cfg = tc1_config()
        phys, num = phys_params(cfg), replace(num_params(cfg), N1=4, N3=4, T=nsteps * cfg.dt)
        hist = run_instantaneous_control(phys, num, cfg.radius, cfg.init_height,
                                         controlled=True, snapshot_cb=snapshot)
        assert hist.abort_reason is None
        assert len(snapshots) == nsteps + 1
        assert quality == []
        assert len(templates) == 1
        # the counters see the calls: reading a step's diagnostics fills its memo once
        state = initial_state(cfg.radius, cfg.init_height, num)
        _, diag = step(state, 0.0, phys, num)
        assert (diag.min_area, diag.max_aspect) == mesh_quality(diag.mesh)
        assert len(quality) == 1

    def test_factorizations_run_in_the_pattern_order(self, monkeypatch):
        # the patterns come in the topology's vertex order, so every step
        # factors one narrow band and orders nothing
        bands = []          # (size, kl, ku) of each band factorization
        orders = []         # (band factorizations made before, vertices) of each ordering

        def counting_factor(struct):
            for band in (struct.extension, struct.saddle):
                bands.append((band.n, band.kl, band.ku))

        def counting_rcm(indices, indptr):
            orders.append((len(bands), len(indptr) - 1))
            return rcm(indices, indptr)

        def forbidden(name):
            def fail(*args, **kwargs):
                raise AssertionError(f"{name} called on the run path")
            return fail

        rcm = capflow.forms.reverse_cuthill_mckee
        sparse_solvers = ("splu", "spsolve", "spilu", "factorized")
        originals = [getattr(scipy.sparse.linalg, name) for name in sparse_solvers]
        for mod in [m for name, m in sys.modules.items() if name.startswith("capflow")]:
            assert not any(val is f for val in vars(mod).values() for f in originals)
        for name in sparse_solvers:
            monkeypatch.setattr(scipy.sparse.linalg, name, forbidden(name))
        phase_calls(monkeypatch, counting_factor)
        monkeypatch.setattr(capflow.forms, "reverse_cuthill_mckee", counting_rcm)
        hist = run_tc1(controlled=True, N1=4, N3=4, T=3 * tc1_config().dt)
        assert hist.abort_reason is None
        # 3 mesh-velocity (15 dofs) and 3 saddle (65 dofs) band factorizations
        assert [n for n, *_ in bands] == [15, 65] * 3
        assert len(set(bands)) == 2         # the same band every step
        assert all(kl == ku <= 3 * (4 + 2) for _, kl, ku in bands)
        # one order of the 25 vertices, found in the first step before any factorization
        assert orders == [(0, 25)]

    def test_vertex_order_found_once_per_topology(self, monkeypatch):
        rcm = capflow.forms.reverse_cuthill_mckee
        orders = []         # the vertex order of each ordering
        meshes = []

        def counting_rcm(indices, indptr):
            orders.append(rcm(indices, indptr))
            return orders[-1]

        monkeypatch.setattr(capflow.forms, "reverse_cuthill_mckee", counting_rcm)
        cfg = replace(tc1_config(), N1=4, N3=4, T=3 * tc1_config().dt)
        hist = run_instantaneous_control(phys_params(cfg), num_params(cfg), cfg.radius,
                                         cfg.init_height,
                                         snapshot_cb=lambda n, state: meshes.append(state.mesh))
        assert hist.abort_reason is None
        # one order of the vertex graph (25 nodes) serves the saddle pattern
        # (65 kept dofs) and the mesh-extension pattern (15 nodes off the
        # surface and the bottom): both number their dofs vertex by vertex in it
        topology = meshes[0].topology
        assert all(m.topology is topology for m in meshes)
        assert [len(order) for order in orders] == [25]
        assert capflow.forms.vertex_order(topology) is orders[0]
        for build in (capflow.forms._saddle_pattern, capflow.forms._extension_pattern):
            vertex = topology.memo(build).free % topology.num_nodes
            runs = vertex[np.diff(vertex, prepend=-1) != 0]
            assert np.array_equal(runs, orders[0][np.isin(orders[0], vertex)])

    def test_mass_action_once_per_field_and_band_layout_once_per_pattern(self, monkeypatch):
        # an N-step run has N + 1 velocity fields: each field's mass action
        # serves its step's objective and adjoint and the next step's
        # assembly.  The first field's is computed when the first assembly
        # reads it; the solve phase writes each new field's with the field
        mass_fields, layouts, einsums = [], [], []
        written, read = [], []      # the mass actions the solves write and the assemblies read

        def counting_mass_action(u):
            mass_fields.append(u)
            return build(u)

        def phases(struct):
            # their bytes: the workspace copies each step's state in and out
            read.append(ctypes.string_at(struct.mass_old, 16 * struct.n))
            written.append(ctypes.string_at(struct.mass, 16 * struct.n))

        def counting_layout(cls, indices, indptr):
            layouts.append(len(indptr) - 1)
            return layout(indices, indptr)

        def counting_einsum(*operands, **kwargs):
            einsums.append(len(operands) - isinstance(operands[0], str))
            return einsum(*operands, **kwargs)

        build, layout, einsum = capflow.forms._mass_action, capflow.forms.BandLayout.of, np.einsum
        monkeypatch.setattr(capflow.forms, "_mass_action", counting_mass_action)
        monkeypatch.setattr(capflow.forms.BandLayout, "of", classmethod(counting_layout))
        monkeypatch.setattr(np, "einsum", counting_einsum)
        phase_calls(monkeypatch, phases)
        nsteps = 3
        hist = run_tc1(controlled=True, N1=4, N3=4, T=nsteps * tc1_config().dt)
        assert hist.abort_reason is None
        assert len(hist.t) == nsteps + 1
        assert len(mass_fields) + len(written) == nsteps + 1
        assert len({id(u) for u in mass_fields}) == len(mass_fields) == 1
        # each later assembly reads the mass action the previous solve wrote
        assert read[1:] == written[:-1]
        # the band layout is found once per pattern; every factorization reads it
        assert sorted(layouts) == [15, 65]
        # the kernels are planned products: no contraction of three operands
        assert [n for n in einsums if n >= 3] == []
