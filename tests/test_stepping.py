import copy
import gc
import pickle
import time
from dataclasses import replace

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.sparse._compressed import _cs_matrix

from capflow.acceptance import run_tc1, tc1_config
from capflow.config import num_params, phys_params
from capflow.errors import MeshTangled
from capflow.fields import NumParams, PhysParams, VectorFieldP1
from capflow.forms import _flatten, kinetic_energy, mass_action, radial_table, workspace
from capflow.geometry import displace_mesh, mesh_quality
from capflow.stepping import initial_state, slab_system, step

from .conftest import mesh_velocity, phase_calls
from .pattern_forms import bottom_load_reference


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
    """A step from one state gives the same bits each time, and the
    workspace carries nothing from one call to the next: two controlled
    trajectories from one mid-run state, at zeta = 1e-4 and -1e-4, stepped
    in turn on the one topology's workspace, each match their own run
    alone, bit for bit."""
    phys, num = tc1_params()
    state = initial_state(5e-4, 5e-5, num)
    a1, *_ = step(state, 1e-4, phys, num)
    a2, *_ = step(state, 1e-4, phys, num)
    assert np.array_equal(a1.u.values, a2.u.values)
    assert np.array_equal(a1.p.values, a2.p.values)
    assert np.array_equal(a1.mesh.nodes, a2.mesh.nodes)
    mid = a1
    for _ in range(3):
        mid, _ = step(mid, 1e-4, phys, num)

    def record(s, diag):
        arrays = (s.mesh.z, s.mesh.areas, s.u.values, mass_action(s.u), s.p.values)
        return [a.tobytes() for a in arrays] + [diag.residual, diag.bottom_residual,
                                                diag.bottom_integral, diag.z_cl]

    zetas = (1e-4, -1e-4)
    alone = {}
    for zeta in zetas:
        s, alone[zeta] = mid, []
        for _ in range(5):
            s, diag = step(s, zeta, phys, num, gradient=True)
            alone[zeta].append(record(s, diag))
    states, interleaved = dict.fromkeys(zetas, mid), {zeta: [] for zeta in zetas}
    for _ in range(5):
        for zeta in zetas:
            states[zeta], diag = step(states[zeta], zeta, phys, num, gradient=True)
            interleaved[zeta].append(record(states[zeta], diag))
    assert alone[1e-4] != alone[-1e-4]
    assert interleaved == alone


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
    flux = float(bottom_load_reference(prev.mesh) @ _flatten(prev.u.values))
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


# -- the workspace the phases run on -------------------------------------------

def advanced(nsteps, n1=4, n3=8):
    """The controlled tc1 refill on an n1 x n3 grid after nsteps slabs at zeta = 1e-4."""
    cfg = replace(tc1_config(), N1=n1, N3=n3)
    phys, num = phys_params(cfg), num_params(cfg)
    state = initial_state(cfg.radius, cfg.init_height, num)
    for _ in range(nsteps):
        state, _ = step(state, 1e-4, phys, num, gradient=True)
    return state, phys, num


def test_no_record_aliases_the_workspace():
    """The state of slab n, and the saddle system that slab_system copies
    out of the workspace for that slab, keep their bits while later slabs
    and inspections run on the same topology's workspace, the two steps of
    the FD check from one state at zeta +- eps among them; the state's
    solution still solves the system under the residual gate."""
    state, phys, num = advanced(2)
    new, _ = step(state, 1e-4, phys, num, gradient=True)
    system = slab_system(state, 1e-4, phys, num)
    arrays = {"z": new.mesh.z, "areas": new.mesh.areas, "u": new.u.values, "p": new.p.values,
              "mass": mass_action(new.u), "data": system.data, "rhs": system.rhs,
              "bottom load": system.bottom_load, "system z": system.mesh.z}
    before = {name: a.copy() for name, a in arrays.items()}
    for zeta in (1e-4 + 1e-9, 1e-4 - 1e-9):
        step(new, zeta, phys, num, gradient=True)
    later = new
    for _ in range(3):
        later, _ = step(later, 1e-4, phys, num, gradient=True)
        slab_system(later, 1e-4, phys, num)
    assert later.mesh.topology is new.mesh.topology
    for name, a in arrays.items():
        assert a.tobytes() == before[name].tobytes(), name
    assert system.mesh.z.tobytes() == new.mesh.z.tobytes()
    full = np.concatenate((new.u.values[:, 0], new.u.values[:, 1], new.p.values))
    rhs = system.rhs
    assert np.linalg.norm(system.matrix @ full[system.pattern.free] - rhs) \
        <= 1e-10 * np.linalg.norm(rhs)


@pytest.mark.parametrize("copy_of", [copy.deepcopy, lambda s: pickle.loads(pickle.dumps(s))],
                         ids=["deepcopy", "pickle"])
def test_a_copied_mid_run_state_steps_to_the_same_history(copy_of):
    """A copy of a mid-run state, rebuilt from its records' fields with no
    memo, steps to the original's history bit for bit, on a workspace of
    its own that it builds on its first step, which binds the copy's
    read-only arrays and copies in the copy's state."""
    state, phys, num = advanced(3)
    copied = copy_of(state)
    histories = []
    for s in (state, copied):
        rows = []
        for _ in range(4):
            s, diag = step(s, 1e-4, phys, num, gradient=True)
            rows.append((diag.z_cl, diag.u_max, diag.bottom_integral, s.u.values.tobytes()))
        histories.append(rows)
    assert histories[0] == histories[1]
    ws, own = workspace(state.mesh.topology), workspace(copied.mesh.topology)
    assert own is not ws and own.struct.r == copied.mesh.topology.radii.ctypes.data
    assert own.struct.saddle.indices == own.saddle.indices.ctypes.data != ws.struct.saddle.indices


@pytest.mark.parametrize("copy_of", [copy.deepcopy, lambda s: pickle.loads(pickle.dumps(s))],
                         ids=["deepcopy", "pickle"])
def test_a_state_copied_before_its_first_step_steps_alike(copy_of):
    """A copy of an initial state, whose topology has a radial table but no
    workspace yet, is rebuilt through its records' constructors, so it holds
    read-only arrays, as the original does; it takes no memo along, builds
    its own radial table and workspace, which binds its arrays, and steps to
    the original's bits."""
    phys, num = tc1_params()
    state = initial_state(5e-4, 5e-5, num)
    kinetic_energy(state.u)                         # memoises the radial table
    copied = copy_of(state)
    mesh, topology = copied.mesh, copied.mesh.topology
    assert not any(a.flags.writeable for a in (
        mesh.z, mesh.areas, copied.u.values, mass_action(copied.u), topology.triangles,
        topology.radii, *topology.boundary_edges.values(), *vars(radial_table(topology)).values()))
    got, _ = step(copied, 1e-4, phys, num, gradient=True)
    expected, _ = step(state, 1e-4, phys, num, gradient=True)
    assert got.u.values.tobytes() == expected.u.values.tobytes()
    assert got.mesh.z.tobytes() == expected.mesh.z.tobytes()


def test_steps_leave_no_cyclic_garbage():
    """The steps free all they allocate by reference counting: with the
    collector off, 25 controlled steps and their objectives, after a first
    one that builds the workspace and loads the kernels, leave nothing for
    it, and nor does a whole 25-step controlled run, its initial state,
    topology, workspace and history among it."""
    state, phys, num = advanced(1)
    gc.collect()
    gc.disable()
    try:
        for _ in range(25):
            state, _ = step(state, 1e-4, phys, num, gradient=True)
            kinetic_energy(state.u)
        assert gc.collect() == 0
        history = run_tc1(True, N1=4, N3=8, T=25 * num.dt)
        assert history.abort_reason is None and len(history.t) == 26
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_phase_times_are_the_steps_own(monkeypatch):
    """Each step reports each phase's wall time from the phases' own clocks,
    none negative, together no more than the step's wall time; each step is
    one compiled call, which runs every phase: each clock, cleared before
    the call, is set after it."""
    state, phys, num = advanced(1)
    calls = []
    phase_calls(monkeypatch, lambda struct: calls.append(all(ms >= 0.0 for ms in struct.phase_ms)))
    for _ in range(3):
        workspace(state.mesh.topology).struct.phase_ms[:] = [-1.0] * 5
        start = time.perf_counter()
        state, diag = step(state, 1e-4, phys, num, gradient=True)
        wall_ms = 1e3 * (time.perf_counter() - start)
        assert list(diag.phase_ms) == ["ALE", "motion", "assembly", "factor", "solves"]
        assert all(ms >= 0.0 for ms in diag.phase_ms.values()), diag.phase_ms
        assert sum(diag.phase_ms.values()) <= wall_ms
    assert calls == [True] * 3


def test_a_tangling_step_raises_the_displacements_error():
    """A step whose mesh velocity folds a triangle raises the MeshTangled of
    displacing the mesh by that velocity, its message naming the first bad
    triangle and ending with dt, as displace_mesh's does."""
    state, phys, num = advanced(1)
    values = state.u.values.copy()
    values[state.mesh.surface_nodes[2], 1] = -1.0      # one surface node plunges
    state = replace(state, u=VectorFieldP1(values, state.mesh))
    V, _ = mesh_velocity(state.mesh, state.u)
    with pytest.raises(MeshTangled) as expected:
        displace_mesh(state.mesh, V, num.dt)
    assert str(expected.value).endswith(f", after a step of dt = {num.dt:.6e} s")
    with pytest.raises(MeshTangled) as raised:
        step(state, 1e-4, phys, num)
    assert str(raised.value) == str(expected.value)
