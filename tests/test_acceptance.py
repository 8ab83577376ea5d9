"""Reference acceptance suite.

One test per criterion; each prints a [PASS]/[FAIL] line with the measured
values (run with -s to see them inline).  Desk scale: 16x32 grid, dt = 2e-3 s
for the nozzle case, seconds-to-minutes total runtime.
"""

from dataclasses import replace

import numpy as np

from capflow import acceptance
from capflow.config import num_params, phys_params
from capflow.fields import PhysParams, VectorFieldP1
from capflow.forms import mass_action
from capflow.geometry import build_structured_mesh
from capflow.stepping import initial_state, slab_system, step

from . import oracles
from .conftest import perturbed_mesh, random_vector_field, two_triangle_mesh
from .pattern_forms import form_a, form_b, form_c_ALE, form_S_Gamma, form_s, form_s_p


def report(result):
    print()
    print(result.line())
    assert result.passed, result.detail


def test_criterion_1_hydrostatic_rest():
    report(acceptance.criterion_hydrostatic())


def test_criterion_2_uncontrolled_transient(tc1_uncontrolled):
    report(acceptance.criterion_uncontrolled(tc1_uncontrolled))


def test_criterion_3_controlled_transient(tc1_controlled, tc1_uncontrolled):
    report(acceptance.criterion_controlled(tc1_controlled, tc1_uncontrolled))


def test_criterion_4_overaggressive_step():
    report(acceptance.criterion_overaggressive())


def test_criterion_5_adjoint_gradient_fd():
    report(acceptance.criterion_fd_gradient())


def test_criterion_6_discrete_transpose():
    """The dense oracle adjoint operator equals the state operator transposed,
    and the dense A^T adjoint solution solves it (2x2 cells)."""
    cfg = replace(acceptance.tc1_config(), N1=2, N3=2)
    phys, num = phys_params(cfg), num_params(cfg)
    state = initial_state(cfg.radius, cfg.init_height, num)
    rng = np.random.default_rng(7)
    vals = rng.standard_normal((state.mesh.num_nodes, 2)) * 1e-3
    vals[state.mesh.radial_constrained_nodes, 0] = 0.0
    state = replace(state, u=VectorFieldP1(vals, state.mesh))
    new, _ = step(state, 0.0, phys, num)
    system = slab_system(state, 0.0, phys, num)
    # the mesh velocity, recovered from the mesh motion
    V = VectorFieldP1((new.mesh.nodes - state.mesh.nodes) / num.dt, state.mesh)
    free = system.pattern.free
    ref = oracles.oracle_adjoint(new.mesh, state.mesh, state.u, V, phys, num)[np.ix_(free, free)]
    vel = free < 2 * system.mesh.num_nodes
    diff = np.abs(ref - system.matrix.T.toarray()).max()
    scale = max(abs(system.matrix[vel][:, vel]).max(), 1e-300)
    mass_u = mass_action(new.u)
    rhs = oracles.oracle_adjoint_rhs(system, mass_u)
    x = oracles.oracle_adjoint_solution(system, mass_u)
    res = np.linalg.norm(ref @ x - rhs) / np.linalg.norm(rhs)
    ok = diff <= 1e-13 * scale and res <= 1e-10
    report(acceptance.CriterionResult(
        "discrete transpose", ok,
        f"max |A_adj - A_state^T| = {diff:.3e} (<= 1e-13 * {scale:.3e}), "
        f"A^T adjoint residual in A_adj = {res:.3e} (<= 1e-10)"))


def test_criterion_7_form_oracles():
    phys = PhysParams(nu=1.87e-5, gamma=2.5e-4, chi=850.0, theta_s=np.radians(75),
                      p_bar=9.81e-4, g=9.81)
    worst = 0.0
    psd_ok = True
    rigid_ok = True
    for mesh in (two_triangle_mesh(), perturbed_mesh(seed=17),
                 build_structured_mesh(1.0, 0.4, 2, 2)):
        w = random_vector_field(mesh, seed=101)
        v = random_vector_field(mesh, seed=102)
        pairs = [
            (form_a(mesh, 0.8, phys), oracles.oracle_form_a(mesh, 0.8, phys.nu)),
            (form_b(mesh), oracles.oracle_form_b(mesh)),
            (form_c_ALE(mesh, w, v), oracles.oracle_form_c(mesh, w, v)),
            (form_s(mesh, w, v), oracles.oracle_form_s(mesh, w, v)),
            (form_S_Gamma(mesh, phys), oracles.oracle_form_SG(mesh, phys.gamma)),
            (form_s_p(mesh, 0.4), oracles.oracle_form_sp(mesh, 0.4)),
        ]
        for ours, ref in pairs:
            err = np.abs(ours.toarray() - ref).max() / max(np.abs(ref).max(), 1e-300)
            worst = max(worst, err)
        n = mesh.num_nodes
        rng = np.random.default_rng(5)
        x = rng.standard_normal(2 * n)
        y = rng.standard_normal(n)
        G = form_S_Gamma(mesh, phys)
        Sp = form_s_p(mesh, 0.4)
        psd_ok &= bool(x @ (G @ x) >= -1e-12 * abs(G).max() * (x @ x))
        psd_ok &= bool(y @ (Sp @ y) >= -1e-12 * abs(Sp).max() * (y @ y))
        rigid = np.concatenate((np.zeros(n), np.ones(n)))
        rigid_ok &= bool(abs(rigid @ (G @ rigid)) <= 1e-12 * abs(G).max())
    ok = worst < 1e-12 and psd_ok and rigid_ok
    report(acceptance.CriterionResult(
        "form oracles", ok,
        f"worst oracle mismatch {worst:.2e} (< 1e-12), S_Gamma/s_p PSD: {psd_ok}, "
        f"S_Gamma annihilates rigid vertical motion: {rigid_ok}"))


def test_criterion_8_equilibrium_shift():
    report(acceptance.criterion_equilibrium_shift())


def test_criterion_9_capillary_rise_control():
    report(acceptance.criterion_tc2())
