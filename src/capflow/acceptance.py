"""Reference checks for the capillary-rise test case.

Each check returns a :class:`CriterionResult`.  The CLI ``verify`` subcommand
runs the five test-case-1 criteria of :func:`run_tc1_verification` and prints
one pass/fail line per criterion; the test suite runs these and the rest.
Reference values are the contact-line trajectory anchors for the 16x32 grid
with dt = 2e-3 s.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .config import RunConfig, num_params, phys_params
from .control import run_instantaneous_control
from .errors import DomainEmptied
from .forms import kinetic_energy
from .observables import equilibrium_height, transient_time
from .stepping import initial_state, step

# reference anchors (uncontrolled / controlled runs, 16x32 grid, dt = 2e-3 s)
FIRST_PEAK = 1.608e-4
FIRST_PEAK_TIME = 0.010
FIRST_TROUGH = 6.02e-5
FIRST_TROUGH_TIME = 0.022
LATE_MEAN = 1.0e-4
CONTROLLED_MAX = 1.35e-4
CONTROLLED_TBAR_MAX = 0.16
FINAL_ZETA_MAX = 1e-7


@dataclass(frozen=True)
class CriterionResult:
    name: str
    passed: bool
    detail: str

    def line(self) -> str:
        return f"[{'PASS' if self.passed else 'FAIL'}] {self.name}: {self.detail}"


def tc1_config() -> RunConfig:
    return RunConfig()


def tc2_config() -> RunConfig:
    """Capillary rise with a 69.8-degree contact angle and bottom suction.

    Only the contact angle, the bottom stress and the equilibrium height are
    fixed by the reference; gamma is reconstructed so the equilibrium law
    gives exactly 1.57e-3 m, and the slip and controller parameters are
    chosen to produce a comparable transient on this grid.
    """
    return replace(RunConfig(),
                   gamma=3.124851429537e-05, theta_s_deg=69.8, p_bar=-2.82e-2,
                   init_height=5e-4, dt=1e-3, T=0.8, chi=60.0,
                   alpha=1e9, lam=4e-3)


def run_tc1(controlled: bool, cfg: RunConfig | None = None, **overrides):
    cfg = replace(cfg or tc1_config(), **overrides)
    return run_instantaneous_control(phys_params(cfg), num_params(cfg),
                                     cfg.radius, cfg.init_height,
                                     controlled=controlled)


def criterion_hydrostatic() -> CriterionResult:
    """Flat column at the rest height stays at rest (50 steps)."""
    cfg = tc1_config()
    z_eq = cfg.p_bar / cfg.g
    cfg = replace(cfg, init_height=z_eq, T=50 * cfg.dt)
    hist = run_tc1(controlled=False, cfg=cfg)
    if hist.abort_reason is not None:
        return CriterionResult("hydrostatic rest", False, f"aborted: {hist.abort_reason}")
    umax = hist.u_max[-1]
    dz = abs(hist.z_cl[-1] - z_eq)
    ok = umax <= 1e-8 and dz <= 1e-10
    return CriterionResult(
        "hydrostatic rest", ok,
        f"max|u|={umax:.3e} m/s (<=1e-8), |Z - p_bar/g|={dz:.3e} m (<=1e-10)")


def _first_peak_trough(hist):
    z = np.asarray(hist.z_cl)
    t = np.asarray(hist.t)
    ipk = int(np.argmax(z[:15]))
    itr = ipk + int(np.argmin(z[ipk:25]))
    return (t[ipk], z[ipk]), (t[itr], z[itr])


def criterion_uncontrolled(hist) -> CriterionResult:
    """First peak/trough and the late-time mean of the free oscillation."""
    if hist.abort_reason is not None:
        return CriterionResult("uncontrolled transient", False, f"aborted: {hist.abort_reason}")
    (tp, zp), (tt, zt) = _first_peak_trough(hist)
    t = np.asarray(hist.t)
    z = np.asarray(hist.z_cl)
    dt = t[1] - t[0]
    late = z[(t >= 0.1) & (t <= 0.2)]
    mean = late.mean()
    ok = (abs(zp - FIRST_PEAK) <= 0.05 * FIRST_PEAK
          and abs(tp - FIRST_PEAK_TIME) <= dt + 1e-12
          and abs(zt - FIRST_TROUGH) <= 0.05 * FIRST_TROUGH
          and abs(tt - FIRST_TROUGH_TIME) <= dt + 1e-12
          and abs(mean - LATE_MEAN) <= 0.03 * LATE_MEAN)
    return CriterionResult(
        "uncontrolled transient", ok,
        f"peak {zp:.4e} m at {tp:.3f} s (ref {FIRST_PEAK:.3e} at {FIRST_PEAK_TIME}), "
        f"trough {zt:.4e} m at {tt:.3f} s (ref {FIRST_TROUGH:.3e} at {FIRST_TROUGH_TIME}), "
        f"mean[0.1,0.2]={mean:.4e} m (ref {LATE_MEAN:.1e} +-3%)")


def criterion_controlled(hist_ctl, hist_unc) -> CriterionResult:
    """Damped transient: short settling time, bounded overshoot, vanishing control."""
    if hist_ctl.abort_reason is not None:
        return CriterionResult("controlled transient", False, f"aborted: {hist_ctl.abort_reason}")
    cfg = tc1_config()
    z_inf = equilibrium_height(phys_params(cfg), cfg.radius, 0.0)
    tbar = transient_time(hist_ctl, z_inf)
    tbar_unc = transient_time(hist_unc, z_inf)
    zmax = max(hist_ctl.z_cl)
    final_zeta = abs(hist_ctl.zeta[-1])
    final_z = hist_ctl.z_cl[-1]
    ok = (tbar is not None and tbar <= CONTROLLED_TBAR_MAX
          and tbar_unc is None
          and zmax <= CONTROLLED_MAX * 1.05
          and final_zeta <= FINAL_ZETA_MAX
          and abs(final_z - LATE_MEAN) <= 0.005 * LATE_MEAN)
    return CriterionResult(
        "controlled transient", ok,
        f"tbar={'n/a' if tbar is None else f'{tbar:.3f}'} s (<= {CONTROLLED_TBAR_MAX}), "
        f"uncontrolled tbar={'not attained' if tbar_unc is None else f'{tbar_unc:.3f}'}, "
        f"max Z={zmax:.4e} m (<= {CONTROLLED_MAX * 1.05:.3e}), "
        f"|zeta(T)|={final_zeta:.2e} (<= {FINAL_ZETA_MAX:.0e}), "
        f"Z(T)={final_z:.5e} m (within 0.5% of {LATE_MEAN:.1e})")


def criterion_overaggressive() -> CriterionResult:
    """A too-large gradient step empties the nozzle early in the run."""
    hist = run_tc1(controlled=True, alpha=5e8, lam=0.0)
    dt = tc1_config().dt
    if not isinstance(hist.abort_reason, DomainEmptied):
        return CriterionResult("over-aggressive step", False,
                               f"expected DomainEmptied, got {hist.abort_reason!r}")
    t_abort = (hist.abort_step + 1) * dt
    ok = t_abort < 0.012
    return CriterionResult("over-aggressive step", ok,
                           f"DomainEmptied while stepping into t={t_abort:.3f} s (< 0.012 s)")


def criterion_fd_gradient(n_slabs: int = 5, seed: int = 20170811) -> CriterionResult:
    """The run path's gradient vs central differences of the per-slab objective (lam = 0).

    The gradient is the bottom integral the control loop reads off the step
    (:func:`stepping.step` with gradient).  The perturbed objectives come
    from steps from the same state with zeta = +-epsilon: the geometry is
    frozen over a slab and zeta enters only the right-hand side, so the
    slab objective is exactly quadratic in zeta and agreement is limited
    only by solver roundoff; epsilon is swept over three decades and the
    best agreement per slab is reported.
    """
    cfg = replace(tc1_config(), lam=0.0)
    phys, num = phys_params(cfg), num_params(cfg)
    rng = np.random.default_rng(seed)
    slabs = sorted(rng.choice(np.arange(1, 40), size=n_slabs, replace=False).tolist())
    state = initial_state(cfg.radius, cfg.init_height, num)
    worst = 0.0
    details = []
    for n in range(max(slabs) + 1):
        prev = state
        state, diag = step(prev, 0.0, phys, num, gradient=n in slabs)
        if n in slabs:
            def j_of(eps):
                return kinetic_energy(step(prev, eps, phys, num)[0].u)

            best = math.inf
            for eps in (1e-5, 1e-4, 1e-3):
                fd = (j_of(eps) - j_of(-eps)) / (2 * eps)
                rel = abs(fd - diag.bottom_integral) / max(abs(fd), 1e-300)
                best = min(best, rel)
            worst = max(worst, best)
            details.append(f"slab {n}: {best:.2e}")
    ok = worst <= 1e-4
    return CriterionResult("adjoint gradient vs finite differences", ok,
                           f"worst relative error {worst:.2e} (<= 1e-4); " + ", ".join(details))


def criterion_equilibrium_shift(zeta_const: float = -2e-4) -> CriterionResult:
    """A run with frozen control c settles to (p_bar + c)/g."""
    cfg = replace(tc1_config(), T=0.4)
    hist = run_instantaneous_control(phys_params(cfg), num_params(cfg), cfg.radius,
                                     cfg.init_height, controlled=False, zeta0=zeta_const)
    if hist.abort_reason is not None:
        return CriterionResult("equilibrium shift", False, f"aborted: {hist.abort_reason}")
    t = np.asarray(hist.t)
    z = np.asarray(hist.z_cl)
    target = equilibrium_height(phys_params(cfg), cfg.radius, zeta_const)
    mean = z[t >= t[-1] - 0.1].mean()
    ok = abs(mean - target) <= 0.01 * target
    return CriterionResult("equilibrium shift", ok,
                           f"late mean {mean:.5e} m vs (p_bar+c)/g = {target:.5e} m (+-1%)")


def criterion_tc2() -> CriterionResult:
    """Controlled capillary rise settles monotonically and much earlier than free."""
    cfg = tc2_config()
    phys, num = phys_params(cfg), num_params(cfg)
    z_inf = equilibrium_height(phys, cfg.radius, 0.0)
    hist_u = run_instantaneous_control(phys, num, cfg.radius, cfg.init_height, controlled=False)
    hist_c = run_instantaneous_control(phys, num, cfg.radius, cfg.init_height, controlled=True)
    if hist_u.abort_reason or hist_c.abort_reason:
        return CriterionResult("capillary-rise control", False,
                               f"aborted: {hist_u.abort_reason or hist_c.abort_reason}")
    tb_u = transient_time(hist_u, z_inf)
    tb_c = transient_time(hist_c, z_inf)
    z = np.asarray(hist_c.z_cl)
    iext = _first_extremum(z)
    tail = z[iext:]
    gaps = np.abs(tail - z_inf)
    monotone = bool(np.all(np.diff(gaps) <= 1e-9 * z_inf))
    ok = (tb_u is not None and tb_c is not None and monotone
          and tb_c < 0.75 * tb_u)
    return CriterionResult(
        "capillary-rise control", ok,
        f"tbar controlled={'n/a' if tb_c is None else f'{tb_c:.3f}'} s vs "
        f"uncontrolled={'n/a' if tb_u is None else f'{tb_u:.3f}'} s "
        f"(need < 0.75x), monotone approach after first extremum: {monotone}")


def _first_extremum(z: np.ndarray) -> int:
    """Index of the first local extremum (0 for a monotone series)."""
    dz = np.diff(z)
    sign = np.sign(dz[np.abs(dz) > 0])
    if len(sign) == 0:
        return 0
    flips = np.where(np.diff(sign) != 0)[0]
    return int(flips[0] + 1) if len(flips) else 0


def run_tc1_verification() -> list[CriterionResult]:
    """The test-case-1 subset used by the CLI ``verify`` subcommand."""
    hist_unc = run_tc1(controlled=False)
    hist_ctl = run_tc1(controlled=True)
    return [
        criterion_hydrostatic(),
        criterion_uncontrolled(hist_unc),
        criterion_controlled(hist_ctl, hist_unc),
        criterion_overaggressive(),
        criterion_fd_gradient(),
    ]
