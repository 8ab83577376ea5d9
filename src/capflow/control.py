"""Instantaneous control loop: one state step, one gradient of the slab
objective and one update of the scalar bottom stress per time step.

The control is constant in space and vertical, so a single scalar zeta is
updated each slab from the adjoint bottom integral.  The step computes that
integral with a second plain solve with the slab's state LU (the
adjoint/tangent duality, see :func:`~capflow.stepping.step`), so each
controlled step factors once and solves twice.  One gradient step per slab;
no line search.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .errors import CapflowError
from .fields import NumParams, PhysParams
from .forms import kinetic_energy
from .geometry import contact_line_height
from .stepping import FlowState, initial_state, step

EMPTY_FRACTION = 0.02   # abort when Z_CL drops below this fraction of the start height


@dataclass(frozen=True)
class ControlState:
    """Scalar control and the fixed data of its update rule."""

    zeta: float
    alpha: float
    lam: float
    sigma_b_measure: float

    def __post_init__(self):
        # written so that NaN fails every check, as NumParams's do
        if not (self.alpha >= 0 and self.lam >= 0):
            raise ValueError("alpha and lam must be nonnegative")
        if not (abs(self.zeta) < math.inf and 0 < self.sigma_b_measure < math.inf):
            raise ValueError("zeta must be finite, and sigma_b_measure finite and positive")


@dataclass
class RunHistory:
    """Per-step record (t, Z_CL, zeta, J increment, gradient, max |u|), and
    the run's largest relative residual of each solve, by its name (the
    bottom-load solve's 0 in an uncontrolled run, which makes none)."""

    t: list = field(default_factory=list)
    z_cl: list = field(default_factory=list)
    zeta: list = field(default_factory=list)
    j_increment: list = field(default_factory=list)
    grad: list = field(default_factory=list)
    u_max: list = field(default_factory=list)
    abort_reason: CapflowError | None = None
    abort_step: int | None = None
    residuals: dict = field(default_factory=lambda: dict.fromkeys(
        ("state", "bottom-load", "mesh-velocity"), 0.0))

    def append(self, t, z_cl, zeta, j_inc, grad, u_max):
        self.t.append(float(t))
        self.z_cl.append(float(z_cl))
        self.zeta.append(float(zeta))
        self.j_increment.append(float(j_inc))
        self.grad.append(float(grad))
        self.u_max.append(float(u_max))


def objective_increment(state_new: FlowState, ctrl: ControlState) -> float:
    """Per-slab objective: kinetic energy of the new state plus the penalty of
    ctrl.zeta, the slab's control."""
    return kinetic_energy(state_new.u) + 0.5 * ctrl.lam * ctrl.zeta ** 2 * ctrl.sigma_b_measure


def gradient(adjoint_bottom_integral: float, ctrl: ControlState) -> float:
    """Scalar objective gradient lam |Sigma_b| zeta + integral of z . e3 over the
    bottom, at zeta = ctrl.zeta."""
    return ctrl.lam * ctrl.sigma_b_measure * ctrl.zeta + adjoint_bottom_integral


def update_control(ctrl: ControlState, adjoint_bottom_integral: float) -> ControlState:
    """One gradient step: zeta <- zeta (1 - alpha lam |Sigma_b|) - alpha * bottom integral."""
    zeta = ctrl.zeta * (1.0 - ctrl.alpha * ctrl.lam * ctrl.sigma_b_measure) \
        - ctrl.alpha * adjoint_bottom_integral
    return ControlState(zeta=zeta, alpha=ctrl.alpha, lam=ctrl.lam,
                        sigma_b_measure=ctrl.sigma_b_measure)


def run_instantaneous_control(phys: PhysParams, num: NumParams, radius: float,
                              init_height: float, controlled: bool = True,
                              zeta0: float = 0.0,
                              snapshot_cb=None) -> RunHistory:
    """March the controlled (or plain) flow over [0, T] and record the history.

    With controlled=False the steps make no gradient solve, the history's
    gradient is zero and zeta stays at zeta0 for the whole run.  That is not
    the alpha = 0 run, which solves for the gradient and records it, and
    whose updates leave zeta where it is.  Solver and mesh failures abort
    the run; the history up to the failure is returned with the abort reason
    attached.
    """
    nsteps = int(round(num.T / num.dt))
    ctrl = ControlState(zeta=zeta0, alpha=num.alpha, lam=num.lam,
                        sigma_b_measure=radius ** 2 / 2.0)
    state = initial_state(radius, init_height, num)
    history = RunHistory()
    history.append(0.0, contact_line_height(state.mesh), ctrl.zeta, 0.0, 0.0, 0.0)
    if snapshot_cb is not None:
        snapshot_cb(0, state)

    for n in range(nsteps):
        try:
            state, diag = step(state, ctrl.zeta, phys, num, EMPTY_FRACTION * init_height,
                               gradient=controlled)
        except CapflowError as exc:
            history.abort_reason = exc
            history.abort_step = n
            break
        j_inc = objective_increment(state, ctrl)
        grad_val = 0.0
        if controlled:
            grad_val = gradient(diag.bottom_integral, ctrl)
            ctrl = update_control(ctrl, diag.bottom_integral)
        history.append(state.t, diag.z_cl, ctrl.zeta, j_inc, grad_val, diag.u_max)
        for what, residual in (("state", diag.residual), ("bottom-load", diag.bottom_residual),
                               ("mesh-velocity", diag.ale_residual)):
            history.residuals[what] = max(history.residuals[what], float(residual))
        if snapshot_cb is not None:
            snapshot_cb(n + 1, state)

    return history
