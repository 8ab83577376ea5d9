"""Instantaneous control loop: one state step, one adjoint solve, one gradient
update of the scalar bottom stress per time step.

The control is constant in space and vertical, so a single scalar zeta is
updated each slab from the adjoint bottom integral.  One gradient step per
slab; no line search.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .adjoint import solve_adjoint
from .errors import CapflowError
from .fields import NumParams, PhysParams
from .forms import _flatten, mass_action
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
        if self.alpha < 0 or self.lam < 0:
            raise ValueError("alpha and lam must be nonnegative")
        if self.sigma_b_measure <= 0:
            raise ValueError("sigma_b_measure must be positive")


@dataclass
class RunHistory:
    """Per-step record (t, Z_CL, zeta, J increment, gradient, max |u|)."""

    t: list = field(default_factory=list)
    z_cl: list = field(default_factory=list)
    zeta: list = field(default_factory=list)
    j_increment: list = field(default_factory=list)
    grad: list = field(default_factory=list)
    u_max: list = field(default_factory=list)
    abort_reason: CapflowError | None = None
    abort_step: int | None = None

    def append(self, t, z_cl, zeta, j_inc, grad, u_max):
        self.t.append(float(t))
        self.z_cl.append(float(z_cl))
        self.zeta.append(float(zeta))
        self.j_increment.append(float(j_inc))
        self.grad.append(float(grad))
        self.u_max.append(float(u_max))

    def arrays(self) -> dict:
        return {k: np.asarray(getattr(self, k)) for k in
                ("t", "z_cl", "zeta", "j_increment", "grad", "u_max")}


def objective_increment(state_new: FlowState, zeta: float, ctrl: ControlState) -> float:
    """Per-slab objective: kinetic energy of the new state plus the control penalty."""
    kin = 0.5 * float(_flatten(state_new.u.values) @ mass_action(state_new.u))
    return kin + 0.5 * ctrl.lam * zeta ** 2 * ctrl.sigma_b_measure


def gradient(zeta: float, adjoint_bottom_integral: float, ctrl: ControlState) -> float:
    """Scalar objective gradient lam |Sigma_b| zeta + integral of z . e3 over the bottom."""
    return ctrl.lam * ctrl.sigma_b_measure * zeta + adjoint_bottom_integral


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

    With controlled=False the adjoint solve and control update are skipped
    and zeta stays at zeta0 for the whole run (the alpha = 0 path).  Solver
    and mesh failures abort the run; the history up to the failure is
    returned with the abort reason attached.
    """
    nsteps = int(round(num.T / num.dt))
    state = initial_state(radius, init_height, num)
    ctrl = ControlState(zeta=zeta0, alpha=num.alpha, lam=num.lam,
                        sigma_b_measure=radius ** 2 / 2.0)
    history = RunHistory()
    history.append(0.0, contact_line_height(state.mesh), ctrl.zeta, 0.0, 0.0, 0.0)
    if snapshot_cb is not None:
        snapshot_cb(0, state)

    for n in range(nsteps):
        try:
            state, diag, system, lu = step(state, ctrl.zeta, phys, num,
                                           EMPTY_FRACTION * init_height)
            j_inc = objective_increment(state, ctrl.zeta, ctrl)
            grad_val = 0.0
            if controlled:
                adj = solve_adjoint(system, lu, state.u, slab_index=n)
                grad_val = gradient(ctrl.zeta, adj.bottom_integral, ctrl)
                ctrl = update_control(ctrl, adj.bottom_integral)
            del system, lu      # the next step factors only after this LU is freed
        except CapflowError as exc:
            history.abort_reason = exc
            history.abort_step = n
            break

        history.append(state.t, diag.z_cl, ctrl.zeta, j_inc, grad_val, diag.u_max)
        if snapshot_cb is not None:
            snapshot_cb(n + 1, state)

    return history
