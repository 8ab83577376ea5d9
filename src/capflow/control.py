"""Instantaneous control loop: one state step, one gradient of the slab
objective and one update of the scalar bottom stress per time step.

The control is constant in space and vertical, so a single scalar zeta is
updated each slab from the adjoint bottom integral I_b.  The slab objective
is J_n = E_kin(u_n) + (lam/2) |Sigma_b| zeta^2, its gradient
dJ_n/dzeta = lam |Sigma_b| zeta + I_b, and the update one gradient step
zeta <- zeta - alpha dJ_n/dzeta = zeta (1 - alpha lam |Sigma_b|) - alpha I_b,
with no line search.  The step computes I_b from the tangent w = A^{-1} b
(the adjoint/tangent duality, see :func:`~capflow.stepping.step`), b a
second right-hand side of the state's solve, so each controlled step
factors once and makes one solve for two right-hand sides.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .errors import CapflowError
from .fields import NumParams, PhysParams
from .forms import kinetic_energy
from .geometry import contact_line_height
from .stepping import initial_state, step

EMPTY_FRACTION = 0.02   # abort when Z_CL drops below this fraction of the start height


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
    sigma_b = radius ** 2 / 2.0                         # |Sigma_b|, the bottom's measure
    # written so that NaN fails the check, as NumParams's (of alpha and lam) do
    if not (abs(zeta0) < math.inf and 0 < sigma_b < math.inf):
        raise ValueError("zeta0 must be finite, and |Sigma_b| = radius^2 / 2 finite and positive")
    alpha, lam, zeta = num.alpha, num.lam, zeta0
    decay = 1.0 - alpha * lam * sigma_b
    nsteps = int(round(num.T / num.dt))
    state = initial_state(radius, init_height, num)
    history = RunHistory()
    history.append(0.0, contact_line_height(state.mesh), zeta, 0.0, 0.0, 0.0)
    if snapshot_cb is not None:
        snapshot_cb(0, state)

    for n in range(nsteps):
        try:
            state, diag = step(state, zeta, phys, num, EMPTY_FRACTION * init_height,
                               gradient=controlled)
        except CapflowError as exc:
            history.abort_reason = exc
            history.abort_step = n
            break
        # the slab's objective and gradient at its control zeta, then one step
        j_inc = kinetic_energy(state.u) + 0.5 * lam * zeta ** 2 * sigma_b
        grad = 0.0
        if controlled:
            grad = lam * sigma_b * zeta + diag.bottom_integral
            zeta = zeta * decay - alpha * diag.bottom_integral
        history.append(state.t, diag.z_cl, zeta, j_inc, grad, diag.u_max)
        for what, residual in (("state", diag.residual), ("bottom-load", diag.bottom_residual),
                               ("mesh-velocity", diag.ale_residual)):
            history.residuals[what] = max(history.residuals[what], float(residual))
        if snapshot_cb is not None:
            snapshot_cb(n + 1, state)

    return history
