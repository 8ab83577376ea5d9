"""The bottom integral of the control gradient, from one plain solve per slab.

The gradient of the slab objective with respect to the scalar bottom stress
zeta needs the bottom integral I_b = b^T A^{-T} m of the slab's adjoint:
A is the reduced saddle matrix of the slab's state solve, m the mass action
on the new velocity (the vector of the slab's kinetic energy, so the caller
computes it once), zero in the pressure rows, and b the load of a unit
bottom stress, which is also d rhs / d zeta.  zeta is one scalar, so the
same number is I_b = m^T (A^{-1} b): the tangent response w = A^{-1} b of
the state to a unit bottom stress, weighted by m (the adjoint/tangent
duality; Giles & Pierce 2000, Flow Turbul. Combust. 65).  The run path
therefore solves A w = b with the slab's state LU, which carries the slab's
system, in one :meth:`~capflow.forms.BandLU.solve` gated like the state
solve, and never solves with A transposed.  The tests keep a dense
transposed adjoint solve, independent of the LU, as the reference.
"""

from __future__ import annotations

import numpy as np

from .forms import BandLU, LinearSystem, bottom_load_vector


def bottom_load(system: LinearSystem) -> np.ndarray:
    """b, the load of a unit vertical bottom stress, on the reduced dofs of
    system: d rhs / d zeta."""
    return system.pattern.reduce(bottom_load_vector(system.mesh))


def solve_bottom_sensitivity(lu: BandLU, mass_u: np.ndarray) -> tuple[float, float]:
    """(I_b, residual): I_b = m . w, where w solves A w = b with lu, the slab's
    state LU, and m is mass_u, the mass action on the new velocity; residual
    is the relative residual of that solve."""
    system = lu.system
    w, residual = lu.solve(bottom_load(system), "bottom-load")
    return float(system.pattern.reduce(mass_u) @ w), residual
