"""Per-slab steady adjoint problem feeding the control gradient.

The adjoint operator is exactly the transpose of the state operator of the
same slab (bilinear forms evaluated with trial and test slots swapped, the
transport fields unchanged), with the velocity mass action on the new state
as right-hand side.  The pressure stabilization is symmetric, so including
it keeps the discrete transpose relation exact.  The adjoint is therefore
solved with the slab's state LU, transposed: no second assembly or
factorization.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .fields import ScalarFieldP1, VectorFieldP1
from .forms import LinearSystem, SuperLU, _flatten, bottom_load_vector, mass_action, solve


@dataclass(frozen=True)
class AdjointState:
    z: VectorFieldP1
    q: ScalarFieldP1
    slab_index: int
    bottom_integral: float
    residual: float


def adjoint_rhs(system: LinearSystem, u_new: VectorFieldP1) -> np.ndarray:
    """Mass action on u_new, zero in the pressure rows, on the free dofs."""
    return np.pad(mass_action(u_new), (0, system.mesh.num_nodes))[system.free]


def solve_adjoint(system: LinearSystem, lu: SuperLU, u_new: VectorFieldP1,
                  slab_index: int = 0) -> AdjointState:
    """Solve one slab's adjoint with the state LU of ``system``, transposed.

    Records the bottom integral of z . e3 r dr.
    """
    z, q, residual = solve(replace(system, rhs=adjoint_rhs(system, u_new)), lu, trans="T")
    ib = float(bottom_load_vector(system.mesh) @ _flatten(z.values))
    return AdjointState(z=z, q=q, slab_index=slab_index,
                        bottom_integral=ib, residual=residual)
