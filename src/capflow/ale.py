"""Domain velocity: vertical harmonic extension of the normal surface speed.

The mesh moves vertically only, so the extension reduces to one scalar
Laplace problem for V_z with Dirichlet data (u . nu)/nu_3 on the free surface
(the vertical speed of the surface graph), V_z = 0 on the bottom, and natural
zero-flux conditions on the wall and the axis.  The resulting V = (0, V_z)
satisfies every boundary condition of the extension problem: V . nu matches
u . nu on the surface, the wall stays a cylinder, and the bottom is fixed.

The whole solve is one compiled phase on the topology's workspace: the
r-weighted stiffness, whose gradient products the saddle blocks share, the
surface data from the surface slopes and its lifting by the stiffness, the
fill on a pattern built once per topology, one banded LU and one solve with
its finite check and residual gate, as the state's.  The step runs the same
phase, then the displacement (:meth:`~capflow.forms.Workspace.motion`).
"""

from __future__ import annotations

from .errors import DimensionMismatch
from .fields import VectorFieldP1
from .forms import workspace
from .geometry import AxiMesh


def solve_domain_velocity(mesh: AxiMesh, u: VectorFieldP1) -> tuple[VectorFieldP1, float]:
    """Harmonic vertical extension of the surface speed of u, and the relative
    residual of its solve."""
    if u.mesh is not mesh:
        raise DimensionMismatch("velocity field lives on a different mesh")
    return workspace(mesh.topology).mesh_velocity(mesh, u)

