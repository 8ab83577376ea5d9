"""Domain velocity: vertical harmonic extension of the normal surface speed.

The mesh moves vertically only, so the extension reduces to one scalar
Laplace problem for V_z with Dirichlet data (u . nu)/nu_3 on the free surface
(the vertical speed of the surface graph), V_z = 0 on the bottom, and natural
zero-flux conditions on the wall and the axis.  The resulting V = (0, V_z)
satisfies every boundary condition of the extension problem: V . nu matches
u . nu on the surface, the wall stays a cylinder, and the bottom is fixed.

The r-weighted stiffness comes from the compiled kernel that shares its
gradient products with the saddle blocks (:func:`capflow.kernels.r_stiffness`),
and the surface data, from the surface slopes, and its lifting by the
stiffness from one more compiled loop (``extension_rhs``).  It is filled on a
pattern built once per topology and solved like the state: one banded LU,
which carries the system, and one :meth:`~capflow.forms.BandLU.solve`, with
its finite check and residual gate.
"""

from __future__ import annotations

import numpy as np

from . import kernels
from .errors import DimensionMismatch
from .fields import VectorFieldP1
from .forms import FixedPattern, LinearSystem, element_data, factorize, in_vertex_order
from .geometry import AxiMesh, BoundaryTag, MeshTopology
from .kernels import r_stiffness


def _extension_pattern(topology: MeshTopology) -> FixedPattern:
    """Reduced stiffness pattern, its nodes in the topology's vertex order;
    surface and bottom nodes carry Dirichlet data."""
    free = in_vertex_order(topology, 1, np.union1d(topology.surface_nodes, topology.bottom_nodes))
    return FixedPattern.build([topology.triangles], free, topology.num_nodes)


def solve_domain_velocity(mesh: AxiMesh, u: VectorFieldP1) -> tuple[VectorFieldP1, float]:
    """Harmonic vertical extension of the surface speed of u, and the relative
    residual of its solve."""
    if u.mesh is not mesh:
        raise DimensionMismatch("velocity field lives on a different mesh")
    ed = element_data(mesh)
    pattern = mesh.topology.memo(_extension_pattern)
    data, vals, (stiffness,) = pattern.values()
    r_stiffness(ed, stiffness)
    g, rhs = _extension_rhs(u, stiffness)
    system = LinearSystem(pattern=pattern, data=pattern.fill(data, vals), rhs=rhs, mesh=mesh)
    x, (residual,) = factorize(system).solve(rhs[None], ("mesh-velocity",))

    values = np.zeros((mesh.num_nodes, 2))
    values[:, 1] = g
    values[pattern.free, 1] = x[0]
    return VectorFieldP1(values, mesh), residual


def _extension_rhs(u, stiffness) -> tuple[np.ndarray, np.ndarray]:
    """The Dirichlet data g, the vertical surface speed (u . nu)/nu_3 of u
    (zero on the bottom), and the reduced right-hand side, minus stiffness
    (M, 3, 3) times g."""
    mesh = u.mesh
    topology, n, ed = mesh.topology, mesh.num_nodes, element_data(mesh)
    kernels.expect("stiffness blocks", stiffness, (len(ed.tri), 3, 3))
    pattern = topology.memo(_extension_pattern)
    work, rhs = np.zeros(2 * n), np.empty(len(pattern.free))     # g, then its lifting
    kernels.kernel().extension_rhs(n, len(topology.boundary_edges[BoundaryTag.FREE_SURFACE]),
                                   topology.ptr.free_surface, topology.ptr.radii, mesh.ptr.z,
                                   u.ptr.values, len(ed.tri), ed.ptr.tri, stiffness,
                                   len(pattern.free), pattern.ptr.free, work, rhs)
    return work[:n], rhs
