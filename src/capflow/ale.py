"""Domain velocity: vertical harmonic extension of the normal surface speed.

The mesh moves vertically only, so the extension reduces to one scalar
Laplace problem for V_z with Dirichlet data (u . nu)/nu_3 on the free surface
(the vertical speed of the surface graph), V_z = 0 on the bottom, and natural
zero-flux conditions on the wall and the axis.  The resulting V = (0, V_z)
satisfies every boundary condition of the extension problem: V . nu matches
u . nu on the surface, the wall stays a cylinder, and the bottom is fixed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .errors import SingularMatrix
from .fields import VectorFieldP1
from .forms import FixedPattern, _coo, _r_stiffness_block, element_data
from .geometry import AxiMesh, MeshTopology, surface_slopes


@dataclass(frozen=True)
class DomainVelocity:
    """Vertical-only mesh velocity; zero radial component everywhere."""

    field: VectorFieldP1


def scalar_stiffness(mesh: AxiMesh) -> sp.csr_matrix:
    """r-weighted P1 stiffness matrix, assembled through COO: the reference for
    the reduced matrix :func:`solve_domain_velocity` fills."""
    ed = element_data(mesh)
    return _coo((mesh.num_nodes, mesh.num_nodes), (ed.tri, ed.tri, _r_stiffness_block(ed)))


def _extension_pattern(topology: MeshTopology) -> FixedPattern:
    """Reduced stiffness pattern; surface and bottom nodes carry Dirichlet data."""
    mask = np.ones(topology.num_nodes, dtype=bool)
    mask[topology.surface_nodes] = False
    mask[topology.bottom_nodes] = False
    return FixedPattern.build([topology.triangles], np.flatnonzero(mask), topology.num_nodes)


def solve_domain_velocity(mesh: AxiMesh, u: VectorFieldP1) -> DomainVelocity:
    """Harmonic vertical extension of the surface speed of u."""
    if u.mesh is not mesh:
        raise ValueError("velocity field lives on a different mesh")

    # vertical surface speed: (u . nu)/nu_3 = u_z - slope * u_r at surface nodes
    snodes = mesh.surface_nodes
    slopes = surface_slopes(mesh)
    n = mesh.num_nodes
    g = np.zeros(n)             # Dirichlet data; zero on the bottom
    g[snodes] = u.values[snodes, 1] - slopes * u.values[snodes, 0]

    ed = element_data(mesh)
    stiffness = _r_stiffness_block(ed)
    pattern = mesh.topology.memo(_extension_pattern)
    lifted = np.bincount(ed.tri.ravel(), minlength=n,
                         weights=np.einsum("mij,mj->mi", stiffness, g[ed.tri]).ravel())
    x = spla.spsolve(pattern.fill(stiffness.ravel()), -lifted[pattern.free])
    if not np.all(np.isfinite(x)):
        raise SingularMatrix("mesh-velocity solve produced non-finite values")

    values = np.zeros((n, 2))
    values[:, 1] = g
    values[pattern.free, 1] = x
    return DomainVelocity(field=VectorFieldP1(values, mesh))
