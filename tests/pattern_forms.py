"""Each weak form's matrix, filled the way the step fills its saddle system.

The element kernels of :mod:`capflow.forms` are summed through a
:class:`~capflow.forms.FixedPattern` over all dofs, with none eliminated, and
its ``fill``, whose rows are the dofs in order.  This is the one scatter
of the run path, so the oracle, identity and symmetry tests that use these
matrices check the kernels and the fill the step uses, one form at a time.
The step sums the mass, transport and divergence-stabilization weights into
one quadrature product (``_momentum_block``); here each form takes its own
weight through the same ``_mass_block`` and ``_div_at_quad``.
"""

import numpy as np
import scipy.sparse as sp

from capflow.fields import PhysParams, VectorFieldP1
from capflow.forms import (FixedPattern, _advection_block, _check_fields, _coupling_block,
                           _div_at_quad, _gradient_products, _mass_block, _on_both_components,
                           _pressure_stab_block, _surface_flux_block, _surface_stab_block,
                           _vector_dofs, _viscous_block, _wall_friction_block, element_data)
from capflow.geometry import AxiMesh, BoundaryTag


def _fill(families: list[np.ndarray], blocks: list[np.ndarray], size: int) -> sp.csr_matrix:
    """The size x size matrix summing blocks[f][e] on the dofs families[f][e]."""
    pattern = FixedPattern.build(families, np.arange(size), size)
    data, vals, views = pattern.values()
    for view, block in zip(views, blocks):
        view[:] = block
    return pattern.fill(data, vals).tocsr()


def _surface_dofs(mesh: AxiMesh) -> np.ndarray:
    return _vector_dofs(mesh.boundary_edges[BoundaryTag.FREE_SURFACE], mesh.num_nodes)


def form_a(mesh: AxiMesh, beta: float, params: PhysParams) -> sp.csr_matrix:
    """Viscous rate-of-strain form with the hoop term, plus beta times the wall mass."""
    ed = element_data(mesh)
    n = mesh.num_nodes
    wall = _vector_dofs(mesh.boundary_edges[BoundaryTag.WALL], n)
    return _fill([_vector_dofs(ed.tri, n), wall],
                 [_viscous_block(ed, params.nu, _gradient_products(ed)),
                  _on_both_components(_wall_friction_block(mesh, beta))], 2 * n)


def form_b(mesh: AxiMesh) -> sp.csr_matrix:
    """Velocity-pressure coupling -(div v, pi), velocity rows by pressure columns:
    the velocity-pressure part of the step's triangle family."""
    ed = element_data(mesh)
    n = mesh.num_nodes
    block = np.zeros((len(ed.tri), 9, 9))
    block[:, :6, 6:] = _coupling_block(ed)
    tri = ed.tri
    full = _fill([np.concatenate((tri, tri + n, tri + 2 * n), axis=1)], [block], 3 * n)
    return full[:2 * n, 2 * n:]


def form_c_ALE(mesh: AxiMesh, w: VectorFieldP1, V: VectorFieldP1) -> sp.csr_matrix:
    """Relative transport ([(w - V) . grad] u, v) - (div(V) u, v)."""
    _check_fields(mesh, w, V)
    ed = element_data(mesh)
    return _fill([_vector_dofs(ed.tri, mesh.num_nodes)],
                 [_on_both_components(_advection_block(ed, w.values - V.values)
                                      - _mass_block(ed, _div_at_quad(ed, V.values)))],
                 2 * mesh.num_nodes)


def form_s(mesh: AxiMesh, w: VectorFieldP1, V: VectorFieldP1) -> sp.csr_matrix:
    """Transport stabilization 1/2 (div(w) u, v) - 1/2 surface flux on the free surface."""
    _check_fields(mesh, w, V)
    ed = element_data(mesh)
    return _fill([_vector_dofs(ed.tri, mesh.num_nodes), _surface_dofs(mesh)],
                 [_on_both_components(0.5 * _mass_block(ed, _div_at_quad(ed, w.values))),
                  _on_both_components(_surface_flux_block(mesh, w.values, V.values))],
                 2 * mesh.num_nodes)


def form_S_Gamma(mesh: AxiMesh, params: PhysParams) -> sp.csr_matrix:
    """Free-surface stabilization of the tangential variation of u . nu / nu_3."""
    return _fill([_surface_dofs(mesh)], [_surface_stab_block(mesh, params)],
                 2 * mesh.num_nodes)


def form_s_p(mesh: AxiMesh, Cs: float) -> sp.csr_matrix:
    """Pressure stabilization Cs h_K^2 (grad p, grad pi), h_K^2 = 2 |K|."""
    ed = element_data(mesh)
    return _fill([ed.tri], [_pressure_stab_block(ed, Cs, _gradient_products(ed)[2])],
                 mesh.num_nodes)


def r_stiffness(mesh: AxiMesh) -> sp.csr_matrix:
    """The r-weighted stiffness (grad u, grad v) of the mesh-velocity extension."""
    ed = element_data(mesh)
    return _fill([ed.tri], [_gradient_products(ed)[2]], mesh.num_nodes)


def mass_matrix(mesh: AxiMesh) -> sp.csr_matrix:
    """Consistent r-weighted mass matrix on vector fields, (2N, 2N)."""
    ed = element_data(mesh)
    return _fill([_vector_dofs(ed.tri, mesh.num_nodes)],
                 [_on_both_components(_mass_block(ed))], 2 * mesh.num_nodes)
