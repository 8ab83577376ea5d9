"""Each weak form's matrix, filled the way the step fills its saddle system,
from the numpy kernels of the triangle blocks, the reference of the compiled
ones.

The run path computes each triangle's saddle block and the mesh-velocity
stiffness in one compiled loop (:mod:`capflow.kernels`).  The numpy kernels
below are the per-form expressions that loop replaced, kept as they were,
and :func:`triangle_blocks_reference` sums them as the step did; the tests
check that the compiled blocks equal it.  Each form's kernel is summed
through a :class:`~capflow.forms.FixedPattern` over all dofs, with none
eliminated, and its ``fill``, whose rows are the dofs in order.  This is the
one scatter of the run path, so the oracle, identity and symmetry tests
that use these matrices check the reference kernels, and through them the
compiled ones, and the fill the step uses, one form at a time.  The step
sums the mass, transport and divergence-stabilization weights into one
quadrature product (``_momentum_block``); here each form takes its own
weight through the same ``_mass_block`` and ``_div_at_quad``."""

import numpy as np
import scipy.sparse as sp

from capflow.fields import PhysParams, VectorFieldP1
from capflow.forms import (_ONES, _QBASIS, _QQ, ElementData, FixedPattern, _check_fields,
                           _moments, _on_both_components, _outer, _quad_values,
                           _surface_flux_block, _surface_stab_block, _vector_dofs,
                           _wall_friction_block, element_data)
from capflow.geometry import AxiMesh, BoundaryTag

# integral of N_i N_j over a triangle per unit area: 1/6 on the diagonal, 1/12 off it
_NN = _QBASIS.T @ _QBASIS / 3.0


# -- the numpy kernels of the triangle blocks ----------------------------------

def _quad_block(weight_q: np.ndarray) -> np.ndarray:
    """(M, 3, 3) blocks of the sum over points q of weight_q[m, q] N_i N_j."""
    return (weight_q @ _QQ).reshape(-1, 3, 3)


def _mass_block(ed: ElementData, weight_q: np.ndarray | None = None) -> np.ndarray:
    """Per-element 3x3 blocks of integral r weight(q) N_i N_j (weight 1 if None)."""
    return _quad_block(ed.wr if weight_q is None else ed.wr * weight_q)


def _gradient_products(ed: ElementData) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(rr, zz, rr + zz), (M, 3, 3) blocks of integral r dN_i/dr dN_j/dr, of
    integral r dN_i/dz dN_j/dz (the radial table's over the area) and of
    integral r grad N_i . grad N_j: the r-weighted stiffness that the pressure
    stabilization and the mesh-velocity extension read, which the viscous
    block shares."""
    rr = _outer(ed.grad_r, ed.grad_r) * ed.r_int[:, None, None]
    zz = ed.radial.zz / ed.area[:, None, None]
    return rr, zz, rr + zz


def _viscous_block(ed: ElementData, nu: float, grads: tuple) -> np.ndarray:
    """(M, 6, 6) rate-of-strain blocks, with the hoop term 2 nu u_r v_r / r;
    grads is :func:`_gradient_products` (ed)."""
    rr, zz, stiffness = grads
    hoop = ((2.0 * nu) * ed.area[:, None] * ed.radial.hoop).reshape(-1, 3, 3)
    E = np.empty((len(ed.tri), 6, 6))
    E[:, :3, :3] = nu * (stiffness + rr) + hoop
    E[:, :3, 3:] = _outer(ed.grad_z, ed.grad_r) * (nu * ed.r_int)[:, None, None]
    E[:, 3:, :3] = E[:, :3, 3:].transpose(0, 2, 1)
    E[:, 3:, 3:] = nu * (stiffness + zz)
    return E


def _coupling_block(ed: ElementData) -> np.ndarray:
    """(M, 6, 3) blocks of -(div v, pi) r: velocity dofs by pressure dofs."""
    # r-component: -(dN_i/dr r + N_i) N_j ; z-component: -dN_i/dz r N_j, from the table
    E = np.empty((len(ed.tri), 6, 3))
    E[:, :3, :] = -(_outer(ed.grad_r, ed.radial.rn) + _NN) * ed.area[:, None, None]
    E[:, 3:, :] = ed.radial.coupling_z
    return E


def _div_at_quad(ed: ElementData, field: np.ndarray) -> np.ndarray:
    """Axisymmetric divergence of a P1 vector field at quadrature points.

    On the axis (r = 0) the v_r/r term is replaced by its limit dr(v_r),
    exact for fields that vanish on the axis.
    """
    vr = field[:, 0][ed.tri]                              # (M, 3) nodal values
    dr_vr = (ed.grad_r * vr) @ _ONES
    d_planar = dr_vr + (ed.grad_z * field[:, 1][ed.tri]) @ _ONES
    on_axis = ed.radial.inv_r == 0.0                      # the table's points on the axis
    hoop = np.where(on_axis, dr_vr[:, None], (vr @ _QBASIS.T) * ed.radial.inv_r)
    return d_planar[:, None] + hoop                       # (M, 3q)


def _advection_block(ed: ElementData, rel: np.ndarray) -> np.ndarray:
    """(M, 3, 3) nodal blocks of N_i (rel . grad) N_j, r-weighted: integral
    r N_i rel_c times the constant dc N_j, summed over the components c = r, z."""
    return (_outer(_moments(ed, _quad_values(ed, rel[:, 0])), ed.grad_r)
            + _outer(_moments(ed, _quad_values(ed, rel[:, 1])), ed.grad_z))


def _momentum_block(ed: ElementData, w: np.ndarray, V: np.ndarray, dt: float) -> np.ndarray:
    """(M, 3, 3) nodal blocks, r-weighted, of the step's mass over dt, relative
    transport and its stabilization, the part of K acting alike on u_r and u_z:
    N_i ((w - V) . grad) N_j + (1/dt + div(w)/2 - div(V)) N_i N_j, the three
    mass-like terms in one quadrature product; the divergence is linear, so
    div(w)/2 - div(V) is that of w/2 - V."""
    weight = 1.0 / dt + _div_at_quad(ed, 0.5 * w - V)
    return _advection_block(ed, w - V) + _mass_block(ed, weight)


def _pressure_stab_block(ed: ElementData, Cs: float, stiffness: np.ndarray) -> np.ndarray:
    """(M, 3, 3) blocks of Cs h_K^2 (grad p, grad pi), r-weighted, h_K^2 = 2 |K|;
    stiffness is the r-weighted stiffness of :func:`_gradient_products`."""
    return (Cs * 2.0 * ed.area)[:, None, None] * stiffness


def triangle_blocks_reference(ed: ElementData, u: np.ndarray, V: np.ndarray, dt: float,
                              nu: float, Cs: float) -> np.ndarray:
    """(M, 9, 9) saddle blocks on the local dofs (u_r, u_z, p) of each
    triangle's vertices, summed from the numpy kernels in the step's order."""
    tri = np.empty((len(ed.tri), 9, 9))
    grads = _gradient_products(ed)
    tri[:, :6, :6] = _viscous_block(ed, nu, grads)
    diag = _momentum_block(ed, u, V, dt)
    tri[:, :3, :3] += diag
    tri[:, 3:6, 3:6] += diag
    coupling = _coupling_block(ed)
    tri[:, :6, 6:] = coupling
    tri[:, 6:, :6] = -coupling.transpose(0, 2, 1)
    tri[:, 6:, 6:] = _pressure_stab_block(ed, Cs, grads[2])
    return tri


# -- each form's matrix --------------------------------------------------------

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
