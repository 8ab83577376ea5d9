"""The numpy references of the compiled kernels, and each weak form's matrix
filled the way the step fills its saddle system from the numpy kernels of the
triangle blocks.

The run path computes the element data, each triangle's saddle block, the
mesh-velocity stiffness, the boundary-edge blocks, the mass action, the
loads with the reduction onto the kept dofs and the mesh-velocity
extension's data in compiled loops (:mod:`capflow.kernels`).  The numpy
functions below are the expressions those loops replaced, kept as they were
but for the bottom load's, whose matrix product is written out as the
kernel sums it: :func:`triangle_blocks_reference` sums the triangle kernels
as the step did, the tests check that the compiled kernels equal these to
1e-15 of each block's largest entry, and the step's bottom load equals
:func:`bottom_load_reference` bit for bit.  Each form's kernel is summed
through a :class:`~capflow.forms.FixedPattern` over all dofs, with none
eliminated, and its ``fill``, whose rows are the dofs in order.  This is the one scatter
of the run path, so the oracle, identity and symmetry tests that use these
matrices check the reference kernels, and through them the compiled ones,
and the fill the step uses, one form at a time.  The step sums the mass,
transport and divergence-stabilization weights into one quadrature product
(``_momentum_block``); here each form takes its own weight through the same
``_mass_block`` and ``_div_at_quad``."""

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from capflow.fields import PhysParams, VectorFieldP1
from capflow.forms import _ONES, _QBASIS, _QQ, FixedPattern, _outer, _vector_dofs, radial_table
from capflow.geometry import AxiMesh, BoundaryTag

from .compiled import ElementData, check_fields, element_data, fill, values

# integral of N_i N_j over a triangle per unit area: 1/6 on the diagonal, 1/12 off it
_NN = _QBASIS.T @ _QBASIS / 3.0


# -- the edge geometry of the boundary arcs ------------------------------------

@dataclass(frozen=True)
class EdgeGeometry:
    """The edges of one tagged boundary arc, in edge-list order, and their ends,
    differences and lengths; read-only."""

    edges: np.ndarray     # (E, 2) node pairs
    p1: np.ndarray        # (E, 2) first ends
    p2: np.ndarray        # (E, 2) second ends
    d: np.ndarray         # (E, 2) p2 - p1
    length: np.ndarray    # (E,) |p2 - p1|


def edge_geometry(mesh: AxiMesh, tag: BoundaryTag) -> EdgeGeometry:
    """The geometry of the edges tagged tag; see :func:`surface_edges` for the
    free surface's, which is kept per mesh."""
    edges = mesh.boundary_edges[tag]
    p1 = mesh.nodes[edges[:, 0]]
    p2 = mesh.nodes[edges[:, 1]]
    d = p2 - p1
    length = np.sqrt((d ** 2).sum(axis=1))
    for a in (p1, p2, d, length):
        a.setflags(write=False)
    return EdgeGeometry(edges=edges, p1=p1, p2=p2, d=d, length=length)


def surface_edges(mesh: AxiMesh) -> EdgeGeometry:
    """The free-surface edge geometry, computed once per mesh and shared by the
    normals, the slopes, the surface blocks and the surface-tension load."""
    return mesh.memo(_surface_edges)


def _surface_edges(mesh: AxiMesh) -> EdgeGeometry:
    return edge_geometry(mesh, BoundaryTag.FREE_SURFACE)


def surface_normals(mesh: AxiMesh) -> np.ndarray:
    """Outward unit normals per free-surface edge (same order as the edge list).

    The topology's arc makes the surface a graph over r: every edge has
    dr > 0, so its length is positive and its normal has nu_3 > 0.  Computed
    once per mesh, on first use, and read-only.
    """
    return mesh.memo(_surface_normals)


def _surface_normals(mesh: AxiMesh) -> np.ndarray:
    surface = surface_edges(mesh)
    t, length = surface.d, surface.length
    normals = np.column_stack((-t[:, 1], t[:, 0])) / length[:, None]
    normals.setflags(write=False)
    return normals



# 2-point Gauss on [0, 1]
_EDGE_Q = np.array([0.5 - 0.5 / np.sqrt(3.0), 0.5 + 0.5 / np.sqrt(3.0)])
# edge basis values at the Gauss points, (2q, 2 nodes), and their products
_EDGE_BASIS = np.column_stack((1.0 - _EDGE_Q, _EDGE_Q))
_EDGE_BB = (_EDGE_BASIS[:, :, None] * _EDGE_BASIS[:, None, :]).reshape(2, 4)


# -- the numpy kernels of the element data, edge blocks, mass action and loads --

def element_data_reference(mesh: AxiMesh) -> dict:
    """The arrays of :func:`compiled.element_data`, from numpy."""
    tri = mesh.triangles
    table = radial_table(mesh.topology)
    z = mesh.z[tri]
    area = mesh.areas
    inv2a = (1.0 / (2.0 * area))[:, None]
    wr = (area / 3.0)[:, None] * table.rq
    grad_r = (np.take(z, [1, 2, 0], axis=1) - np.take(z, [2, 0, 1], axis=1)) * inv2a
    return dict(area=area, grad_r=grad_r, grad_z=table.dr * inv2a, wr=wr,
                r_int=wr[:, 0] + wr[:, 1] + wr[:, 2])


def _gauss_radii(geom: EdgeGeometry) -> np.ndarray:
    """(E, 2q) r at the 2 Gauss points of each edge."""
    return (geom.p1[:, 0, None] * _EDGE_BASIS[None, :, 0]
            + geom.p2[:, 0, None] * _EDGE_BASIS[None, :, 1])


def _quad_values(ed: ElementData, nodal: np.ndarray) -> np.ndarray:
    """Values of a P1 scalar field at the quadrature points, (M, 3q)."""
    return nodal[ed.tri] @ _QBASIS.T


def _moments(ed: ElementData, weight_q: np.ndarray) -> np.ndarray:
    """(M, 3) integrals of r weight N_i, weight given at the quadrature points."""
    return (ed.wr * weight_q) @ _QBASIS


def _on_both_components(block: np.ndarray) -> np.ndarray:
    """A (E, k, k) nodal block acting alike on u_r and u_z, on dofs (r..., z...)."""
    e, k, _ = block.shape
    out = np.zeros((e, 2 * k, 2 * k))
    out[:, :k, :k] = block
    out[:, k:, k:] = block
    return out


def _wall_friction_block(mesh: AxiMesh, beta: float) -> np.ndarray:
    """(E, 2, 2) blocks of beta * integral of r N_i N_j over each wall edge."""
    wall = edge_geometry(mesh, BoundaryTag.WALL)
    w = 0.5 * wall.length[:, None] * _gauss_radii(wall)   # (E, 2q)
    return beta * (w @ _EDGE_BB).reshape(-1, 2, 2)


def _surface_flux_block(mesh: AxiMesh, w: np.ndarray, V: np.ndarray) -> np.ndarray:
    """(E, 2, 2) nodal blocks of -1/2 ((w - V) . nu) N_i N_j r on free-surface edges."""
    normals = surface_normals(mesh)
    surface = surface_edges(mesh)
    edges = surface.edges
    rel = w[edges] - V[edges]                             # (E, 2 nodes, 2)
    flux = (rel * normals[:, None, :]).sum(axis=2) @ _EDGE_BASIS.T    # (E, 2q)
    wgt = -0.5 * 0.5 * surface.length[:, None] * _gauss_radii(surface) * flux
    return (wgt @ _EDGE_BB).reshape(-1, 2, 2)


def _surface_stab_block(mesh: AxiMesh, params: PhysParams) -> np.ndarray:
    """(E, 4, 4) free-surface stabilization blocks on dofs (r0, r1, z0, z1).

    D(u) = -(f1 - f0)/L with f = u.nu/nu_3, squared, weighted by gamma/2
    and the surface measure.
    """
    normals = surface_normals(mesh)
    surface = surface_edges(mesh)
    rbar = 0.5 * (surface.p1[:, 0] + surface.p2[:, 0])
    nu1, nu3 = normals[:, 0], normals[:, 1]
    coef = np.stack((-nu1, nu1, -nu3, nu3), axis=1)       # (E, 4)
    scale = 0.5 * params.gamma * rbar / surface.length
    return scale[:, None, None] * (coef[:, :, None] * coef[:, None, :])


def edge_blocks_reference(mesh: AxiMesh, w: np.ndarray, V: np.ndarray, beta: float,
                          params: PhysParams, dt: float) -> tuple[np.ndarray, np.ndarray]:
    """The step's wall block (E, 2, 2) and free-surface block (E, 4, 4)."""
    return (_wall_friction_block(mesh, beta),
            _on_both_components(_surface_flux_block(mesh, w, V))
            + dt * _surface_stab_block(mesh, params))


def mass_action_reference(u: VectorFieldP1) -> np.ndarray:
    """The consistent r-weighted mass matrix of u.mesh times u, flattened."""
    ed = element_data(u.mesh)
    # integral r N_i u_c per element, on the dofs (r..., z...) of its vertices
    local = np.concatenate([_moments(ed, _quad_values(ed, u.values[:, c])) for c in (0, 1)],
                           axis=1)
    n = u.mesh.num_nodes
    return np.bincount(_vector_dofs(ed.tri, n).ravel(), weights=local.ravel(), minlength=2 * n)


def gravity_load(mesh: AxiMesh, params: PhysParams) -> np.ndarray:
    ed = element_data(mesh)
    n = mesh.num_nodes
    vals = -params.g * (ed.wr @ _QBASIS)
    return np.bincount((ed.tri + n).ravel(), weights=vals.ravel(), minlength=2 * n)


def bottom_load_reference(mesh: AxiMesh) -> np.ndarray:
    """Load of a unit vertical stress on the open bottom: entries of integral
    phi_i r dr.  The two Gauss points' terms are summed in order, not by a
    matrix product, so the step's bottom load has these bits."""
    bottom = edge_geometry(mesh, BoundaryTag.BOTTOM)
    n = mesh.num_nodes
    wr = 0.5 * bottom.length[:, None] * _gauss_radii(bottom)
    vals = wr[:, :1] * _EDGE_BASIS[0] + wr[:, 1:] * _EDGE_BASIS[1]
    return np.bincount((bottom.edges + n).ravel(), weights=vals.ravel(), minlength=2 * n)


def surface_tension_load(mesh: AxiMesh, params: PhysParams) -> np.ndarray:
    """Laplace-Beltrami weak form of surface tension, -gamma * integral of div_Gamma v.

    Integrated by parts, so no curvature is ever evaluated; the meridian part
    contributes gamma tau rbar at the edge ends, the azimuthal part the
    -gamma v_r line integral.
    """
    surface = surface_edges(mesh)
    edges, length = surface.edges, surface.length
    tau = surface.d / length[:, None]
    rbar = 0.5 * (surface.p1[:, 0] + surface.p2[:, 0])
    g = params.gamma
    n = mesh.num_nodes
    dofs = np.concatenate((edges[:, 0], edges[:, 1], edges[:, 0] + n, edges[:, 1] + n))
    vals = np.concatenate((g * tau[:, 0] * rbar - 0.5 * g * length,
                           -g * tau[:, 0] * rbar - 0.5 * g * length,
                           g * tau[:, 1] * rbar,
                           -g * tau[:, 1] * rbar))
    return np.bincount(dofs, weights=vals, minlength=2 * n)


def contact_line_load(mesh: AxiMesh, params: PhysParams) -> np.ndarray:
    """Contact-line force gamma cos(theta_s) along the wall, weighted by the contact-circle measure."""
    n = mesh.num_nodes
    f = np.zeros(2 * n)
    r_wall = mesh.topology.radii[mesh.contact_node]
    f[mesh.contact_node + n] = params.gamma * np.cos(params.theta_s) * r_wall
    return f


def rhs_F_reference(mesh: AxiMesh, zeta: float, params: PhysParams) -> np.ndarray:
    """Load vector: gravity, bottom stress (p_bar + zeta) e3, surface tension, contact line."""
    return (gravity_load(mesh, params)
            + (params.p_bar + zeta) * bottom_load_reference(mesh)
            + surface_tension_load(mesh, params)
            + contact_line_load(mesh, params))


def state_rhs_reference(pattern: FixedPattern, mesh_new: AxiMesh, u_old: VectorFieldP1,
                        zeta: float, params: PhysParams, dt: float) -> np.ndarray:
    """The step's reduced right-hand side: the old mass action over dt plus the loads."""
    f = mass_action_reference(u_old) / dt + rhs_F_reference(mesh_new, zeta, params)
    return reduced(pattern, f)


def reduced(pattern: FixedPattern, f: np.ndarray) -> np.ndarray:
    """The load f on the first len(f) dofs, zero on the rest, on the kept
    dofs of pattern in their order, as the phases reduce the loads."""
    return np.concatenate((f, np.zeros(pattern.size - len(f))))[pattern.free]


def surface_slopes(mesh: AxiMesh) -> np.ndarray:
    """Nodal slopes dz/dr along the free surface, ordered like surface_nodes.

    Interior surface nodes average the two adjacent edge slopes; the end
    nodes take the one-sided value.
    """
    d = surface_edges(mesh).d
    e_slope = d[:, 1] / d[:, 0]
    n = len(e_slope)
    slopes = np.empty(n + 1)
    slopes[0] = e_slope[0]
    slopes[-1] = e_slope[-1]
    slopes[1:-1] = 0.5 * (e_slope[:-1] + e_slope[1:])
    return slopes


def extension_rhs_reference(pattern: FixedPattern, u: VectorFieldP1,
                            stiffness: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The mesh-velocity extension's Dirichlet data g, the vertical surface
    speed (u . nu)/nu_3 (zero on the bottom), and its reduced right-hand
    side, minus the stiffness (M, 3, 3) times g."""
    mesh = u.mesh
    snodes = mesh.surface_nodes
    g = np.zeros(mesh.num_nodes)
    g[snodes] = u.values[snodes, 1] - surface_slopes(mesh) * u.values[snodes, 0]
    ed = element_data(mesh)
    lifted = np.bincount(ed.tri.ravel(), minlength=mesh.num_nodes,
                         weights=(stiffness @ g[ed.tri][:, :, None]).ravel())
    return g, np.concatenate((-lifted, np.zeros(pattern.size - len(lifted))))[pattern.free]


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

def filled(pattern: FixedPattern, data: np.ndarray, vals: np.ndarray) -> sp.csc_matrix:
    """The CSC matrix of pattern's :meth:`~capflow.forms.FixedPattern.fill` of
    vals into data, both from its ``values``."""
    n = len(pattern.free)
    return sp.csc_matrix((fill(pattern, data, vals), pattern.indices, pattern.indptr), shape=(n, n))


def _fill(families: list[np.ndarray], blocks: list[np.ndarray], size: int) -> sp.csr_matrix:
    """The size x size matrix summing blocks[f][e] on the dofs families[f][e]."""
    pattern = FixedPattern.build(families, np.arange(size), size)
    data, vals, views = values(pattern)
    for view, block in zip(views, blocks):
        view[:] = block
    return filled(pattern, data, vals).tocsr()


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
    check_fields(mesh, w, V)
    ed = element_data(mesh)
    return _fill([_vector_dofs(ed.tri, mesh.num_nodes)],
                 [_on_both_components(_advection_block(ed, w.values - V.values)
                                      - _mass_block(ed, _div_at_quad(ed, V.values)))],
                 2 * mesh.num_nodes)


def form_s(mesh: AxiMesh, w: VectorFieldP1, V: VectorFieldP1) -> sp.csr_matrix:
    """Transport stabilization 1/2 (div(w) u, v) - 1/2 surface flux on the free surface."""
    check_fields(mesh, w, V)
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
