"""Piecewise-linear axisymmetric finite-element kernels.

All volume integrals carry the axisymmetric measure r dr dz; the common 2*pi
factor is dropped on both sides of every equation, so the bottom-boundary
measure used by the controller is radius^2/2 and the contact-line measure is
the wall radius.  Volume terms use the 3-point mid-edge rule on triangles
(exact for quadratics), boundary terms 2-point Gauss on edges.

Velocity dof layout: radial components first (node k -> row k), then vertical
components (node k -> row N + k); pressure dofs follow in the monolithic
saddle system.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import SuperLU, splu

from .errors import DimensionMismatch, ResidualTooLarge, SingularMatrix
from .fields import PhysParams, ScalarFieldP1, VectorFieldP1
from .geometry import AxiMesh, BoundaryTag, contact_line_height, surface_normals

# mid-edge quadrature: rows = points, cols = vertex basis values
_QBASIS = np.array([
    [0.5, 0.5, 0.0],
    [0.0, 0.5, 0.5],
    [0.5, 0.0, 0.5],
])
# 2-point Gauss on [0, 1]
_EDGE_Q = np.array([0.5 - 0.5 / np.sqrt(3.0), 0.5 + 0.5 / np.sqrt(3.0)])


@dataclass(frozen=True)
class ElementData:
    """Per-triangle geometry reused by every volume form."""

    tri: np.ndarray      # (M, 3) vertex indices
    area: np.ndarray     # (M,)
    grad: np.ndarray     # (M, 3, 2) constant P1 gradients (d/dr, d/dz)
    rq: np.ndarray       # (M, 3) radius at quadrature points
    wq: np.ndarray       # (M,) quadrature weight area/3
    axis_tol: float      # radius threshold below which 1/r terms are skipped


def element_data(mesh: AxiMesh) -> ElementData:
    tri = mesh.triangles
    p = mesh.nodes[tri]                      # (M, 3, 2)
    r, z = p[..., 0], p[..., 1]
    area = mesh.areas
    inv2a = 1.0 / (2.0 * area)
    grad = np.empty((len(tri), 3, 2))
    grad[:, 0, 0] = (z[:, 1] - z[:, 2]) * inv2a
    grad[:, 1, 0] = (z[:, 2] - z[:, 0]) * inv2a
    grad[:, 2, 0] = (z[:, 0] - z[:, 1]) * inv2a
    grad[:, 0, 1] = (r[:, 2] - r[:, 1]) * inv2a
    grad[:, 1, 1] = (r[:, 0] - r[:, 2]) * inv2a
    grad[:, 2, 1] = (r[:, 1] - r[:, 0]) * inv2a
    rq = r @ _QBASIS.T
    return ElementData(tri=tri, area=area, grad=grad, rq=rq,
                       wq=area / 3.0, axis_tol=1e-14 * mesh.radius)


def _edge_geometry(mesh: AxiMesh, tag: BoundaryTag):
    """(edges, length, r at the 2 Gauss points, basis values (2q, 2nodes))."""
    edges = mesh.boundary_edges[tag]
    p1 = mesh.nodes[edges[:, 0]]
    p2 = mesh.nodes[edges[:, 1]]
    d = p2 - p1
    length = np.sqrt((d ** 2).sum(axis=1))
    basis = np.column_stack((1.0 - _EDGE_Q, _EDGE_Q))  # (2q, 2)
    rq = p1[:, 0, None] * basis[None, :, 0] + p2[:, 0, None] * basis[None, :, 1]
    return edges, length, rq, basis


def _vector_coo(mesh, rows_local, cols_local, vals):
    """Scatter per-element local blocks into a (2N, 2N) CSR matrix."""
    n = mesh.num_nodes
    return sp.coo_matrix((vals.ravel(), (rows_local.ravel(), cols_local.ravel())),
                         shape=(2 * n, 2 * n)).tocsr()


def _local_dof_grid(mesh, tri):
    """Global dof indices per element in local order (r0 r1 r2 z0 z1 z2)."""
    n = mesh.num_nodes
    gdof = np.concatenate((tri, tri + n), axis=1)  # (M, 6)
    rows = np.repeat(gdof[:, :, None], 6, axis=2)
    cols = np.repeat(gdof[:, None, :], 6, axis=1)
    return rows, cols


def _quad_values(ed: ElementData, nodal: np.ndarray) -> np.ndarray:
    """Values of a P1 nodal field at the quadrature points, (M, 3q, ...)."""
    return np.einsum("qk,mk...->mq...", _QBASIS, nodal[ed.tri])


def form_a(mesh: AxiMesh, beta: float, params: PhysParams) -> sp.csr_matrix:
    """Viscous rate-of-strain form plus wall friction.

    2 nu (D(u), D(v)) with the axisymmetric hoop contribution
    2 nu u_r v_r / r^2, plus beta * integral of u . v over the wall.
    Entries of 1/r terms at quadrature points on the axis are skipped; the
    affected dofs carry an essential zero and are eliminated from the system.
    """
    if beta < 0:
        raise ValueError("friction coefficient must be nonnegative")
    ed = element_data(mesh)
    nu = params.nu
    b = ed.grad[:, :, 0]
    c = ed.grad[:, :, 1]
    ir = (ed.wq[:, None] * ed.rq).sum(axis=1)    # integral of r over element

    m = len(ed.tri)
    E = np.zeros((m, 6, 6))
    bb = np.einsum("mi,mj->mij", b, b)
    cc = np.einsum("mi,mj->mij", c, c)
    cb = np.einsum("mi,mj->mij", c, b)
    E[:, :3, :3] += nu * (2.0 * bb + cc) * ir[:, None, None]
    E[:, :3, 3:] += nu * cb * ir[:, None, None]
    E[:, 3:, :3] += nu * cb.transpose(0, 2, 1) * ir[:, None, None]
    E[:, 3:, 3:] += nu * (2.0 * cc + bb) * ir[:, None, None]

    # hoop term 2 nu u_r v_r / r
    mask = ed.rq > ed.axis_tol
    inv_r = np.where(mask, 1.0 / np.where(mask, ed.rq, 1.0), 0.0)
    hoop = 2.0 * nu * np.einsum("mq,qi,qj->mij", ed.wq[:, None] * inv_r, _QBASIS, _QBASIS)
    E[:, :3, :3] += hoop

    rows, cols = _local_dof_grid(mesh, ed.tri)
    mat = _vector_coo(mesh, rows, cols, E)

    if beta > 0.0:
        edges, length, rq, basis = _edge_geometry(mesh, BoundaryTag.WALL)
        w = 0.5 * length[:, None] * rq                       # (E, 2q)
        ee = beta * np.einsum("eq,qi,qj->eij", w, basis, basis)
        n = mesh.num_nodes
        for shift in (0, n):
            g = edges + shift
            rows_e = np.repeat(g[:, :, None], 2, axis=2)
            cols_e = np.repeat(g[:, None, :], 2, axis=1)
            mat = mat + sp.coo_matrix(
                (ee.ravel(), (rows_e.ravel(), cols_e.ravel())),
                shape=(2 * n, 2 * n)).tocsr()
    return mat


def form_b(mesh: AxiMesh) -> sp.csr_matrix:
    """Velocity-pressure coupling b(v, pi) = -(div v, pi).

    The axisymmetric divergence dr(v_r) + v_r/r + dz(v_z) is integrated
    against r, which cancels the 1/r singularity exactly.
    Rows are velocity dofs, columns pressure dofs.
    """
    ed = element_data(mesh)
    n = mesh.num_nodes
    m = len(ed.tri)
    b = ed.grad[:, :, 0]
    c = ed.grad[:, :, 1]
    # r-component: -(b_i r + N_i) N_j ; z-component: -c_i r N_j
    wr = ed.wq[:, None] * ed.rq                           # (M, 3q)
    E = np.zeros((m, 6, 3))
    E[:, :3, :] -= np.einsum("mq,mi,qj->mij", wr, b, _QBASIS)
    E[:, :3, :] -= np.einsum("m,qi,qj->mij", ed.wq, _QBASIS, _QBASIS)
    E[:, 3:, :] -= np.einsum("mq,mi,qj->mij", wr, c, _QBASIS)

    gdof = np.concatenate((ed.tri, ed.tri + n), axis=1)
    rows = np.repeat(gdof[:, :, None], 3, axis=2)
    cols = np.repeat(ed.tri[:, None, :], 6, axis=1)
    return sp.coo_matrix((E.ravel(), (rows.ravel(), cols.ravel())),
                         shape=(2 * n, n)).tocsr()


def _div_at_quad(ed: ElementData, field: np.ndarray) -> np.ndarray:
    """Axisymmetric divergence of a P1 vector field at quadrature points.

    On the axis (r = 0) the v_r/r term is replaced by its limit dr(v_r),
    exact for fields that vanish on the axis.
    """
    vals = field[ed.tri]                                  # (M, 3, 2)
    d_planar = np.einsum("mk,mk->m", ed.grad[:, :, 0], vals[:, :, 0]) \
        + np.einsum("mk,mk->m", ed.grad[:, :, 1], vals[:, :, 1])
    vr_q = np.einsum("qk,mk->mq", _QBASIS, vals[:, :, 0])
    mask = ed.rq > ed.axis_tol
    hoop = np.where(mask, vr_q / np.where(mask, ed.rq, 1.0),
                    np.einsum("mk,mk->m", ed.grad[:, :, 0], vals[:, :, 0])[:, None])
    return d_planar[:, None] + hoop                       # (M, 3q)


def _mass_pattern(ed: ElementData, weight_q: np.ndarray) -> np.ndarray:
    """Per-element 3x3 blocks of integral weight(q) N_i N_j."""
    return np.einsum("mq,qi,qj->mij", weight_q, _QBASIS, _QBASIS)


def form_c_ALE(mesh: AxiMesh, w: VectorFieldP1, V: VectorFieldP1) -> sp.csr_matrix:
    """Relative transport ([(w - V) . grad] u, v) - (div(V) u, v).

    w and V are nodal fields carried over from the previous mesh by nodal
    identification; gradients and measures are those of the given mesh.
    """
    _check_fields(mesh, w, V)
    ed = element_data(mesh)
    rel = _quad_values(ed, w.values - V.values)           # (M, 3q, 2)
    wr = ed.wq[:, None] * ed.rq
    # transport: N_i (rel . grad) N_j, identical on both components
    rel_grad = np.einsum("mqc,mjc->mqj", rel, ed.grad)
    adv = np.einsum("mq,qi,mqj->mij", wr, _QBASIS, rel_grad)
    divv = _div_at_quad(ed, V.values)
    msub = _mass_pattern(ed, wr * divv)
    block = adv - msub
    return _scatter_diag_block(mesh, ed, block)


def form_s(mesh: AxiMesh, w: VectorFieldP1, V: VectorFieldP1) -> sp.csr_matrix:
    """Transport stabilization 1/2 (div(w) u, v) - 1/2 surface flux on the free surface."""
    _check_fields(mesh, w, V)
    ed = element_data(mesh)
    wr = ed.wq[:, None] * ed.rq
    divw = _div_at_quad(ed, w.values)
    block = 0.5 * _mass_pattern(ed, wr * divw)
    mat = _scatter_diag_block(mesh, ed, block)

    normals = surface_normals(mesh)
    edges, length, rq, basis = _edge_geometry(mesh, BoundaryTag.FREE_SURFACE)
    rel = w.values[edges] - V.values[edges]               # (E, 2 nodes, 2)
    rel_q = np.einsum("qk,ekc->eqc", basis, rel)
    flux = np.einsum("eqc,ec->eq", rel_q, normals)        # (E, 2q)
    wgt = -0.5 * 0.5 * length[:, None] * rq * flux
    ee = np.einsum("eq,qi,qj->eij", wgt, basis, basis)
    n = mesh.num_nodes
    for shift in (0, n):
        g = edges + shift
        rows = np.repeat(g[:, :, None], 2, axis=2)
        cols = np.repeat(g[:, None, :], 2, axis=1)
        mat = mat + sp.coo_matrix((ee.ravel(), (rows.ravel(), cols.ravel())),
                                  shape=(2 * n, 2 * n)).tocsr()
    return mat


def form_S_Gamma(mesh: AxiMesh, params: PhysParams) -> sp.csr_matrix:
    """Free-surface stabilization damping tangential variation of u . nu / nu_3.

    Edge-wise: the meridian tangential derivative of the vertical surface
    velocity, squared, weighted by gamma/2 and the surface measure.  Rigid
    vertical motion is annihilated exactly.
    """
    normals = surface_normals(mesh)
    edges = mesh.boundary_edges[BoundaryTag.FREE_SURFACE]
    p1 = mesh.nodes[edges[:, 0]]
    p2 = mesh.nodes[edges[:, 1]]
    d = p2 - p1
    length = np.sqrt((d ** 2).sum(axis=1))
    rbar = 0.5 * (p1[:, 0] + p2[:, 0])
    nu1, nu3 = normals[:, 0], normals[:, 1]
    # local dofs (n1r, n1z, n2r, n2z); D(u) = -(f2 - f1)/L with f = u.nu/nu3
    coef = np.stack((-nu1, -nu3, nu1, nu3), axis=1)       # (E, 4)
    scale = 0.5 * params.gamma * rbar / length
    blocks = scale[:, None, None] * np.einsum("ei,ej->eij", coef, coef)
    n = mesh.num_nodes
    g = np.stack((edges[:, 0], edges[:, 0] + n, edges[:, 1], edges[:, 1] + n), axis=1)
    rows = np.repeat(g[:, :, None], 4, axis=2)
    cols = np.repeat(g[:, None, :], 4, axis=1)
    return sp.coo_matrix((blocks.ravel(), (rows.ravel(), cols.ravel())),
                         shape=(2 * n, 2 * n)).tocsr()


def form_s_p(mesh: AxiMesh, Cs: float, h: float | None = None) -> sp.csr_matrix:
    """Pressure-gradient stabilization Cs h_K^2 (grad p, grad pi) per element.

    By default h_K^2 is the area-equivalent size 2 * |K| per element (the
    choice of element-size measure only rescales the constant Cs; the
    area-based one keeps the spurious force the stabilization exerts on the
    exact hydrostatic pressure below the rest-state tolerance on stretched
    cells).  Passing h uses that global value instead.
    """
    if Cs < 0:
        raise ValueError("Cs must be nonnegative")
    ed = element_data(mesh)
    n = mesh.num_nodes
    if h is None:
        h2 = 2.0 * ed.area
    else:
        h2 = np.full(len(ed.tri), float(h) ** 2)
    ir = (ed.wq[:, None] * ed.rq).sum(axis=1)
    gg = np.einsum("mic,mjc->mij", ed.grad, ed.grad)
    blocks = Cs * (h2 * ir)[:, None, None] * gg
    rows = np.repeat(ed.tri[:, :, None], 3, axis=2)
    cols = np.repeat(ed.tri[:, None, :], 3, axis=1)
    return sp.coo_matrix((blocks.ravel(), (rows.ravel(), cols.ravel())),
                         shape=(n, n)).tocsr()


def mass_matrix(mesh: AxiMesh) -> sp.csr_matrix:
    """Consistent r-weighted mass matrix on vector fields, (2N, 2N)."""
    ed = element_data(mesh)
    wr = ed.wq[:, None] * ed.rq
    block = _mass_pattern(ed, wr)
    return _scatter_diag_block(mesh, ed, block)


def beta_h(chi: float, h3: float, nu: float) -> float:
    """Discrete wall friction nu/(chi * h3); h3 is the current vertical mesh size at the wall."""
    if chi <= 0 or h3 <= 0:
        raise ValueError("chi and h3 must be positive")
    return nu / (chi * h3)


def gravity_load(mesh: AxiMesh, params: PhysParams) -> np.ndarray:
    ed = element_data(mesh)
    n = mesh.num_nodes
    wr = ed.wq[:, None] * ed.rq
    vals = -params.g * np.einsum("mq,qi->mi", wr, _QBASIS)
    f = np.zeros(2 * n)
    np.add.at(f, ed.tri + n, vals)
    return f


def bottom_load_vector(mesh: AxiMesh) -> np.ndarray:
    """Load of a unit vertical stress on the open bottom: entries of integral phi_i r dr.

    The same vector weights the adjoint bottom integral, which keeps the
    discrete gradient exactly dual to the state response.
    """
    edges, length, rq, basis = _edge_geometry(mesh, BoundaryTag.BOTTOM)
    n = mesh.num_nodes
    vals = np.einsum("eq,qi->ei", 0.5 * length[:, None] * rq, basis)
    f = np.zeros(2 * n)
    np.add.at(f, edges + n, vals)
    return f


def surface_tension_load(mesh: AxiMesh, params: PhysParams) -> np.ndarray:
    """Laplace-Beltrami weak form of surface tension, -gamma * integral of div_Gamma v.

    Integrated by parts, so no curvature is ever evaluated; the meridian part
    contributes gamma tau rbar at the edge ends, the azimuthal part the
    -gamma v_r line integral.
    """
    edges = mesh.boundary_edges[BoundaryTag.FREE_SURFACE]
    p1 = mesh.nodes[edges[:, 0]]
    p2 = mesh.nodes[edges[:, 1]]
    d = p2 - p1
    length = np.sqrt((d ** 2).sum(axis=1))
    tau = d / length[:, None]
    rbar = 0.5 * (p1[:, 0] + p2[:, 0])
    g = params.gamma
    n = mesh.num_nodes
    f = np.zeros(2 * n)
    np.add.at(f, edges[:, 0], g * tau[:, 0] * rbar - 0.5 * g * length)
    np.add.at(f, edges[:, 1], -g * tau[:, 0] * rbar - 0.5 * g * length)
    np.add.at(f, edges[:, 0] + n, g * tau[:, 1] * rbar)
    np.add.at(f, edges[:, 1] + n, -g * tau[:, 1] * rbar)
    return f


def contact_line_load(mesh: AxiMesh, params: PhysParams) -> np.ndarray:
    """Contact-line force gamma cos(theta_s) along the wall, weighted by the contact-circle measure."""
    n = mesh.num_nodes
    f = np.zeros(2 * n)
    r_wall = mesh.nodes[mesh.contact_node, 0]
    f[mesh.contact_node + n] = params.gamma * np.cos(params.theta_s) * r_wall
    return f


def rhs_F(mesh: AxiMesh, zeta: float, params: PhysParams) -> np.ndarray:
    """Load vector: gravity, bottom stress (p_bar + zeta) e3, surface tension, contact line."""
    return (gravity_load(mesh, params)
            + (params.p_bar + zeta) * bottom_load_vector(mesh)
            + surface_tension_load(mesh, params)
            + contact_line_load(mesh, params))


# -- monolithic system ------------------------------------------------------

@dataclass
class LinearSystem:
    """Reduced saddle system of one slab's state solve."""

    matrix: sp.csr_matrix      # free dofs only
    rhs: np.ndarray
    free: np.ndarray           # global indices of free dofs
    size_full: int
    n_velocity: int            # 2 * num_nodes
    mesh: AxiMesh


def _free_dofs(mesh: AxiMesh) -> np.ndarray:
    n = mesh.num_nodes
    fixed = mesh.radial_constrained_nodes           # radial dofs only
    mask = np.ones(3 * n, dtype=bool)
    mask[fixed] = False
    return np.where(mask)[0]


def state_blocks(mesh_new, mesh_old, u_old, V_old, zeta, phys, num):
    """All blocks of the semi-implicit step on the updated geometry.

    Returns (K, B, Sp, rhs_top) with K the velocity-velocity operator,
    B the pressure coupling, Sp the pressure stabilization and rhs_top the
    momentum right-hand side (old-mesh mass action plus loads).
    """
    _check_fields(mesh_old, u_old, V_old)
    dt = num.dt
    h3 = contact_line_height(mesh_new) / num.N3
    beta = beta_h(phys.chi, h3, phys.nu)
    u_new_mesh = VectorFieldP1(u_old.values, mesh_new)
    v_new_mesh = VectorFieldP1(V_old.values, mesh_new)
    K = (mass_matrix(mesh_new) / dt
         + form_a(mesh_new, beta, phys)
         + form_c_ALE(mesh_new, u_new_mesh, v_new_mesh)
         + form_s(mesh_new, u_new_mesh, v_new_mesh)
         + dt * form_S_Gamma(mesh_new, phys))
    B = form_b(mesh_new)
    Sp = form_s_p(mesh_new, num.Cs)
    rhs_top = mass_matrix(mesh_old) @ _flatten(u_old.values) / dt \
        + rhs_F(mesh_new, zeta, phys)
    return K, B, Sp, rhs_top


def assemble_state_system(mesh_new, mesh_old, u_old, V_old, zeta, phys, num) -> LinearSystem:
    """Monolithic [[K, B], [-B^T, Sp]] system with essential radial dofs eliminated."""
    K, B, Sp, rhs_top = state_blocks(mesh_new, mesh_old, u_old, V_old, zeta, phys, num)
    n = mesh_new.num_nodes
    mat = sp.bmat([[K, B], [-B.T, Sp]], format="csr")
    rhs = np.concatenate((rhs_top, np.zeros(n)))
    free = _free_dofs(mesh_new)
    return LinearSystem(matrix=mat[np.ix_(free, free)].tocsr(), rhs=rhs[free],
                        free=free, size_full=3 * n, n_velocity=2 * n, mesh=mesh_new)


def factorize(system: LinearSystem) -> SuperLU:
    """LU of the reduced saddle matrix, shared by the state and adjoint solves."""
    try:
        return splu(system.matrix.tocsc())
    except RuntimeError as exc:     # SuperLU: "Factor is exactly singular"
        raise SingularMatrix(str(exc)) from exc


def solve(system: LinearSystem, lu: SuperLU | None = None,
          trans: str = "N") -> tuple[VectorFieldP1, ScalarFieldP1, float]:
    """Solve the system (trans="N") or its transpose (trans="T") with lu, its LU
    (made here if not given); returns (velocity, pressure, relative residual),
    the residual gated at 1e-10."""
    lu = factorize(system) if lu is None else lu
    matrix = system.matrix.T if trans == "T" else system.matrix
    x = lu.solve(system.rhs, trans=trans)
    if not np.all(np.isfinite(x)):
        raise SingularMatrix("factorization produced non-finite values")
    bnorm = np.linalg.norm(system.rhs)
    res = np.linalg.norm(matrix @ x - system.rhs)
    rel = res / bnorm if bnorm > 0 else res
    if rel > 1e-10:
        raise ResidualTooLarge(f"relative residual {rel:.3e}")
    full = np.zeros(system.size_full)
    full[system.free] = x
    n = system.mesh.num_nodes
    u = VectorFieldP1(np.column_stack((full[:n], full[n:2 * n])), system.mesh)
    p = ScalarFieldP1(full[2 * n:], system.mesh)
    return u, p, rel


# -- helpers ----------------------------------------------------------------

def _flatten(values: np.ndarray) -> np.ndarray:
    return np.concatenate((values[:, 0], values[:, 1]))


def _check_fields(mesh, *fields):
    for f in fields:
        if f.mesh is not mesh:
            raise DimensionMismatch("field defined on a different mesh")


def _scatter_diag_block(mesh: AxiMesh, ed: ElementData, block: np.ndarray) -> sp.csr_matrix:
    """Scatter a (M, 3, 3) nodal block onto both velocity components."""
    n = mesh.num_nodes
    rows = np.repeat(ed.tri[:, :, None], 3, axis=2)
    cols = np.repeat(ed.tri[:, None, :], 3, axis=1)
    data = np.concatenate((block.ravel(), block.ravel()))
    rr = np.concatenate((rows.ravel(), rows.ravel() + n))
    cc = np.concatenate((cols.ravel(), cols.ravel() + n))
    return sp.coo_matrix((data, (rr, cc)), shape=(2 * n, 2 * n)).tocsr()
