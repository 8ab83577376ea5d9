"""Piecewise-linear axisymmetric finite-element kernels.

All volume integrals carry the axisymmetric measure r dr dz; the common 2*pi
factor is dropped on both sides of every equation, so the bottom-boundary
measure used by the controller is radius^2/2 and the contact-line measure is
the wall radius.  Volume terms use the 3-point mid-edge rule on triangles
(exact for quadratics), boundary terms 2-point Gauss on edges.

Velocity dof layout: radial components first (node k -> row k), then vertical
components (node k -> row N + k); pressure dofs follow in the monolithic
saddle system.

Every form is a kernel of dense per-element (or per-edge) blocks.  The run
path sums those blocks straight into the reduced saddle matrix through a
:class:`FixedPattern` built once per mesh topology; the ``form_*`` functions
and :func:`state_blocks` sum the same blocks through COO and are the
reference the tests compare it against.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import SuperLU, splu

from .errors import DimensionMismatch, ResidualTooLarge, SingularMatrix
from .fields import PhysParams, ScalarFieldP1, VectorFieldP1
from .geometry import AxiMesh, BoundaryTag, MeshTopology, contact_line_height, surface_normals

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
    """Per-triangle geometry of mesh, computed once per mesh."""
    return mesh.memo(_element_data)


def _element_data(mesh: AxiMesh) -> ElementData:
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


def _quad_values(ed: ElementData, nodal: np.ndarray) -> np.ndarray:
    """Values of a P1 nodal field at the quadrature points, (M, 3q, ...)."""
    return np.einsum("qk,mk...->mq...", _QBASIS, nodal[ed.tri])


# -- local blocks -------------------------------------------------------------

def _vector_dofs(nodes: np.ndarray, n: int) -> np.ndarray:
    """Velocity dofs of per-element node lists, local order (r..., z...)."""
    return np.concatenate((nodes, nodes + n), axis=1)


def _on_both_components(block: np.ndarray) -> np.ndarray:
    """A (E, k, k) nodal block acting alike on u_r and u_z, on dofs (r..., z...)."""
    e, k, _ = block.shape
    out = np.zeros((e, 2 * k, 2 * k))
    out[:, :k, :k] = block
    out[:, k:, k:] = block
    return out


def _r_integral(ed: ElementData) -> np.ndarray:
    return (ed.wq[:, None] * ed.rq).sum(axis=1)


def _mass_block(ed: ElementData, weight_q: np.ndarray | None = None) -> np.ndarray:
    """Per-element 3x3 blocks of integral r weight(q) N_i N_j (weight 1 if None)."""
    wr = ed.wq[:, None] * ed.rq
    if weight_q is not None:
        wr = wr * weight_q
    return np.einsum("mq,qi,qj->mij", wr, _QBASIS, _QBASIS)


def _viscous_block(ed: ElementData, nu: float) -> np.ndarray:
    """(M, 6, 6) rate-of-strain blocks, with the hoop term 2 nu u_r v_r / r."""
    b = ed.grad[:, :, 0]
    c = ed.grad[:, :, 1]
    bb = np.einsum("mi,mj->mij", b, b)
    cc = np.einsum("mi,mj->mij", c, c)
    cb = np.einsum("mi,mj->mij", c, b)
    E = np.empty((len(ed.tri), 6, 6))
    E[:, :3, :3] = 2.0 * bb + cc
    E[:, :3, 3:] = cb
    E[:, 3:, :3] = cb.transpose(0, 2, 1)
    E[:, 3:, 3:] = 2.0 * cc + bb
    E *= nu * _r_integral(ed)[:, None, None]
    mask = ed.rq > ed.axis_tol
    inv_r = np.where(mask, 1.0 / np.where(mask, ed.rq, 1.0), 0.0)
    E[:, :3, :3] += 2.0 * nu * np.einsum("mq,qi,qj->mij", ed.wq[:, None] * inv_r,
                                         _QBASIS, _QBASIS)
    return E


def _wall_friction_block(mesh: AxiMesh, beta: float) -> np.ndarray:
    """(E, 2, 2) blocks of beta * integral of r N_i N_j over each wall edge."""
    _, length, rq, basis = _edge_geometry(mesh, BoundaryTag.WALL)
    w = 0.5 * length[:, None] * rq                        # (E, 2q)
    return beta * np.einsum("eq,qi,qj->eij", w, basis, basis)


def _coupling_block(ed: ElementData) -> np.ndarray:
    """(M, 6, 3) blocks of -(div v, pi) r: velocity dofs by pressure dofs."""
    b = ed.grad[:, :, 0]
    c = ed.grad[:, :, 1]
    # r-component: -(b_i r + N_i) N_j ; z-component: -c_i r N_j
    wr = ed.wq[:, None] * ed.rq                           # (M, 3q)
    E = np.empty((len(ed.tri), 6, 3))
    E[:, :3, :] = -np.einsum("mq,mi,qj->mij", wr, b, _QBASIS)
    E[:, :3, :] -= np.einsum("m,qi,qj->mij", ed.wq, _QBASIS, _QBASIS)
    E[:, 3:, :] = -np.einsum("mq,mi,qj->mij", wr, c, _QBASIS)
    return E


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


def _transport_block(ed: ElementData, w: np.ndarray, V: np.ndarray) -> np.ndarray:
    """(M, 3, 3) nodal blocks of N_i ((w - V) . grad) N_j - div(V) N_i N_j, r-weighted."""
    rel = _quad_values(ed, w - V)                         # (M, 3q, 2)
    wr = ed.wq[:, None] * ed.rq
    rel_grad = np.einsum("mqc,mjc->mqj", rel, ed.grad)
    adv = np.einsum("mq,qi,mqj->mij", wr, _QBASIS, rel_grad)
    return adv - _mass_block(ed, _div_at_quad(ed, V))


def _divergence_stab_block(ed: ElementData, w: np.ndarray) -> np.ndarray:
    """(M, 3, 3) nodal blocks of 1/2 div(w) N_i N_j, r-weighted."""
    return 0.5 * _mass_block(ed, _div_at_quad(ed, w))


def _surface_flux_block(mesh: AxiMesh, w: np.ndarray, V: np.ndarray) -> np.ndarray:
    """(E, 2, 2) nodal blocks of -1/2 ((w - V) . nu) N_i N_j r on free-surface edges."""
    normals = surface_normals(mesh)
    edges, length, rq, basis = _edge_geometry(mesh, BoundaryTag.FREE_SURFACE)
    rel = w[edges] - V[edges]                             # (E, 2 nodes, 2)
    rel_q = np.einsum("qk,ekc->eqc", basis, rel)
    flux = np.einsum("eqc,ec->eq", rel_q, normals)        # (E, 2q)
    wgt = -0.5 * 0.5 * length[:, None] * rq * flux
    return np.einsum("eq,qi,qj->eij", wgt, basis, basis)


def _surface_stab_block(mesh: AxiMesh, params: PhysParams) -> np.ndarray:
    """(E, 4, 4) free-surface stabilization blocks on dofs (r0, r1, z0, z1).

    D(u) = -(f1 - f0)/L with f = u.nu/nu_3, squared, weighted by gamma/2
    and the surface measure.
    """
    normals = surface_normals(mesh)
    edges = mesh.boundary_edges[BoundaryTag.FREE_SURFACE]
    p1 = mesh.nodes[edges[:, 0]]
    p2 = mesh.nodes[edges[:, 1]]
    d = p2 - p1
    length = np.sqrt((d ** 2).sum(axis=1))
    rbar = 0.5 * (p1[:, 0] + p2[:, 0])
    nu1, nu3 = normals[:, 0], normals[:, 1]
    coef = np.stack((-nu1, nu1, -nu3, nu3), axis=1)       # (E, 4)
    scale = 0.5 * params.gamma * rbar / length
    return scale[:, None, None] * np.einsum("ei,ej->eij", coef, coef)


def _r_stiffness_block(ed: ElementData) -> np.ndarray:
    """(M, 3, 3) blocks of integral r grad N_i . grad N_j, the kernel of the
    pressure stabilization and of the mesh-velocity extension."""
    gg = np.einsum("mic,mjc->mij", ed.grad, ed.grad)
    return gg * _r_integral(ed)[:, None, None]


def _pressure_stab_block(ed: ElementData, Cs: float, h: float | None = None) -> np.ndarray:
    h2 = 2.0 * ed.area if h is None else np.full(len(ed.tri), float(h) ** 2)
    return Cs * h2[:, None, None] * _r_stiffness_block(ed)


def _coo(shape: tuple[int, int], *parts) -> sp.csr_matrix:
    """Sum local blocks into a matrix; each part is (row_dofs, col_dofs, blocks),
    and blocks[e, i, j] adds to entry (row_dofs[e, i], col_dofs[e, j])."""
    rows = [np.broadcast_to(r[:, :, None], b.shape).ravel() for r, _, b in parts]
    cols = [np.broadcast_to(c[:, None, :], b.shape).ravel() for _, c, b in parts]
    vals = [b.ravel() for _, _, b in parts]
    return sp.coo_matrix((np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
                         shape=shape).tocsr()


# -- reference forms ----------------------------------------------------------

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
    n = mesh.num_nodes
    dofs = _vector_dofs(ed.tri, n)
    wall = _vector_dofs(mesh.boundary_edges[BoundaryTag.WALL], n)
    return _coo((2 * n, 2 * n), (dofs, dofs, _viscous_block(ed, params.nu)),
                (wall, wall, _on_both_components(_wall_friction_block(mesh, beta))))


def form_b(mesh: AxiMesh) -> sp.csr_matrix:
    """Velocity-pressure coupling b(v, pi) = -(div v, pi).

    The axisymmetric divergence dr(v_r) + v_r/r + dz(v_z) is integrated
    against r, which cancels the 1/r singularity exactly.
    Rows are velocity dofs, columns pressure dofs.
    """
    ed = element_data(mesh)
    n = mesh.num_nodes
    return _coo((2 * n, n), (_vector_dofs(ed.tri, n), ed.tri, _coupling_block(ed)))


def form_c_ALE(mesh: AxiMesh, w: VectorFieldP1, V: VectorFieldP1) -> sp.csr_matrix:
    """Relative transport ([(w - V) . grad] u, v) - (div(V) u, v).

    w and V are nodal fields carried over from the previous mesh by nodal
    identification; gradients and measures are those of the given mesh.
    """
    _check_fields(mesh, w, V)
    ed = element_data(mesh)
    n = mesh.num_nodes
    dofs = _vector_dofs(ed.tri, n)
    block = _on_both_components(_transport_block(ed, w.values, V.values))
    return _coo((2 * n, 2 * n), (dofs, dofs, block))


def form_s(mesh: AxiMesh, w: VectorFieldP1, V: VectorFieldP1) -> sp.csr_matrix:
    """Transport stabilization 1/2 (div(w) u, v) - 1/2 surface flux on the free surface."""
    _check_fields(mesh, w, V)
    ed = element_data(mesh)
    n = mesh.num_nodes
    dofs = _vector_dofs(ed.tri, n)
    surface = _vector_dofs(mesh.boundary_edges[BoundaryTag.FREE_SURFACE], n)
    volume = _divergence_stab_block(ed, w.values)
    flux = _surface_flux_block(mesh, w.values, V.values)
    return _coo((2 * n, 2 * n), (dofs, dofs, _on_both_components(volume)),
                (surface, surface, _on_both_components(flux)))


def form_S_Gamma(mesh: AxiMesh, params: PhysParams) -> sp.csr_matrix:
    """Free-surface stabilization damping tangential variation of u . nu / nu_3.

    Edge-wise: the meridian tangential derivative of the vertical surface
    velocity, squared, weighted by gamma/2 and the surface measure.  Rigid
    vertical motion is annihilated exactly.
    """
    n = mesh.num_nodes
    surface = _vector_dofs(mesh.boundary_edges[BoundaryTag.FREE_SURFACE], n)
    return _coo((2 * n, 2 * n), (surface, surface, _surface_stab_block(mesh, params)))


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
    return _coo((n, n), (ed.tri, ed.tri, _pressure_stab_block(ed, Cs, h)))


def mass_matrix(mesh: AxiMesh) -> sp.csr_matrix:
    """Consistent r-weighted mass matrix on vector fields, (2N, 2N)."""
    ed = element_data(mesh)
    n = mesh.num_nodes
    dofs = _vector_dofs(ed.tri, n)
    return _coo((2 * n, 2 * n), (dofs, dofs, _on_both_components(_mass_block(ed))))


def mass_action(u: VectorFieldP1) -> np.ndarray:
    """mass_matrix(u.mesh) @ u, flattened, summed element by element."""
    ed = element_data(u.mesh)
    local = np.einsum("mij,mjc->mci", _mass_block(ed), u.values[ed.tri])   # (M, 2, 3)
    n = u.mesh.num_nodes
    return np.bincount(_vector_dofs(ed.tri, n).ravel(), weights=local.ravel(),
                       minlength=2 * n)


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

@dataclass(frozen=True)
class FixedPattern:
    """CSC sparsity of a reduced square matrix summed from local blocks, and
    the position in its data of every local entry.

    Connectivity never changes, so a pattern is built once per mesh topology
    and each fill is one bincount.  Local entries on an eliminated row or
    column go to the trash slot len(indices), past the stored entries.  The
    pattern depends on no values: entries that cancel to zero stay stored.
    """

    free: np.ndarray      # kept dofs, in the order of the reduced rows/columns
    shapes: list          # (E, k) of each family of local blocks
    slot: np.ndarray      # int32 data position of each local entry, families in order
    indices: np.ndarray   # int32 row of each stored entry
    indptr: np.ndarray    # int32 column starts

    @classmethod
    def build(cls, families: list[np.ndarray], free: np.ndarray, size: int) -> "FixedPattern":
        """families: (E, k) dof arrays; entry (i, j) of element e's k x k block
        adds to row dofs[e, i], column dofs[e, j] of the size x size matrix."""
        nf = len(free)
        base = nf + 1
        key_type = np.int32 if base ** 2 < 2 ** 31 else np.int64
        trash = key_type(nf * base)                 # sorts after every kept (column, row)
        reduced = np.full(size, nf, dtype=key_type)
        reduced[free] = np.arange(nf)
        keys = np.empty(sum(d.size * d.shape[1] for d in families), key_type)
        at = 0
        for dofs in families:
            r = reduced[dofs]
            block = keys[at:at + r.size * r.shape[1]].reshape(*r.shape, r.shape[1])
            np.add(r[:, None, :] * key_type(base), r[:, :, None], out=block)
            block[(r == nf)[:, :, None] | (r == nf)[:, None, :]] = trash
            at += block.size
        # sort-based unique: np.unique's temporaries cost more resident memory
        stored = np.sort(keys)                      # column-major order
        stored = stored[np.concatenate(([True], stored[1:] != stored[:-1]))]
        slot = np.searchsorted(stored, keys).astype(np.int32)
        if stored[-1] == trash:
            stored = stored[:-1]
        indptr = np.searchsorted(stored // base, np.arange(nf + 1)).astype(np.int32)
        indices = (stored % base).astype(np.int32)
        for a in (slot, indices, indptr):   # every filled matrix shares indices and indptr
            a.setflags(write=False)
        return cls(free=free, shapes=[d.shape for d in families], slot=slot,
                   indices=indices, indptr=indptr)

    def values(self) -> tuple[np.ndarray, list[np.ndarray]]:
        """An uninitialised flat value array for :meth:`fill`, and its (E, k, k)
        view per family, in build order."""
        vals = np.empty(len(self.slot))
        views, at = [], 0
        for e, k in self.shapes:
            views.append(vals[at:at + e * k * k].reshape(e, k, k))
            at += e * k * k
        return vals, views

    def fill(self, vals: np.ndarray) -> sp.csc_matrix:
        """The reduced matrix summing the flat local values (layout of :meth:`values`)."""
        data = np.bincount(self.slot, weights=vals, minlength=len(self.indices) + 1)
        n = len(self.free)
        return sp.csc_matrix((data[:-1], self.indices, self.indptr), shape=(n, n))


@dataclass
class LinearSystem:
    """Reduced saddle system of one slab's state solve."""

    matrix: sp.spmatrix        # free dofs only
    rhs: np.ndarray
    free: np.ndarray           # global indices of free dofs
    size_full: int
    n_velocity: int            # 2 * num_nodes
    mesh: AxiMesh


def state_blocks(mesh_new, mesh_old, u_old, V_old, zeta, phys, num):
    """All blocks of the semi-implicit step on the updated geometry, assembled
    form by form; the reference for :func:`assemble_state_system`.

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


def _saddle_pattern(topology: MeshTopology) -> FixedPattern:
    """Triangles over (u_r, u_z, p) of their vertices, then wall and
    free-surface edges over (u_r, u_z) of their ends."""
    n = topology.num_nodes
    tri = topology.triangles
    edges = [_vector_dofs(topology.boundary_edges[tag], n)
             for tag in (BoundaryTag.WALL, BoundaryTag.FREE_SURFACE)]
    return FixedPattern.build([np.concatenate((tri, tri + n, tri + 2 * n), axis=1), *edges],
                              topology.free_dofs, 3 * n)


def assemble_state_system(mesh_new, mesh_old, u_old, V_old, zeta, phys, num) -> LinearSystem:
    """Monolithic [[K, B], [-B^T, Sp]] system with essential radial dofs eliminated.

    The local blocks of :func:`state_blocks`, summed into the saddle pattern
    of the mesh topology, which both meshes must share.
    """
    _check_fields(mesh_old, u_old, V_old)
    if mesh_new.topology is not mesh_old.topology:
        raise DimensionMismatch("old and new mesh must share one topology")
    dt = num.dt
    beta = beta_h(phys.chi, contact_line_height(mesh_new) / num.N3, phys.nu)
    ed = element_data(mesh_new)
    u, V = u_old.values, V_old.values
    pattern = mesh_new.topology.memo(_saddle_pattern)
    vals, (tri, wall, surface) = pattern.values()
    # each triangle's block couples (u_r, u_z, p) of its three vertices
    tri[:, :6, :6] = _viscous_block(ed, phys.nu)
    diag = _mass_block(ed) / dt + _transport_block(ed, u, V) + _divergence_stab_block(ed, u)
    tri[:, :3, :3] += diag
    tri[:, 3:6, 3:6] += diag
    coupling = _coupling_block(ed)
    tri[:, :6, 6:] = coupling
    tri[:, 6:, :6] = -coupling.transpose(0, 2, 1)
    tri[:, 6:, 6:] = _pressure_stab_block(ed, num.Cs)
    wall[:] = _on_both_components(_wall_friction_block(mesh_new, beta))
    surface[:] = (_on_both_components(_surface_flux_block(mesh_new, u, V))
                  + dt * _surface_stab_block(mesh_new, phys))
    n = mesh_new.num_nodes
    rhs = np.zeros(3 * n)
    rhs[:2 * n] = mass_action(u_old) / dt + rhs_F(mesh_new, zeta, phys)
    return LinearSystem(matrix=pattern.fill(vals), rhs=rhs[pattern.free],
                        free=pattern.free, size_full=3 * n, n_velocity=2 * n, mesh=mesh_new)


def factorize(system: LinearSystem) -> SuperLU:
    """LU of the reduced saddle matrix, shared by the state and adjoint solves
    (.tocsc() copies nothing for the CSC matrix the assembly fills)."""
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

