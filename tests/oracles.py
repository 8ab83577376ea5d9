"""Brute-force dense re-implementations of the weak forms.

Independent of the package's assembly path: P1 basis functions are obtained
by solving a 3x3 Vandermonde system per element and everything is integrated
with explicit loops over elements, quadrature points and local dofs.  The
quadrature rules (3-point mid-edge on triangles, 2-point Gauss on edges) and
the axis conventions (skip 1/r hoop entries at r = 0 points, replace v_r/r
by dr(v_r) there) are shared with the implementation; the arithmetic is not.
:func:`oracle_saddle` composes the forms into the whole step system, with
the wall friction coefficient of ``forms.beta_h``.  :func:`oracle_bottom_integral`
is the reference for the control gradient: the adjoint bottom integral from
a dense solve with the slab's reduced matrix transposed, independent of the
LU whose plain solve the step uses.  :func:`oracle_pattern` is the
reference for the compiled symbolic pass: a fixed pattern built with numpy
sorts, as the package once built it.
"""

import numpy as np

from capflow.forms import BandLayout, FixedPattern, beta_h
from capflow.geometry import BoundaryTag, contact_line_height

from .pattern_forms import bottom_load_reference, surface_normals

MIDPOINTS = np.array([[0.5, 0.5, 0.0], [0.0, 0.5, 0.5], [0.5, 0.0, 0.5]])
GAUSS2 = np.array([0.5 - 0.5 / np.sqrt(3.0), 0.5 + 0.5 / np.sqrt(3.0)])


def p1_basis(pts):
    """Coefficients (a, b, c) with phi_i(r, z) = a + b r + c z for each vertex."""
    vand = np.column_stack((np.ones(3), pts[:, 0], pts[:, 1]))
    return np.linalg.solve(vand, np.eye(3)).T      # row i: coeffs of phi_i


def tri_area(pts):
    return 0.5 * ((pts[1, 0] - pts[0, 0]) * (pts[2, 1] - pts[0, 1])
                  - (pts[1, 1] - pts[0, 1]) * (pts[2, 0] - pts[0, 0]))


def _quad_points(pts):
    return MIDPOINTS @ pts


def oracle_form_a(mesh, beta, nu):
    n = mesh.num_nodes
    A = np.zeros((2 * n, 2 * n))
    tol = 1e-14 * mesh.radius
    for tri in mesh.triangles:
        pts = mesh.nodes[tri]
        coeff = p1_basis(pts)
        area = tri_area(pts)
        qp = _quad_points(pts)
        for q in range(3):
            r, z = qp[q]
            w = area / 3.0
            phi = coeff[:, 0] + coeff[:, 1] * r + coeff[:, 2] * z
            dphi_r = coeff[:, 1]
            dphi_z = coeff[:, 2]
            for i in range(3):
                for j in range(3):
                    gi, gj = tri[i], tri[j]
                    # D(u):D(v) doubled, r-weighted
                    A[gi, gj] += nu * w * r * (2 * dphi_r[i] * dphi_r[j]
                                               + dphi_z[i] * dphi_z[j])
                    A[gi, n + gj] += nu * w * r * dphi_z[i] * dphi_r[j]
                    A[n + gi, gj] += nu * w * r * dphi_r[i] * dphi_z[j]
                    A[n + gi, n + gj] += nu * w * r * (2 * dphi_z[i] * dphi_z[j]
                                                       + dphi_r[i] * dphi_r[j])
                    if r > tol:
                        A[gi, gj] += 2.0 * nu * w * phi[i] * phi[j] / r
    if beta > 0:
        for e in mesh.boundary_edges[BoundaryTag.WALL]:
            p1, p2 = mesh.nodes[e[0]], mesh.nodes[e[1]]
            length = np.hypot(*(p2 - p1))
            for s in GAUSS2:
                w = length / 2.0
                r = (1 - s) * p1[0] + s * p2[0]
                bas = np.array([1 - s, s])
                for i in range(2):
                    for j in range(2):
                        for shift in (0, n):
                            A[e[i] + shift, e[j] + shift] += beta * w * r * bas[i] * bas[j]
    return A


def oracle_form_b(mesh):
    n = mesh.num_nodes
    B = np.zeros((2 * n, n))
    for tri in mesh.triangles:
        pts = mesh.nodes[tri]
        coeff = p1_basis(pts)
        area = tri_area(pts)
        qp = _quad_points(pts)
        for q in range(3):
            r, z = qp[q]
            w = area / 3.0
            phi = coeff[:, 0] + coeff[:, 1] * r + coeff[:, 2] * z
            for i in range(3):
                for j in range(3):
                    # div of r-basis times r = (dphi_r * r + phi); z-basis: dphi_z * r
                    B[tri[i], tri[j]] -= w * (coeff[i, 1] * r + phi[i]) * phi[j]
                    B[n + tri[i], tri[j]] -= w * coeff[i, 2] * r * phi[j]
    return B


def _field_at(coeff, vals, r, z):
    phi = coeff[:, 0] + coeff[:, 1] * r + coeff[:, 2] * z
    return phi @ vals


def oracle_form_c(mesh, wfield, vfield):
    n = mesh.num_nodes
    C = np.zeros((2 * n, 2 * n))
    tol = 1e-14 * mesh.radius
    for tri in mesh.triangles:
        pts = mesh.nodes[tri]
        coeff = p1_basis(pts)
        area = tri_area(pts)
        qp = _quad_points(pts)
        wv = wfield.values[tri]
        vv = vfield.values[tri]
        for q in range(3):
            r, z = qp[q]
            wq = area / 3.0
            phi = coeff[:, 0] + coeff[:, 1] * r + coeff[:, 2] * z
            rel = _field_at(coeff, wv - vv, r, z)
            div_planar = coeff[:, 1] @ vv[:, 0] + coeff[:, 2] @ vv[:, 1]
            if r > tol:
                divv = div_planar + _field_at(coeff, vv, r, z)[0] / r
            else:
                divv = div_planar + coeff[:, 1] @ vv[:, 0]
            for i in range(3):
                for j in range(3):
                    adv = wq * r * phi[i] * (rel[0] * coeff[j, 1] + rel[1] * coeff[j, 2])
                    sub = wq * r * divv * phi[i] * phi[j]
                    for shift in (0, n):
                        C[tri[i] + shift, tri[j] + shift] += adv - sub
    return C


def oracle_form_s(mesh, wfield, vfield):
    n = mesh.num_nodes
    S = np.zeros((2 * n, 2 * n))
    tol = 1e-14 * mesh.radius
    for tri in mesh.triangles:
        pts = mesh.nodes[tri]
        coeff = p1_basis(pts)
        area = tri_area(pts)
        qp = _quad_points(pts)
        wv = wfield.values[tri]
        for q in range(3):
            r, z = qp[q]
            wq = area / 3.0
            phi = coeff[:, 0] + coeff[:, 1] * r + coeff[:, 2] * z
            div_planar = coeff[:, 1] @ wv[:, 0] + coeff[:, 2] @ wv[:, 1]
            if r > tol:
                divw = div_planar + _field_at(coeff, wv, r, z)[0] / r
            else:
                divw = div_planar + coeff[:, 1] @ wv[:, 0]
            for i in range(3):
                for j in range(3):
                    val = 0.5 * wq * r * divw * phi[i] * phi[j]
                    for shift in (0, n):
                        S[tri[i] + shift, tri[j] + shift] += val
    normals = surface_normals(mesh)
    edges = mesh.boundary_edges[BoundaryTag.FREE_SURFACE]
    for k, e in enumerate(edges):
        p1, p2 = mesh.nodes[e[0]], mesh.nodes[e[1]]
        length = np.hypot(*(p2 - p1))
        nu_e = normals[k]
        relv = wfield.values[e] - vfield.values[e]
        for s in GAUSS2:
            w = length / 2.0
            r = (1 - s) * p1[0] + s * p2[0]
            bas = np.array([1 - s, s])
            flux = (bas @ relv) @ nu_e
            for i in range(2):
                for j in range(2):
                    for shift in (0, n):
                        S[e[i] + shift, e[j] + shift] -= 0.5 * w * r * flux * bas[i] * bas[j]
    return S


def oracle_form_SG(mesh, gamma):
    n = mesh.num_nodes
    G = np.zeros((2 * n, 2 * n))
    normals = surface_normals(mesh)
    edges = mesh.boundary_edges[BoundaryTag.FREE_SURFACE]
    for k, e in enumerate(edges):
        p1, p2 = mesh.nodes[e[0]], mesh.nodes[e[1]]
        d = p2 - p1
        length = np.hypot(*d)
        tau = d / length
        nu1, nu3 = normals[k]
        # D(u) = nu1 d3 f - nu3 d1 f with f = u.nu/nu3 extended along tau
        # local dof order (n1r, n1z, n2r, n2z)
        dof_coeff = np.zeros(4)
        for local, (node_slot, comp) in enumerate(((0, 0), (0, 1), (1, 0), (1, 1))):
            fvals = np.zeros((2, 2))
            fvals[node_slot, comp] = 1.0
            f = (fvals @ np.array([nu1, nu3])) / nu3
            grad_f = (f[1] - f[0]) / length * tau
            dof_coeff[local] = nu1 * grad_f[1] - nu3 * grad_f[0]
        r_int = length * (p1[0] + p2[0]) / 2.0
        block = 0.5 * gamma * nu3 ** 2 * np.outer(dof_coeff, dof_coeff) * r_int
        gdof = [e[0], e[0] + n, e[1], e[1] + n]
        for i in range(4):
            for j in range(4):
                G[gdof[i], gdof[j]] += block[i, j]
    return G


def oracle_form_sp(mesh, Cs, h=None):
    n = mesh.num_nodes
    S = np.zeros((n, n))
    for tri in mesh.triangles:
        pts = mesh.nodes[tri]
        coeff = p1_basis(pts)
        area = tri_area(pts)
        h2 = 2.0 * area if h is None else h * h
        qp = _quad_points(pts)
        r_int = sum(area / 3.0 * qp[q, 0] for q in range(3))
        for i in range(3):
            for j in range(3):
                S[tri[i], tri[j]] += Cs * h2 * (coeff[i, 1] * coeff[j, 1]
                                                + coeff[i, 2] * coeff[j, 2]) * r_int
    return S


def oracle_mass(mesh):
    n = mesh.num_nodes
    M = np.zeros((2 * n, 2 * n))
    for tri in mesh.triangles:
        pts = mesh.nodes[tri]
        coeff = p1_basis(pts)
        area = tri_area(pts)
        qp = _quad_points(pts)
        for q in range(3):
            r, z = qp[q]
            w = area / 3.0
            phi = coeff[:, 0] + coeff[:, 1] * r + coeff[:, 2] * z
            for i in range(3):
                for j in range(3):
                    for shift in (0, n):
                        M[tri[i] + shift, tri[j] + shift] += w * r * phi[i] * phi[j]
    return M


def oracle_rhs_F(mesh, zeta, phys):
    n = mesh.num_nodes
    f = np.zeros(2 * n)
    for tri in mesh.triangles:
        pts = mesh.nodes[tri]
        coeff = p1_basis(pts)
        area = tri_area(pts)
        qp = _quad_points(pts)
        for q in range(3):
            r, z = qp[q]
            w = area / 3.0
            phi = coeff[:, 0] + coeff[:, 1] * r + coeff[:, 2] * z
            for i in range(3):
                f[n + tri[i]] -= phys.g * w * r * phi[i]
    for e in mesh.boundary_edges[BoundaryTag.BOTTOM]:
        p1, p2 = mesh.nodes[e[0]], mesh.nodes[e[1]]
        length = np.hypot(*(p2 - p1))
        for s in GAUSS2:
            w = length / 2.0
            r = (1 - s) * p1[0] + s * p2[0]
            bas = np.array([1 - s, s])
            for i in range(2):
                f[n + e[i]] += (phys.p_bar + zeta) * w * r * bas[i]
    # surface tension: -gamma int (tau . ds v + v_r / r) r ds, integrated exactly
    for e in mesh.boundary_edges[BoundaryTag.FREE_SURFACE]:
        p1, p2 = mesh.nodes[e[0]], mesh.nodes[e[1]]
        d = p2 - p1
        length = np.hypot(*d)
        tau = d / length
        rbar = (p1[0] + p2[0]) / 2.0
        for local, (slot, comp) in enumerate(((0, 0), (0, 1), (1, 0), (1, 1))):
            vv = np.zeros((2, 2))
            vv[slot, comp] = 1.0
            ds_v = (vv[1] - vv[0]) / length
            term = (tau @ ds_v) * rbar * length
            term += (vv[0, 0] + vv[1, 0]) / 2.0 * length
            gdof = e[slot] + (0 if comp == 0 else n)
            f[gdof] -= phys.gamma * term
    r_wall = mesh.nodes[mesh.contact_node, 0]
    f[mesh.contact_node + n] += phys.gamma * np.cos(phys.theta_s) * r_wall
    return f


def _oracle_blocks(mesh_new, mesh_old, u_old, V_old, zeta, phys, num):
    """Dense (K, B, Sp, rhs_top) of the semi-implicit step on the new mesh:
    K = M/dt + A + C + S + dt S_Gamma, the coupling B, the pressure
    stabilization Sp and the momentum right-hand side.  u_old and V_old are
    read by their nodal values, which the new mesh shares."""
    dt = num.dt
    beta = beta_h(phys.chi, contact_line_height(mesh_new) / num.N3, phys.nu)
    K = (oracle_mass(mesh_new) / dt
         + oracle_form_a(mesh_new, beta, phys.nu)
         + oracle_form_c(mesh_new, u_old, V_old)
         + oracle_form_s(mesh_new, u_old, V_old)
         + dt * oracle_form_SG(mesh_new, phys.gamma))
    u = u_old.values
    rhs_top = oracle_mass(mesh_old) @ np.concatenate((u[:, 0], u[:, 1])) / dt \
        + oracle_rhs_F(mesh_new, zeta, phys)
    return K, oracle_form_b(mesh_new), oracle_form_sp(mesh_new, num.Cs), rhs_top


def oracle_saddle(mesh_new, mesh_old, u_old, V_old, zeta, phys, num):
    """The full dense state system [[K, B], [-B^T, Sp]] over every dof, (3N, 3N),
    and its right-hand side."""
    K, B, Sp, rhs_top = _oracle_blocks(mesh_new, mesh_old, u_old, V_old, zeta, phys, num)
    matrix = np.block([[K, B], [-B.T, Sp]])
    return matrix, np.concatenate((rhs_top, np.zeros(mesh_new.num_nodes)))


def oracle_adjoint(mesh_new, mesh_old, u_old, V_old, phys, num):
    """The full dense adjoint operator [[K^T, -B], [B^T, Sp]] of the same step."""
    K, B, Sp, _ = _oracle_blocks(mesh_new, mesh_old, u_old, V_old, 0.0, phys, num)
    return np.block([[K.T, -B], [B.T, Sp]])


def oracle_adjoint_rhs(system, mass_u):
    """The adjoint right-hand side on the reduced dofs of system: the mass
    action on the new velocity, zero in the pressure rows."""
    rhs = np.zeros(3 * system.mesh.num_nodes)
    rhs[:len(mass_u)] = mass_u
    return rhs[system.pattern.free]


REFINEMENT_SWEEPS = 3     # the pivoted dense solve alone lay up to 1e-12 from the refined one


def oracle_adjoint_solution(system, mass_u):
    """The adjoint z, on the reduced dofs, with A^T z = m: a dense solve with
    the transposed matrix of system, the slab's, not with any LU, refined by
    REFINEMENT_SWEEPS sweeps z += solve(A^T, m - A^T z)."""
    At = system.matrix.T.toarray()
    m = oracle_adjoint_rhs(system, mass_u)
    z = np.linalg.solve(At, m)
    for _ in range(REFINEMENT_SWEEPS):
        z += np.linalg.solve(At, m - At @ z)
    return z


def oracle_bottom_integral(system, mass_u):
    """The bottom integral b . z of the adjoint z of :func:`oracle_adjoint_solution`,
    with b the bottom load on all velocity dofs."""
    z = np.zeros(3 * system.mesh.num_nodes)
    z[system.pattern.free] = oracle_adjoint_solution(system, mass_u)
    return float(bottom_load_reference(system.mesh) @ z[:len(mass_u)])


def oracle_pattern(families, free, size) -> FixedPattern:
    """The FixedPattern of FixedPattern.build's arguments from numpy alone:
    a (column, row) key per local entry, int64 once (nf + 1)^2 passes 2^31,
    the trash key after every kept one; the stored keys a sort-based
    unique of them, each entry's slot its key's position among those, the
    CSC arrays from the stored keys, and the band layout of
    :func:`oracle_band_layout`."""
    free = np.array(free, dtype=np.int64)
    free.setflags(write=False)
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
    stored = np.sort(keys)                      # column-major order
    stored = stored[np.concatenate(([True], stored[1:] != stored[:-1]))]
    slot = np.searchsorted(stored, keys).astype(np.int32)
    if stored[-1] == trash:
        stored = stored[:-1]
    indices = (stored % base).astype(np.int32)
    indptr = np.searchsorted(stored // base, np.arange(base)).astype(np.int32)
    return FixedPattern(free=free, size=size, shapes=[d.shape for d in families], slot=slot,
                        indices=indices, indptr=indptr, band=oracle_band_layout(indices, indptr))


def oracle_band_layout(indices, indptr) -> BandLayout:
    """BandLayout.of from numpy alone: the offsets i - j of the entries give
    kl, ku and the flat positions; the first column of each row and the
    first row of each column, by ``np.minimum.at``, give the reaches."""
    n = len(indptr) - 1
    row = indices.astype(np.int32, copy=False)
    column = np.repeat(np.arange(n, dtype=np.int32), np.diff(indptr))
    offset = row - column
    kl, ku = int(offset.max(initial=0)), int(-offset.min(initial=0))
    position = offset + ku + column * np.int32(kl + ku + 1)
    first_column, first_row = np.full(n, n, np.int32), np.full(n, n, np.int32)
    np.minimum.at(first_column, row, column)
    np.minimum.at(first_row, column, row)
    return BandLayout(kl=kl, ku=ku, position=position, lower=_reach(first_column),
                      upper=_reach(first_row))


def _reach(first):
    """max(j, max{i : first[i] <= j}) - j for each j, int32: the reach past
    the diagonal of an envelope whose line i starts at first[i]."""
    n = len(first)
    last = np.arange(n)
    starts = first < n
    np.maximum.at(last, first[starts], np.flatnonzero(starts))
    return (np.maximum.accumulate(last) - np.arange(n)).astype(np.int32)
