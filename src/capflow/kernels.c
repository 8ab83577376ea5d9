/* The compiled kernels of capflow's step and the slab's phases that run them.

   Assembly.  Every per-element and per-edge loop of the step is a kernel: the
   element data (element_data); each triangle's 9x9 saddle block, on the local
   dofs (u_r, u_z, p) of its vertices, and each boundary edge's
   (triangle_blocks, edge_blocks), written straight into a fixed pattern's
   values; the mesh-velocity stiffness (r_stiffness); the mass action, the
   bottom load, the loads summed onto the kept dofs (state_rhs) and the
   mesh-velocity extension's data (extension_rhs); and the pattern's fill
   (scatter_add) and load reduction (gather); the bottom load and the load
   reduction are static, called by the phases alone.  Every entry takes the
   operations of the numpy expressions these replaced (the tests keep those
   as their reference) in their order, but where numpy's matrix products sum
   in an order of their own; sums over elements run in element order, as
   np.bincount's do.

   Factorization.  The step's saddle matrix has a positive semidefinite
   symmetric part diag(K_sym, Sp), and the mesh-velocity stiffness is symmetric
   positive definite, so an LU without pivoting exists for both and is stable
   (Golub & Van Loan 1979, Linear Algebra Appl. 28; Benzi, Golub & Liesen 2005,
   Acta Numerica 14, section 3).  Without pivoting U keeps the upper band, so
   the storage is LAPACK's band column layout without the kl rows of fill that
   row interchanges need: an (ldab, n) Fortran-ordered array, ldab = kl + ku +
   1, entry (i, j) in row ku + i - j of column j.  The factorization overwrites
   it with U on and above row ku and the multipliers of the unit lower L below
   it.  It makes no fill outside the matrix's envelope, L within the row
   profile and U within the column profile (George & Liu 1981, *Computer
   Solution of Large Sparse Positive Definite Systems*, ch. 4), so band_factor
   and band_solve loop over the envelope of the band layout alone, each entry
   still taking the operations of the full band in its order; the rest of the
   band stays zero.  The factor eliminates two pivot columns per pass and
   updates the later columns four at a time, loading each pivot entry once for
   the four (unroll-and-jam: Carr & Kennedy 1994, ACM TOPLAS 16(6)).  A later
   column's update reads only the pivot columns and itself, so the grouping
   leaves every entry's operations, and their order, as they were.  As soon
   as it scales a column of L, the factor eliminates the system's one or two
   loads by that column, while the column is in cache: the forward half of
   the solve, each entry taking the operations of a forward substitution
   column by column, in their order.

   Solve and residual.  One call of band_solve back-substitutes an LU's one
   or two forward-eliminated loads, each entry of U loaded once for both, and
   checks each x in one pass over the pattern's CSC arrays: a flag when x is
   not finite, else A x summed column by column from zero as scipy's
   csc_matvec sums it, so with its bits, and the squared norms of A x - b and
   b in row order.  Each x has the bits of a solve and a check of its own.

   Output.  fill_template copies a template's static text and writes each
   slot's double exactly as Python's format(x, ".17g") does. The 17 digits of a
   double m 2^e are the integer nearest m 2^e 10^k, ties to even, k = 16 minus
   the decimal exponent.  For 0 <= k <= 27 (decimal exponents -11 to 16) m 5^k
   fits 128 bits and 2^(e + k) is a shift, so the digits and their rounding
   come from integer arithmetic alone, exact by construction (Adams 2019, "Ryu
   revisited: printf floating point conversion", Proc. ACM Program. Lang. 3,
   OOPSLA).  The decimal exponent comes from the binary one, corrected by
   comparing with 10^16 and 10^17; no libm log10 enters.  Subnormals and the
   other exponents take glibc's correctly rounded digits.  The formatter is
   integer code, so it has no target clones. */

#include <math.h>
#include <stddef.h>
#include <stdint.h>
#include <stdio.h>
#include <stdlib.h>
#include <string.h>
#include <time.h>

#if defined(__x86_64__) && !defined(KERNELS_PORTABLE)
#define CLONES __attribute__((target_clones("arch=x86-64-v4", "avx2", "default")))
#else
#define CLONES
#endif

/* The element data of m triangles of areas area, from the node heights z and
   the radial table's r at the points rq and r-differences dr, into out
   (10 m): dN/dr (m, 3), dN/dz = dr / 2A (m, 3), the r-weighted quadrature
   weights wr = A/3 r at the points (m, 3) and the integral of r (m). */
CLONES void element_data(ptrdiff_t m, const int64_t *tri, const double *z, const double *area,
                         const double *rq, const double *dr, double *out)
{
    double *grad_r = out, *grad_z = out + 3 * m, *wr = out + 6 * m, *r_int = out + 9 * m;
    for (ptrdiff_t e = 0; e < m; ++e) {
        const double a = area[e], inv2a = 1.0 / (2.0 * a), third = a / 3.0;
        for (int i = 0; i < 3; ++i) {
            const double zj = z[tri[3 * e + (i + 1) % 3]], zk = z[tri[3 * e + (i + 2) % 3]];
            grad_r[3 * e + i] = (zj - zk) * inv2a;
            grad_z[3 * e + i] = dr[3 * e + i] * inv2a;
            wr[3 * e + i] = third * rq[3 * e + i];
        }
        r_int[e] = (wr[3 * e] + wr[3 * e + 1]) + wr[3 * e + 2];
    }
}

/* The r-weighted gradient products of one triangle of area a, 3x3 row-major:
   rr = R dN_i/dr dN_j/dr, R the integral of r and b the dN/dr; zz, the
   radial table's zz_a over a; and the stiffness st = rr + zz. */
static inline void gradient_products(double a, double R, const double *b, const double *zz_a,
                                     double *rr, double *zz, double *st)
{
    for (int k = 0; k < 9; ++k) {
        rr[k] = (b[k / 3] * b[k % 3]) * R;
        zz[k] = zz_a[k] / a;
        st[k] = rr[k] + zz[k];
    }
}

/* The r-weighted stiffness integral of r grad N_i . grad N_j of each of m
   triangles into st, (m, 3, 3). */
CLONES void r_stiffness(ptrdiff_t m, const double *area, const double *r_int,
                        const double *grad_r, const double *zz_a, double *st)
{
    for (ptrdiff_t e = 0; e < m; ++e) {
        double rr[9], zz[9];
        gradient_products(area[e], r_int[e], grad_r + 3 * e, zz_a + 9 * e, rr, zz, st + 9 * e);
    }
}

/* Each of m triangles' 9x9 block of the saddle matrix, row-major on the
   local dofs (u_r, u_z, p) of its vertices, into out (m, 9, 9).  Per
   triangle: area, r_int and the rows of grad_r, grad_z and wr of the
   element data; inv_r, rn, hoop, zz_a and coupling_z of the radial table;
   w and V are (N, 2) nodal fields.  Quadrature point q lies midway between
   vertices q and q + 1 (mod 3). */
CLONES void triangle_blocks(ptrdiff_t m, const int64_t *tri, const double *area,
                            const double *r_int, const double *grad_r, const double *grad_z,
                            const double *wr, const double *inv_r, const double *rn,
                            const double *hoop, const double *zz_a, const double *coupling_z,
                            const double *w, const double *V,
                            double dt, double nu, double Cs, double *out)
{
    const double inv_dt = 1.0 / dt, nu2 = 2.0 * nu, cs2 = Cs * 2.0;
    for (ptrdiff_t e = 0; e < m; ++e) {
        const double a = area[e], R = r_int[e];
        const double *b = grad_r + 3 * e, *c = grad_z + 3 * e, *wq = wr + 3 * e;
        double *E = out + 81 * e;
        double rr[9], zz[9], st[9];
        gradient_products(a, R, b, zz_a + 9 * e, rr, zz, st);

        /* h = w/2 - V and g = w - V at the vertices */
        double hr[3], hz[3], gr[3], gz[3];
        for (int i = 0; i < 3; ++i) {
            const int64_t n = tri[3 * e + i];
            hr[i] = 0.5 * w[2 * n] - V[2 * n];
            hz[i] = 0.5 * w[2 * n + 1] - V[2 * n + 1];
            gr[i] = w[2 * n] - V[2 * n];
            gz[i] = w[2 * n + 1] - V[2 * n + 1];
        }
        /* at the points, times wr: the mass weight 1/dt + div h, and g; on the
           axis wr is 0 and so is inv_r, which drops h_r/r there */
        const double dr_hr = (b[0] * hr[0] + b[1] * hr[1]) + b[2] * hr[2];
        const double planar = dr_hr + ((c[0] * hz[0] + c[1] * hz[1]) + c[2] * hz[2]);
        double mass_q[3], gr_q[3], gz_q[3];
        for (int q = 0; q < 3; ++q) {
            const int p = (q + 1) % 3;
            const double hoop_q = (0.5 * hr[q] + 0.5 * hr[p]) * inv_r[3 * e + q];
            mass_q[q] = wq[q] * (inv_dt + (planar + hoop_q));
            gr_q[q] = wq[q] * (0.5 * gr[q] + 0.5 * gr[p]);
            gz_q[q] = wq[q] * (0.5 * gz[q] + 0.5 * gz[p]);
        }
        const double hoop_a = nu2 * a, nu_R = nu * R, stab = cs2 * a;
        for (int i = 0; i < 3; ++i) {
            const int h = (i + 2) % 3;                  /* vertex i is on points i and h */
            const double mom_r = 0.5 * gr_q[i] + 0.5 * gr_q[h];
            const double mom_z = 0.5 * gz_q[i] + 0.5 * gz_q[h];
            for (int j = 0; j < 3; ++j) {
                const int k = 3 * i + j;
                /* mass and transport, alike on u_r and u_z; the off-diagonal
                   mass lives on the point between vertices i and j */
                const double mass = i == j ? 0.25 * mass_q[i] + 0.25 * mass_q[h]
                                           : 0.25 * mass_q[j == (i + 1) % 3 ? i : j];
                const double diag = (mom_r * b[j] + mom_z * c[j]) + mass;
                E[9 * i + j] = (nu * (st[k] + rr[k]) + hoop_a * hoop[9 * e + k]) + diag;
                E[9 * i + 3 + j] = (c[i] * b[j]) * nu_R;
                E[9 * (3 + i) + j] = (c[j] * b[i]) * nu_R;
                E[9 * (3 + i) + 3 + j] = nu * (st[k] + zz[k]) + diag;
                /* -(div v, pi) r and its negative transpose */
                const double nn = i == j ? 0.5 / 3.0 : 0.25 / 3.0;
                const double coupling_r = -(b[i] * rn[3 * e + j] + nn) * a;
                const double coupling_zk = coupling_z[9 * e + k];
                E[9 * i + 6 + j] = coupling_r;
                E[9 * (3 + i) + 6 + j] = coupling_zk;
                E[9 * (6 + j) + i] = -coupling_r;
                E[9 * (6 + j) + 3 + i] = -coupling_zk;
                /* Cs h_K^2 (grad p, grad pi) r, h_K^2 = 2 |K| */
                E[9 * (6 + i) + 6 + j] = stab * st[k];
            }
        }
    }
}

/* data[slot[k]] += vals[k] for k = 0 .. n - 1, in that order. */
CLONES void scatter_add(ptrdiff_t n, const int32_t *slot, const double *vals, double *data)
{
    for (ptrdiff_t k = 0; k < n; ++k)
        data[slot[k]] += vals[k];
}

/* The value B[q][k] of an edge's basis function k at its Gauss point q, of
   the 2-point rule on [0, 1]. */
static inline void edge_basis(double B[2][2])
{
    const double point[2] = {0.5 - 0.5 / sqrt(3.0), 0.5 + 0.5 / sqrt(3.0)};
    for (int q = 0; q < 2; ++q) {
        B[q][0] = 1.0 - point[q];
        B[q][1] = point[q];
    }
}

/* An edge from node ends[0] to node ends[1]: its differences and length, and
   its r-weighted Gauss weights, half its length times r at the points. */
struct edge { double dr, dz, length, wr[2]; };

static inline struct edge edge_of(const int64_t *ends, const double *r, const double *z,
                                  const double B[2][2])
{
    const int64_t a = ends[0], b = ends[1];
    struct edge g;
    g.dr = r[b] - r[a];
    g.dz = z[b] - z[a];
    g.length = sqrt(g.dr * g.dr + g.dz * g.dz);
    for (int q = 0; q < 2; ++q)
        g.wr[q] = (0.5 * g.length) * (r[a] * B[q][0] + r[b] * B[q][1]);
    return g;
}

/* The 2x2 nodal block, row-major, of an edge integral weighted by w[q] at
   the Gauss points: sum over q of w[q] N_i N_j. */
static inline void edge_mass(const double B[2][2], const double *w, double *block)
{
    for (int k = 0; k < 4; ++k)
        block[k] = w[0] * (B[0][k / 2] * B[0][k % 2]) + w[1] * (B[1][k / 2] * B[1][k % 2]);
}

/* The boundary-edge blocks of the saddle matrix.  Each of the nw wall edges:
   beta times the integral of r N_i N_j, 2x2 on u_z of its ends, into
   wall_out (nw, 2, 2).  Each of the ns free-surface edges, 4x4 on
   (u_r, u_z) of its ends (r0, r1, z0, z1), into surface_out (ns, 4, 4):
   the flux -1/2 ((w - V) . nu) N_i N_j r on both components, plus dt times
   the stabilization gamma/2 rbar / length c_i c_j, c = (-nu_r, nu_r, -nu_z,
   nu_z) with nu the outward unit normal.  r and z are the node coordinates,
   w and V (N, 2) nodal fields. */
CLONES void edge_blocks(ptrdiff_t nw, const int64_t *wall, ptrdiff_t ns, const int64_t *surface,
                        const double *r, const double *z, const double *w, const double *V,
                        double beta, double gamma, double dt, double *wall_out,
                        double *surface_out)
{
    double B[2][2];
    edge_basis(B);
    for (ptrdiff_t e = 0; e < nw; ++e) {
        const struct edge g = edge_of(wall + 2 * e, r, z, B);
        double block[4];
        edge_mass(B, g.wr, block);
        for (int k = 0; k < 4; ++k)
            wall_out[4 * e + k] = beta * block[k];
    }
    for (ptrdiff_t e = 0; e < ns; ++e) {
        const int64_t a = surface[2 * e], b = surface[2 * e + 1];
        const struct edge g = edge_of(surface + 2 * e, r, z, B);
        const double nr = -g.dz / g.length, nz = g.dr / g.length;
        const double fa = (w[2 * a] - V[2 * a]) * nr + (w[2 * a + 1] - V[2 * a + 1]) * nz;
        const double fb = (w[2 * b] - V[2 * b]) * nr + (w[2 * b + 1] - V[2 * b + 1]) * nz;
        double weight[2], flux[4];
        for (int q = 0; q < 2; ++q)
            weight[q] = (-0.5 * g.wr[q]) * (fa * B[q][0] + fb * B[q][1]);
        edge_mass(B, weight, flux);
        const double scale = ((0.5 * gamma) * (0.5 * (r[a] + r[b]))) / g.length;
        const double c[4] = {-nr, nr, -nz, nz};
        double *S = surface_out + 16 * e;
        for (int i = 0; i < 4; ++i)
            for (int j = 0; j < 4; ++j) {
                const double f = (i < 2) == (j < 2) ? flux[2 * (i % 2) + j % 2] : 0.0;
                S[4 * i + j] = f + dt * (scale * (c[i] * c[j]));
            }
    }
}

/* f += the consistent r-weighted mass matrix times the nodal field u (N, 2),
   triangle by triangle: the integral of r u_c N_i on dof c n + node i, with
   the weights wr = A/3 r at the points formed from the areas and rq as
   element_data forms them. */
CLONES void mass_action(ptrdiff_t m, ptrdiff_t n, const int64_t *tri, const double *area,
                        const double *rq, const double *u, double *f)
{
    for (ptrdiff_t e = 0; e < m; ++e) {
        const int64_t *t = tri + 3 * e;
        const double third = area[e] / 3.0;
        for (int c = 0; c < 2; ++c) {
            double x[3];
            for (int q = 0; q < 3; ++q)
                x[q] = (third * rq[3 * e + q])
                       * (0.5 * u[2 * t[q] + c] + 0.5 * u[2 * t[(q + 1) % 3] + c]);
            for (int i = 0; i < 3; ++i)
                f[c * n + t[i]] += 0.5 * x[i] + 0.5 * x[(i + 2) % 3];
        }
    }
}

/* f += the load of a unit vertical stress on the nb bottom edges, the
   integral of N_i r on u_z of their ends. */
static CLONES void bottom_load(ptrdiff_t n, ptrdiff_t nb, const int64_t *bottom, const double *r,
                               const double *z, double *f)
{
    double B[2][2];
    edge_basis(B);
    for (ptrdiff_t e = 0; e < nb; ++e) {
        const struct edge g = edge_of(bottom + 2 * e, r, z, B);
        for (int k = 0; k < 2; ++k)
            f[n + bottom[2 * e + k]] += g.wr[0] * B[0][k] + g.wr[1] * B[1][k];
    }
}

/* The state system's right-hand side on its nf kept dofs free: on velocity
   dof d < 2n, mass[d] / dt plus the loads, ((gravity + stress bottom) +
   tension) + the contact-line force on u_z of node contact; 0 on the
   pressure dofs.  Gravity, -g times the integral of r N_i on u_z, and the
   surface tension of the ns free-surface edges, gamma (tau_r rbar - length/2)
   and gamma tau_z rbar on the first end, the negated meridian parts on the
   second, are each summed into work (4n, zeroed) in their order first. */
CLONES void state_rhs(ptrdiff_t n, ptrdiff_t m, const int64_t *tri, const double *wr,
                      ptrdiff_t ns, const int64_t *surface, const double *r, const double *z,
                      const double *mass, const double *bottom, double dt, double g,
                      double stress, double gamma, ptrdiff_t contact, double contact_force,
                      ptrdiff_t nf, const int64_t *free, double *work, double *rhs)
{
    double *gravity = work, *tension = work + 2 * n;
    for (ptrdiff_t e = 0; e < m; ++e) {
        const double *w = wr + 3 * e;
        for (int i = 0; i < 3; ++i)
            gravity[n + tri[3 * e + i]] += -g * (0.5 * w[i] + 0.5 * w[(i + 2) % 3]);
    }
    for (int end = 0; end < 2; ++end) {
        const double sign = end == 0 ? gamma : -gamma;
        for (ptrdiff_t e = 0; e < ns; ++e) {
            const int64_t a = surface[2 * e], b = surface[2 * e + 1], k = surface[2 * e + end];
            const double dr = r[b] - r[a], dz = z[b] - z[a];
            const double length = sqrt(dr * dr + dz * dz), rbar = 0.5 * (r[a] + r[b]);
            tension[k] += (sign * (dr / length)) * rbar - (0.5 * gamma) * length;
            tension[n + k] += (sign * (dz / length)) * rbar;
        }
    }
    for (ptrdiff_t k = 0; k < nf; ++k) {
        const int64_t d = free[k];
        if (d >= 2 * n) {
            rhs[k] = 0.0;
            continue;
        }
        const double load = ((gravity[d] + stress * bottom[d]) + tension[d])
                            + (d == n + contact ? contact_force : 0.0);
        rhs[k] = mass[d] / dt + load;
    }
}

/* The mesh-velocity extension's right-hand side.  g (n, zeroed) gets the
   vertical surface speed u_z - slope u_r at the nodes of the ns free-surface
   edges, which run from the axis to the wall: the slope dz/dr of its edge at
   an end node, the mean of its two edges' at an inner one.  lifted (n,
   zeroed) sums the stiffness st (m, 3, 3) times g over the triangles, and
   rhs[k] = -lifted[free[k]] on the nf unknowns.  work holds g, then lifted. */
CLONES void extension_rhs(ptrdiff_t n, ptrdiff_t ns, const int64_t *surface, const double *r,
                          const double *z, const double *u, ptrdiff_t m, const int64_t *tri,
                          const double *st, ptrdiff_t nf, const int64_t *free, double *work,
                          double *rhs)
{
    double *g = work, *lifted = work + n, previous = 0.0;
    for (ptrdiff_t e = 0; e <= ns; ++e) {
        const int64_t *ends = surface + 2 * (e < ns ? e : ns - 1);
        const int64_t node = ends[e < ns ? 0 : 1];
        const double here = (z[ends[1]] - z[ends[0]]) / (r[ends[1]] - r[ends[0]]);
        const double slope = e == 0 ? here : e == ns ? previous : 0.5 * (previous + here);
        g[node] = u[2 * node + 1] - slope * u[2 * node];
        previous = here;
    }
    for (ptrdiff_t e = 0; e < m; ++e) {
        const int64_t *t = tri + 3 * e;
        const double *s = st + 9 * e;
        for (int i = 0; i < 3; ++i)
            lifted[t[i]] += (s[3 * i] * g[t[0]] + s[3 * i + 1] * g[t[1]]) + s[3 * i + 2] * g[t[2]];
    }
    for (ptrdiff_t k = 0; k < nf; ++k)
        rhs[k] = -lifted[free[k]];
}

/* out[k] = f[free[k]] on the nf kept dofs, 0 where free[k] >= nfull. */
static CLONES void gather(ptrdiff_t nf, const int64_t *free, ptrdiff_t nfull, const double *f,
                          double *out)
{
    for (ptrdiff_t k = 0; k < nf; ++k)
        out[k] = free[k] < nfull ? f[free[k]] : 0.0;
}

/* y -= a x on m entries that x and y never share. */
static inline void update(ptrdiff_t m, double a, const double *restrict x, double *restrict y)
{
    for (ptrdiff_t r = 0; r < m; ++r)
        y[r] -= x[r] * a;
}

/* y = (y - a x) - b w: two columns' updates in one pass, in their order. */
static inline void update2(ptrdiff_t m, double a, const double *restrict x, double b,
                           const double *restrict w, double *restrict y)
{
    for (ptrdiff_t r = 0; r < m; ++r)
        y[r] = (y[r] - x[r] * a) - w[r] * b;
}

/* y_t -= a_t x for two columns y_0, y_1 in one pass over x, each entry as in
   update. */
static inline void update_x2(ptrdiff_t m, const double *restrict x,
                             double a0, double *restrict y0, double a1, double *restrict y1)
{
    for (ptrdiff_t r = 0; r < m; ++r) {
        const double xr = x[r];
        y0[r] -= xr * a0;
        y1[r] -= xr * a1;
    }
}

/* y_t -= a_t x for four columns y_0..y_3 in one pass over x, each entry as in
   update. */
static inline void update_x4(ptrdiff_t m, const double *restrict x,
                             double a0, double *restrict y0, double a1, double *restrict y1,
                             double a2, double *restrict y2, double a3, double *restrict y3)
{
    for (ptrdiff_t r = 0; r < m; ++r) {
        const double xr = x[r];
        y0[r] -= xr * a0;
        y1[r] -= xr * a1;
        y2[r] -= xr * a2;
        y3[r] -= xr * a3;
    }
}

/* y_t = (y_t - a_t x) - b_t w for four columns y_0..y_3 in one pass over x
   and w, each entry as in update2. */
static inline void update2_x4(ptrdiff_t m, const double *restrict x, const double *restrict w,
                              double a0, double b0, double *restrict y0,
                              double a1, double b1, double *restrict y1,
                              double a2, double b2, double *restrict y2,
                              double a3, double b3, double *restrict y3)
{
    for (ptrdiff_t r = 0; r < m; ++r) {
        const double xr = x[r], wr = w[r];
        y0[r] = (y0[r] - xr * a0) - wr * b0;
        y1[r] = (y1[r] - xr * a1) - wr * b1;
        y2[r] = (y2[r] - xr * a2) - wr * b2;
        y3[r] = (y3[r] - xr * a3) - wr * b3;
    }
}

/* The multipliers of a column: its entries 1..m over its pivot, entry 0. */
static inline void scale(ptrdiff_t m, double *col)
{
    for (ptrdiff_t r = 1; r <= m; ++r)
        col[r] /= col[0];
}

/* Column j's step of the forward substitution L y = b for the k = 0, 1 or 2
   loads y_t = y + t n: y_t[j + 1 + r] -= l[r] y_t[j] on the m multipliers l
   of the column, both loads in one pass, each entry as for one alone. */
static inline void eliminate(ptrdiff_t m, const double *l, ptrdiff_t j, ptrdiff_t n, ptrdiff_t k,
                             double *y)
{
    if (k == 2)
        update_x2(m, l, y[j], y + j + 1, y[n + j], y + n + j + 1);
    else if (k == 1)
        update(m, y[j], l, y + j + 1);
}

/* LU without pivoting of the n x n band matrix in ab, kl sub- and ku
   superdiagonals, column-major with ldab = kl + ku + 1: entry (i, j) at
   ab[j ldab + ku + i - j], restricted to the matrix's envelope.  Column j
   of L holds lower[j] multipliers below the diagonal and row j of U upper[j]
   entries right of it; j + lower[j] and j + upper[j] never decrease, and
   without pivoting no fill leaves that envelope (George & Liu 1981, ch. 4).
   Columns j and j + 1 are eliminated together: each later column takes both
   updates in one pass, every entry the same operations in the same order as
   one column at a time.  The later columns go four at a time, first those
   both pivot columns reach, then those only column j + 1 reaches, so each
   pass loads a pivot entry once for four targets; the rest go one by one.
   The columns' updates are independent of each other, so neither grouping
   changes an entry's operations or their order.  Each column of L, once
   scaled, also eliminates the k = 0, 1 or 2 loads y_t = y + t n
   (eliminate), so y holds L^-1 b on return, every entry with the bits of a
   forward substitution column by column.  Returns 0, or j + 1 for an
   exactly zero pivot in column j. */
CLONES ptrdiff_t band_factor(ptrdiff_t n, ptrdiff_t kl, ptrdiff_t ku, const int32_t *lower,
                             const int32_t *upper, double *ab, ptrdiff_t k, double *y)
{
    const ptrdiff_t ldab = kl + ku + 1;
    for (ptrdiff_t j = 0; j < n; j += 2) {
        double *c0 = ab + j * ldab + ku;                /* c0[r]: entry (j + r, j) */
        const ptrdiff_t m0 = lower[j], u0 = upper[j];
        if (c0[0] == 0.0)
            return j + 1;
        scale(m0, c0);
        eliminate(m0, c0 + 1, j, n, k, y);
        if (j + 1 == n)
            break;
        double *c1 = c0 + ldab;                         /* c1[r]: entry (j + 1 + r, j + 1) */
        const ptrdiff_t m1 = lower[j + 1], u1 = upper[j + 1];
        if (u0 > 0)
            update(m0, c1[-1], c0 + 1, c1);
        if (c1[0] == 0.0)
            return j + 2;
        scale(m1, c1);
        eliminate(m1, c1 + 1, j + 1, n, k, y);
        /* R[r]: entry (j + r, j + c) at R = c0 + c s.  Columns c = 2..both
           take both pivot columns' updates (none if column j has no
           multipliers), the rest up to u1 + 1 >= u0 only column j + 1's. */
        const ptrdiff_t s = ldab - 1, both = m0 > 0 ? u0 : 1;
        ptrdiff_t c = 2;
        for (; c + 3 <= both; c += 4) {
            double *R0 = c0 + c * s, *R1 = R0 + s, *R2 = R1 + s, *R3 = R2 + s;
            R0[1] -= c0[1] * R0[0];
            R1[1] -= c0[1] * R1[0];
            R2[1] -= c0[1] * R2[0];
            R3[1] -= c0[1] * R3[0];
            update2_x4(m0 - 1, c0 + 2, c1 + 1, R0[0], R0[1], R0 + 2, R1[0], R1[1], R1 + 2,
                       R2[0], R2[1], R2 + 2, R3[0], R3[1], R3 + 2);
            update_x4(m1 + 1 - m0, c1 + m0, R0[1], R0 + m0 + 1, R1[1], R1 + m0 + 1,
                      R2[1], R2 + m0 + 1, R3[1], R3 + m0 + 1);
        }
        for (; c <= both; ++c) {
            double *R = c0 + c * s;
            R[1] -= c0[1] * R[0];
            update2(m0 - 1, R[0], c0 + 2, R[1], c1 + 1, R + 2);
            update(m1 + 1 - m0, R[1], c1 + m0, R + m0 + 1);
        }
        for (; c + 3 <= u1 + 1; c += 4) {
            double *R0 = c0 + c * s, *R1 = R0 + s, *R2 = R1 + s, *R3 = R2 + s;
            update_x4(m1, c1 + 1, R0[1], R0 + 2, R1[1], R1 + 2, R2[1], R2 + 2, R3[1], R3 + 2);
        }
        for (; c <= u1 + 1; ++c) {
            double *R = c0 + c * s;
            update(m1, R[1], c1 + 1, R + 2);
        }
    }
    return 0;
}

/* x = U^-1 x in place, backward column by column, with the factors and the
   envelope of band_factor: x holds L^-1 b on entry.  Column j of U reaches
   up to row top, the first row whose reach gets to column j. */
static inline void back_x1(ptrdiff_t n, ptrdiff_t ldab, ptrdiff_t ku, const int32_t *upper,
                           const double *ab, double *x)
{
    ptrdiff_t top = n - 1;
    for (ptrdiff_t j = n - 1; j >= 0; --j) {
        while (top > 0 && top - 1 + upper[top - 1] >= j)
            --top;
        const ptrdiff_t m = j - top;
        x[j] /= ab[j * ldab + ku];
        update(m, x[j], ab + j * ldab + ku - m, x + j - m);
    }
}

/* back_x1 for two vectors x0 and x1 in one pass over U, each entry of
   either as there. */
static inline void back_x2(ptrdiff_t n, ptrdiff_t ldab, ptrdiff_t ku, const int32_t *upper,
                           const double *ab, double *x0, double *x1)
{
    ptrdiff_t top = n - 1;
    for (ptrdiff_t j = n - 1; j >= 0; --j) {
        while (top > 0 && top - 1 + upper[top - 1] >= j)
            --top;
        const ptrdiff_t m = j - top;
        const double d = ab[j * ldab + ku];
        x0[j] /= d;
        x1[j] /= d;
        update_x2(m, ab + j * ldab + ku - m, x0[j], x0 + j - m, x1[j], x1 + j - m);
    }
}

/* The residual check of a solve of A x = b, A the n x n CSC matrix (indptr,
   indices, data).  Returns 1 if an entry of x is not finite.  Otherwise
   writes A x into out[0 .. n), summed column by column from zero as scipy's
   csc_matvec sums it, so with its bits, then ||A x - b||^2 into out[n] and
   ||b||^2 into out[n + 1], each summed in row order, and returns 0.  The
   checks stay out of line: inlined into band_solve's solves, the one-vector
   call ran 2-3% slower than a solve and a check apart. */
__attribute__((noinline))
static ptrdiff_t check_x1(ptrdiff_t n, const int32_t *indptr, const int32_t *indices,
                          const double *data, const double *b, const double *x, double *out)
{
    for (ptrdiff_t i = 0; i < n; ++i) {
        if (!isfinite(x[i]))
            return 1;
        out[i] = 0.0;
    }
    for (ptrdiff_t j = 0; j < n; ++j) {
        const double xj = x[j];
        for (int32_t k = indptr[j]; k < indptr[j + 1]; ++k)
            out[indices[k]] += data[k] * xj;
    }
    double r2 = 0.0, b2 = 0.0;
    for (ptrdiff_t i = 0; i < n; ++i) {
        const double d = out[i] - b[i];
        r2 += d * d;
        b2 += b[i] * b[i];
    }
    out[n] = r2;
    out[n + 1] = b2;
    return 0;
}

/* check_x1 for the solves of A x_t = b_t, t = 0, 1, x_t = x + t n, in one
   pass over A, each vector's figures as there into out + t (n + 2).
   Returns bit t set for each x_t with an entry that is not finite, whose
   figures are then meaningless. */
__attribute__((noinline))
static ptrdiff_t check_x2(ptrdiff_t n, const int32_t *indptr, const int32_t *indices,
                          const double *data, const double *b0, const double *b1,
                          const double *x, double *out)
{
    const double *x0 = x, *x1 = x + n;
    double *o0 = out, *o1 = out + n + 2;
    ptrdiff_t flags = 0;
    for (ptrdiff_t i = 0; i < n; ++i) {
        flags |= (ptrdiff_t)!isfinite(x0[i]) | (ptrdiff_t)!isfinite(x1[i]) << 1;
        o0[i] = 0.0;
        o1[i] = 0.0;
    }
    for (ptrdiff_t j = 0; j < n; ++j) {
        const double x0j = x0[j], x1j = x1[j];
        for (int32_t k = indptr[j]; k < indptr[j + 1]; ++k) {
            const double a = data[k];
            o0[indices[k]] += a * x0j;
            o1[indices[k]] += a * x1j;
        }
    }
    double r0 = 0.0, c0 = 0.0, r1 = 0.0, c1 = 0.0;
    for (ptrdiff_t i = 0; i < n; ++i) {
        const double d0 = o0[i] - b0[i], d1 = o1[i] - b1[i];
        r0 += d0 * d0;
        c0 += b0[i] * b0[i];
        r1 += d1 * d1;
        c1 += b1[i] * b1[i];
    }
    o0[n] = r0;
    o0[n + 1] = c0;
    o1[n] = r1;
    o1[n + 1] = c1;
    return flags;
}

/* The solves of A x_t = b_t for the k = 1 or 2 vectors x_t = x + t n, which
   hold L^-1 b_t on entry (band_factor), b_1 read only for k = 2: the
   backward substitution with the factors and the envelope of band_factor,
   then the residual check of each, A also the n x n CSC matrix (indptr,
   indices, data).  One pass over U and one over A serve both vectors, each
   entry of either taking the operations of a single solve and check in
   their order.  Returns check_x1's or check_x2's flags, 0 when every x_t is
   finite. */
CLONES ptrdiff_t band_solve(ptrdiff_t n, ptrdiff_t kl, ptrdiff_t ku, const int32_t *upper,
                            const double *ab, const int32_t *indptr, const int32_t *indices,
                            const double *data, ptrdiff_t k, const double *b0, const double *b1,
                            double *x, double *out)
{
    const ptrdiff_t ldab = kl + ku + 1;
    if (k == 2) {
        back_x2(n, ldab, ku, upper, ab, x, x + n);
        return check_x2(n, indptr, indices, data, b0, b1, x, out);
    }
    back_x1(n, ldab, ku, upper, ab, x);
    return check_x1(n, indptr, indices, data, b0, x, out);
}

/* The residual checks of band_solve alone, for x already solved and the k
   loads b_t = b + t n. */
CLONES ptrdiff_t residual(ptrdiff_t n, const int32_t *indptr, const int32_t *indices,
                          const double *data, ptrdiff_t k, const double *b, const double *x,
                          double *out)
{
    if (k == 2)
        return check_x2(n, indptr, indices, data, b, b + n, x, out);
    return check_x1(n, indptr, indices, data, b, x, out);
}

/* -- The slab's phases ------------------------------------------------------

   A workspace holds what the phases of one topology's slabs read: its sizes,
   connectivity and radii, its radial table and its two patterns with their
   band layouts, all bound once; the storage the phases use, which
   slab_storage sizes and lays out, the old state a slab reads and the new
   one it writes among it; the slab's parameters; and what a phase reports:
   the residuals, u_max, the details of a failure and each phase's wall
   time.
   The factor and the solve serve the saddle pattern alone; the mesh
   velocity's system is filled, factored and solved within the motion.  Each
   phase returns DONE or the status of the first failure, in the order of
   the checks it replaces.  Only slab_storage and slab_step are exported. */

enum status { DONE, ZERO_PIVOT, NOT_FINITE, OVER_GATE, EMPTIED, MOVED_BADLY };

/* A reduced matrix's pattern (FixedPattern) and its band layout (BandLayout):
   n kept dofs, nslot local entries and nnz stored ones. */
struct pattern {
    ptrdiff_t n, nslot, nnz, kl, ku;
    const int64_t *free;
    const int32_t *slot, *indices, *indptr, *position, *lower, *upper;
};

enum phase { ALE, MOTION, ASSEMBLY, FACTOR, SOLVES, PHASES };

struct workspace {
    ptrdiff_t n, m, nw, ns, nb, contact;
    const int64_t *tri, *wall, *surface, *bottom;
    const double *r, *rq, *inv_r, *dr, *rn, *hoop, *zz, *coupling_z;
    struct pattern saddle, extension;
    double *V, *work, *region, *reduced;
    double dt, nu, Cs, chi, N3, gamma, g, stress, contact_force, floor;
    ptrdiff_t k;                                /* loads of a factor and a solve */
    const double *z_old, *areas_old, *u_old, *mass_old;
    double *z, *areas, *data, *b[2], *lu, *x, *u, *p, *mass;
    double ale_residual, rel[2], u_max, z_next;
    ptrdiff_t column, row, failed;
    double phase_ms[PHASES];
};

static double clock_ms(void)
{
    struct timespec t;
    clock_gettime(CLOCK_MONOTONIC, &t);
    return 1e3 * (double)t.tv_sec + 1e-6 * (double)t.tv_nsec;
}

/* Factor the data of pattern p, scattered into the band storage lu, zeroed
   here, and eliminate by it the k loads b[t], copied into the rows of x
   (band_factor); ZERO_PIVOT, its 1-based column in ws->column, for an
   exactly zero pivot. */
static ptrdiff_t factor_into(struct workspace *ws, const struct pattern *p, const double *data,
                             double *lu, ptrdiff_t k, double *const *b, double *x)
{
    const ptrdiff_t n = p->n;
    memset(lu, 0, (size_t)((p->kl + p->ku + 1) * n) * sizeof(double));
    scatter_add(p->nnz, p->position, data, lu);
    for (ptrdiff_t t = 0; t < k; ++t)
        memcpy(x + t * n, b[t], (size_t)n * sizeof(double));
    ws->column = band_factor(n, p->kl, p->ku, p->lower, p->upper, lu, k, x);
    return ws->column ? ZERO_PIVOT : DONE;
}

/* x (k, n) = A^-1 b[t] for the k loads b[t], with lu the factors of A, the
   matrix of data on pattern p, and x their forward elimination
   (factor_into), and each row's check (band_solve) into checks (k (n + 2)):
   rel[t] ||A x_t - b_t|| / ||b_t||, or ||A x_t - b_t|| for b_t = 0, for
   every finite row.  Then row by row, NOT_FINITE for a row that is not
   finite, or OVER_GATE for one whose relative residual passes 1e-10, the
   row in ws->row. */
static ptrdiff_t solve_into(struct workspace *ws, const struct pattern *p, const double *lu,
                            const double *data, ptrdiff_t k, double *const *b, double *x,
                            double *rel, double *checks)
{
    const ptrdiff_t n = p->n;
    const ptrdiff_t flags = band_solve(n, p->kl, p->ku, p->upper, lu, p->indptr, p->indices, data,
                                       k, b[0], b[k - 1], x, checks);
    for (ptrdiff_t t = 0; t < k; ++t) {
        if (flags >> t & 1)
            continue;
        const double res = sqrt(checks[t * (n + 2) + n]);
        const double bnorm = sqrt(checks[t * (n + 2) + n + 1]);
        rel[t] = bnorm > 0 ? res / bnorm : res;
    }
    for (ptrdiff_t t = 0; t < k; ++t) {
        ws->row = t;
        if (flags >> t & 1)
            return NOT_FINITE;
        if (rel[t] > 1e-10)
            return OVER_GATE;
    }
    return DONE;
}

/* The mesh velocity of the old mesh (z_old, areas_old) and velocity u_old
   into V, (n, 2): the r-weighted stiffness on the extension pattern, the
   surface data g and its lifting (extension_rhs), the fill, the factor and
   the solve with its check, its residual in ws->ale_residual; V is (0, g)
   with the solution on the kept nodes.  In the region: the element data (10
   m), the data (nnz + 1), the loads, the solution, the checks (nf, nf and nf
   + 2), then the stiffness (nslot), whose place the band takes once it is
   filled in. */
static ptrdiff_t mesh_velocity(struct workspace *ws)
{
    const ptrdiff_t n = ws->n, m = ws->m;
    const struct pattern *p = &ws->extension;
    const ptrdiff_t nf = p->n;
    double *ed = ws->region, *g = ws->work;
    double *data = ed + 10 * m, *rhs = data + p->nnz + 1, *x = rhs + nf, *checks = x + nf;
    double *st = checks + nf + 2, *lu = st;
    element_data(m, ws->tri, ws->z_old, ws->areas_old, ws->rq, ws->dr, ed);
    r_stiffness(m, ws->areas_old, ed + 9 * m, ed, ws->zz, st);
    memset(g, 0, (size_t)(2 * n) * sizeof(double));
    extension_rhs(n, ws->ns, ws->surface, ws->r, ws->z_old, ws->u_old, m, ws->tri, st, nf,
                  p->free, g, rhs);
    memset(data, 0, (size_t)(p->nnz + 1) * sizeof(double));
    scatter_add(p->nslot, p->slot, st, data);
    double *const loads[1] = {rhs};
    ptrdiff_t status = factor_into(ws, p, data, lu, 1, loads, x);
    if (status == DONE)
        status = solve_into(ws, p, lu, data, 1, loads, x, ws->rel, checks);
    if (status == DONE) {
        ws->ale_residual = ws->rel[0];
        for (ptrdiff_t i = 0; i < n; ++i) {
            ws->V[2 * i] = 0.0;
            ws->V[2 * i + 1] = g[i];
        }
        for (ptrdiff_t j = 0; j < nf; ++j)
            ws->V[2 * p->free[j] + 1] = x[j];
    }
    return status;
}

/* The mesh velocity (mesh_velocity) on the ALE clock, then, on the motion's,
   which starts where that one stops, the emptying guard: EMPTIED if the
   contact line would reach ws->floor, at ws->z_next; then the new heights
   z = z_old + dt V_z and their triangle areas, half the sum of z_i dr_i
   relative to z_0, MOVED_BADLY if a height is not finite or an area not
   positive. */
static ptrdiff_t slab_motion(struct workspace *ws)
{
    const double start = clock_ms();
    ptrdiff_t status = mesh_velocity(ws);
    const double t0 = clock_ms(), dt = ws->dt, *V = ws->V, *dr = ws->dr;
    ws->phase_ms[ALE] = t0 - start;
    if (status != DONE)
        return status;
    const ptrdiff_t n = ws->n, c = ws->contact;
    double *z = ws->z;
    ws->z_next = ws->z_old[c] + dt * V[2 * c + 1];
    if (ws->z_next <= ws->floor) {
        status = EMPTIED;
        goto done;
    }
    for (ptrdiff_t i = 0; i < n; ++i) {
        z[i] = ws->z_old[i] + dt * V[2 * i + 1];
        if (!isfinite(z[i]))
            status = MOVED_BADLY;
    }
    for (ptrdiff_t e = 0; e < ws->m; ++e) {
        const int64_t *t = ws->tri + 3 * e;
        const double z0 = z[t[0]];
        ws->areas[e] = 0.5 * ((z[t[1]] - z0) * dr[3 * e + 1] + (z[t[2]] - z0) * dr[3 * e + 2]);
        if (!(ws->areas[e] > 0.0))
            status = MOVED_BADLY;
    }
done:
    ws->phase_ms[MOTION] = clock_ms() - t0;
    return status;
}

/* The saddle system of the new mesh (z, areas), the old velocity u_old, its
   mass action mass_old and the mesh velocity V: the element data and, after
   it in the region, the triangle and boundary-edge blocks, with the wall
   friction beta_h = nu / (chi h3), h3 = z[contact] / N3; then the reduced
   right-hand side (state_rhs) into b[0] and the reduced bottom load into
   b[1]; then the blocks summed into data (nnz + 1), zeroed here. */
static ptrdiff_t slab_assembly(struct workspace *ws)
{
    const double t0 = clock_ms();
    const ptrdiff_t n = ws->n, m = ws->m, nw = ws->nw, ns = ws->ns;
    const struct pattern *p = &ws->saddle;
    const double beta = ws->nu / (ws->chi * (ws->z[ws->contact] / ws->N3));
    double *ed = ws->region, *vals = ed + 10 * m, *work = ws->work, *bottom = ws->work + 4 * n;
    element_data(m, ws->tri, ws->z, ws->areas, ws->rq, ws->dr, ed);
    triangle_blocks(m, ws->tri, ws->areas, ed + 9 * m, ed, ed + 3 * m, ed + 6 * m, ws->inv_r,
                    ws->rn, ws->hoop, ws->zz, ws->coupling_z, ws->u_old, ws->V, ws->dt, ws->nu,
                    ws->Cs, vals);
    edge_blocks(nw, ws->wall, ns, ws->surface, ws->r, ws->z, ws->u_old, ws->V, beta, ws->gamma,
                ws->dt, vals + 81 * m, vals + 81 * m + 4 * nw);
    memset(work, 0, (size_t)(6 * n) * sizeof(double));
    bottom_load(n, ws->nb, ws->bottom, ws->r, ws->z, bottom);
    state_rhs(n, m, ws->tri, ed + 6 * m, ns, ws->surface, ws->r, ws->z, ws->mass_old, bottom,
              ws->dt, ws->g, ws->stress, ws->gamma, ws->contact, ws->contact_force, p->n,
              p->free, work, ws->b[0]);
    gather(p->n, p->free, 2 * n, bottom, ws->b[1]);
    memset(ws->data, 0, (size_t)(p->nnz + 1) * sizeof(double));
    scatter_add(p->nslot, p->slot, vals, ws->data);
    ws->phase_ms[ASSEMBLY] = clock_ms() - t0;
    return DONE;
}

/* The factor of the saddle system's data into the band storage lu, with the
   forward elimination of its k loads b into x (factor_into). */
static ptrdiff_t slab_factor(struct workspace *ws)
{
    const double t0 = clock_ms();
    const ptrdiff_t status = factor_into(ws, &ws->saddle, ws->data, ws->lu, ws->k, ws->b, ws->x);
    ws->phase_ms[FACTOR] = clock_ms() - t0;
    return status;
}

/* The k-row back-substitution of x with the factors lu of the saddle matrix,
   each row checked against its load b[t] (solve_into), its residual in
   ws->rel; then the first row's solution, zero on the eliminated dofs, into
   u (n, 2) and p (n), the mass action of u on the mesh of areas into mass
   (2 n), max |u| over the nodes into ws->u_max and, for k = 2, the mass
   action on the kept dofs into reduced (nf). */
static ptrdiff_t slab_solve(struct workspace *ws)
{
    const double t0 = clock_ms();
    const struct pattern *p = &ws->saddle;
    const ptrdiff_t status = solve_into(ws, p, ws->lu, ws->data, ws->k, ws->b, ws->x, ws->rel,
                                        ws->work);
    if (status == DONE) {
        const ptrdiff_t n = ws->n;
        double *full = ws->work, *u = ws->u, u_max = 0.0;
        memset(full, 0, (size_t)(3 * n) * sizeof(double));
        for (ptrdiff_t j = 0; j < p->n; ++j)
            full[p->free[j]] = ws->x[j];
        for (ptrdiff_t i = 0; i < n; ++i) {
            u[2 * i] = full[i];
            u[2 * i + 1] = full[n + i];
            ws->p[i] = full[2 * n + i];
            const double speed = sqrt(u[2 * i] * u[2 * i] + u[2 * i + 1] * u[2 * i + 1]);
            u_max = speed > u_max ? speed : u_max;
        }
        memset(ws->mass, 0, (size_t)(2 * n) * sizeof(double));
        mass_action(ws->m, n, ws->tri, ws->areas, ws->rq, u, ws->mass);
        if (ws->k == 2)
            gather(p->n, p->free, 2 * n, ws->mass, ws->reduced);
        ws->u_max = u_max;
    }
    ws->phase_ms[SOLVES] = clock_ms() - t0;
    return status;
}

static inline ptrdiff_t larger(ptrdiff_t a, ptrdiff_t b)
{
    return a > b ? a : b;
}

/* The storage of the phases, one block of doubles in this order: the mesh
   velocity V (2 n), which the motion leaves for the assembly; the work array
   (6 n, or the 2 nf + 4 of the saddle solve's checks if more), which each
   phase uses for its own sums and checks, so that it carries nothing from
   one phase to the next; the saddle data (nnz and the trash slot), its loads
   b[0] and b[1] (nf each), the solution rows x (2 nf) and the reduced mass
   action of the new velocity (nf); the old state, which the caller copies
   in: z_old (n), areas_old (m), u_old and mass_old (2 n each); the new
   state, which the caller copies out: z (n), areas (m), u and mass (2 n
   each) and p (n), a block of its own, so that no phase reads what an
   earlier one wrote; last the region, which each phase in turn uses for the
   arrays of its own size: the element data (10 m) with the mesh velocity's
   data, loads, solution, checks and stiffness or band (mesh_velocity), then
   with the assembly's local blocks (slab_assembly); then the saddle band
   lu, which the factor zeroes with one memset and the solve reads.  The
   region is as large as the largest of these needs, so no phase allocates.
   Returns the doubles of the block; with a base, which holds that many,
   also points the storage of the workspace into it.  The workspace's sizes
   and patterns are bound first. */
ptrdiff_t slab_storage(struct workspace *ws, double *base)
{
    const struct pattern *s = &ws->saddle, *e = &ws->extension;
    const ptrdiff_t n = ws->n, nf = s->n, ne = e->n;
    /* the mesh velocity's data, loads, solution, checks and stiffness or band */
    const ptrdiff_t motion = (e->nnz + 1) + 3 * ne + 2
                             + larger(e->nslot, (e->kl + e->ku + 1) * ne);
    const ptrdiff_t m = ws->m;
    const ptrdiff_t size[] = {2 * n, larger(6 * n, 2 * nf + 4), s->nnz + 1, nf, nf, 2 * nf, nf,
                              5 * n + m, 6 * n + m,
                              larger(10 * m + larger(motion, s->nslot), (s->kl + s->ku + 1) * nf)};
    double *old = NULL;
    double **const part[] = {&ws->V, &ws->work, &ws->data, &ws->b[0], &ws->b[1], &ws->x,
                             &ws->reduced, &old, &ws->z, &ws->region};
    ptrdiff_t total = 0;
    for (int i = 0; i < 10; ++i) {
        if (base)
            *part[i] = base + total;
        total += size[i];
    }
    if (base) {
        ws->z_old = old;
        ws->areas_old = old + n;
        ws->u_old = old + n + m;
        ws->mass_old = old + 3 * n + m;
        ws->areas = ws->z + n;
        ws->u = ws->z + n + m;
        ws->mass = ws->z + 3 * n + m;
        ws->p = ws->z + 5 * n + m;
        ws->lu = ws->region;
    }
    return total;
}

/* One slab: the motion, the assembly on the moved mesh with the mesh
   velocity in V, the factor and the solve, on the storage of slab_storage.
   Each phase has a clock of its own, and the clocks are disjoint: the
   motion's starts where the mesh velocity's (ALE) stops.  On a failure the
   phase that failed is in ws->failed. */
ptrdiff_t slab_step(struct workspace *ws)
{
    ptrdiff_t (*const phase[])(struct workspace *) = {slab_motion, slab_assembly, slab_factor,
                                                       slab_solve};
    for (int i = 0; i < 4; ++i) {
        const ptrdiff_t status = phase[i](ws);
        if (status != DONE) {
            ws->failed = MOTION + i;
            return status;
        }
    }
    return DONE;
}

#ifdef __SIZEOF_INT128__
/* 5^k for 0 <= k <= 27, the powers of five below 2^63. */
static const uint64_t POW5[28] = {
    1ULL, 5ULL, 25ULL, 125ULL, 625ULL, 3125ULL, 15625ULL, 78125ULL, 390625ULL, 1953125ULL,
    9765625ULL, 48828125ULL, 244140625ULL, 1220703125ULL, 6103515625ULL, 30517578125ULL,
    152587890625ULL, 762939453125ULL, 3814697265625ULL, 19073486328125ULL,
    95367431640625ULL, 476837158203125ULL, 2384185791015625ULL, 11920928955078125ULL,
    59604644775390625ULL, 298023223876953125ULL, 1490116119384765625ULL,
    7450580596923828125ULL};
#endif

#define E16 10000000000000000ULL
#define E17 100000000000000000ULL

/* The 17 significant digits of m 2^e, m in [2^52, 2^53): the integer d in
   [10^16, 10^17) nearest to m 2^e 10^k, ties to even, k = 16 - x, and the
   decimal exponent x.  Exact: m 5^k fits 128 bits for 0 <= k <= 27, and the
   factor 2^(e + k) is a shift, whose shifted-out bits decide the rounding.
   x starts from the binary exponent, (e + 52) log10 2 truncated, and is
   corrected by comparing the truncated scaled value with 10^16 and 10^17; a
   rounding up to 10^17 gives 10^16 at the next exponent.  Returns 0, and
   leaves d and x alone, where k would leave 0..27. */
static int digits17(uint64_t m, int e, uint64_t *d, int *x)
{
#ifdef __SIZEOF_INT128__
    typedef unsigned __int128 u128;
    int ex = (e + 52) * 78913 / 262144;                 /* 78913 / 2^18 = log10 2 - 8e-7 */
    for (;;) {
        const int k = 16 - ex, s = e + k;
        if (k < 0 || k > 27 || s > 8 || s < -127)
            return 0;
        const u128 p = (u128)m * POW5[k];               /* m 2^e 10^k = p 2^s */
        u128 q = s >= 0 ? p << s : p >> -s;
        if (q < E16) {
            --ex;
            continue;
        }
        if (q >= E17) {
            ++ex;
            continue;
        }
        if (s < 0) {
            const u128 rest = p - (q << -s), half = (u128)1 << (-s - 1);
            q += rest > half || (rest == half && (q & 1));
        }
        if (q == E17) {
            q = E16;
            ++ex;
        }
        *d = (uint64_t)q;
        *x = ex;
        return 1;
    }
#else
    (void)m, (void)e, (void)d, (void)x;
    return 0;
#endif
}

/* The 17 digits d, 10^16 <= d < 10^17, at decimal exponent x, as %.17g
   writes them: trailing zeros dropped, fixed notation for -4 <= x < 17, else
   d.ddde+xx with two exponent digits or more.  Returns the bytes written. */
static ptrdiff_t write17(uint64_t d, int x, char *out)
{
    char digit[17], *o = out;
    for (int i = 16; i >= 0; --i, d /= 10)
        digit[i] = (char)('0' + d % 10);
    int nd = 17;
    while (digit[nd - 1] == '0')
        --nd;
    if (x < -4 || x >= 17) {
        *o++ = digit[0];
        if (nd > 1) {
            *o++ = '.';
            memcpy(o, digit + 1, nd - 1);
            o += nd - 1;
        }
        const int a = x < 0 ? -x : x;
        *o++ = 'e';
        *o++ = x < 0 ? '-' : '+';
        if (a >= 100)
            *o++ = (char)('0' + a / 100);
        *o++ = (char)('0' + a / 10 % 10);
        *o++ = (char)('0' + a % 10);
    } else if (x >= 0) {
        memcpy(o, digit, x + 1);
        o += x + 1;
        if (nd > x + 1) {
            *o++ = '.';
            memcpy(o, digit + x + 1, nd - x - 1);
            o += nd - x - 1;
        }
    } else {
        *o++ = '0';
        *o++ = '.';
        for (int i = x + 1; i < 0; ++i)
            *o++ = '0';
        memcpy(o, digit, nd);
        o += nd;
    }
    return o - out;
}

/* v as Python's format(v, ".17g") writes it, at out; returns the bytes
   written, at most 24.  NaN of either sign is "nan", as in Python (glibc
   writes "-nan").  Subnormals and exponents that digits17 does not reach
   take their digits from glibc's correctly rounded "%.16e", read back as
   digits and exponent, so no locale's decimal point enters. */
static ptrdiff_t format17(double v, char *out)
{
    uint64_t bits, d = 0;
    memcpy(&bits, &v, sizeof bits);
    const int be = (int)(bits >> 52 & 0x7ff);
    const uint64_t frac = bits & ((1ULL << 52) - 1);
    int x = 0;
    char *o = out;
    if (be == 0x7ff && frac != 0) {
        memcpy(o, "nan", 3);
        return 3;
    }
    if (bits >> 63)
        *o++ = '-';
    if (be == 0x7ff) {
        memcpy(o, "inf", 3);
        return o + 3 - out;
    }
    if (be == 0 && frac == 0) {
        *o = '0';
        return o + 1 - out;
    }
    if (be == 0 || !digits17(frac | 1ULL << 52, be - 1075, &d, &x)) {
        char buf[32];
        snprintf(buf, sizeof buf, "%.16e", fabs(v));
        const char *c = buf;
        for (; *c != 'e'; ++c)
            if (*c >= '0' && *c <= '9')
                d = 10 * d + (uint64_t)(*c - '0');
        x = atoi(c + 1);
    }
    return (o - out) + write17(d, x, o);
}

/* The len bytes of text with the n values v written into it as format17
   does, value i at byte offset slot[i] of text (slot never decreasing, at
   most len), into out, which holds len + 24 n bytes.  Returns the bytes
   written. */
ptrdiff_t fill_template(ptrdiff_t len, const char *text, ptrdiff_t n, const int64_t *slot,
                        const double *v, char *out)
{
    char *o = out;
    ptrdiff_t at = 0;
    for (ptrdiff_t i = 0; i < n; ++i) {
        memcpy(o, text + at, slot[i] - at);
        o += slot[i] - at;
        at = slot[i];
        o += format17(v[i], o);
    }
    memcpy(o, text + at, len - at);
    return (o - out) + (len - at);
}
