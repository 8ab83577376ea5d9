"""The compiled kernels of the step: the saddle matrix's triangle blocks,
the mesh-velocity stiffness, the fill of a fixed pattern, and the banded LU
without pivoting with its solve.

**Assembly.**  :func:`triangle_blocks` writes each triangle's 9x9 block of
the saddle matrix, on the local dofs (u_r, u_z, p) of its vertices, straight
into the triangle view of a :class:`~capflow.forms.FixedPattern`'s values:
the viscous form with the hoop term; the mass over dt, the advection by
w - V and the div(w/2 - V) weight, on both velocity components; the
velocity-pressure coupling and its negative transpose; and the pressure
stabilization.  :func:`r_stiffness` writes the r-weighted stiffness of the
mesh-velocity extension, from the same gradient products, and
:func:`scatter_add` sums the local values into the pattern's data in their
order.  The first two read the mesh's :class:`~capflow.forms.ElementData`
and its radial table, and every entry takes the same operations in the same
order as the numpy expressions of the forms they replaced (the tests keep
those as their reference), so it has their bits.

**Factorization.**  The step's saddle matrix has a positive semidefinite
symmetric part diag(K_sym, Sp), and the mesh-velocity stiffness is
symmetric positive definite, so an LU without pivoting exists for both and
is stable (Golub & Van Loan 1979, Linear Algebra Appl. 28; Benzi, Golub &
Liesen 2005, Acta Numerica 14, section 3).  Without pivoting U keeps the
upper band, so the storage is LAPACK's band column layout without the kl
rows of fill that row interchanges need: an (ldab, n) Fortran-ordered array,
ldab = kl + ku + 1, entry (i, j) in row ku + i - j of column j.  The
factorization overwrites it with U on and above row ku and the multipliers
of the unit lower L below it.  It makes no fill outside the matrix's
envelope, L within the row profile and U within the column profile
(George & Liu 1981, *Computer Solution of Large Sparse Positive Definite
Systems*, ch. 4), so :func:`factor_band` and :func:`solve_band` loop over
the envelope of the :class:`~capflow.forms.BandLayout` alone, each entry
still taking the operations of the full band in its order; the rest of the
band stays zero.

The kernels are C, kept here as one :data:`SOURCE`.  The first use compiles
it with :data:`COMPILER` and the fixed portable :data:`FLAGS` into
``__pycache__/kernels-<sha256 of source and flags>.so`` beside this module,
written under a temporary name and moved into place, so concurrent first
uses are safe, and removes the libraries of earlier sources there; later
processes find it and only load it.  No contraction into fused
multiply-adds is allowed and no sum is reassociated, so the x86-64 AVX-512
and AVX2 clones and a build without clones (``-DKERNELS_PORTABLE``) give the
same bits.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
import hashlib
import os
import subprocess
import tempfile
from pathlib import Path

import numpy as np

from .errors import DimensionMismatch, KernelBuildError

SOURCE = r"""
#include <stddef.h>
#include <stdint.h>

#if defined(__x86_64__) && !defined(KERNELS_PORTABLE)
#define CLONES __attribute__((target_clones("arch=x86-64-v4", "avx2", "default")))
#else
#define CLONES
#endif

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

/* The multipliers of a column: its entries 1..m over its pivot, entry 0. */
static inline void scale(ptrdiff_t m, double *col)
{
    for (ptrdiff_t r = 1; r <= m; ++r)
        col[r] /= col[0];
}

/* LU without pivoting of the n x n band matrix in ab, kl sub- and ku
   superdiagonals, column-major with ldab = kl + ku + 1: entry (i, j) at
   ab[j ldab + ku + i - j], restricted to the matrix's envelope.  Column j
   of L holds lower[j] multipliers below the diagonal and row j of U upper[j]
   entries right of it; j + lower[j] and j + upper[j] never decrease, and
   without pivoting no fill leaves that envelope (George & Liu 1981, ch. 4).
   Columns j and j + 1 are eliminated together: each later column takes both
   updates in one pass, every entry the same operations in the same order as
   one column at a time.  Returns 0, or j + 1 for an exactly zero pivot in
   column j. */
CLONES ptrdiff_t band_factor(ptrdiff_t n, ptrdiff_t kl, ptrdiff_t ku, const int32_t *lower,
                             const int32_t *upper, double *ab)
{
    const ptrdiff_t ldab = kl + ku + 1;
    for (ptrdiff_t j = 0; j < n; j += 2) {
        double *c0 = ab + j * ldab + ku;                /* c0[r]: entry (j + r, j) */
        const ptrdiff_t m0 = lower[j], u0 = upper[j];
        if (c0[0] == 0.0)
            return j + 1;
        scale(m0, c0);
        if (j + 1 == n)
            break;
        double *c1 = c0 + ldab;                         /* c1[r]: entry (j + 1 + r, j + 1) */
        const ptrdiff_t m1 = lower[j + 1], u1 = upper[j + 1];
        if (u0 > 0)
            update(m0, c1[-1], c0 + 1, c1);
        if (c1[0] == 0.0)
            return j + 2;
        scale(m1, c1);
        for (ptrdiff_t c = 2; c <= u1 + 1; ++c) {
            double *R = c0 + c * (ldab - 1);            /* R[r]: entry (j + r, j + c) */
            if (c <= u0 && m0 > 0) {                    /* column j reaches it too */
                R[1] -= c0[1] * R[0];
                update2(m0 - 1, R[0], c0 + 2, R[1], c1 + 1, R + 2);
                update(m1 + 1 - m0, R[1], c1 + m0, R + m0 + 1);
            } else {
                update(m1, R[1], c1 + 1, R + 2);
            }
        }
    }
    return 0;
}

/* x = (LU)^-1 x in place, with the factors and the envelope of band_factor:
   L y = x forward, then U x = y backward, column by column.  Column j of U
   reaches up to row top, the first row whose reach gets to column j. */
CLONES void band_solve(ptrdiff_t n, ptrdiff_t kl, ptrdiff_t ku, const int32_t *lower,
                       const int32_t *upper, const double *ab, double *x)
{
    const ptrdiff_t ldab = kl + ku + 1;
    for (ptrdiff_t j = 0; j < n; ++j) {
        update(lower[j], x[j], ab + j * ldab + ku + 1, x + j + 1);
    }
    ptrdiff_t top = n - 1;
    for (ptrdiff_t j = n - 1; j >= 0; --j) {
        while (top > 0 && top - 1 + upper[top - 1] >= j)
            --top;
        const ptrdiff_t m = j - top;
        x[j] /= ab[j * ldab + ku];
        update(m, x[j], ab + j * ldab + ku - m, x + j - m);
    }
}
"""

FLAGS = ("-O3", "-ffp-contract=off", "-fPIC", "-shared")
COMPILER = "cc"
CACHE = Path(__file__).resolve().parent / "__pycache__"
PREFIX = "kernels"


def build(source: str = SOURCE, flags: tuple[str, ...] = FLAGS) -> Path:
    """The shared library of source compiled with flags, in :data:`CACHE`;
    compiled by :data:`COMPILER` only when it is not there yet, which then
    removes every other library of :data:`PREFIX` there (a process that
    still maps one keeps it).  Raises KernelBuildError, with the command and
    the compiler's stderr, when the compiler is missing or fails."""
    digest = hashlib.sha256("\0".join((source, *flags)).encode()).hexdigest()
    path = CACHE / f"{PREFIX}-{digest}.so"
    if path.exists():
        return path
    CACHE.mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=CACHE) as tmp:
        built = os.path.join(tmp, path.name)
        command = [COMPILER, *flags, "-x", "c", "-", "-o", built]
        try:
            proc = subprocess.run(command, input=source, capture_output=True, text=True)
        except OSError as exc:
            raise KernelBuildError(command, str(exc)) from exc
        if proc.returncode != 0:
            raise KernelBuildError(command, proc.stderr)
        os.replace(built, path)
    for stale in CACHE.glob(f"{PREFIX}-*.so"):
        if stale != path:
            with contextlib.suppress(FileNotFoundError):    # removed by a concurrent build
                stale.unlink()
    return path


class _Array:
    """A ctypes argument type that passes a numpy array as its data pointer,
    after the dtype and flag checks of ``np.ctypeslib.ndpointer``.

    ndpointer itself passes ``array.ctypes``, whose conversion (a
    ``ctypes.cast``) leaves a reference cycle on every call (CPython issue
    12836, noted in numpy's ``_ctypes.data_as``).  At some thirty arrays a
    step, that garbage woke the cyclic collector in about one step in
    eleven, and its pauses landed in the step times."""

    def __init__(self, dtype, flags: str = "C_CONTIGUOUS"):
        self._checked = np.ctypeslib.ndpointer(dtype, flags=flags)

    def from_param(self, obj):
        return ctypes.c_void_p(self._checked.from_param(obj).data)


class Kernel:
    """The functions of one built library (:func:`build`)."""

    def __init__(self, path: Path):
        lib = ctypes.CDLL(str(path))
        size = ctypes.c_ssize_t
        real = ctypes.c_double

        def bind(name, argtypes, restype=None):
            fn = getattr(lib, name)
            fn.argtypes, fn.restype = argtypes, restype
            return fn

        values, out = _Array(np.float64), _Array(np.float64, "C_CONTIGUOUS,WRITEABLE")
        self.triangle_blocks = bind("triangle_blocks", (
            size, _Array(np.int64), *(values,) * 12, real, real, real, out))
        self.r_stiffness = bind("r_stiffness", (size, *(values,) * 4, out))
        self.scatter_add = bind("scatter_add", (size, _Array(np.int32), values, out))
        bands = (size,) * 3 + (_Array(np.int32),) * 2       # n, kl, ku, lower, upper
        self.factor = bind("band_factor", (*bands, _Array(np.float64, "F_CONTIGUOUS,WRITEABLE")),
                           size)
        self.solve = bind("band_solve", (*bands, _Array(np.float64, "F_CONTIGUOUS"), out))


@functools.cache
def kernel() -> Kernel:
    """The kernels of :data:`SOURCE`, built on first use and loaded once per process."""
    return Kernel(build())


def triangle_blocks(ed, w: np.ndarray, V: np.ndarray, dt: float, nu: float, Cs: float,
                    out: np.ndarray) -> None:
    """Write each triangle's 9x9 saddle block, on the local dofs (u_r, u_z, p)
    of its vertices, into out, (M, 9, 9): ed is the mesh's
    :class:`~capflow.forms.ElementData`, w the advecting velocity and V the
    mesh velocity at the nodes, (N, 2) each."""
    m = len(ed.tri)
    if out.shape != (m, 9, 9) or w.shape != V.shape or w.shape[1:] != (2,):
        raise DimensionMismatch(f"triangle blocks of shape {out.shape} for {m} triangles, "
                                f"fields of shape {w.shape} and {V.shape}")
    t = ed.radial
    kernel().triangle_blocks(m, ed.tri, ed.area, ed.r_int, ed.grad_r, ed.grad_z, ed.wr,
                             t.inv_r, t.rn, t.hoop, t.zz, t.coupling_z, w, V, dt, nu, Cs, out)


def r_stiffness(ed, out: np.ndarray) -> None:
    """Write each triangle's r-weighted stiffness, integral of
    r grad N_i . grad N_j, into out, (M, 3, 3); ed as for :func:`triangle_blocks`."""
    m = len(ed.tri)
    if out.shape != (m, 3, 3):
        raise DimensionMismatch(f"stiffness blocks of shape {out.shape} for {m} triangles")
    kernel().r_stiffness(m, ed.area, ed.r_int, ed.grad_r, ed.radial.zz, out)


def scatter_add(data: np.ndarray, slot: np.ndarray, vals: np.ndarray) -> None:
    """data[slot[k]] += vals[k] in k order, the sums of ``np.add.at`` bit for
    bit; every slot must index data."""
    if vals.shape != slot.shape or data.ndim != 1:
        raise DimensionMismatch(f"{vals.shape} values for {slot.shape} slots")
    kernel().scatter_add(len(slot), slot, vals, data)


def _check(ab: np.ndarray, band) -> None:
    if ab.shape != (band.ldab, len(band.lower)):
        raise DimensionMismatch(f"band storage of shape {ab.shape} does not hold "
                                f"kl = {band.kl}, ku = {band.ku} on {len(band.lower)} columns")


def factor_band(ab: np.ndarray, band) -> int:
    """Factor the band storage ab in place without pivoting, within the
    envelope of band, a :class:`~capflow.forms.BandLayout`; 0, or the 1-based
    column of the first exactly zero pivot."""
    _check(ab, band)
    return kernel().factor(ab.shape[1], band.kl, band.ku, band.lower, band.upper, ab)


def solve_band(lu: np.ndarray, band, x: np.ndarray) -> None:
    """Overwrite x with the solution of A x = x, lu A's :func:`factor_band`
    with the same band."""
    _check(lu, band)
    if x.shape != (lu.shape[1],):
        raise DimensionMismatch(f"right-hand side of shape {x.shape} for {lu.shape[1]} unknowns")
    kernel().solve(lu.shape[1], band.kl, band.ku, band.lower, band.upper, lu, x)
