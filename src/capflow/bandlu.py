"""Banded LU without pivoting, and its solve, in one small compiled kernel.

The step's saddle matrix has a positive semidefinite symmetric part
diag(K_sym, Sp), and the mesh-velocity stiffness is symmetric positive
definite, so an LU without pivoting exists for both and is stable (Golub &
Van Loan 1979, Linear Algebra Appl. 28; Benzi, Golub & Liesen 2005, Acta
Numerica 14, section 3).  Without pivoting U keeps the upper band, so the
storage is LAPACK's band column layout without the kl rows of fill that
row interchanges need: an (ldab, n) Fortran-ordered array,
ldab = kl + ku + 1, entry (i, j) in row ku + i - j of column j.  The
factorization overwrites it with U on and above row ku and the multipliers
of the unit lower L below it.

The kernel is C, kept here as :data:`SOURCE`.  The first use compiles it
with :data:`COMPILER` and the fixed portable :data:`FLAGS` into
``__pycache__/bandlu-<sha256 of source and flags>.so`` beside this module,
written under a temporary name and moved into place, so concurrent first
uses are safe; later processes find it there and only load it.  No
contraction into fused multiply-adds is allowed, and every loop is an
elementwise update, so the x86-64 AVX2 clone and a build without clones
(``-DBANDLU_PORTABLE``) give the same bits.
"""

from __future__ import annotations

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

#if defined(__x86_64__) && !defined(BANDLU_PORTABLE)
#define CLONES __attribute__((target_clones("avx2", "default")))
#else
#define CLONES
#endif

static inline ptrdiff_t min(ptrdiff_t a, ptrdiff_t b) { return a < b ? a : b; }

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
   ab[j ldab + ku + i - j].  Columns j and j + 1 are eliminated together:
   each later column takes both updates in one pass, every entry the same
   operations in the same order as one column at a time.  Returns 0, or
   j + 1 for an exactly zero pivot in column j. */
CLONES ptrdiff_t band_factor(ptrdiff_t n, ptrdiff_t kl, ptrdiff_t ku, double *ab)
{
    const ptrdiff_t ldab = kl + ku + 1;
    for (ptrdiff_t j = 0; j < n; j += 2) {
        double *c0 = ab + j * ldab + ku;                /* c0[r]: entry (j + r, j) */
        const ptrdiff_t m0 = min(kl, n - 1 - j), u0 = min(ku, n - 1 - j);
        if (c0[0] == 0.0)
            return j + 1;
        scale(m0, c0);
        if (j + 1 == n)
            break;
        double *c1 = c0 + ldab;                         /* c1[r]: entry (j + 1 + r, j + 1) */
        const ptrdiff_t m1 = min(kl, n - 2 - j), u1 = min(ku, n - 2 - j);
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

/* x = (LU)^-1 x in place, with the factors of band_factor: L y = x
   forward, then U x = y backward, column by column. */
CLONES void band_solve(ptrdiff_t n, ptrdiff_t kl, ptrdiff_t ku, const double *ab, double *x)
{
    const ptrdiff_t ldab = kl + ku + 1;
    for (ptrdiff_t j = 0; j < n; ++j) {
        update(min(kl, n - 1 - j), x[j], ab + j * ldab + ku + 1, x + j + 1);
    }
    for (ptrdiff_t j = n - 1; j >= 0; --j) {
        const ptrdiff_t m = min(ku, j);
        x[j] /= ab[j * ldab + ku];
        update(m, x[j], ab + j * ldab + ku - m, x + j - m);
    }
}
"""

FLAGS = ("-O3", "-ffp-contract=off", "-fPIC", "-shared")
COMPILER = "cc"
CACHE = Path(__file__).resolve().parent / "__pycache__"


def build(source: str = SOURCE, flags: tuple[str, ...] = FLAGS) -> Path:
    """The shared library of source compiled with flags, in :data:`CACHE`;
    compiled by :data:`COMPILER` only when it is not there yet.  Raises
    KernelBuildError, with the command and the compiler's stderr, when the
    compiler is missing or fails."""
    digest = hashlib.sha256("\0".join((source, *flags)).encode()).hexdigest()
    path = CACHE / f"bandlu-{digest}.so"
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
    return path


class Kernel:
    """The factor and solve of one built library (:func:`build`)."""

    def __init__(self, path: Path):
        lib = ctypes.CDLL(str(path))
        size = (ctypes.c_ssize_t,) * 3          # n, kl, ku
        band = np.ctypeslib.ndpointer(np.float64, ndim=2, flags="F_CONTIGUOUS,WRITEABLE")
        factors = np.ctypeslib.ndpointer(np.float64, ndim=2, flags="F_CONTIGUOUS")
        vector = np.ctypeslib.ndpointer(np.float64, ndim=1, flags="C_CONTIGUOUS,WRITEABLE")
        self.factor = lib.band_factor
        self.factor.argtypes = (*size, band)
        self.factor.restype = ctypes.c_ssize_t
        self.solve = lib.band_solve
        self.solve.argtypes = (*size, factors, vector)
        self.solve.restype = None


@functools.cache
def kernel() -> Kernel:
    """The kernel of :data:`SOURCE`, built on first use and loaded once per process."""
    return Kernel(build())


def _check(ab: np.ndarray, kl: int, ku: int) -> None:
    if kl < 0 or ku < 0 or ab.ndim != 2 or ab.shape[0] != kl + ku + 1:
        raise DimensionMismatch(f"band storage of shape {ab.shape} does not hold "
                                f"kl = {kl}, ku = {ku}")


def factor_band(ab: np.ndarray, kl: int, ku: int) -> int:
    """Factor the band storage ab in place without pivoting; 0, or the
    1-based column of the first exactly zero pivot."""
    _check(ab, kl, ku)
    return kernel().factor(ab.shape[1], kl, ku, ab)


def solve_band(lu: np.ndarray, kl: int, ku: int, x: np.ndarray) -> None:
    """Overwrite x with the solution of A x = x, lu A's :func:`factor_band`."""
    _check(lu, kl, ku)
    if x.shape != (lu.shape[1],):
        raise DimensionMismatch(f"right-hand side of shape {x.shape} for {lu.shape[1]} unknowns")
    kernel().solve(lu.shape[1], kl, ku, lu, x)
