#!/usr/bin/env python3
"""Size and speed of the factorization of the saddle system on refined grids.

For each grid, takes the second slab of the uncontrolled test-case-1 refill
and factors its reduced saddle matrix twice: as the banded LU every step
makes (``forms.factorize``, LAPACK dgbtrf in the bandwidth-reducing order
the assembly numbers its dofs in), and in sorted dof order with SuperLU's
default COLAMD ordering (what a step would do that factored with SuperLU and
ordered its columns itself).  Prints the number of reduced dofs, the stored
entries, the band's kl/ku and storage, L+U of the COLAMD factorization and
the median factor times.  Exits with an error if the banded LU is slower
than per-step COLAMD on any grid.  Pin BLAS to one thread
(OPENBLAS_NUM_THREADS=1) for comparable times.

    PYTHONPATH=src python scripts/fill_report.py
"""

import platform
import sys
import time
from dataclasses import replace

import numpy as np
import scipy
from scipy.sparse.linalg import splu

from capflow.acceptance import tc1_config
from capflow.config import num_params, phys_params
from capflow.forms import factorize
from capflow.stepping import initial_state, step

GRIDS = ((16, 32), (32, 64), (64, 128))   # N1 x N3
REPEATS = 3                               # factorizations timed per grid


def timed(fn, repeats):
    """(median wall time in ms, last result) of repeats calls of fn."""
    times, result = [], None
    for _ in range(repeats):
        result = None           # free the previous factorization first
        t0 = time.perf_counter()
        result = fn()
        times.append(1e3 * (time.perf_counter() - t0))
    return float(np.median(times)), result


def report(n1: int, n3: int) -> str:
    cfg = replace(tc1_config(), N1=n1, N3=n3)
    phys, num = phys_params(cfg), num_params(cfg)
    state = initial_state(cfg.radius, cfg.init_height, num)
    state, _, _, _ = step(state, 0.0, phys, num)
    _, _, system, lu = step(state, 0.0, phys, num)
    del lu
    matrix = system.matrix
    band_ms, lu = timed(lambda: factorize(system), REPEATS)
    kl, ku, band_size = lu.kl, lu.ku, lu.lu.size
    del lu
    ordered = np.argsort(system.free)                  # back to sorted dof order
    sorted_matrix = matrix[ordered][:, ordered].tocsc()
    colamd_ms, lu = timed(lambda: splu(sorted_matrix), REPEATS)
    colamd_fill = lu.L.nnz + lu.U.nnz
    del lu
    if band_ms > colamd_ms:
        sys.exit(f"{n1}x{n3}: the banded LU took {band_ms:.1f} ms, "
                 f"more than per-step COLAMD's {colamd_ms:.1f} ms")
    return (f"{n1}x{n3:<6} {matrix.shape[0]:>7} {matrix.nnz:>9} {kl:>5} {ku:>5} "
            f"{band_size:>11} {colamd_fill:>11} {band_ms:>9.1f} {colamd_ms:>10.1f}")


def main() -> None:
    print(f"# {platform.processor() or platform.machine()}, python {platform.python_version()}, "
          f"numpy {np.__version__}, scipy {scipy.__version__}; times are medians of "
          f"{REPEATS} in ms")
    print(f"{'grid':<9} {'ndof':>7} {'nnz':>9} {'kl':>5} {'ku':>5} {'band size':>11} "
          f"{'L+U COLAMD':>11} {'band ms':>9} {'COLAMD ms':>10}")
    for n1, n3 in GRIDS:
        print(report(n1, n3), flush=True)


if __name__ == "__main__":
    main()
