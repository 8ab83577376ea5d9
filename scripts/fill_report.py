#!/usr/bin/env python3
"""The band of the saddle system on refined grids, and its factorization.

For each grid, takes the second slab of the uncontrolled test-case-1 refill
and fills the band of its reduced saddle matrix with ``forms.band_storage``,
as ``forms.factorize`` does, in the pattern's vertex-by-vertex reverse
Cuthill-McKee order.  Prints the number of reduced dofs, the stored entries,
the band's kl and ku, the share of columns where dgbtrf's partial pivoting
swapped rows, and the median time of the dgbtrf call alone.  Pin BLAS to one thread
(OPENBLAS_NUM_THREADS=1) for comparable times.

    PYTHONPATH=src python scripts/fill_report.py
"""

import platform
import time
from dataclasses import replace

import numpy as np
import scipy
from scipy.linalg.lapack import dgbtrf

from capflow.acceptance import tc1_config
from capflow.config import num_params, phys_params
from capflow.forms import band_storage
from capflow.stepping import initial_state, step

GRIDS = ((16, 32), (32, 64), (64, 128))   # N1 x N3
REPEATS = 5                               # factorizations timed per grid


def report(n1: int, n3: int) -> str:
    cfg = replace(tc1_config(), N1=n1, N3=n3)
    phys, num = phys_params(cfg), num_params(cfg)
    state = initial_state(cfg.radius, cfg.init_height, num)
    state, _, _ = step(state, 0.0, phys, num)
    system = step(state, 0.0, phys, num)[2].system     # the LU itself is not kept
    matrix, band = system.matrix, system.pattern.band
    n = matrix.shape[0]
    ab = band_storage(system)
    times = []
    for _ in range(REPEATS):
        work = ab.copy(order="F")
        t0 = time.perf_counter()
        _, ipiv, info = dgbtrf(work, band.kl, band.ku, overwrite_ab=1)
        times.append(1e3 * (time.perf_counter() - t0))
        del work
    if info != 0:
        raise RuntimeError(f"{n1}x{n3}: dgbtrf returned info {info}")
    pivoted = float(np.mean(ipiv != np.arange(n)))     # scipy's ipiv is 0-based
    return (f"{n1}x{n3:<6} {n:>7} {matrix.nnz:>9} {band.kl:>5} {band.ku:>5} "
            f"{100 * pivoted:>8.1f} {float(np.median(times)):>10.2f}")


def main() -> None:
    print(f"# {platform.processor() or platform.machine()}, python {platform.python_version()}, "
          f"numpy {np.__version__}, scipy {scipy.__version__}; dgbtrf times are medians of "
          f"{REPEATS} in ms")
    print(f"{'grid':<9} {'ndof':>7} {'nnz':>9} {'kl':>5} {'ku':>5} {'pivoted%':>8} "
          f"{'dgbtrf ms':>10}")
    for n1, n3 in GRIDS:
        print(report(n1, n3), flush=True)


if __name__ == "__main__":
    main()
