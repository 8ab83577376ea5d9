#!/usr/bin/env python3
"""The band of the saddle system on refined grids, and its factorization.

For each grid, takes the second slab of the uncontrolled test-case-1 refill
and factors its reduced saddle matrix with ``forms.factorize``, whose band
comes from the pattern's vertex-by-vertex reverse Cuthill-McKee order.
Prints the number of reduced dofs, the stored entries, the band's kl and ku,
the envelope's share of the band storage, the factor's multiply-subtracts
within the envelope over those of the full band, the growth max|U|/max|A|
of the LU without pivoting, the median time of ``factorize`` (the zeroed
band storage, the scatter into it and the compiled kernel), the median time
of the kernel alone (``kernels.factor_band`` on a copy of the scattered
band, the copy untimed), which loops over the envelope alone and whose
compiler flags the header gives, and the kernel's rate: the envelope's
multiply-subtracts, the sum of lower[j] upper[j] over the columns, per ns.

    PYTHONPATH=src python scripts/fill_report.py
"""

import platform
import time
from dataclasses import replace

import numpy as np
import scipy

from capflow import kernels
from capflow.acceptance import tc1_config
from capflow.config import num_params, phys_params
from capflow.forms import band_storage, factorize
from capflow.stepping import initial_state, slab_system, step

GRIDS = ((16, 32), (32, 64), (64, 128))   # N1 x N3
REPEATS = 5                               # factorizations timed per grid


def report(n1: int, n3: int) -> str:
    cfg = replace(tc1_config(), N1=n1, N3=n3)
    phys, num = phys_params(cfg), num_params(cfg)
    state = initial_state(cfg.radius, cfg.init_height, num)
    state, _ = step(state, 0.0, phys, num)
    system, _ = slab_system(state, 0.0, phys, num)     # the second slab's
    matrix, band = system.matrix, system.pattern.band
    n = matrix.shape[0]
    last = n - 1 - np.arange(n)
    share = (n + band.lower.sum() + band.upper.sum()) / (band.ldab * n)
    # column j updates upper[j] later columns on lower[j] rows each
    updates = np.dot(band.lower, band.upper.astype(np.int64))
    work = updates / np.dot(np.minimum(band.kl, last), np.minimum(band.ku, last))
    times, kernel_times = [], []
    scattered = band_storage(system)
    for _ in range(REPEATS):
        t0 = time.perf_counter()
        lu = factorize(system)
        times.append(1e3 * (time.perf_counter() - t0))
        ab = scattered.copy(order="F")
        t0 = time.perf_counter()
        kernels.factor_band(ab, band)
        kernel_times.append(1e3 * (time.perf_counter() - t0))
    kernel_ms = float(np.median(kernel_times))
    return (f"{n1}x{n3:<6} {n:>7} {matrix.nnz:>9} {band.kl:>5} {band.ku:>5} {share:>8.3f} "
            f"{work:>8.3f} {lu.growth:>8.3f} {float(np.median(times)):>12.2f} "
            f"{kernel_ms:>9.2f} {updates / (1e6 * kernel_ms):>9.2f}")


def main() -> None:
    print(f"# {platform.processor() or platform.machine()}, python {platform.python_version()}, "
          f"numpy {np.__version__}, scipy {scipy.__version__}; kernel built with "
          f"{kernels.COMPILER} {' '.join(kernels.FLAGS)}; times are medians of {REPEATS} in "
          f"ms, the kernel's rate in multiply-subtracts per ns")
    print(f"{'grid':<9} {'ndof':>7} {'nnz':>9} {'kl':>5} {'ku':>5} {'envelope':>8} "
          f"{'work':>8} {'growth':>8} {'factorize ms':>12} {'kernel ms':>9} {'msub/ns':>9}")
    for n1, n3 in GRIDS:
        print(report(n1, n3), flush=True)


if __name__ == "__main__":
    main()
