#!/usr/bin/env python3
"""Time of each phase of one slab step, and the band of its saddle matrix,
on refined grids.

For each grid, advances the controlled test-case-1 refill three slabs and
takes the fourth REPEATS times, free and controlled, each step one compiled
call on the topology's workspace (``capflow.forms.Workspace``).  A phase's
row is the minimum over those steps of its own clock
(``StepDiagnostics.phase_ms``; the clocks are disjoint): the mesh-velocity
extension (ALE), the rest of the motion (the emptying guard and the
displacement), the assembly, the factor as a controlled step factors, with
the forward elimination of the state load and of the gradient's bottom load,
and the solves, the back-substitution and checks of the state load alone
(a free step's) and with the bottom load as a second row (a controlled
step's).  Under the factor, the factor kernel alone (on copies of the
scattered band and the loads, made untimed), and under each solve a
``residual`` row, its compiled checks alone on the step's solutions; the
radial table (built once per run) and the whole step, free and controlled,
are timed around their calls.  Each figure is the minimum over REPEATS, in
ms, except those of the two writers, the VTK snapshot of the state and a
history.csv of HISTORY_ROWS rows of random values at the columns' scales.
They are timed as a run meets them, over files that
already exist on disk: each writer first writes RUN_FILES files in a
temporary directory (as many as a 100-step run with a snapshot every step
writes) and flushes each with fsync, as the files of an earlier run are,
rewrites one untimed, then rewrites each once, and its row is the median of
those rewrites.  The minimum of rewrites of one file hides what freeing a
file's blocks costs.  Last come the phases as a run meets them: the median
over RUN_STEPS controlled steps of each phase's clock.
Two lines follow the table: the median number of minor page faults per step
(ru_minflt) over a FAULT_STEPS-step controlled run of each grid, counted
between the run's per-step callbacks in a fresh process per grid, so that
no earlier grid's heap enters, and cProfile's function calls per controlled
step, all of them and those in SciPy, counted per code object, from a run
of 1 + PROFILE_STEPS steps less a run of one (which builds the patterns and
the workspace), both after a one-step run that loads the kernels.  Pin BLAS
to one thread (OPENBLAS_NUM_THREADS=1) for comparable times.  The factor
kernel and the residual checks are called through the tests' wrappers of
the kernels (``tests/compiled.py``, which needs numpy and capflow alone),
found from this checkout.
Last comes the band table, one row per grid, on the profiled slab's saddle
system: the number of reduced dofs and of stored entries (from the
pattern's ``indptr`` and ``indices``), the band's kl and ku, the
envelope's share of the band storage, the factor's multiply-subtracts
within the envelope over those of the full band, the growth max|U|/max|A|
of the LU without pivoting that the factor kernel row made, and the factor
kernel's rate: the envelope's multiply-subtracts, the sum of lower[j]
upper[j] over the columns, per ns of that row's minimum.

    PYTHONPATH=src python scripts/step_profile.py
"""

import argparse
import cProfile
import os
import platform
import resource
import subprocess
import sys
import tempfile
import time
from dataclasses import replace
from pathlib import Path

import numpy as np

from capflow import forms, kernels
from capflow.acceptance import tc1_config
from capflow.config import num_params, phys_params
from capflow.control import RunHistory, run_instantaneous_control
from capflow.stepping import initial_state, slab_system, step
from capflow.writers import write_history_csv, write_vtk_snapshot

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))
from tests.compiled import band_storage, factor_band, residual  # noqa: E402

GRIDS = ((16, 32), (32, 64), (64, 128))  # N1 x N3
REPEATS = 20                    # calls per phase; the minimum is reported
ZETA = 1e-4                     # bottom control stress held over the slabs
FAULT_STEPS = 20                # steps of the run whose page faults are counted
HISTORY_ROWS = 100              # rows of the timed history.csv
RUN_FILES = 101                 # files a writer rewrites: a 100-step run's snapshots
PROFILE_STEPS = 10              # steady steps whose function calls are counted
RUN_STEPS = 20                  # controlled steps whose phase times are read


def best_ms(fn, prepare=None):
    """Minimum wall time in ms of REPEATS calls of fn(prepare()), prepare untimed."""
    best = float("inf")
    for _ in range(REPEATS):
        arg = prepare() if prepare is not None else None
        t0 = time.perf_counter()
        fn(arg)
        best = min(best, time.perf_counter() - t0)
    return 1e3 * best


def clocks_ms(state, phys, num, gradient: bool) -> dict[str, float]:
    """The minimum over REPEATS steps from state of each phase's clock and,
    as "step", of the whole step's wall time, in ms."""
    best = dict.fromkeys(("step", *kernels.PHASES), float("inf"))
    for _ in range(REPEATS):
        t0 = time.perf_counter()
        _, diag = step(state, ZETA, phys, num, gradient=gradient)
        times = {"step": 1e3 * (time.perf_counter() - t0), **diag.phase_ms}
        best = {name: min(ms, times[name]) for name, ms in best.items()}
    return best


def phases(n1: int, n3: int) -> tuple[list[tuple[str, float]], str]:
    """The phase table's rows of the controlled test-case-1 refill's fourth
    slab on an n1 x n3 grid, after three at ZETA, and its band table's row."""
    cfg = replace(tc1_config(), N1=n1, N3=n3)
    phys, num = phys_params(cfg), num_params(cfg)
    state = initial_state(cfg.radius, cfg.init_height, num)
    for _ in range(3):
        state, _ = step(state, ZETA, phys, num)
    system = slab_system(state, ZETA, phys, num)
    x = forms.workspace(state.mesh.topology).x.copy()   # the controlled step's solutions
    band = system.pattern.band
    scattered = band_storage(system)
    loads = np.stack((system.rhs, system.bottom_load))
    factored = [None]       # the factor kernel's last copy of the band

    def copies():
        factored[0] = scattered.copy(order="F")
        return factored[0], band, loads.copy()

    free, controlled = (clocks_ms(state, phys, num, gradient) for gradient in (False, True))
    kernel_ms = best_ms(lambda args: factor_band(*args), copies)
    rows = [
        ("ALE", controlled["ALE"]),
        ("motion", controlled["motion"]),
        ("  radial table (once)", best_ms(lambda _: forms._radial_table(state.mesh.topology))),
        ("assembly", controlled["assembly"]),
        ("factor", controlled["factor"]),
        ("  factor kernel", kernel_ms),
        ("solves, state", free["solves"]),
        ("  residual", residual_ms(system, x[:1])),
        ("solves, state + bottom load", controlled["solves"]),
        ("  residual", residual_ms(system, x)),
        ("whole step", free["step"]),
        ("whole step, controlled", controlled["step"]),
        *writers_ms(state, num.dt),
        *run_phases_ms(state, phys, num),
    ]
    growth = np.abs(factored[0][:band.ku + 1]).max() / np.abs(system.data).max()
    return rows, band_row(n1, n3, system, kernel_ms, growth)


def run_phases_ms(state, phys, num) -> list[tuple[str, float]]:
    """The median over RUN_STEPS controlled steps from state of each phase's
    wall time, as its compiled clock records it (``phase_ms``)."""
    times = []
    for _ in range(RUN_STEPS):
        state, diag = step(state, ZETA, phys, num, gradient=True)
        times.append(diag.phase_ms)
    return [(f"in a run: {name}", float(np.median([t[name] for t in times])))
            for name in kernels.PHASES]


def band_row(n1: int, n3: int, system, kernel_ms: float, growth: float) -> str:
    """The band table's row of the grid's profiled slab system, its rate from
    the factor kernel's minimum kernel_ms."""
    pattern = system.pattern
    layout = pattern.band
    n = len(pattern.indptr) - 1
    last = n - 1 - np.arange(n)
    share = (n + layout.lower.sum() + layout.upper.sum()) / (layout.ldab * n)
    # column j updates upper[j] later columns on lower[j] rows each
    updates = np.dot(layout.lower, layout.upper.astype(np.int64))
    work = updates / np.dot(np.minimum(layout.kl, last), np.minimum(layout.ku, last))
    return (f"{f'{n1}x{n3}':<9} {n:>7} {len(pattern.indices):>9} {layout.kl:>5} {layout.ku:>5} "
            f"{share:>8.3f} {work:>8.3f} {growth:>8.3f} {updates / (1e6 * kernel_ms):>9.2f}")


def residual_ms(system, x) -> float:
    """The compiled residual checks of the solutions x, (k, n), of system's
    first k loads, on their own: the second half of the solve kernel's call."""
    k, n = x.shape
    rhs = np.stack((system.rhs, system.bottom_load)[:k])
    out = np.empty((k, n + 2))
    return best_ms(lambda _: residual(system.pattern, system.data, rhs, x, out))


def writers_ms(state, dt: float) -> list[tuple[str, float]]:
    """write_vtk_snapshot of the state, and write_history_csv of HISTORY_ROWS
    rows (t, Z_CL, zeta, J increment, gradient, max |u|) at the columns'
    scales, each timed by :func:`rewrite_ms`."""
    history = RunHistory()
    rng = np.random.default_rng(0)
    for k in range(HISTORY_ROWS):
        history.append(k * dt, *(rng.standard_normal(5) * (1e-4, 1e-4, 1e-15, 1e-12, 1e-2)))
    return [("VTK snapshot", rewrite_ms(lambda path: write_vtk_snapshot(state, path))),
            (f"history.csv ({HISTORY_ROWS} rows)",
             rewrite_ms(lambda path: write_history_csv(history, path)))]


def rewrite_ms(write) -> float:
    """Median wall time in ms of write(path) over RUN_FILES files that write
    made and fsync flushed beforehand."""
    with tempfile.TemporaryDirectory() as tmp:
        paths = [Path(tmp) / f"{k:05d}" for k in range(RUN_FILES)]
        for path in paths:
            write(path)
            with open(path, "rb") as fh:
                os.fsync(fh.fileno())
        write(paths[0])                 # untimed: the first rewrite pays a warm-up
        times = []
        for path in paths:
            t0 = time.perf_counter()
            write(path)
            times.append(time.perf_counter() - t0)
    return 1e3 * float(np.median(times))


def faults_per_step(n1: int, n3: int) -> float:
    """Median minor page faults per step of a FAULT_STEPS-step controlled
    run, counted in a fresh process (:func:`count_faults`)."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(p for p in sys.path if p)}
    proc = subprocess.run([sys.executable, __file__, "--faults", str(n1), str(n3),
                           str(FAULT_STEPS)], capture_output=True, text=True, env=env, check=True)
    return float(proc.stdout)


def count_faults(n1: int, n3: int, steps: int) -> float:
    """Median minor page faults per step of a steps-step controlled run."""
    cfg = replace(tc1_config(), N1=n1, N3=n3)
    phys, num = phys_params(cfg), replace(num_params(cfg), T=steps * cfg.dt)
    faults = []

    def count(n, state):
        faults.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt)

    run_instantaneous_control(phys, num, cfg.radius, cfg.init_height, controlled=True,
                              snapshot_cb=count)
    return float(np.median(np.diff(faults)))


def calls_per_step(n1: int, n3: int) -> tuple[float, float]:
    """cProfile's function calls per step of a controlled run, all of them and
    those in SciPy: a run of 1 + PROFILE_STEPS steps less a run of one, over
    PROFILE_STEPS, after an uncounted one-step run that loads the kernels."""
    cfg = replace(tc1_config(), N1=n1, N3=n3)

    def calls(steps: int) -> tuple[int, int]:
        profile = cProfile.Profile()
        profile.runcall(run_instantaneous_control, phys_params(cfg),
                        replace(num_params(cfg), T=steps * cfg.dt), cfg.radius, cfg.init_height,
                        controlled=True)
        # per code object: pstats keys by (file, line, name) and keeps one of
        # the dataclasses' __init__s, which all read ("<string>", 2, "__init__")
        entries = [(e.callcount, e.code if isinstance(e.code, str)
                    else f"{e.code.co_filename} {e.code.co_name}") for e in profile.getstats()]
        return sum(n for n, _ in entries), sum(n for n, where in entries if "scipy" in where)

    calls(1)
    (total, scipy_calls), (total_more, scipy_more) = calls(1), calls(1 + PROFILE_STEPS)
    return (total_more - total) / PROFILE_STEPS, (scipy_more - scipy_calls) / PROFILE_STEPS


def main(argv: list[str] | None = None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--faults", nargs=3, type=int, metavar=("N1", "N3", "STEPS"),
                        help="internal: print the median minor page faults per step of one "
                             "grid's STEPS-step controlled run, counted in this process, "
                             "and nothing else")
    args = parser.parse_args(argv)
    if args.faults:
        print(count_faults(*args.faults))
        return
    print(f"# {platform.processor() or platform.machine()}, python {platform.python_version()}, "
          f"numpy {np.__version__}; kernels built with {kernels.COMPILER} "
          f"{' '.join(kernels.FLAGS)}; min of {REPEATS} calls (writers: median of {RUN_FILES} "
          f"rewrites), ms; the factor kernel's rate in multiply-subtracts per ns")
    columns, bands = zip(*(phases(n1, n3) for n1, n3 in GRIDS))
    print(f"{'phase':<30}" + "".join(f"{f'{n1}x{n3}':>10}" for n1, n3 in GRIDS))
    for i, (name, _) in enumerate(columns[0]):
        print(f"{name:<30}" + "".join(f"{col[i][1]:>10.3f}" for col in columns))
    print(f"{'minor faults / step':<30}"
          + "".join(f"{faults_per_step(n1, n3):>10.0f}" for n1, n3 in GRIDS))
    calls = [calls_per_step(n1, n3) for n1, n3 in GRIDS]
    print(f"{'python calls / step (scipy)':<30}"
          + "".join(f"{f'{total:.0f} ({scipy_calls:.0f})':>10}" for total, scipy_calls in calls))
    print(f"{'grid':<9} {'ndof':>7} {'nnz':>9} {'kl':>5} {'ku':>5} {'envelope':>8} "
          f"{'work':>8} {'growth':>8} {'msub/ns':>9}")
    print("\n".join(bands))


if __name__ == "__main__":
    main()
