"""capflow benchmark: ms per step and time to solution on nozzle refills.

Run from the root of a checkout:

    python3 perfbench/run.py --workload tc1-free --seed 1 --seconds 25 --trace 0

One invocation runs one workload in this fresh process.  It repeats the
workload's whole horizon until ``--seconds`` of measuring are used, but
at least twice (four times when traced), so a workload whose horizon is
longer than half of ``--seconds`` measures for longer.  It checks every
repetition and prints a table of the metrics followed, as the last line,
by one JSON object: ``{"correct", "attempted", "failed", "metrics"}``.
``--trace 0`` reports the end-to-end metrics; ``--trace 1`` alternates
untraced and traced repetitions and reports the per-layer spans.  Full results, spans and the
machine record go to ``.perfbench_out/`` in the checkout.

The workloads are fixed reference configurations whose correctness gates
are pinned to recorded trajectories, so ``--seed`` does not alter the
physics; it is recorded with the result.  See README.md beside this file.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import statistics
import subprocess
import sys
import traceback
from dataclasses import dataclass, field, replace
from pathlib import Path
from time import perf_counter

from stats import REFERENCE_MS, percentile, samples_beyond, scale_factors, tail_percentile

BLAS_THREADS = 1          # pinned below nproc: steadier on a shared machine
SETUP_PROBES = 7          # fresh processes timed for setup_s
MIN_REPS = 2              # the reproducibility gate needs two histories
MIN_TRACE_REPS = 4        # two untraced/traced pairs for the tracing overhead
HARD_STOP_S = 120.0       # never start another repetition after this
WARMUP_STEPS = 2
REFINED_RTOL = 1e-6       # refined-free Z_CL vs the recorded trajectory, relative to max |Z|

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"


@dataclass(frozen=True)
class Workload:
    controlled: bool
    snapshots: bool
    grid: tuple[int, int]


WORKLOADS = {
    "tc1-free": Workload(controlled=False, snapshots=True, grid=(16, 32)),
    "tc1-control": Workload(controlled=True, snapshots=False, grid=(16, 32)),
    "refined-free": Workload(controlled=False, snapshots=False, grid=(32, 64)),
}

# shares of the traced step stated when the benchmark was defined, printed beside
# the measured ones
EXPECTED_SHARE = {
    ("assembly", "tc1-free"): "38%", ("assembly", "tc1-control"): "44%",
    ("assembly", "refined-free"): "29%", ("linalg", "refined-free"): "62% (factorization)",
    ("adjoint", "tc1-control"): "45% (with 2nd state_blocks)",
    ("mesh_motion", "tc1-free"): "6-10%", ("mesh_motion", "tc1-control"): "6-10%",
    ("mesh_motion", "refined-free"): "6-10%",
}


class CheckoutError(Exception):
    """The checkout lacks the program or its configuration."""


@dataclass
class Rep:
    traced: bool
    wall_s: float = 0.0
    # per step callback: (entry time, time the next step starts, yardstick ms)
    marks: list = field(default_factory=list)
    history_sha: str = ""
    ok: bool = False
    detail: str = ""

    @property
    def steps(self):
        """(start, end) of each step, the yardstick burst between them left out."""
        return [(a[1], b[0]) for a, b in zip(self.marks, self.marks[1:])]

    @property
    def wall_steps_ms(self):
        return [(b - a) * 1e3 for a, b in self.steps]

    @property
    def steps_ms(self):
        """Step times at the yardstick's reference speed."""
        f = scale_factors([m[2] for m in self.marks])
        return [ms * k for ms, k in zip(self.wall_steps_ms, f)]

    @property
    def run_s(self):
        """Time to solution, bursts left out, at the yardstick's reference speed:
        the scaled steps plus the rest (set-up, last snapshot, CSV) scaled by
        the repetition's median factor."""
        if len(self.marks) < 2:
            return self.wall_s
        f = scale_factors([m[2] for m in self.marks])
        wall = self.wall_steps_ms
        rest_ms = self.wall_s * 1e3 - sum(b - a for a, b, _ in self.marks) * 1e3 - sum(wall)
        return (sum(self.steps_ms) + rest_ms * statistics.median(f)) / 1e3


def pin_blas_threads() -> None:
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS)


def load_program():
    """Import capflow from this checkout's src/, never from an installed copy."""
    src = ROOT / "src"
    for need in (src / "capflow" / "__init__.py", ROOT / "configs" / "tc1.cfg"):
        if not need.is_file():
            raise CheckoutError(f"{need.relative_to(ROOT)} not found under {ROOT}")
    sys.path.insert(0, str(src))
    import capflow
    if Path(capflow.__file__).resolve().parent != (src / "capflow").resolve():
        raise CheckoutError(f"imported capflow from {capflow.__file__}, not {src}")


def measure_setup(grid) -> tuple[float, float]:
    """Median set-up time over fresh processes: (at reference speed, wall)."""
    scaled, wall = [], []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run([sys.executable, str(HERE / "setup_probe.py"), str(ROOT),
                               str(grid[0]), str(grid[1])],
                              capture_output=True, text=True, timeout=120, check=True)
        seconds, burst_ms = map(float, proc.stdout.split())
        wall.append(seconds)
        scaled.append(seconds * REFERENCE_MS / burst_ms)
    return statistics.median(scaled), statistics.median(wall)


def machine_record() -> dict:
    import numpy as np
    import scipy

    def blas(cfg):
        dep = cfg.CONFIG.get("Build Dependencies", {}).get("blas", {})
        return f"{dep.get('name', '?')} {dep.get('version', '?')}"

    git_sha = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
        git_sha = proc.stdout.strip() or None
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "capflow").glob("*.py")) + [ROOT / "configs" / "tc1.cfg"]:
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    cpu = "?"
    try:
        with open("/proc/cpuinfo", encoding="ascii", errors="replace") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), "?")
    except OSError:
        pass
    return {
        "git_sha": git_sha, "source_sha256": digest.hexdigest(),
        "python": sys.version.split()[0], "numpy": np.__version__, "scipy": scipy.__version__,
        "numpy_blas": blas(np.__config__), "scipy_blas": blas(scipy.__config__),
        "blas_threads": BLAS_THREADS, "nproc": os.cpu_count(), "cpu_model": cpu,
    }


class Runner:
    """Runs one workload's horizon and checks what it produced."""

    def __init__(self, name: str):
        from calibration import Yardstick
        from capflow import acceptance, config, control, observables, writers
        self.yardstick = Yardstick()
        self.burst = self.yardstick.burst
        self.name = name
        self.wl = WORKLOADS[name]
        self.cfg = replace(config.load_config(ROOT / "configs" / "tc1.cfg"),
                           N1=self.wl.grid[0], N3=self.wl.grid[1],
                           controlled=self.wl.controlled)
        self.phys = config.phys_params(self.cfg)
        self.num = config.num_params(self.cfg)
        self.nsteps = int(round(self.num.T / self.num.dt))
        self.acceptance, self.control = acceptance, control
        self.observables, self.writers = observables, writers
        self.out = OUT / name
        self.out.mkdir(parents=True, exist_ok=True)
        self.reference = None
        if name == "refined-free":
            ref = HERE / "reference" / "refined-free-zcl.txt"
            self.reference = [float(ln) for ln in ref.read_text().splitlines()
                              if ln and not ln.startswith("#")]

    def horizon(self, num, marks):
        writers = self.writers
        out = self.out
        burst = self.burst

        def on_step(n, state):
            entered = perf_counter()
            ms = burst()
            marks.append((entered, perf_counter(), ms))
            if self.wl.snapshots:
                writers.write_vtk_snapshot(state, out / f"snapshot_{n:05d}.vtk")

        # looked up at call time so that a traced run sees the wrapped function
        return self.control.run_instantaneous_control(
            self.phys, num, self.cfg.radius, self.cfg.init_height,
            controlled=self.wl.controlled, snapshot_cb=on_step)

    def warm_up(self) -> None:
        self.horizon(replace(self.num, T=WARMUP_STEPS * self.num.dt), [])

    def rep(self, traced: bool) -> Rep:
        rep = Rep(traced=traced)
        csv = self.out / "history.csv"
        try:
            t0 = perf_counter()
            hist = self.horizon(self.num, rep.marks)
            self.writers.write_history_csv(hist, csv)
            rep.wall_s = perf_counter() - t0
            rep.history_sha = hashlib.sha256(csv.read_bytes()).hexdigest()
            ok, rep.detail = self.check(hist)
            rep.ok = bool(ok)
        except Exception:       # a raising run is a failed run, not a crashed benchmark
            rep.wall_s = perf_counter() - t0
            rep.detail = "raised: " + traceback.format_exc(limit=3).strip().splitlines()[-1]
            traceback.print_exc(file=sys.stderr)
        return rep

    def check(self, hist) -> tuple[bool, str]:
        if hist.abort_reason is not None:
            return False, f"aborted at step {hist.abort_step}: {hist.abort_reason!r}"
        if len(hist.t) != self.nsteps + 1:
            return False, f"{len(hist.t)} rows, expected {self.nsteps + 1}"
        if self.name == "tc1-free":
            res = self.acceptance.criterion_uncontrolled(hist)
            return res.passed, res.detail
        if self.name == "tc1-control":
            return self.check_controlled(hist)
        return self.check_refined(hist)

    def check_controlled(self, hist) -> tuple[bool, str]:
        """Settling time, overshoot, final zeta and final height of the damped refill."""
        a = self.acceptance
        z_inf = self.observables.equilibrium_height(self.phys, self.cfg.radius, 0.0)
        tbar = self.observables.transient_time(hist, z_inf)
        zmax, zeta_end, z_end = max(hist.z_cl), abs(hist.zeta[-1]), hist.z_cl[-1]
        ok = (tbar is not None and tbar <= a.CONTROLLED_TBAR_MAX
              and zmax <= a.CONTROLLED_MAX * 1.05
              and zeta_end <= a.FINAL_ZETA_MAX
              and abs(z_end - a.LATE_MEAN) <= 0.005 * a.LATE_MEAN)
        return ok, (f"tbar={tbar} s (<= {a.CONTROLLED_TBAR_MAX}), max Z={zmax:.4e} "
                    f"(<= {a.CONTROLLED_MAX * 1.05:.3e}), |zeta(T)|={zeta_end:.2e} "
                    f"(<= {a.FINAL_ZETA_MAX:.0e}), Z(T)={z_end:.5e} (0.5% of {a.LATE_MEAN:.1e})")

    def check_refined(self, hist) -> tuple[bool, str]:
        """Z_CL against the trajectory recorded for this grid."""
        ref = self.reference
        if len(ref) != len(hist.z_cl):
            return False, f"{len(hist.z_cl)} Z_CL values, reference has {len(ref)}"
        err = max(abs(z - r) for z, r in zip(hist.z_cl, ref))
        tol = REFINED_RTOL * max(abs(r) for r in ref)
        return err <= tol, f"max |Z_CL - ref| = {err:.3e} m (<= {tol:.3e})"


def measure(runner: Runner, seconds: float, trace: bool):
    """Repeat the horizon for about ``seconds``; alternate traced reps if asked."""
    from tracing import Tracer
    tracer = Tracer() if trace else None
    runner.warm_up()
    reps = []
    start = perf_counter()
    while True:
        traced = trace and len(reps) % 2 == 1
        if traced:
            tracer.install()
            # a span of its own, so that the loop's self time leaves it out
            runner.burst = tracer.wrap("perfbench.yardstick", runner.yardstick.burst)
        try:
            reps.append(runner.rep(traced))
        finally:
            if traced:
                tracer.uninstall()
                runner.burst = runner.yardstick.burst
        elapsed = perf_counter() - start
        typical = statistics.median(r.wall_s for r in reps)
        enough = len(reps) >= (MIN_TRACE_REPS if trace else MIN_REPS)
        if enough and (elapsed + typical > seconds or elapsed > HARD_STOP_S):
            break
    first = reps[0].history_sha
    for r in reps[1:]:
        if r.ok and r.history_sha != first:
            r.ok, r.detail = False, "history.csv differs from the first repetition's"
    return reps, tracer


def end_to_end(reps, setup_s) -> dict:
    steps = [s for r in reps for s in r.steps_ms]
    failed = sum(not r.ok for r in reps)
    return {
        "step_ms.p50": (percentile(steps, 50), "ms"),
        "step_ms.p90": (tail_percentile(steps, 90), "ms"),
        "run_s": (statistics.median(r.run_s for r in reps), "s"),
        "setup_s": (setup_s[0], "s"),
        "peak_rss_mib": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MiB"),
        "pass_ratio": ((len(reps) - failed) / len(reps), "ratio"),
    }


def wall_clock(reps, setup_s) -> dict:
    """The end-to-end times unscaled, for the record."""
    steps = [s for r in reps for s in r.wall_steps_ms]
    return {"wall.step_ms.p50": (percentile(steps, 50), "ms"),
            "wall.step_ms.p90": (percentile(steps, 90), "ms"),
            "wall.run_s": (statistics.median(r.wall_s for r in reps), "s"),
            "wall.setup_s": (setup_s[1], "s")}


def overhead_pairs(reps) -> list[float]:
    """Per untraced/traced pair of repetitions, traced minus untraced step p50.

    The two ran at different moments, so they are compared at reference speed.
    """
    return [percentile(t.steps_ms, 50) - percentile(u.steps_ms, 50)
            for u, t in zip(reps[0::2], reps[1::2])]


def per_layer(reps, tracer) -> dict:
    from tracing import group_shares, layer_metrics
    # spans and the steps they fall in are wall times
    traced = [s for r in reps if r.traced for s in r.wall_steps_ms]
    steps = [st for r in reps if r.traced for st in r.steps]
    m = layer_metrics(tracer.spans, steps)
    m["trace.step_ms.p50"] = (percentile(traced, 50), "ms")
    m["trace.unaccounted_ms"] = (m["trace.step_ms.p50"][0] - m["trace.accounted_ms.p50"][0],
                                 "ms")
    m["trace.overhead_ms"] = (statistics.median(overhead_pairs(reps)), "ms")
    for g, pct in group_shares(tracer.spans, steps).items():
        m[f"share.{g}"] = (pct, "%")
    return m


def print_table(metrics: dict, name: str, trace: bool) -> None:
    for key, (val, unit) in metrics.items():
        note = ""
        if trace and key.startswith("share."):
            note = f"   stated: {EXPECTED_SHARE.get((key[6:], name), '-')}"
        print(f"{name:13s} {key:44s} {val:14.6g} {unit}{note}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    pin_blas_threads()
    try:
        load_program()
    except CheckoutError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2

    name, trace = args.workload, bool(args.trace)
    runner = Runner(name)
    setup_s = None if trace else measure_setup(runner.wl.grid)
    reps, tracer = measure(runner, args.seconds, trace)
    failed = sum(not r.ok for r in reps)
    nsteps = sum(len(r.steps_ms) for r in reps if r.traced == trace)
    enough = samples_beyond(nsteps, 90) >= 10
    metrics = per_layer(reps, tracer) if trace else end_to_end(reps, setup_s)
    wall = {} if trace else wall_clock(reps, setup_s)
    correct = failed == 0 and enough

    meta = machine_record() | {"workload": name, "seed": args.seed,
                               "seconds": args.seconds, "trace": args.trace}
    tag = f"{name}-seed{args.seed}-trace{args.trace}"
    record = {"meta": meta, "correct": correct, "failed": failed,
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
              "wall": {k: {"value": v, "unit": u} for k, (v, u) in wall.items()},
              "reps": [{"traced": r.traced, "run_s": r.run_s, "wall_s": r.wall_s, "ok": r.ok,
                        "detail": r.detail, "history_sha256": r.history_sha} for r in reps]}
    if trace:
        record["untraced_functions"] = tracer.missing
        (OUT / f"{tag}-spans.json").write_text(json.dumps(
            [{"name": s[0], "parent": s[1], "start": s[2], "end": s[3], "attrs": s[4]}
             for s in tracer.spans]))
    (OUT / f"{tag}.json").write_text(json.dumps(record, indent=1))

    print("# machine " + json.dumps(meta))
    for i, r in enumerate(reps):
        print(f"# rep {i} traced={int(r.traced)} run_s={r.run_s:.4f} wall_s={r.wall_s:.4f} "
              f"{'ok' if r.ok else 'FAILED'}: {r.detail}")
    print(f"# history_sha256 {reps[0].history_sha}")
    if not enough:
        print(f"# too few steps for p90: {nsteps}")
    if tracer is not None and tracer.missing:
        print("# not traced (absent): " + ", ".join(tracer.missing))
    print(f"# fail_ratio = {failed}/{len(reps)}")
    if trace:
        m = {k: v for k, (v, _) in metrics.items()}
        print(f"# top-level spans cover {m['trace.accounted_ms.p50']:.3f} ms of the traced "
              f"step p50 {m['trace.step_ms.p50']:.3f} ms; the {m['trace.unaccounted_ms']:.3f} ms "
              f"left is the run loop's own time (self time "
              f"{m['control.run_instantaneous_control.self_ms']:.3f} ms/step); "
              f"tracing overhead {m['trace.overhead_ms']:.3f} ms, median of the pairs "
              + ", ".join(f"{d:.3f}" for d in overhead_pairs(reps)))
        print(f"# share.* are disjoint; the groups add up to "
              f"{100 - m['share.other']:.1f}% of the traced step")
    print_table(metrics | wall, name, trace)
    print(json.dumps({"correct": correct, "attempted": len(reps), "failed": failed,
                      "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
