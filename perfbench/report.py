"""Run every workload of BENCHMARK.json over several seeds and summarise.

Run from the root of a checkout:

    python3 perfbench/report.py              # every workload, seed 1
    python3 perfbench/report.py --seeds 10   # seeds 1..10

Each (workload, seed) pair is one fresh, untraced ``run.py`` process of
BENCHMARK.json's ``run_seconds``, run one after another.  For every
end-to-end metric the table gives the median over seeds, the first and
third quartile, their distance as a share of the median (the spread) and
the bound from BENCHMARK.json.

Every seed runs the same inputs, so every run's ``history.csv`` must be
byte-identical: a run whose history differs from the first run's marks the
workload not correct, and its repetitions count as failed.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

from stats import quartile_spread

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SHA_PREFIX = "# history_sha256 "


def run_once(workload: str, seed: int, seconds: int) -> tuple[dict, str]:
    """The result line of one run and the sha256 of its first history.csv."""
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"{' '.join(cmd)} exited with {proc.returncode}")
    lines = proc.stdout.strip().splitlines()
    sha = next(ln[len(SHA_PREFIX):] for ln in lines if ln.startswith(SHA_PREFIX))
    return json.loads(lines[-1]), sha


def summarise(results: list[dict]) -> dict:
    out = {}
    for key, first in results[0]["metrics"].items():
        vals = [r["metrics"][key]["value"] for r in results]
        entry = {"unit": first["unit"], "median": statistics.median(vals)}
        if len(vals) >= 2:
            q1, _, q3 = statistics.quantiles(vals, n=4)
            entry |= {"q1": q1, "q3": q3,
                      "spread": quartile_spread(vals) if entry["median"] else 0.0}
        out[key] = entry
    return out


def main(argv=None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=int, default=1, help="seeds 1..N per workload")
    args = parser.parse_args(argv)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    for wl in (w["name"] for w in bench["workloads"]):
        runs = [run_once(wl, seed, bench["run_seconds"]) for seed in range(1, args.seeds + 1)]
        results = [r for r, _ in runs]
        attempted = sum(r["attempted"] for r in results)
        failed = sum(r["failed"] for r in results)
        correct = all(r["correct"] for r in results)
        first_sha = runs[0][1]
        for r, sha in runs[1:]:
            if sha != first_sha:
                correct = False
                failed += r["attempted"] - r["failed"]
        print(f"== {wl}: {len(results)} runs, fail_ratio {failed}/{attempted}, "
              f"correct={correct}, history_sha256 "
              + ("identical" if all(sha == first_sha for _, sha in runs) else "DIFFERS"))
        for key, e in summarise(results).items():
            line = f"  {key:44s} {e['median']:14.6g} {e['unit']:6s}"
            if "spread" in e:
                line += f" q1 {e['q1']:.6g} q3 {e['q3']:.6g} spread {100 * e['spread']:.2f}%"
            if key in bounds:
                b = bounds[key]
                line += f"  bound {100 * b:.0f}%"
                if "spread" in e:
                    line += "  ok" if e["spread"] < b / 3 else "  WIDE (>= bound/3)"
            print(line, flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
