"""Smoke tests of the scripts: the profiling scripts, which reach private
names of capflow.forms, and the two test-case runs on a coarse, short copy of
their configurations."""

import csv
import importlib.util
import math
import sys
from dataclasses import replace
from pathlib import Path

import pytest

from capflow.writers import CSV_HEADER

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def load(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_fill_report_reports_the_band():
    fill_report = load("fill_report")
    fill_report.REPEATS = 1
    grid, n, nnz, kl, ku, envelope, work, growth, ms, kernel_ms, rate = (
        fill_report.report(4, 8).split())
    assert grid == "4x8"
    assert int(n) > 0 and int(nnz) > int(n)
    assert 0 < int(kl) == int(ku) < int(n)
    assert 0.0 < float(envelope) <= 1.0 and 0.0 < float(work) <= 1.0
    assert 0.0 < float(growth) <= 10.0
    assert math.isfinite(float(ms)) and float(ms) >= 0.0
    assert math.isfinite(float(kernel_ms)) and float(kernel_ms) >= 0.0
    assert float(rate) > 0.0


def test_step_profile_times_every_phase():
    step_profile = load("step_profile")
    step_profile.REPEATS = 1
    rows = step_profile.phases(4, 8)
    assert len(rows) == 22
    assert all(math.isfinite(ms) and ms > 0 for _, ms in rows), rows
    # the factor's kernel under the factorization, the controlled step after
    # the free one, a residual row under each solve
    names = [name for name, _ in rows]
    assert names[names.index("factorize") + 1] == "  factor kernel"
    assert names[names.index("whole step") + 1] == "whole step, controlled"
    for solve in ("ALE extension", "state solve", "state + bottom-load solve"):
        assert "  residual" in names[names.index(solve) + 1:names.index(solve) + 3], solve
    step_profile.FAULT_STEPS = 3
    faults = step_profile.faults_per_step(4, 8)
    assert math.isfinite(faults) and faults >= 0
    step_profile.PROFILE_STEPS = 2
    calls, scipy_calls = step_profile.calls_per_step(4, 8)
    assert calls > 0 and scipy_calls == 0


@pytest.mark.parametrize("name, config, extra",
                         [("run_testcase1", "tc1_config", []),
                          ("run_testcase2", "tc2_config", ["--snapshots", "1"])],
                         ids=["tc1", "tc2"])
def test_run_script_writes_its_outputs(monkeypatch, tmp_path, name, config, extra):
    script = load(name)
    full = getattr(script, config)()
    monkeypatch.setattr(script, config, lambda: replace(full, N1=4, N3=4, T=3 * full.dt))
    monkeypatch.setattr(sys, "argv", [name, "--out", str(tmp_path), *extra])
    script.main()
    case = name[-1]
    for run in ("uncontrolled", "controlled"):
        with open(tmp_path / f"tc{case}_{run}.csv", newline="") as f:
            header, *rows = list(csv.reader(f))
        assert ",".join(header) == CSV_HEADER
        assert len(rows) == 4       # the initial state and 3 steps
    vtk = sorted(p.name for p in tmp_path.glob("*.vtk"))
    assert vtk == ([f"rise_{k:05d}.vtk" for k in range(4)] if case == "2" else [])
