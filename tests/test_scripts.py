"""Smoke test of the profiling scripts, which reach private names of capflow.forms."""

import importlib.util
import math
from pathlib import Path

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def load(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_fill_report_reports_the_band():
    fill_report = load("fill_report")
    fill_report.REPEATS = 1
    grid, n, nnz, kl, ku, pivoted, ms = fill_report.report(4, 8).split()
    assert grid == "4x8"
    assert int(n) > 0 and int(nnz) > int(n)
    assert 0 < int(kl) == int(ku) < int(n)
    assert 0.0 <= float(pivoted) <= 100.0
    assert math.isfinite(float(ms)) and float(ms) >= 0.0


def test_step_profile_times_every_phase():
    step_profile = load("step_profile")
    step_profile.REPEATS = 1
    rows = step_profile.phases(4, 8)
    assert len(rows) == 21
    assert all(math.isfinite(ms) and ms > 0 for _, ms in rows), rows
    step_profile.FAULT_STEPS = 3
    faults = step_profile.faults_per_step(4, 8)
    assert math.isfinite(faults) and faults >= 0
