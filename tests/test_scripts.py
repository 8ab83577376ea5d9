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


def test_fill_report_loads():
    assert callable(load("fill_report").report)


def test_step_profile_times_every_phase():
    step_profile = load("step_profile")
    step_profile.REPEATS = 1
    rows = step_profile.phases(4, 8)
    assert len(rows) == 22
    assert all(math.isfinite(ms) and ms > 0 for _, ms in rows), rows
