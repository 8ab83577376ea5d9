"""Smoke tests of scripts/step_profile.py, which reaches private names of
capflow.forms, on a coarse grid."""

import importlib.util
import math
from pathlib import Path

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def load(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


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


def test_step_profile_prints_its_tables(capsys):
    """main() prints the phase table with the page faults and Python calls
    per step under it, none of the calls in SciPy, then the band table."""
    step_profile = load("step_profile")
    step_profile.GRIDS = ((4, 8),)
    step_profile.REPEATS = 1
    step_profile.FAULT_STEPS = 3
    step_profile.PROFILE_STEPS = 2
    step_profile.RUN_FILES = 2
    step_profile.main()
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 28     # header, 2 + 22 phase rows, faults, calls, 2 band rows
    assert lines[0].startswith("# ") and lines[1].split() == ["phase", "4x8"]
    label, faults = lines[24].rsplit(None, 1)
    assert label == "minor faults / step" and float(faults) >= 0
    label, calls, scipy_calls = lines[25].rsplit(None, 2)
    assert label == "python calls / step (scipy)"
    assert float(calls) > 0 and scipy_calls == "(0)"
    assert lines[26].split() == ["grid", "ndof", "nnz", "kl", "ku", "envelope", "work",
                                 "growth", "msub/ns"]
    grid, n, nnz, kl, ku, envelope, work, growth, rate = lines[27].split()
    assert grid == "4x8"
    assert int(n) > 0 and int(nnz) > int(n)
    assert 0 < int(kl) == int(ku) < int(n)
    assert 0.0 < float(envelope) <= 1.0 and 0.0 < float(work) <= 1.0
    assert 0.0 < float(growth) <= 10.0
    assert math.isfinite(float(rate)) and float(rate) > 0.0
