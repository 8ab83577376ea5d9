"""Smoke tests of scripts/step_profile.py, which reaches private names of
capflow.forms, on a coarse grid."""

import importlib.util
import math
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def load(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_step_profile_times_every_phase():
    step_profile = load("step_profile")
    step_profile.REPEATS = 1
    step_profile.RUN_STEPS = 2
    rows, band = step_profile.phases(4, 8)
    assert len(rows) == 21
    assert all(math.isfinite(ms) and ms > 0 for _, ms in rows[:-5]), rows
    # first the steps' phase clocks, each row named by its clock, with the
    # factor's kernel under the factor and a residual row under each solve;
    # then the whole step, the controlled one after the free one
    names = [name for name, _ in rows]
    assert [name.split(",")[0] for name in names if not name.startswith(" ")][:6] == [
        "ALE", "motion", "assembly", "factor", "solves", "solves"]
    assert names[names.index("factor") + 1] == "  factor kernel"
    # the set-ups once per topology under the motion
    assert names[names.index("motion") + 1:names.index("assembly")] == [
        "  radial table (once)", "  topology set-up (once)"]
    assert names[names.index("whole step") + 1] == "whole step, controlled"
    # the writers, the snapshot's fill and write apart
    assert names[-8:-5] == ["snapshot fill", "snapshot write", "history.csv (100 rows)"]
    for solve in ("solves, state", "solves, state + bottom load"):
        assert names[names.index(solve) + 1] == "  residual", solve
    # last, each phase's median time in a run, from its compiled clock
    assert names[-5:] == [f"in a run: {phase}" for phase in
                          ("ALE", "motion", "assembly", "factor", "solves")]
    assert all(math.isfinite(ms) and ms >= 0 for _, ms in rows[-5:]), rows
    assert band.split()[0] == "4x8"


def test_step_profile_prints_its_tables(capsys):
    """main() prints the phase table with the page faults, counted in a fresh
    process, and Python calls per step under it, at most 41 and none in
    SciPy, so the Python around the step cannot grow unseen, then the band
    table, of the one grid that --grid names."""
    step_profile = load("step_profile")
    step_profile.REPEATS = 1
    step_profile.FAULT_STEPS = 3
    step_profile.PROFILE_STEPS = 2
    step_profile.RUN_FILES = 2
    step_profile.RUN_STEPS = 2
    step_profile.main(["--grid", "4", "8"])
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 27     # header, 2 + 21 phase rows, faults, calls, 2 band rows
    assert lines[0].startswith("# ") and lines[1].split() == ["phase", "4x8"]
    label, faults = lines[23].rsplit(None, 1)
    assert label == "minor faults / step" and float(faults) >= 0
    label, calls, scipy_calls = lines[24].rsplit(None, 2)
    assert label == "python calls / step (scipy)"
    # the step's glue around its one compiled call, none in SciPy
    assert 0 < float(calls) <= 41 and scipy_calls == "(0)"
    assert lines[25].split() == ["grid", "ndof", "nnz", "kl", "ku", "envelope", "work",
                                 "growth", "msub/ns"]
    grid, n, nnz, kl, ku, envelope, work, growth, rate = lines[26].split()
    assert grid == "4x8"
    assert int(n) > 0 and int(nnz) > int(n)
    assert 0 < int(kl) == int(ku) < int(n)
    assert 0.0 < float(envelope) <= 1.0 and 0.0 < float(work) <= 1.0
    assert 0.0 < float(growth) <= 10.0
    assert math.isfinite(float(rate)) and float(rate) > 0.0


@pytest.mark.parametrize("argv, grids", [([], [(16, 32), (32, 64), (64, 128)]),
                                         (["--grid", "4", "8"], [(4, 8)])],
                         ids=["all three", "one"])
def test_step_profile_profiles_the_grids_it_is_given(monkeypatch, capsys, argv, grids):
    """Without --grid, the three grids in turn, each a column; with it, that
    grid alone."""
    step_profile = load("step_profile")
    profiled = []

    def phases(n1, n3):
        profiled.append((n1, n3))
        return [("ALE", 1.0)], f"{n1}x{n3}"

    monkeypatch.setattr(step_profile, "phases", phases)
    monkeypatch.setattr(step_profile, "faults_per_step", lambda n1, n3: 0.0)
    monkeypatch.setattr(step_profile, "calls_per_step", lambda n1, n3: (0.0, 0.0))
    step_profile.main(argv)
    assert profiled == grids
    lines = capsys.readouterr().out.splitlines()
    assert lines[1].split() == ["phase", *(f"{n1}x{n3}" for n1, n3 in grids)]
    assert lines[-len(grids):] == [f"{n1}x{n3}" for n1, n3 in grids]


@pytest.mark.parametrize("argv, code", [
    (["--help"], 0), (["--bogus"], 2), (["--faults", "4"], 2), (["--grid", "4"], 2),
    (["--grid", "4", "x"], 2)], ids=["help", "unknown", "short faults", "short grid", "bad grid"])
def test_step_profile_parses_its_arguments(monkeypatch, capsys, argv, code):
    """--help prints the usage and exits 0, and an argument the script does
    not take exits 2; neither profiles anything."""
    step_profile = load("step_profile")

    def no_profile(*args):
        raise AssertionError("profiled")

    for name in ("phases", "count_faults", "calls_per_step"):
        monkeypatch.setattr(step_profile, name, no_profile)
    with pytest.raises(SystemExit) as exited:
        step_profile.main(argv)
    assert exited.value.code == code
    captured = capsys.readouterr()
    usage = (captured.out if code == 0 else captured.err).splitlines()[0]
    assert usage.startswith("usage: ") and usage.endswith("[--grid N1 N3] [--faults N1 N3 STEPS]")
