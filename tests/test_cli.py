import csv
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

import capflow.cli as cli
from capflow.acceptance import CriterionResult
from capflow.config import RunConfig, serialize_config


def tiny_config(tmp_path, **overrides) -> Path:
    fields = dict(N1=4, N3=4, T=0.01)
    fields.update(overrides)
    path = tmp_path / "tiny.cfg"
    path.write_text(serialize_config(replace(RunConfig(), **fields)))
    return path


def test_a_run_and_its_outputs_load_no_scipy(tmp_path):
    """The package needs numpy alone: a fresh process that imports capflow
    and its CLI, runs two controlled 4x4 steps and writes the history and a
    snapshot has loaded no SciPy module."""
    code = ("import sys\n"
            "from dataclasses import replace\n"
            "import capflow, capflow.cli\n"
            "from capflow.acceptance import tc1_config\n"
            "cfg = tc1_config()\n"
            "num = replace(capflow.num_params(cfg), N1=4, N3=4, T=2 * cfg.dt)\n"
            "states = []\n"
            "hist = capflow.run_instantaneous_control(\n"
            "    capflow.phys_params(cfg), num, cfg.radius, cfg.init_height, controlled=True,\n"
            "    snapshot_cb=lambda n, state: states.append(state))\n"
            "assert hist.abort_reason is None and len(states) == 3\n"
            "capflow.write_history_csv(hist, sys.argv[1] + '/history.csv')\n"
            "capflow.write_vtk_snapshot(states[-1], sys.argv[1] + '/snapshot.vtk')\n"
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n")
    proc = subprocess.run([sys.executable, "-c", code, str(tmp_path)], capture_output=True,
                          text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"
    assert len((tmp_path / "history.csv").read_text().splitlines()) == 4


def test_no_arguments_prints_usage(capsys):
    assert cli.main([]) == 2
    assert "usage" in capsys.readouterr().err.lower()


def test_unknown_flag_exits_nonzero():
    with pytest.raises(SystemExit) as exc:
        cli.main(["run", "--frobnicate"])
    assert exc.value.code != 0


def test_run_writes_history(tmp_path, capsys):
    cfg = tiny_config(tmp_path)
    out = tmp_path / "out"
    rc = cli.main(["run", "--config", str(cfg), "--out", str(out)])
    assert rc == 0
    hist = out / "history.csv"
    assert hist.exists()
    with open(hist, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 6           # T/dt + initial row
    assert "wrote" in capsys.readouterr().out


@pytest.mark.parametrize("flags", [[], ["--uncontrolled"]], ids=["controlled", "uncontrolled"])
def test_run_prints_the_largest_residuals(tmp_path, capsys, flags):
    """The final line gives the run's largest relative residual of each
    solve; an uncontrolled run makes no bottom-load solve."""
    cfg = tiny_config(tmp_path)
    assert cli.main(["run", "--config", str(cfg), "--out", str(tmp_path / "out"), *flags]) == 0
    final = capsys.readouterr().out.splitlines()[-1]
    head, largest = final.split("; largest relative residuals: ")
    assert head.startswith("final t=0.01 s, Z_CL=")
    residuals = dict(item.split() for item in largest.split(", "))
    assert list(residuals) == ["state", "bottom-load", "mesh-velocity"]
    values = {what: float(res) for what, res in residuals.items()}
    assert all(0.0 <= res <= 1e-10 for res in values.values())
    assert values["state"] > 0.0 and values["mesh-velocity"] > 0.0
    assert (values["bottom-load"] == 0.0) == bool(flags)


@pytest.mark.parametrize("flags", [[], ["--uncontrolled"]], ids=["controlled", "uncontrolled"])
@pytest.mark.parametrize("init_height, settle", [(5e-5, "not attained"), (0.999e-4, "0.002 s")],
                         ids=["rising", "near-rest"])
def test_run_prints_the_settling_time(tmp_path, capsys, flags, init_height, settle):
    """The line before the final one gives the time after which Z_CL stays
    within 0.1% of the equilibrium height, 1e-4 m here.  In 5 steps, a
    column rising from half of it does not settle; one 0.1% below it is
    outside the band at t = 0 and 0.002 s and inside it after."""
    cfg = tiny_config(tmp_path, init_height=init_height)
    assert cli.main(["run", "--config", str(cfg), "--out", str(tmp_path / "out"), *flags]) == 0
    line = capsys.readouterr().out.splitlines()[-2]
    assert line == f"settle time = {settle} (band around 1.0000e-04 m)"


def test_run_uncontrolled_flag(tmp_path):
    cfg = tiny_config(tmp_path)
    out = tmp_path / "out"
    assert cli.main(["run", "--config", str(cfg), "--uncontrolled", "--out", str(out)]) == 0
    with open(out / "history.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert all(float(r["zeta"]) == 0.0 for r in rows)


def test_run_snapshots(tmp_path):
    cfg = tiny_config(tmp_path)
    out = tmp_path / "out"
    assert cli.main(["run", "--config", str(cfg), "--snapshots", "2",
                     "--out", str(out)]) == 0
    snaps = sorted(out.glob("snapshot_*.vtk"))
    assert [p.name for p in snaps] == [f"snapshot_{k:05d}.vtk" for k in (0, 2, 4)]


def test_rerun_into_the_same_out_writes_the_same_files(tmp_path):
    """A second run into the same --out rewrites history.csv and every
    snapshot in place, to the bytes a run into a fresh directory writes."""
    cfg = tiny_config(tmp_path)
    outs = (tmp_path / "out", tmp_path / "out", tmp_path / "fresh")
    written = []
    for out in outs:
        assert cli.main(["run", "--config", str(cfg), "--snapshots", "2",
                         "--out", str(out)]) == 0
        written.append({p.name: p.read_bytes() for p in sorted(out.iterdir())})
    assert sorted(written[0]) == ["history.csv"] + [f"snapshot_{k:05d}.vtk" for k in (0, 2, 4)]
    assert written[0] == written[1] == written[2]


def test_run_aborted_simulation_exits_nonzero(tmp_path, capsys):
    cfg = tiny_config(tmp_path, N1=16, N3=32, alpha=5e8, lam=0.0, T=0.2)
    out = tmp_path / "out"
    rc = cli.main(["run", "--config", str(cfg), "--out", str(out)])
    assert rc == 1
    assert "DomainEmptied" in capsys.readouterr().err
    assert (out / "history.csv").exists()   # partial history still written


def test_unreadable_config_exits_nonzero(tmp_path, capsys):
    (tmp_path / "latin1.cfg").write_bytes("# caf\xe9\nT = 0.01\n".encode("latin-1"))
    for name in ("missing.cfg", "latin1.cfg"):     # absent, and not valid UTF-8
        rc = cli.main(["run", "--config", str(tmp_path / name)])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and name in err


def test_output_path_that_is_a_file_exits_nonzero(tmp_path, capsys):
    cfg = tiny_config(tmp_path)
    taken = tmp_path / "taken"
    taken.write_text("")
    assert cli.main(["run", "--config", str(cfg), "--out", str(taken)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "taken" in err
    assert taken.read_text() == ""


def test_invalid_config_value_exits_nonzero(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("dt = nan\n")
    assert cli.main(["run", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "'dt' must be finite" in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("T", [-1.0, 0.005], ids=["negative", "fractional-steps"])
def test_final_time_off_the_step_grid_exits_nonzero(tmp_path, capsys, T):
    # dt = 2e-3: T = -1 would run no step, T = 0.005 would stop at t = 0.004
    cfg = tiny_config(tmp_path, T=T)
    assert cli.main(["run", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "T must be a positive whole number" in err
    assert not (tmp_path / "out").exists()


def test_negative_snapshot_cadence_exits_nonzero(tmp_path, capsys):
    cfg = tiny_config(tmp_path)
    out = tmp_path / "out"
    assert cli.main(["run", "--config", str(cfg), "--snapshots", "-1", "--out", str(out)]) == 1
    assert capsys.readouterr().err.startswith("error: --snapshots must be nonnegative")
    assert not out.exists()


def test_verify_reports_and_aggregates(monkeypatch, capsys):
    results = [CriterionResult("a", True, "ok"), CriterionResult("b", True, "ok")]
    monkeypatch.setattr(cli, "run_tc1_verification", lambda: results)
    assert cli.main(["verify"]) == 0
    out = capsys.readouterr().out
    assert out.count("[PASS]") == 2
    results.append(CriterionResult("c", False, "bad"))
    assert cli.main(["verify"]) == 1
    assert "[FAIL] c" in capsys.readouterr().out
