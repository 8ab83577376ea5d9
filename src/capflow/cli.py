"""Command-line entry point.

capflow run --config tc1.cfg [--uncontrolled] [--snapshots N] [--out DIR]
capflow verify
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace
from pathlib import Path

from .acceptance import run_tc1_verification
from .config import load_config, num_params, phys_params
from .control import run_instantaneous_control
from .errors import CapflowError, ConfigError
from .observables import equilibrium_height, transient_time
from .writers import write_history_csv, write_vtk_snapshot


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="capflow",
        description="Axisymmetric capillary nozzle flow with instantaneous bottom-stress control")
    sub = parser.add_subparsers(dest="command")

    run = sub.add_parser("run", help="run a simulation from a config file")
    run.add_argument("--config", required=True, help="flat key = value config file")
    run.add_argument("--uncontrolled", action="store_true",
                     help="run without the controller: no gradient solve, gradient "
                          "recorded as 0 and zeta held (an alpha = 0 run still solves "
                          "for the gradient)")
    run.add_argument("--snapshots", type=int, default=None, metavar="N",
                     help="write a VTK snapshot every N steps")
    run.add_argument("--out", default=None, metavar="DIR", help="output directory")

    sub.add_parser("verify", help="run the reference test-case checks")
    return parser


def _cmd_run(args) -> int:
    cfg = load_config(args.config)
    if args.uncontrolled:
        cfg = replace(cfg, controlled=False)
    if args.snapshots is not None:
        if args.snapshots < 0:
            raise ConfigError("--snapshots must be nonnegative")
        cfg = replace(cfg, snapshot_every=args.snapshots)
    if args.out is not None:
        cfg = replace(cfg, out_dir=args.out)
    out = Path(cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)

    cadence = cfg.snapshot_every

    def snapshot(step, state):
        if cadence > 0 and step % cadence == 0:
            write_vtk_snapshot(state, out / f"snapshot_{step:05d}.vtk")

    phys = phys_params(cfg)
    history = run_instantaneous_control(
        phys, num_params(cfg), cfg.radius, cfg.init_height,
        controlled=cfg.controlled, snapshot_cb=snapshot if cadence > 0 else None)
    csv_path = out / "history.csv"
    write_history_csv(history, csv_path)
    print(f"wrote {csv_path} ({len(history.t)} rows)")
    if history.abort_reason is not None:
        print(f"run aborted at step {history.abort_step}: "
              f"{type(history.abort_reason).__name__}: {history.abort_reason}",
              file=sys.stderr)
        return 1
    z_inf = equilibrium_height(phys, cfg.radius)
    settle = transient_time(history, z_inf)
    print(f"settle time = {'not attained' if settle is None else f'{settle:.6g} s'} "
          f"(band around {z_inf:.4e} m)")
    largest = ", ".join(f"{what} {res:.3e}" for what, res in history.residuals.items())
    print(f"final t={history.t[-1]:.6g} s, Z_CL={history.z_cl[-1]:.6e} m, "
          f"zeta={history.zeta[-1]:.6e} m^2/s^2; largest relative residuals: {largest}")
    return 0


def _cmd_verify() -> int:
    results = run_tc1_verification()
    for res in results:
        print(res.line())
    return 0 if all(r.passed for r in results) else 1


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    if args.command is None:
        parser.print_usage(sys.stderr)
        return 2
    try:
        if args.command == "run":
            return _cmd_run(args)
        return _cmd_verify()
    except (CapflowError, OSError) as exc:     # OSError: creating or writing the outputs
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
