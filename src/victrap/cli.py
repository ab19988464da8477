"""Command-line front end.

Subcommands: ``run`` (integrate a config), ``preset`` (run a named scripted
experiment), ``sweep`` (run a sweep config), ``validate`` (built-in
self-checks).  Data goes to stdout or --out; diagnostics go to stderr.
Exit codes: 0 success, 1 usage/config error, 2 physicality or convergence
failure.
"""

from __future__ import annotations

import argparse
import contextlib
import math
import sys
from dataclasses import replace

import numpy as np

from . import liouvillian, observables
from .config import parse_config_full
from .errors import (
    ConfigError,
    InsufficientDataError,
    IntegrationError,
    InvalidParameterError,
    PhysicalityError,
    SimulationError,
)
from .experiments import PRESET_NAMES, SweepSpec, preset, run_with_steady, sweep
from .integrator import detect_steady_state, integrate
from .model import DriveConfig, Scenario, SystemParams, initial_metastable
from .output import emit_summary_json, emit_sweep_csv, emit_sweep_json, emit_trajectory_csv

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_PHYSICS = 2


class _Parser(argparse.ArgumentParser):
    """argparse exits with 2 on usage errors; this artifact reserves 2 for
    physics failures, so remap usage errors to 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="victrap", description=__doc__.split("\n")[0])
    parser.add_argument("--format", choices=("csv", "json"), default=None,
                        help="output format (default csv, or the config's [output] setting)")
    parser.add_argument("--quiet", action="store_true", help="suppress stderr diagnostics")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="integrate one scenario from a config file")
    p_run.add_argument("--config", required=True, metavar="PATH")
    p_run.add_argument("--out", default=None, metavar="PATH")

    p_preset = sub.add_parser("preset", help="run a named scripted experiment")
    p_preset.add_argument("name", choices=PRESET_NAMES)
    p_preset.add_argument("--out", default=None, metavar="PATH")

    p_sweep = sub.add_parser("sweep", help="run a parameter sweep from a config file")
    p_sweep.add_argument("--config", required=True, metavar="PATH")
    p_sweep.add_argument("--threads", type=int, default=1, metavar="N",
                         help="accepted for compatibility and ignored: sweep points run serially")
    p_sweep.add_argument("--out", default=None, metavar="PATH")

    sub.add_parser("validate", help="run the built-in physicality/property checks")
    return parser


def _say(args, message: str) -> None:
    if not args.quiet:
        print(message, file=sys.stderr)


@contextlib.contextmanager
def _open_sink(path: str | None):
    if path is None or path == "-":
        yield sys.stdout
    else:
        with open(path, "w", encoding="utf-8", newline="") as handle:
            yield handle


def _read_config(path: str) -> str:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return handle.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path!r}: {exc}") from exc


def _emit_run(args, traj, fmt: str, out_path: str | None) -> int:
    steady = traj.steady
    if steady is not None:
        _say(args, f"steady state at t={steady.time:g}: p1+p2={steady.doublet_population:.6f}, "
                   f"purity={steady.doublet_purity:.6f}, |rho21|={steady.abs_coherence_21:.6f}, "
                   f"converged={steady.converged}")
    if fmt == "json":
        if steady is None:
            _say(args, "error: no steady-state summary available for JSON output")
            return EXIT_PHYSICS
        with _open_sink(out_path) as sink:
            emit_summary_json(steady, sink, traj.stats)
    else:
        with _open_sink(out_path) as sink:
            emit_trajectory_csv(traj, sink)
    if steady is None or not steady.converged:
        return EXIT_PHYSICS
    return EXIT_OK


def _cmd_run(args) -> int:
    job, outopts = parse_config_full(_read_config(args.config))
    if isinstance(job, SweepSpec):
        _say(args, "error: config defines a sweep; use the sweep subcommand")
        return EXIT_USAGE
    fmt = args.format or outopts.format
    out_path = args.out or outopts.path
    traj = integrate(job)
    try:
        traj = traj.with_steady(detect_steady_state(traj))
    except InsufficientDataError as exc:
        _say(args, f"steady-state detection skipped: {exc}")
    return _emit_run(args, traj, fmt, out_path)


def _run_sweep(args, spec: SweepSpec, fmt: str, out_path: str | None) -> int:
    table = sweep(spec)
    n_flagged = sum(1 for row in table.rows if not row.converged)
    n_failed = sum(1 for row in table.rows if row.error is not None)
    _say(args, f"sweep finished: {len(table.rows)} points, "
               f"{n_flagged} not converged, {n_failed} failed")
    with _open_sink(out_path) as sink:
        if fmt == "json":
            emit_sweep_json(table, sink)
        else:
            emit_sweep_csv(table, sink)
    # Flagged (non-converged) rows are data; only hard per-point failures
    # make the sweep itself fail.
    return EXIT_PHYSICS if n_failed else EXIT_OK


def _cmd_sweep(args) -> int:
    job, outopts = parse_config_full(_read_config(args.config))
    if not isinstance(job, SweepSpec):
        _say(args, "error: config defines a single run (no [sweep] section); use the run subcommand")
        return EXIT_USAGE
    fmt = args.format or outopts.format
    out_path = args.out or outopts.path
    return _run_sweep(args, job, fmt, out_path)


def _cmd_preset(args) -> int:
    job = preset(args.name)
    fmt = args.format or "csv"
    if isinstance(job, SweepSpec):
        return _run_sweep(args, job, fmt, args.out)
    traj = run_with_steady(job)
    return _emit_run(args, traj, fmt, args.out)


def _self_checks():
    """Fast built-in checks behind the validate subcommand."""
    params = SystemParams()
    drive = DriveConfig()

    def check_rates():
        a = abs(params.gamma12 - math.sqrt(5.8 * 2.2)) < 1e-12
        b = abs(params.coherence_rate(2, 1) - 4.0) < 1e-12
        c = abs(params.coherence_rate(1, 0) - 2.9) < 1e-12
        return a and b and c

    def check_generator():
        rng = np.random.default_rng(7)
        for _ in range(50):
            m = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
            rho = m @ m.conj().T
            rho /= np.trace(rho).real
            full = liouvillian.master_rhs(0.3, rho, params, drive)
            if abs(np.trace(full)) > 1e-13:
                return False
            if np.max(np.abs(full - full.conj().T)) != 0.0:
                return False
            parts = liouvillian.coherent_only(0.3, rho, params, drive) + liouvillian.dissipator_only(rho, params)
            if not np.array_equal(parts, full):
                return False
        return True

    def check_dark_state():
        quiet = replace(drive, g01=0.0, g02=0.0)
        v = observables.dark_state_vector(params)
        rho = np.outer(v, v.conj())
        flat = np.max(np.abs(liouvillian.master_rhs(0.0, rho, params, quiet)))
        tilted = np.max(np.abs(liouvillian.master_rhs(
            0.0, rho, replace(params, theta=0.3), quiet)))
        return flat < 1e-12 and tilted > 1e-6

    def check_decay_oracle():
        scenario = Scenario(
            params=params,
            drive=replace(drive, g01=0.0, g02=0.0),
            initial_state=initial_metastable(),
            t_start=0.0,
            t_end=20.0,
        )
        traj = integrate(scenario)
        worst = np.max(np.abs(traj.column("rho33") - np.exp(-params.gamma03 * traj.times)))
        return worst < 1e-6

    def check_driven_physicality():
        scenario = replace(preset("fig2"), t_end=20.0)
        traj = integrate(scenario)  # raises on violation
        return traj.stats.max_trace_error <= scenario.trace_tol

    return (
        ("rate formulas", check_rates),
        ("generator trace/hermiticity/split", check_generator),
        ("dark-state invariance", check_dark_state),
        ("analytic decay", check_decay_oracle),
        ("driven-run physicality", check_driven_physicality),
    )


def _cmd_validate(args) -> int:
    failures = 0
    for name, check in _self_checks():
        try:
            ok = check()
        except SimulationError as exc:
            ok = False
            _say(args, f"  ({exc})")
        _say(args, f"check {name}: {'PASS' if ok else 'FAIL'}")
        if not ok:
            failures += 1
    if failures:
        _say(args, f"{failures} check(s) failed")
        return EXIT_PHYSICS
    return EXIT_OK


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "run":
            return _cmd_run(args)
        if args.command == "preset":
            return _cmd_preset(args)
        if args.command == "sweep":
            return _cmd_sweep(args)
        return _cmd_validate(args)
    except (ConfigError, InvalidParameterError) as exc:
        print(f"victrap: error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (PhysicalityError, IntegrationError, InsufficientDataError) as exc:
        print(f"victrap: physics failure: {exc}", file=sys.stderr)
        return EXIT_PHYSICS
    except OSError as exc:
        print(f"victrap: error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
