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
import time
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
from .experiments import PRESET_NAMES, SweepSpec, preset, sweep
from .integrator import detect_steady_state, integrate
from .model import DriveConfig, Scenario, SystemParams, coherence_decay_rate, initial_metastable
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
                         help="accepted for compatibility and ignored: sweep points run as lanes of one stepper")
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


def _run_single(args, scenario: Scenario, fmt: str, out_path: str | None) -> int:
    """Integrate, attach the steady state when the run is long enough for one, and emit."""
    traj = integrate(scenario)
    try:
        traj = traj.with_steady(detect_steady_state(traj))
    except InsufficientDataError as exc:
        if fmt == "json":  # a summary needs a verdict
            raise
        # The exit code says only that there is no verdict; say why, under --quiet too.
        print(f"steady-state detection skipped: {exc}", file=sys.stderr)
    steady = traj.steady
    if steady is not None:
        _say(args, f"steady state at t={steady.time:g}: p1+p2={steady.doublet_population:.6f}, "
                   f"purity={steady.doublet_purity:.6f}, |rho21|={steady.abs_coherence_21:.6f}, "
                   f"converged={steady.converged}")
    if fmt == "json":
        with _open_sink(out_path) as sink:
            emit_summary_json(steady, sink, traj.stats)
    else:
        with _open_sink(out_path) as sink:
            emit_trajectory_csv(traj, sink)
    if steady is None or not steady.converged:
        return EXIT_PHYSICS
    return EXIT_OK


def _flagged_and_failed(rows) -> tuple[int, int]:
    return sum(1 for row in rows if not row.converged), sum(1 for row in rows if row.error is not None)


def _run_sweep(args, spec: SweepSpec, fmt: str, out_path: str | None) -> int:
    start = time.perf_counter()

    def progress(rows, total: int) -> None:
        n_flagged, n_failed = _flagged_and_failed(rows)
        _say(args, f"sweep: {len(rows)}/{total} points, {n_failed} failed, {n_flagged} not converged, "
                   f"{time.perf_counter() - start:.2f} s")

    table = sweep(spec, progress=progress)
    n_flagged, n_failed = _flagged_and_failed(table.rows)
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


def _run_job(args, job: Scenario | SweepSpec, fmt: str, out_path: str | None) -> int:
    return (_run_sweep if isinstance(job, SweepSpec) else _run_single)(args, job, fmt, out_path)


_WRONG_KIND = {
    "run": "error: config defines a sweep; use the sweep subcommand",
    "sweep": "error: config defines a single run (no [sweep] section); use the run subcommand",
}


def _cmd_config(args) -> int:
    """``run`` and ``sweep``: a config of the subcommand's kind, with its [output] defaults."""
    job, outopts = parse_config_full(_read_config(args.config))
    if isinstance(job, SweepSpec) != (args.command == "sweep"):
        _say(args, _WRONG_KIND[args.command])
        return EXIT_USAGE
    return _run_job(args, job, args.format or outopts.format, args.out or outopts.path)


def _cmd_preset(args) -> int:
    return _run_job(args, preset(args.name), args.format or "csv", args.out)


def _self_checks():
    """Fast built-in checks behind the validate subcommand."""
    params = SystemParams()
    drive = DriveConfig()

    def check_rates():
        a = abs(params.gamma12 - math.sqrt(5.8 * 2.2)) < 1e-12
        b = abs(coherence_decay_rate(2, 1, params) - 4.0) < 1e-12
        c = abs(coherence_decay_rate(1, 0, params) - 2.9) < 1e-12
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
            parts = liouvillian.coherent_only(0.3, rho, drive) + liouvillian.dissipator_only(rho, params)
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
        if args.command in ("run", "sweep"):
            return _cmd_config(args)
        if args.command == "preset":
            return _cmd_preset(args)
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
