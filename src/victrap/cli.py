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
import functools
import gc
import math
import os
import shutil
import sys
import tempfile
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
from .integrator import integrate, stream_trajectory
from .model import DensityMatrix, DriveConfig, Scenario, SystemParams, coherence_decay_rate, initial_metastable
from .output import TRAJECTORY_CSV_HEADER, emit_summary_json, emit_sweep_csv, emit_sweep_json, emit_trajectory_rows

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_PHYSICS = 2


class _Parser(argparse.ArgumentParser):
    """argparse exits with 2 on usage errors; this artifact reserves 2 for
    physics failures, so remap usage errors to 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _thread_count(raw: str) -> int:
    try:
        count = int(raw)
    except ValueError:
        count = 0
    if count < 1:
        raise argparse.ArgumentTypeError(f"expected an integer N >= 1, got {raw!r}")
    return count


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
    p_sweep.add_argument("--threads", type=_thread_count, default=1, metavar="N",
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
    """The config's UTF-8 text less a byte-order mark, newlines as text mode reads them; over 1 MiB is an error."""
    try:
        with open(path, "rb") as handle:
            data = handle.read((1 << 20) + 1)  # two axes of 1,024 values take about 55 KB
        if len(data) > 1 << 20:
            raise ConfigError(f"config {path!r} is larger than 1 MiB")
        return data.decode("utf-8-sig").replace("\r\n", "\n").replace("\r", "\n")
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config {path!r}: {exc}") from exc


def _run_single(args, scenario: Scenario, fmt: str, out_path: str | None) -> int:
    """Integrate, keeping only the steady window, and emit once the run has succeeded.

    A CSV run writes its rows as they leave the recorder to a spool, an
    unnamed temporary file made before any stepping, in the --out directory
    or, for stdout, the temp directory; only a run that succeeds copies it
    to its destination, so a failed one writes nothing there.
    """
    with contextlib.ExitStack() as stack:
        if fmt == "json":
            steady, stats = stream_trajectory(scenario)
        else:
            directory = None if out_path is None or out_path == "-" else os.path.dirname(out_path) or "."
            spool = stack.enter_context(
                tempfile.TemporaryFile(mode="w+", encoding="utf-8", newline="", dir=directory)
            )
            spool.write(TRAJECTORY_CSV_HEADER + "\n")
            steady, stats = stream_trajectory(scenario, functools.partial(emit_trajectory_rows, sink=spool))
        if isinstance(steady, InsufficientDataError):
            if fmt == "json":  # a summary needs a verdict
                raise steady
            # The exit code says only that there is no verdict; say why, under --quiet too.
            print(f"steady-state detection skipped: {steady}", file=sys.stderr)
            steady = None
        else:
            _say(args, f"steady state at t={steady.time:g}: p1+p2={steady.doublet_population:.6f}, "
                       f"purity={steady.doublet_purity:.6f}, |rho21|={steady.abs_coherence_21:.6f}, "
                       f"converged={steady.converged}")
        with _open_sink(out_path) as sink:
            if fmt == "json":
                emit_summary_json(steady, sink, stats)
            else:
                spool.seek(0)
                shutil.copyfileobj(spool, sink)
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
    if out_path is not None and out_path != "-":
        # Refused before any stepping; the file itself is opened only to write the result.
        directory, name = os.path.split(out_path)
        directory = directory or "."
        if not name or os.path.isdir(out_path):
            raise ConfigError(f"output path {out_path!r} is a directory or has no file name")
        if not os.path.isdir(directory) or not os.access(directory, os.W_OK):
            raise ConfigError(f"output path {out_path!r}: no writable directory {directory!r}")
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
        # The packed L0 damps both parts of each coherence, in packed order,
        # at its coherence_decay_rate; theta and gamma_coll are nonzero so
        # that every rate enters.
        tilted = replace(params, theta=0.4, gamma_coll=0.25)
        damping = -np.diagonal(liouvillian.decay_generator(tilted))[4:]
        pairs = ((1, 0), (2, 0), (2, 1), (3, 0), (3, 1), (3, 2))
        rates = [coherence_decay_rate(i, j, tilted) for i, j in pairs for _ in ("re", "im")]
        return abs(params.gamma12 - math.sqrt(5.8 * 2.2)) < 1e-12 and np.array_equal(damping, rates)

    def check_generator():
        rng = np.random.default_rng(7)
        for _ in range(50):
            m = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
            rho = m @ m.conj().T
            rho = DensityMatrix(rho / np.trace(rho).real)
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
        rho = DensityMatrix(np.outer(v, v.conj()))
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


def run() -> int:
    """Process entry point of the console script and ``python -m victrap.cli``.

    Freezes the objects alive at entry, the modules, classes and constants
    the imports made, so that interpreter shutdown no longer collects them
    one by one; it still flushes stdout and runs the atexit handlers.  What
    ``main`` allocates is collected as before.  Code that imports victrap
    calls ``main``, which leaves its caller's heap alone.
    """
    gc.freeze()
    return main()


if __name__ == "__main__":
    sys.exit(run())
