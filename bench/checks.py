"""Output checks: every CLI output kind against a fixed-step RK4 reference.

One check function per output kind (trajectory CSV, summary JSON, sweep
CSV).  Each takes the bytes the CLI wrote, its exit code and the reference
for the workload, and returns a list of problems; an empty list means the
invocation is correct.  The column and key names below are the schemas
documented in the README, written out here so that the checks do not take
them from the program under test.  Extra trailing CSV columns and extra JSON
keys are allowed, so that documented additions do not break the benchmark.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

# Largest allowed difference between an output observable and the RK4 value.
TOL = 1e-5

STATE_COLUMNS = (
    "rho00", "rho11", "rho22", "rho33",
    "re_rho10", "im_rho10", "re_rho20", "im_rho20", "re_rho21", "im_rho21",
    "re_rho30", "im_rho30", "re_rho31", "im_rho31", "re_rho32", "im_rho32",
)
TRAJECTORY_COLUMNS = ("t",) + STATE_COLUMNS + ("doublet_purity", "trace_error", "min_eig")
SUMMARY_FLOATS = STATE_COLUMNS + (
    "time", "max_delta", "p_doublet", "doublet_purity", "abs_rho21",
    "trace_error", "min_eig", "max_trace_error", "min_eigenvalue_seen",
)
SUMMARY_COUNTS = ("steps_accepted", "steps_rejected", "rhs_evaluations")
SWEEP_VALUE_COLUMNS = ("p_doublet", "purity", "abs_rho21", "converged")

EXIT_OK = 0
EXIT_PHYSICS = 2


@dataclass(frozen=True)
class Reference:
    """What a correct output contains, from an RK4 run of the same inputs.

    ``keys`` are the sample times (runs) or grid points (sweeps), ``values``
    one row of observables per key: the 16 state columns plus the doublet
    purity for runs, ``(p_doublet, purity, abs_rho21)`` for sweeps.
    """

    kind: str
    exit_code: int
    parameters: tuple[str, ...]
    keys: tuple
    values: np.ndarray
    converged: tuple[bool, ...]
    trace_tol: float
    pos_tol: float


def _state_row(record) -> list[float]:
    return [
        record.p0, record.p1, record.p2, record.p3,
        record.c10.real, record.c10.imag, record.c20.real, record.c20.imag,
        record.c21.real, record.c21.imag, record.c30.real, record.c30.imag,
        record.c31.real, record.c31.imag, record.c32.real, record.c32.imag,
        record.doublet_purity,
    ]


def rk4_dt(scenario) -> float:
    """Fixed RK4 step: resolves the pulses and stays stable for the fastest decay."""
    p = scenario.params
    return min(scenario.drive.tau / 80.0, 1.0 / max(p.gamma01, p.gamma02, p.gamma03))


def compute_reference(kind: str, config_text: str) -> Reference:
    """RK4 reference for one workload; untimed, computed once per benchmark run."""
    from victrap import SweepSpec, detect_steady_state, integrate_fixed_step, parse_config
    from victrap.experiments import apply_parameter

    job = parse_config(config_text)
    if isinstance(job, SweepSpec):
        rows, flags = [], []
        for point in job.grid():
            scenario = job.base
            for name, value in zip(job.parameters, point):
                scenario = apply_parameter(scenario, name, value)
            steady = detect_steady_state(integrate_fixed_step(scenario, rk4_dt(scenario)))
            rows.append([steady.doublet_population, steady.doublet_purity, steady.abs_coherence_21])
            flags.append(steady.converged)
        return Reference(kind, EXIT_OK, job.parameters, tuple(job.grid()), np.array(rows),
                         tuple(flags), job.base.trace_tol, job.base.pos_tol)
    traj = integrate_fixed_step(job, rk4_dt(job))
    steady = detect_steady_state(traj)
    exit_code = EXIT_OK if steady.converged else EXIT_PHYSICS
    samples = traj.samples if kind == "trajectory_csv" else traj.samples[-1:]
    return Reference(kind, exit_code, (), tuple(s.time for s in samples),
                     np.array([_state_row(s.record) for s in samples]),
                     (steady.converged,), job.trace_tol, job.pos_tol)


def _exit_problem(exit_code: int, ref: Reference) -> list[str]:
    if exit_code != ref.exit_code:
        return [f"exit code {exit_code}, expected {ref.exit_code}"]
    return []


def _csv_rows(text: str, expected_header: tuple[str, ...]) -> tuple[list[list[str]], list[str]]:
    """Split CSV text into data rows; problems if the header or line endings break the schema."""
    if not text.endswith("\n"):
        return [], ["output does not end with a newline"]
    lines = text[:-1].split("\n")
    header = tuple(lines[0].split(","))
    if header[: len(expected_header)] != expected_header:
        return [], [f"header {lines[0]!r} does not start with {','.join(expected_header)!r}"]
    rows = [line.split(",") for line in lines[1:]]
    if any(len(row) != len(header) for row in rows):
        return [], ["a row has a different field count than the header"]
    return rows, []


def _numbers(rows: list[list[str]], columns: slice) -> tuple[np.ndarray | None, list[str]]:
    try:
        return np.array([[float(v) for v in row[columns]] for row in rows]), []
    except ValueError as exc:
        return None, [f"non-numeric field: {exc}"]


def _compare(got: np.ndarray, ref: Reference, what: str) -> list[str]:
    if got.shape != ref.values.shape:
        return [f"{what}: shape {got.shape}, expected {ref.values.shape}"]
    diff = np.abs(got - ref.values)
    if not np.all(diff <= TOL):  # also catches NaN
        row, col = np.unravel_index(int(np.argmax(np.where(np.isnan(diff), np.inf, diff))), diff.shape)
        return [f"{what}: row {row} column {col} differs from the RK4 reference by {diff[row, col]:.3e}"]
    return []


def check_trajectory_csv(output: bytes, exit_code: int, ref: Reference) -> list[str]:
    """Trajectory CSV: header, one row per sample time, observables, diagnostics, exit code."""
    problems = _exit_problem(exit_code, ref)
    rows, bad = _csv_rows(output.decode("utf-8", "replace"), TRAJECTORY_COLUMNS)
    if bad:
        return problems + bad
    if len(rows) != len(ref.keys):
        return problems + [f"{len(rows)} rows, expected {len(ref.keys)}"]
    table, bad = _numbers(rows, slice(0, len(TRAJECTORY_COLUMNS)))
    if bad:
        return problems + bad
    if not np.array_equal(table[:, 0], np.array(ref.keys)):
        problems.append("sample times differ from the grid")
    problems += _compare(table[:, 1:18], ref, "observables")
    if not np.all(table[:, 18] <= ref.trace_tol) or not np.all(table[:, 19] >= -ref.pos_tol):
        problems.append("trace_error or min_eig outside the scenario tolerances")
    return problems


def check_summary_json(output: bytes, exit_code: int, ref: Reference) -> list[str]:
    """Summary JSON: key types, final-sample observables, converged flag, exit code."""
    problems = _exit_problem(exit_code, ref)
    try:
        summary = json.loads(output)
    except ValueError as exc:
        return problems + [f"not valid JSON: {exc}"]
    if not isinstance(summary, dict):
        return problems + ["JSON output is not an object"]
    for key in SUMMARY_FLOATS:
        if not isinstance(summary.get(key), float) or not math.isfinite(summary[key]):
            problems.append(f"key {key!r} missing or not a finite number")
    for key in SUMMARY_COUNTS:
        value = summary.get(key)
        if not isinstance(value, int) or isinstance(value, bool) or value < 0:
            problems.append(f"key {key!r} missing or not a count")
    if not isinstance(summary.get("converged"), bool):
        problems.append("key 'converged' missing or not a boolean")
    if problems:
        return problems
    if summary["converged"] != ref.converged[0]:
        problems.append(f"converged={summary['converged']}, expected {ref.converged[0]}")
    if summary["time"] != ref.keys[0]:
        problems.append(f"time {summary['time']!r}, expected {ref.keys[0]!r}")
    got = np.array([[summary[k] for k in STATE_COLUMNS] + [summary["doublet_purity"]]])
    problems += _compare(got, ref, "final state")
    if abs(summary["p_doublet"] - (ref.values[0, 1] + ref.values[0, 2])) > TOL:
        problems.append("p_doublet differs from the RK4 reference")
    if abs(summary["abs_rho21"] - math.hypot(ref.values[0, 8], ref.values[0, 9])) > TOL:
        problems.append("abs_rho21 differs from the RK4 reference")
    return problems


def check_sweep_csv(output: bytes, exit_code: int, ref: Reference) -> list[str]:
    """Sweep CSV: header, one row per grid point in grid order, values, converged flags."""
    problems = _exit_problem(exit_code, ref)
    columns = ref.parameters + SWEEP_VALUE_COLUMNS
    rows, bad = _csv_rows(output.decode("utf-8", "replace"), columns)
    if bad:
        return problems + bad
    if len(rows) != len(ref.keys):
        return problems + [f"{len(rows)} rows, expected {len(ref.keys)}"]
    n = len(ref.parameters)
    table, bad = _numbers(rows, slice(0, n + 3))
    if bad:
        return problems + bad
    if not np.array_equal(table[:, :n], np.array(ref.keys)):
        problems.append("grid values differ from the sweep grid")
    problems += _compare(table[:, n:], ref, "sweep values")
    flags = tuple(row[n + 3] for row in rows)
    expected = tuple("true" if c else "false" for c in ref.converged)
    if flags != expected:
        problems.append(f"converged flags {flags}, expected {expected}")
    return problems


CHECKS = {
    "trajectory_csv": check_trajectory_csv,
    "summary_json": check_summary_json,
    "sweep_csv": check_sweep_csv,
}
