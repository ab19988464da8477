"""CSV and JSON emission for trajectories, sweep tables, and steady summaries.

Numbers are written in full round-trip precision (shortest repr); rows end
with a bare newline; identical inputs always produce byte-identical output.
"""

from __future__ import annotations

import json
import math
from typing import IO

from .experiments import SweepTable
from .integrator import TRAJECTORY_COLUMNS, IntegrationStats, SteadySummary, Trajectory

__all__ = [
    "TRAJECTORY_CSV_HEADER",
    "emit_trajectory_csv",
    "emit_sweep_csv",
    "emit_sweep_json",
    "emit_summary_json",
]

TRAJECTORY_CSV_HEADER = ",".join(TRAJECTORY_COLUMNS)
_TRAJECTORY_ROW = ",".join(["%r"] * len(TRAJECTORY_COLUMNS)) + "\n"


def _f(value: float) -> str:
    return repr(float(value))


def emit_trajectory_csv(traj: Trajectory, sink: IO[str]) -> None:
    """One row per sample, columns fixed by TRAJECTORY_CSV_HEADER, written as they are formatted."""
    sink.write(TRAJECTORY_CSV_HEADER + "\n")
    for row in traj.columns.tolist():
        sink.write(_TRAJECTORY_ROW % tuple(row))


def emit_sweep_csv(table: SweepTable, sink: IO[str]) -> None:
    """Swept parameter columns first, then the steady-state values per point."""
    header = ",".join(table.parameters + ("p_doublet", "purity", "abs_rho21", "converged"))
    sink.write(header + "\n")
    for row in table.rows:
        fields = [_f(v) for v in row.values]
        fields += [
            _f(row.doublet_population),
            _f(row.doublet_purity),
            _f(row.abs_coherence_21),
            "true" if row.converged else "false",
        ]
        sink.write(",".join(fields) + "\n")


def _null_if_nan(value: float) -> float | None:
    return None if math.isnan(value) else float(value)


def emit_sweep_json(table: SweepTable, sink: IO[str]) -> None:
    """Sweep rows as a JSON object; failed points carry null values and an error."""
    rows = []
    for row in table.rows:
        entry: dict = dict(zip(table.parameters, (float(v) for v in row.values)))
        entry["p_doublet"] = _null_if_nan(row.doublet_population)
        entry["purity"] = _null_if_nan(row.doublet_purity)
        entry["abs_rho21"] = _null_if_nan(row.abs_coherence_21)
        entry["converged"] = row.converged
        if row.error is not None:
            entry["error"] = row.error
        rows.append(entry)
    json.dump({"parameters": list(table.parameters), "rows": rows}, sink, indent=2)
    sink.write("\n")


def emit_summary_json(
    steady: SteadySummary,
    sink: IO[str],
    stats: IntegrationStats | None = None,
) -> None:
    """Flat JSON object with the steady-state observables and convergence flag.

    Integrator statistics are appended when provided.
    """
    r = steady.record
    summary: dict = {
        "time": float(steady.time),
        "converged": steady.converged,
        "max_delta": float(steady.max_delta),
        "rho00": r.p0,
        "rho11": r.p1,
        "rho22": r.p2,
        "rho33": r.p3,
        "re_rho10": r.c10.real, "im_rho10": r.c10.imag,
        "re_rho20": r.c20.real, "im_rho20": r.c20.imag,
        "re_rho21": r.c21.real, "im_rho21": r.c21.imag,
        "re_rho30": r.c30.real, "im_rho30": r.c30.imag,
        "re_rho31": r.c31.real, "im_rho31": r.c31.imag,
        "re_rho32": r.c32.real, "im_rho32": r.c32.imag,
        "p_doublet": float(steady.doublet_population),
        "doublet_purity": float(steady.doublet_purity),
        "abs_rho21": float(steady.abs_coherence_21),
        "trace_error": r.trace_error,
        "min_eig": r.min_eigenvalue,
    }
    if stats is not None:
        summary["steps_accepted"] = stats.steps_accepted
        summary["steps_rejected"] = stats.steps_rejected
        summary["rhs_evaluations"] = stats.rhs_evaluations
        summary["max_trace_error"] = stats.max_trace_error
        summary["min_eigenvalue_seen"] = stats.min_eigenvalue
    json.dump(summary, sink, indent=2)
    sink.write("\n")
