"""CSV and JSON emission for trajectories, sweep tables, and steady summaries.

Numbers are written in full round-trip precision (shortest repr); rows end
with a bare newline; identical inputs always produce byte-identical output.
"""

from __future__ import annotations

import math
from typing import IO

import numpy as np

from .experiments import SweepTable
from .integrator import _BLOCK, _STATE, TRAJECTORY_COLUMNS, IntegrationStats, SteadySummary, Trajectory
from .liouvillian import pack_state

__all__ = [
    "TRAJECTORY_CSV_HEADER",
    "emit_trajectory_csv",
    "emit_trajectory_rows",
    "emit_sweep_csv",
    "emit_sweep_json",
    "emit_summary_json",
]

TRAJECTORY_CSV_HEADER = ",".join(TRAJECTORY_COLUMNS)
_TRAJECTORY_ROW = ",".join(["%r"] * len(TRAJECTORY_COLUMNS)) + "\n"


def _f(value: float) -> str:
    return repr(float(value))


def emit_trajectory_csv(traj: Trajectory, sink: IO[str]) -> None:
    """One row per sample, columns fixed by TRAJECTORY_CSV_HEADER: the header, then ``emit_trajectory_rows``."""
    sink.write(TRAJECTORY_CSV_HEADER + "\n")
    emit_trajectory_rows(traj.columns, sink)


def emit_trajectory_rows(rows: np.ndarray, sink: IO[str]) -> None:
    """The trajectory-CSV lines of (m, 20) rows, formatted and written _BLOCK rows at a time.

    Emission holds a block of Python floats, not the whole run; a run that
    streams its rows (``integrator.stream_trajectory``) writes them here
    as they leave its recorder.
    """
    for start in range(0, len(rows), _BLOCK):
        block = rows[start:start + _BLOCK]
        sink.write((_TRAJECTORY_ROW * len(block)) % tuple(block.ravel().tolist()))


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
    import json  # loaded only for JSON output, which keeps it off every CSV run's start-up

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


def emit_summary_json(steady: SteadySummary, sink: IO[str], stats: IntegrationStats) -> None:
    """Flat JSON object with the steady-state observables, convergence flag and integrator statistics."""
    import json

    r = steady.record
    summary = {
        "time": float(steady.time),
        "converged": steady.converged,
        "max_delta": float(steady.max_delta),
        # The 16 state columns of the trajectory CSV, in its order.
        **dict(zip(TRAJECTORY_COLUMNS[_STATE], pack_state(steady.state).tolist())),
        "p_doublet": float(steady.doublet_population),
        "doublet_purity": float(steady.doublet_purity),
        "abs_rho21": float(steady.abs_coherence_21),
        "trace_error": r.trace_error,
        "min_eig": r.min_eigenvalue,
        "steps_accepted": stats.steps_accepted,
        "steps_rejected": stats.steps_rejected,
        "rhs_evaluations": stats.rhs_evaluations,
        "max_trace_error": stats.max_trace_error,
        "min_eigenvalue_seen": stats.min_eigenvalue,
    }
    json.dump(summary, sink, indent=2)
    sink.write("\n")
