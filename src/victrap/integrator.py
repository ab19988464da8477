"""Adaptive time integration, observable sampling, and steady-state detection.

The propagating method is a Dormand-Prince 5(4) embedded pair with the
standard accept/reject controller; the error norm mixes absolute and
relative tolerance over the 16 real state components, which share a common
[0, 1] scale.  Steps are additionally capped at tau/10 so the pulse
structure can never be skipped, and each recorded sample is checked against
the scenario's trace and positivity tolerances - violations abort the run
rather than being repaired.

A classical fixed-step fourth-order method with an identical sampling
contract is provided as an independent cross-check.

Both write each sample as one row of a preallocated array and derive the
diagnostic columns for blocks of rows at once; the sample objects of the
public API are built from the rows only when read.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass, replace

import numpy as np

from .errors import IntegrationError, InsufficientDataError, InvalidParameterError, PhysicalityError
from .liouvillian import PACKED_SIZE, decay_generator, drive_generators, pack_state, unpack_state
from .model import DensityMatrix, ObservableRecord, Scenario
from .observables import packed_diagnostics

__all__ = [
    "TRAJECTORY_COLUMNS",
    "TrajectorySample",
    "IntegrationStats",
    "SteadySummary",
    "Trajectory",
    "integrate",
    "integrate_fixed_step",
    "detect_steady_state",
    "sample_times",
    "DEFAULT_STEADY_WINDOW",
    "DEFAULT_STEADY_TOL",
    "MAX_STEPS",
]

DEFAULT_STEADY_WINDOW = 5.0
DEFAULT_STEADY_TOL = 1e-4

# Dormand-Prince 5(4) tableau.  Row k of _A builds stage k+1 from stages
# 0..k; its last row equals the fifth-order weights _B (first-same-as-last),
# and _E holds the difference to the embedded fourth-order weights.  The
# last two stages share the node c = 1, so a step has five new stage times.
_C = np.array((0.2, 0.3, 0.8, 8.0 / 9.0, 1.0))
_B = np.array((35.0 / 384.0, 0.0, 500.0 / 1113.0, 125.0 / 192.0, -2187.0 / 6784.0, 11.0 / 84.0))
_A = np.array([(*row, *[0.0] * (7 - len(row))) for row in (
    (0.2,),
    (3.0 / 40.0, 9.0 / 40.0),
    (44.0 / 45.0, -56.0 / 15.0, 32.0 / 9.0),
    (19372.0 / 6561.0, -25360.0 / 2187.0, 64448.0 / 6561.0, -212.0 / 729.0),
    (9017.0 / 3168.0, -355.0 / 33.0, 46732.0 / 5247.0, 49.0 / 176.0, -5103.0 / 18656.0),
    _B,
)])
_E = np.array((
    71.0 / 57600.0,
    0.0,
    -71.0 / 16695.0,
    71.0 / 1920.0,
    -17253.0 / 339200.0,
    22.0 / 525.0,
    -1.0 / 40.0,
))

_SAFETY = 0.9
_MIN_FACTOR = 0.2
_MAX_FACTOR = 5.0

# Budget of attempted steps per run; gamma01=100, gamma02=40 over the
# default window attempts about 4,600.
MAX_STEPS = 200_000
# Real-axis reach of the Dormand-Prince stability region: a stable step
# needs h * (spectral radius of L0) <= 3.3.
_STABILITY_LIMIT = 3.3
# Substeps of the fixed-step reference whose drive parts are built at once.
_RK4_BATCH = 256

# Columns of Trajectory.columns, in trajectory-CSV order: the time, the 16
# packed reals (populations, then re/im of rho10, rho20, rho21, rho30,
# rho31, rho32), then the per-sample diagnostics.
TRAJECTORY_COLUMNS = (
    "t", "rho00", "rho11", "rho22", "rho33",
    "re_rho10", "im_rho10", "re_rho20", "im_rho20", "re_rho21", "im_rho21",
    "re_rho30", "im_rho30", "re_rho31", "im_rho31", "re_rho32", "im_rho32",
    "doublet_purity", "trace_error", "min_eig",
)
_STATE = slice(1, 1 + PACKED_SIZE)
_DIAGNOSTICS = slice(1 + PACKED_SIZE, len(TRAJECTORY_COLUMNS))
# Rows whose diagnostics are derived and checked together.
_BLOCK = 64


@dataclass(frozen=True)
class TrajectorySample:
    time: float
    state: DensityMatrix
    record: ObservableRecord


@dataclass(frozen=True)
class IntegrationStats:
    steps_accepted: int
    steps_rejected: int
    rhs_evaluations: int
    max_trace_error: float
    min_eigenvalue: float


@dataclass(frozen=True)
class SteadySummary:
    """Late-time values read from the final sample, plus the convergence verdict."""

    converged: bool
    time: float
    state: DensityMatrix
    record: ObservableRecord
    doublet_population: float
    doublet_purity: float
    abs_coherence_21: float
    max_delta: float


def _sample(row: np.ndarray) -> TrajectorySample:
    values = row.tolist()
    t, re_im = values[0], values[5:17]
    coherences = [complex(re, im) for re, im in zip(re_im[::2], re_im[1::2])]
    record = ObservableRecord(t, *values[1:5], *coherences, *values[17:])
    return TrajectorySample(time=t, state=DensityMatrix(unpack_state(row[_STATE])), record=record)


class _Samples(Sequence):
    """Read-only sequence of TrajectorySample objects, each built from its row on access."""

    __slots__ = ("_rows",)

    def __init__(self, rows: np.ndarray):
        self._rows = rows

    def __len__(self) -> int:
        return len(self._rows)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return _Samples(self._rows[index])
        return _sample(self._rows[index])

    def __iter__(self):
        return map(_sample, self._rows)


@dataclass(frozen=True, eq=False)
class Trajectory:
    """Recorded samples as one read-only (n, 20) array, one column per TRAJECTORY_COLUMNS name.

    ``samples``, ``final`` and ``times`` are views of the rows; equality is
    identity, so compare ``columns`` to compare runs.
    """

    scenario: Scenario
    columns: np.ndarray
    stats: IntegrationStats
    steady: SteadySummary | None = None

    @property
    def samples(self) -> Sequence[TrajectorySample]:
        return _Samples(self.columns)

    @property
    def times(self) -> np.ndarray:
        return self.columns[:, 0]

    @property
    def final(self) -> TrajectorySample:
        return _sample(self.columns[-1])

    def column(self, name: str) -> np.ndarray:
        """The column called ``name`` in TRAJECTORY_COLUMNS."""
        return self.columns[:, TRAJECTORY_COLUMNS.index(name)]

    def with_steady(self, steady: SteadySummary) -> "Trajectory":
        return replace(self, steady=steady)


def sample_times(scenario: Scenario) -> list[float]:
    """Uniform recording grid t_start + k*sample_interval.

    The row count is floor(span/interval) + 1; the small guard keeps an
    integer quotient from being truncated by floating-point division.
    """
    span = scenario.t_end - scenario.t_start
    n = int(math.floor(span / scenario.sample_interval + 1e-9))
    return [scenario.t_start + k * scenario.sample_interval for k in range(n + 1)]


class _SampleRecorder:
    """Writes one row per sample and checks physicality for every _BLOCK rows at once.

    A violation raises at its first row, with that sample's time, as a
    per-sample check would.  Stepper failures go through ``failure``, which
    checks the partial block first, so a bad sample recorded before the
    failure is still the error reported.
    """

    def __init__(self, scenario: Scenario, n_rows: int):
        self.scenario = scenario
        self.rows = np.empty((n_rows, len(TRAJECTORY_COLUMNS)))
        self.written = 0
        self.checked = 0
        self.max_trace_error = 0.0
        self.min_eigenvalue = math.inf

    def record(self, t: float, y: np.ndarray) -> None:
        row = self.rows[self.written]
        row[0] = t
        row[_STATE] = y
        self.written += 1
        if self.written - self.checked == _BLOCK:
            self.check()

    def check(self) -> None:
        if self.checked == self.written:
            return
        block = self.rows[self.checked:self.written]
        self.checked = self.written
        block[:, _DIAGNOSTICS] = packed_diagnostics(block[:, _STATE])
        trace_errors, min_eigs = block[:, -2], block[:, -1]
        sc = self.scenario
        bad = (trace_errors > sc.trace_tol) | (min_eigs < -sc.pos_tol)
        if bad.any():
            first = block[int(np.argmax(bad))]
            t, trace_error, min_eig = float(first[0]), float(first[-2]), float(first[-1])
            if trace_error > sc.trace_tol:
                raise PhysicalityError(f"trace error {trace_error:.3e} exceeds {sc.trace_tol:.1e} at t={t:g}")
            raise PhysicalityError(f"minimum eigenvalue {min_eig:.3e} below -{sc.pos_tol:.1e} at t={t:g}")
        self.max_trace_error = max(self.max_trace_error, *trace_errors.tolist())
        self.min_eigenvalue = min(self.min_eigenvalue, *min_eigs.tolist())

    def failure(self, message: str) -> IntegrationError:
        """The stepper's failure, to raise once the rows recorded before it pass the check."""
        self.check()
        return IntegrationError(message)

    def columns(self) -> np.ndarray:
        """Check the last partial block and return the rows, read-only."""
        self.check()
        self.rows.flags.writeable = False
        return self.rows


def _error_norm(err: np.ndarray, y_old: np.ndarray, y_new: np.ndarray, rtol: float, atol: float) -> float:
    ratio = err / (atol + rtol * np.maximum(np.abs(y_old), np.abs(y_new)))
    return math.sqrt(float(ratio @ ratio) / ratio.size)


def _reachable_decay_radius(scenario: Scenario, decay: np.ndarray, grid: list[float]) -> float:
    """Spectral radius of L0 on the state components the run can reach.

    Components outside the closure of the initial support under the
    couplings of L(t) stay exactly zero, so their decay modes never limit
    the step.  Drive couplings are read at the points of the window nearest
    the pulse centers, where the envelopes peak, and at its ends: each
    detuning is monotone in time, so one nonzero anywhere in the window is
    nonzero at an end.
    """
    drive = scenario.drive
    times = np.clip((grid[0], grid[-1], drive.center1, drive.center2), grid[0], grid[-1])
    couples = (decay != 0) | np.any(drive_generators(times, drive) != 0, axis=0)
    reach = pack_state(scenario.initial_state) != 0
    for _ in range(PACKED_SIZE):
        reach = reach | couples[:, reach].any(axis=1)
    block = decay[np.ix_(reach, reach)]
    return float(np.max(np.abs(np.linalg.eigvals(block)))) if np.isfinite(block).all() else math.inf


def integrate(scenario: Scenario) -> Trajectory:
    """Propagate the scenario and record observables on the sample grid.

    Each attempted step builds the generators at its five new stage times
    in one stacked call and forms the stages as rows of a (7, 16) array.

    Raises PhysicalityError if a recorded sample violates the scenario's
    trace or positivity tolerances, and IntegrationError on step-size
    underflow, or when the decay rates are too stiff for MAX_STEPS
    attempted steps (checked up front from the spectral radius of L0 on
    the reachable components, and again in the loop).
    """
    drive = scenario.drive
    decay = decay_generator(scenario.params)
    grid = sample_times(scenario)
    needed = (grid[-1] - grid[0]) * _reachable_decay_radius(scenario, decay, grid) / _STABILITY_LIMIT
    if needed > MAX_STEPS:
        raise IntegrationError(
            f"decay rates too stiff: a stable run needs at least {needed:.3g} steps; the budget is {MAX_STEPS}"
        )
    recorder = _SampleRecorder(scenario, len(grid))

    y = pack_state(scenario.initial_state)
    t = grid[0]
    recorder.record(t, y)

    max_step = drive.tau / 10.0
    h_floor = 1e-13 * max(1.0, abs(grid[0]), abs(grid[-1]))
    rtol, atol = scenario.rtol, scenario.atol

    # Stage derivatives; row 0 holds L(t) y, carried over from the last
    # stage of the previous accepted step.
    stages = np.empty((7, PACKED_SIZE))
    stages[0] = (drive_generators(t, drive)[0] + decay) @ y
    evaluations = 1
    accepted = 0
    rejected = 0
    h = min(max_step, scenario.sample_interval)
    just_rejected = False

    for target in grid[1:]:
        # Boundary landings can leave t a few ulp short of the target;
        # anything closer than the floor counts as arrived.
        while target - t > h_floor:
            if accepted + rejected >= MAX_STEPS:
                raise recorder.failure(f"step budget of {MAX_STEPS} attempted steps exhausted at t={t:g}")
            h_try = min(h, max_step, target - t)
            if h_try < h_floor:
                raise recorder.failure(f"step size underflow at t={t:g} (h={h_try:.3e})")

            gens = drive_generators(t + _C * h_try, drive) + decay
            h_a = h_try * _A
            for k, gen in enumerate((*gens, gens[-1]), start=1):
                y_new = y + h_a[k - 1, :k] @ stages[:k]
                np.matmul(gen, y_new, out=stages[k])
            evaluations += k
            err = h_try * (_E @ stages)

            # A non-finite state is rejected with the smallest shrink factor.
            norm = _error_norm(err, y, y_new, rtol, atol) if np.isfinite(y_new).all() else math.inf
            if norm <= 1.0:
                t = t + h_try
                y = y_new
                stages[0] = stages[6]
                accepted += 1
                if norm == 0.0:
                    factor = _MAX_FACTOR
                else:
                    factor = min(_MAX_FACTOR, max(_MIN_FACTOR, _SAFETY * norm ** -0.2))
                if just_rejected:
                    factor = min(1.0, factor)
                    just_rejected = False
                h = h_try * factor
            else:
                rejected += 1
                just_rejected = True
                h = h_try * min(1.0, max(_MIN_FACTOR, _SAFETY * norm ** -0.2))
        recorder.record(target, y)

    columns = recorder.columns()
    stats = IntegrationStats(
        steps_accepted=accepted,
        steps_rejected=rejected,
        rhs_evaluations=evaluations,
        max_trace_error=recorder.max_trace_error,
        min_eigenvalue=recorder.min_eigenvalue,
    )
    return Trajectory(scenario=scenario, columns=columns, stats=stats)


def integrate_fixed_step(scenario: Scenario, dt: float) -> Trajectory:
    """Classical fourth-order propagation with uniform steps; test cross-check.

    Requires dt <= tau/40 so the pulses stay well resolved.
    """
    if not (math.isfinite(dt) and dt > 0):
        raise InvalidParameterError(f"dt must be positive, got {dt!r}")
    if dt > scenario.drive.tau / 40.0:
        raise InvalidParameterError(
            f"dt={dt!r} too coarse: fixed-step runs require dt <= tau/40 = {scenario.drive.tau / 40.0:g}"
        )

    drive = scenario.drive
    decay = decay_generator(scenario.params)
    grid = sample_times(scenario)
    recorder = _SampleRecorder(scenario, len(grid))

    y = pack_state(scenario.initial_state)
    recorder.record(grid[0], y)

    def rhs(coherent: np.ndarray, y: np.ndarray) -> np.ndarray:
        return coherent @ y + decay @ y

    n_sub = max(1, math.ceil(scenario.sample_interval / dt - 1e-9))
    steps = 0
    for prev, target in zip(grid, grid[1:]):
        h = (target - prev) / n_sub
        # Drive parts at the substep nodes prev + j*h/2, built in batches.
        for first in range(0, n_sub, _RK4_BATCH):
            nodes = np.arange(2 * first, 2 * min(n_sub, first + _RK4_BATCH) + 1)
            gens = drive_generators(prev + 0.5 * h * nodes, drive)
            for start, mid, end in zip(gens[:-1:2], gens[1::2], gens[2::2]):
                k1 = rhs(start, y)
                k2 = rhs(mid, y + 0.5 * h * k1)
                k3 = rhs(mid, y + 0.5 * h * k2)
                k4 = rhs(end, y + h * k3)
                y = y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
                steps += 1
        if not np.all(np.isfinite(y)):
            raise recorder.failure(f"non-finite state at t={target:g}")
        recorder.record(target, y)

    columns = recorder.columns()
    stats = IntegrationStats(
        steps_accepted=steps,
        steps_rejected=0,
        rhs_evaluations=4 * steps,
        max_trace_error=recorder.max_trace_error,
        min_eigenvalue=recorder.min_eigenvalue,
    )
    return Trajectory(scenario=scenario, columns=columns, stats=stats)


def detect_steady_state(
    traj: Trajectory,
    window: float = DEFAULT_STEADY_WINDOW,
    tol: float = DEFAULT_STEADY_TOL,
) -> SteadySummary:
    """Decide whether the late-time state has stopped evolving.

    Convergence requires the doublet population, |rho21|, and the doublet
    purity to each vary by less than `tol` over the trailing `window`; the
    returned values are read from the final sample.  The trajectory must
    extend at least `window` past the point where both pulse envelopes have
    fallen below 1e-6 of their peaks.
    """
    if not (math.isfinite(window) and window > 0):
        raise InvalidParameterError(f"window must be positive, got {window!r}")
    times = traj.times
    first, last = float(times[0]), float(times[-1])
    if window > last - first:
        raise InsufficientDataError(
            f"window {window:g} exceeds trajectory span {last - first:g}"
        )
    pulses_off = traj.scenario.drive.pulses_off_after(1e-6)
    if last - window < pulses_off:
        raise InsufficientDataError(
            f"trajectory ends at t={last:g}, but needs to reach t={pulses_off + window:g} "
            f"(pulses off at t={pulses_off:g} plus window {window:g})"
        )

    tail = times >= last - window - 1e-12
    observed = (
        traj.column("rho11") + traj.column("rho22"),
        np.hypot(traj.column("re_rho21"), traj.column("im_rho21")),
        traj.column("doublet_purity"),
    )
    max_delta = max(max(v) - min(v) for v in (c[tail].tolist() for c in observed))
    final = traj.final
    return SteadySummary(
        converged=max_delta < tol,
        time=final.time,
        state=final.state,
        record=final.record,
        doublet_population=final.record.doublet_population,
        doublet_purity=final.record.doublet_purity,
        abs_coherence_21=abs(final.record.c21),
        max_delta=max_delta,
    )
