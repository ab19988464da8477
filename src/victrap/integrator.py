"""Adaptive time integration, observable sampling, and steady-state detection.

The propagating method is a Dormand-Prince 5(4) embedded pair with the
stabilised (PI) step-size controller of Hairer's dopri5; the error norm
mixes absolute and relative tolerance over the 16 real state components,
which share a common [0, 1] scale.  Steps are additionally capped at
tau/10 so the pulse structure can never be skipped.  The controller alone chooses the steps:
samples that fall inside an accepted step are read off the method's
fourth-order continuous extension, and each is checked against the
scenario's trace and positivity tolerances - violations abort the run
rather than being repaired.

One stepper serves single runs and sweeps.  Each scenario is a lane with
its own time, step size and accept/reject decision; one loop iteration
attempts one step in every active lane, with the generators, stage sums,
stage products and error norms computed for all lanes at once, and lanes
that finish or fail leave the active set.  ``integrate`` is the one-lane
case, and ``steady_states`` runs many lanes, each keeping only the rows of
its trailing steady window.  A lane's arithmetic does not depend on the
other lanes, so its results are the same bits in any batch.

A classical fixed-step fourth-order method with an identical sampling
contract is provided as an independent cross-check.

Both write each sample as one row of a preallocated array and derive the
diagnostic columns for blocks of rows at once; the sample objects of the
public API are built from the rows only when read.
"""

from __future__ import annotations

import bisect
import math
from collections.abc import Sequence
from dataclasses import dataclass, replace

import numpy as np

from .drive import DriveLanes, drive_coefficients
from .errors import IntegrationError, InsufficientDataError, InvalidParameterError, PhysicalityError, SimulationError
from .liouvillian import PACKED_SIZE, decay_generator, drive_generators, generator_basis, pack_state, unpack_state
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
    "steady_states",
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
# Continuous extension (the d1..d7 of Hairer's dopri5/contd5): the state at
# t + θh is y + h·W(θ) @ K with
#   W(θ) = θ·b + θ(1-θ)·(e1 - b) + θ²(1-θ)·(2b - e1 - e7) + θ²(1-θ)²·d,
# b the fifth-order weights with b7 = 0.  _P holds W's coefficients of
# θ, θ², θ³, θ⁴, so W(θ) = θ^_POWERS @ _P.
_D = np.array((
    -12715105075.0 / 11282082432.0,
    0.0,
    87487479700.0 / 32700410799.0,
    -10690763975.0 / 1880347072.0,
    701980252875.0 / 199316789632.0,
    -1453857185.0 / 822651844.0,
    69997945.0 / 29380423.0,
))
_E1, _E7 = np.eye(7)[[0, 6]]
_P = np.array((_E1, 3.0 * _A[5] - 2.0 * _E1 - _E7 + _D, -2.0 * _A[5] + _E1 + _E7 - 2.0 * _D, _D))
_POWERS = np.arange(1, 5)
# Stage derivatives evaluated per attempted step (the first is carried over).
_NEW_STAGES = 6

_SAFETY = 0.9
_MIN_FACTOR = 0.2
_MAX_FACTOR = 5.0
# Stabilised (PI) control, Hairer & Wanner, Solving ODEs II, IV.2: the prev
# term damps the grow-reject-shrink cycle at the stability edge of stiff
# runs.  dopri5's beta = 0.04 costs smooth runs 4-6% more steps than 0.02.
_BETA = 0.02
_ALPHA = 0.2 - 0.75 * _BETA
_PREV_FLOOR = 1e-4

# Budget of attempted steps per run; gamma01=100, gamma02=40 over the
# default window attempts about 4,200.
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

    A step's rows are written as slices split where a block fills up, so
    each block is checked before a later row is written.  A violation
    raises at its first row, with that sample's time, as a per-sample
    check would.  Stepper failures go through ``failure``, which checks
    the partial block first, so a bad sample recorded before the failure
    is still the error reported.  Rows before ``keep_from`` are dropped
    once checked, so only the rows from ``keep_from`` on (and at most one
    block) are ever held.
    """

    def __init__(self, scenario: Scenario, n_rows: int, keep_from: int = 0):
        self.scenario = scenario
        self.rows = np.empty((max(min(_BLOCK, n_rows), n_rows - keep_from), len(TRAJECTORY_COLUMNS)))
        self.keep_from = keep_from
        self.base = 0  # index of the sample held in rows[0]
        self.written = 0
        self.checked = 0
        self.max_trace_error = 0.0
        self.min_eigenvalue = math.inf

    def record(self, times: Sequence[float], states: np.ndarray) -> None:
        """Write one row per time and its packed state from (m, 16) ``states``, checking each full block."""
        done, m = 0, len(times)
        while done < m:
            take = min(m - done, _BLOCK - (self.written - self.checked))
            at = self.written - self.base
            self.rows[at:at + take, 0] = times[done:done + take]
            self.rows[at:at + take, _STATE] = states[done:done + take]
            self.written += take
            done += take
            if self.written - self.checked == _BLOCK:
                self.check()

    def check(self) -> None:
        if self.checked == self.written:
            return
        block = self.rows[self.checked - self.base:self.written - self.base]
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
        if self.base < self.keep_from:
            drop = min(self.written, self.keep_from) - self.base
            self.rows[:self.written - self.base - drop] = self.rows[drop:self.written - self.base]
            self.base += drop

    def failure(self, message: str) -> IntegrationError:
        """The stepper's failure, to raise once the rows recorded before it pass the check."""
        self.check()
        return IntegrationError(message)

    def kept(self) -> np.ndarray:
        """The checked rows from ``keep_from`` on."""
        self.check()
        return self.rows[:self.written - self.base]

    def columns(self) -> np.ndarray:
        """Check the last partial block and return the rows, read-only."""
        rows = self.kept()
        rows.flags.writeable = False
        return rows


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


class _Lane:
    """One scenario in the lockstep stepper: its controller state and its recorder.

    The controller runs on Python floats: each step is proposed here,
    attempted together with the other lanes' steps, and accepted or
    rejected here by its own error norm.  A lane that fails keeps the
    error and leaves; the other lanes go on.

    Raises IntegrationError up front when the decay rates are too stiff
    for MAX_STEPS attempted steps (the spectral radius of L0 on the
    reachable components).
    """

    def __init__(self, scenario: Scenario, grid: list[float], keep_from: int = 0):
        drive = scenario.drive
        decay = decay_generator(scenario.params)
        needed = (grid[-1] - grid[0]) * _reachable_decay_radius(scenario, decay, grid) / _STABILITY_LIMIT
        if needed > MAX_STEPS:
            raise IntegrationError(
                f"decay rates too stiff: a stable run needs at least {needed:.3g} steps; the budget is {MAX_STEPS}"
            )
        self.scenario = scenario
        self.grid = grid
        self.basis = generator_basis(decay)
        self.recorder = _SampleRecorder(scenario, len(grid), keep_from)
        self.y0 = pack_state(scenario.initial_state)
        self.recorder.record(grid[:1], self.y0[None])
        # L(t) y at the start; each accepted step carries its last stage over.
        self.k0 = (drive_generators(grid[0], drive)[0] + decay) @ self.y0
        self.t, self.t_end = grid[0], grid[-1]
        self.pending = 1  # index of the next grid time to record
        self.max_step = drive.tau / 10.0
        self.h_floor = 1e-13 * max(1.0, abs(grid[0]), abs(grid[-1]))
        self.h = self.max_step
        self.h_try = self.t_new = math.nan
        self.accepted = self.rejected = 0
        self.evaluations = 1
        self.just_rejected = False
        self.prev = _PREV_FLOOR  # last accepted error norm, floored
        self.error: SimulationError | None = None

    def propose(self) -> tuple[float, float] | None:
        """The next trial step (t, h) from the current state; None if the lane fails instead."""
        t, t_end = self.t, self.t_end
        if self.accepted + self.rejected >= MAX_STEPS:
            return self._fail(f"step budget of {MAX_STEPS} attempted steps exhausted at t={t:g}")
        h_try = min(self.h, self.max_step, t_end - t)
        t_new = t + h_try
        # A step ending within the floor of the last grid time lands on it.
        if t_end - t_new <= self.h_floor:
            t_new, h_try = t_end, t_end - t
        elif h_try < self.h_floor:
            return self._fail(f"step size underflow at t={t:g} (h={h_try:.3e})")
        self.h_try, self.t_new = h_try, t_new
        return t, h_try

    def settle(self, square: float, lanes: "_LaneSet", i: int) -> bool:
        """Accept or reject the trial step by its sum of squared scaled errors; True if accepted.

        An accepted step records the grid times in (t, t_new]: the
        continuous extension, except that a time the step lands on takes
        the step's own state.  A lane that finishes or fails marks the
        lane set as ``leaving``.
        """
        h_try, t_new = self.h_try, self.t_new
        norm = math.sqrt(square / PACKED_SIZE)
        self.evaluations += _NEW_STAGES
        if not norm <= 1.0:
            self.rejected += 1
            self.just_rejected = True
            self.h = h_try * min(1.0, max(_MIN_FACTOR, _SAFETY * norm ** -_ALPHA))
            return False
        grid, pending = self.grid, self.pending
        if grid[pending] <= t_new:
            end = bisect.bisect_right(grid, t_new, pending)
            times = grid[pending:end]
            theta = (np.array(times) - self.t) / h_try
            dense = lanes.y[i] + (h_try * (theta[:, None] ** _POWERS @ _P)) @ lanes.stages[i]
            if times[-1] == t_new:
                dense[-1] = lanes.trial[i]
            try:
                self.recorder.record(times, dense)
            except PhysicalityError as exc:
                self.error = exc
                lanes.leaving = True
            self.pending = end
        self.t = t_new
        self.accepted += 1
        if norm == 0.0:
            factor = _MAX_FACTOR
        else:
            factor = min(_MAX_FACTOR, max(_MIN_FACTOR, _SAFETY * norm ** -_ALPHA * self.prev ** _BETA))
        self.prev = max(norm, _PREV_FLOOR)
        if self.just_rejected:
            factor = min(1.0, factor)
            self.just_rejected = False
        self.h = h_try * factor
        if t_new >= self.t_end:
            lanes.leaving = True
            if self.error is None:
                try:
                    self.recorder.check()
                except PhysicalityError as exc:
                    self.error = exc
        return True

    def _fail(self, message: str) -> None:
        try:
            self.error = self.recorder.failure(message)
        except PhysicalityError as exc:
            self.error = exc

    def trajectory(self) -> Trajectory:
        stats = IntegrationStats(
            steps_accepted=self.accepted,
            steps_rejected=self.rejected,
            rhs_evaluations=self.evaluations,
            max_trace_error=self.recorder.max_trace_error,
            min_eigenvalue=self.recorder.min_eigenvalue,
        )
        return Trajectory(scenario=self.scenario, columns=self.recorder.columns(), stats=stats)


class _LaneSet:
    """The arrays of the active lanes, stepped together.

    Built once per lane set and rebuilt only when a lane leaves: the
    stacked generator bases and drive parameters, the states, the stage
    times and derivatives, the h·_A coefficients, the error-norm buffers,
    and per-stage views into them.
    """

    def __init__(self, lanes: list[_Lane], y: np.ndarray, k0: np.ndarray):
        n = len(lanes)
        self.lanes = lanes
        self.leaving = False  # set when a lane finishes or fails
        self.drives = DriveLanes([lane.scenario.drive for lane in lanes], len(_C))
        self.basis = np.stack([lane.basis for lane in lanes])
        tolerances = np.array([(lane.scenario.rtol, lane.scenario.atol) for lane in lanes])
        self.rtol, self.atol = tolerances[:, :1], tolerances[:, 1:]
        self.y = y
        self.stages = np.empty((n, 7, PACKED_SIZE))
        self.first_stage, self.last_stage = self.stages[:, 0], self.stages[:, -1]
        self.first_stage[...] = k0
        self.times = np.empty((n, len(_C)))
        # Generator coefficients at the five stage times; the trailing 1
        # picks L0 out of the basis.
        self.coefs = np.ones((n, len(_C), 5))
        self.drive_coefs = self.coefs[..., :4]
        self.gens = np.empty((n, len(_C), PACKED_SIZE * PACKED_SIZE))
        self.h_a = np.empty((n,) + _A.shape)
        self.sums = np.empty((n, 1, PACKED_SIZE))
        self.y_new = np.empty((n, 1, PACKED_SIZE))
        self.trial = self.y_new[:, 0]
        self.err = np.empty((n, PACKED_SIZE))
        self.scale = np.empty((n, PACKED_SIZE))
        self.abs_trial = np.empty((n, PACKED_SIZE))
        gens = self.gens.reshape(n, len(_C), PACKED_SIZE, PACKED_SIZE)
        y, column = self.y[:, None], self.y_new.reshape(n, PACKED_SIZE, 1)
        # Stage k is L(t + c_k h) (y + (h·_A)[k-1, :k] @ stages[:k]); the
        # last two stages share c = 1.
        self.stage_views = [
            (self.h_a[:, k - 1:k, :k], self.stages[:, :k], y, gens[:, min(k, len(_C)) - 1], column,
             self.stages[:, k, :, None])
            for k in range(1, _NEW_STAGES + 1)
        ]

    def keep(self, indices: list[int]) -> "_LaneSet":
        """The lane set of the lanes at ``indices``, with their states and carried-over stages."""
        return _LaneSet([self.lanes[i] for i in indices], self.y[indices], self.stages[indices, 0])

    def step(self, steps: list[tuple[float, float]]) -> list[float]:
        """Attempt one step (t, h) per lane; return the sums of the squared scaled errors.

        The squared error norm is that sum over PACKED_SIZE: the mean
        square of the error scaled by the tolerances.  A lane whose trial
        state is not finite gets inf, the smallest shrink factor.
        """
        steps = np.array(steps)
        t, h = steps[:, :1], steps[:, 1:]
        np.add(t, np.multiply(h, _C, out=self.times), out=self.times)
        drive_coefficients(self.times, self.drives, out=self.drive_coefs)
        np.matmul(self.coefs, self.basis, out=self.gens)
        np.multiply(h[:, :, None], _A, out=self.h_a)
        sums, y_new = self.sums, self.y_new
        for h_a, stages, y, gen, column, out in self.stage_views:
            np.matmul(h_a, stages, out=sums)
            np.add(y, sums, out=y_new)
            np.matmul(gen, column, out=out)
        if np.isfinite(self.trial).all():
            return self._squares(h)
        with np.errstate(all="ignore"):
            squares = self._squares(h)
        finite = np.isfinite(self.trial).all(axis=1).tolist()
        return [square if ok else math.inf for square, ok in zip(squares, finite)]

    def _squares(self, h: np.ndarray) -> list[float]:
        err, scale = self.err, self.scale
        np.matmul(_E, self.stages, out=err)
        np.multiply(h, err, out=err)
        np.maximum(np.abs(self.y, out=scale), np.abs(self.trial, out=self.abs_trial), out=scale)
        np.multiply(self.rtol, scale, out=scale)
        np.add(self.atol, scale, out=scale)
        np.divide(err, scale, out=err)
        return np.vecdot(err, err).tolist()

    def advance(self, accepted: list[int]) -> None:
        """Carry the accepted lanes' trial states and last stages over to their next step."""
        if len(accepted) == len(self.lanes):
            np.copyto(self.y, self.trial)
            np.copyto(self.first_stage, self.last_stage)
        elif accepted:
            self.y[accepted] = self.trial[accepted]
            self.stages[accepted, 0] = self.stages[accepted, -1]


def _run_lanes(lanes: list[_Lane]) -> None:
    """Step every lane to its last grid time in lockstep.

    Each iteration proposes one step per lane, attempts them all with one
    stacked generator build, and lets each lane accept or reject its own.
    Lanes that finish or fail leave the active set.
    """
    lanes = [lane for lane in lanes if lane.t < lane.t_end]  # a one-row grid takes no step
    if not lanes:
        return
    active = _LaneSet(lanes, np.array([lane.y0 for lane in lanes]), np.array([lane.k0 for lane in lanes]))
    while True:
        lanes = active.lanes
        steps = [lane.propose() for lane in lanes]
        if None in steps:
            active.leaving = True
        else:
            squares = active.step(steps)
            active.advance([i for i, lane in enumerate(lanes) if lane.settle(squares[i], active, i)])
        if active.leaving:
            staying = [i for i, lane in enumerate(lanes) if lane.error is None and lane.t < lane.t_end]
            if not staying:
                return
            active = active.keep(staying)


def integrate(scenario: Scenario) -> Trajectory:
    """Propagate the scenario and record observables on the sample grid.

    The run is the one-lane case of the lockstep stepper that sweeps use.
    The error controller chooses the steps, capped at tau/10; the grid
    times inside each accepted step are read off the continuous extension
    from the step's own stages, and the last step lands on the last grid
    time.  Each attempted step builds the generators at its five new stage
    times in one stacked product.

    Raises PhysicalityError if a recorded sample violates the scenario's
    trace or positivity tolerances, and IntegrationError on step-size
    underflow, or when the decay rates are too stiff for MAX_STEPS
    attempted steps (checked up front from the spectral radius of L0 on
    the reachable components, and again in the loop).
    """
    lane = _Lane(scenario, sample_times(scenario))
    _run_lanes([lane])
    if lane.error is not None:
        raise lane.error
    return lane.trajectory()


def steady_states(
    scenarios: Sequence[Scenario],
    window: float = DEFAULT_STEADY_WINDOW,
    tol: float = DEFAULT_STEADY_TOL,
) -> list[SteadySummary | SimulationError]:
    """Integrate the scenarios as lanes of one lockstep run and summarise each one's steady state.

    Entry i is what ``detect_steady_state(integrate(scenarios[i]), window,
    tol)`` returns, bit for bit, or the error it raises: a lane that fails
    to start, to step or to summarise leaves the others untouched.  Each
    lane checks every sample but keeps only the rows of its trailing
    window, so memory does not grow with the sample grid.  The scenarios
    must share the chirp switch and profile.
    """
    outcomes: list = [None] * len(scenarios)
    lanes = {}
    grids: dict[tuple[float, float, float], list[float]] = {}  # one grid per time window, shared
    for i, scenario in enumerate(scenarios):
        key = (scenario.t_start, scenario.t_end, scenario.sample_interval)
        if key not in grids:
            grids[key] = sample_times(scenario)
        grid = grids[key]
        # A window error is reported only if the run itself succeeds.
        try:
            start, window_error = _steady_window(scenario, grid[0], grid[-1], window), None
        except SimulationError as exc:
            start, window_error = math.inf, exc
        try:
            lanes[i] = (_Lane(scenario, grid, bisect.bisect_left(grid, start)), start, window_error)
        except SimulationError as exc:
            outcomes[i] = exc
    _run_lanes([lane for lane, _, _ in lanes.values()])
    for i, (lane, start, window_error) in lanes.items():
        if lane.error is not None:
            outcomes[i] = lane.error
        elif window_error is not None:
            outcomes[i] = window_error
        else:
            try:
                outcomes[i] = _steady_summary(lane.recorder.kept(), start, tol)
            except PhysicalityError as exc:  # a lane that took no step checks its row only here
                outcomes[i] = exc
    return outcomes


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
    recorder.record(grid[:1], y[None])

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
        recorder.record((target,), y[None])

    columns = recorder.columns()
    stats = IntegrationStats(
        steps_accepted=steps,
        steps_rejected=0,
        rhs_evaluations=4 * steps,
        max_trace_error=recorder.max_trace_error,
        min_eigenvalue=recorder.min_eigenvalue,
    )
    return Trajectory(scenario=scenario, columns=columns, stats=stats)


def _steady_window(scenario: Scenario, first: float, last: float, window: float) -> float:
    """Check that a run over [first, last] has a usable trailing window; return the window's start."""
    if not (math.isfinite(window) and window > 0):
        raise InvalidParameterError(f"window must be positive, got {window!r}")
    if window > last - first:
        raise InsufficientDataError(
            f"window {window:g} exceeds trajectory span {last - first:g}"
        )
    pulses_off = scenario.drive.pulses_off_after(1e-6)
    if last - window < pulses_off:
        raise InsufficientDataError(
            f"trajectory ends at t={last:g}, but needs to reach t={pulses_off + window:g} "
            f"(pulses off at t={pulses_off:g} plus window {window:g})"
        )
    return last - window - 1e-12


def _steady_summary(rows: np.ndarray, start: float, tol: float) -> SteadySummary:
    """The verdict on the rows from time ``start`` on, and the values of the last row."""
    tail = rows[rows[:, 0] >= start]
    columns = dict(zip(TRAJECTORY_COLUMNS, tail.T))
    observed = (
        columns["rho11"] + columns["rho22"],
        np.hypot(columns["re_rho21"], columns["im_rho21"]),
        columns["doublet_purity"],
    )
    max_delta = max(max(v) - min(v) for v in (c.tolist() for c in observed))
    final = _sample(rows[-1])
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
    times = traj.times
    start = _steady_window(traj.scenario, float(times[0]), float(times[-1]), window)
    return _steady_summary(traj.columns, start, tol)
