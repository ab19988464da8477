"""Adaptive time integration, observable sampling, and steady-state detection.

Each lane steps with one of two methods, chosen once from its decay rates.
The explicit one is a Dormand-Prince 5(4) embedded pair with the
stabilised (PI) step-size controller of Hairer's dopri5.  Lanes whose decay
is so stiff that an explicit step would be held far below the tau/10 cap
(see STIFF_RATIO) step with the 3-stage Radau IIA method instead: order 5,
L-stable and stiffly accurate.  The ODE is linear, so its collocation
equations are one linear system per step, solved once, with no Newton
iteration; its error estimate is radau5's.  The error norm mixes absolute
and relative tolerance over the 16 real state components, which share a
common [0, 1] scale.  Steps are additionally capped at tau/10 so the pulse
structure can never be skipped.  The controller alone chooses the steps:
samples that fall inside an accepted step are read off the method's
continuous extension (fourth order for Dormand-Prince, the third-order
collocation polynomial for Radau IIA), and each is checked against the
scenario's trace and positivity tolerances - violations abort the run
rather than being repaired.

The stepper runs only while the pulses are on.  Once the envelopes are
negligible the generator is L0 + delta1(t) D1 + delta2(t) D2, whose three
parts commute, so the rest of the run has a closed form: each lane steps
up to t_off, lands there, and takes its remaining grid rows from
exp(L0 dt) exp(dPhi1 D1 + dPhi2 D2) applied to that state, with two
Padé-13 exponentials per lane and the detuning integrals dPhi_k in closed
form.  t_off is the earliest time after which the envelopes still to
come, integrated and weighted by the norms of G1 and G2, add up to at
most atol/1000.  Step counts, RHS evaluations and the MAX_STEPS budget
cover the stepped span only.

One stepper serves single runs and sweeps.  Each scenario is a lane with
its own time, step size and accept/reject decision; the lanes of each
method step in their own lockstep group, where one loop iteration
attempts one step in every active lane, with the generators, stages and
error norms computed for all lanes at once, and lanes that finish or fail
leave the active set.  The controller runs per lane on Python floats;
the lane set owns the dense-output rows its lanes ask for and forms
them together, a few hundred at a time.  ``integrate`` is the one-lane
case, and ``steady_states`` runs many lanes, each keeping only the rows of
its trailing steady window.  A lane's arithmetic does not depend on the
other lanes, so its results are the same bits in any batch.

A classical fixed-step fourth-order method with an identical sampling
contract is provided as an independent cross-check.

Both write each sample as one row of a recorder's buffer, which checks
blocks of rows at once and then forms their diagnostic columns a few
hundred at a time: ``integrate`` keeps every row as the trajectory's
array, and ``stream_trajectory`` hands the rows to a caller's sink as it
goes, holding only the steady window.  The sample objects of the public
API are built from the rows only when read.
"""

from __future__ import annotations

import bisect
import math
from collections.abc import Callable, Sequence
from dataclasses import dataclass, replace
from typing import NamedTuple

import numpy as np

from .drive import DriveLanes, detuning_phases, drive_coefficients, pulses_over
from .errors import IntegrationError, InsufficientDataError, InvalidParameterError, PhysicalityError, SimulationError
from .liouvillian import (
    PACKED_SIZE, coupling_closure, decay_blocks, decay_generator, drive_generators, drive_norms, generator_basis,
    pack_state, rotate_coherences, unpack_state,
)
from .model import DensityMatrix, ObservableRecord, Scenario
from .observables import _row_record, packed_diagnostics, packed_purity, packed_verdict

__all__ = [
    "TRAJECTORY_COLUMNS",
    "TrajectorySample",
    "IntegrationStats",
    "SteadySummary",
    "Trajectory",
    "integrate",
    "integrate_fixed_step",
    "steady_states",
    "stream_trajectory",
    "detect_steady_state",
    "sample_times",
    "STEADY_WINDOW",
    "STEADY_TOL",
    "MAX_STEPS",
    "STIFF_RATIO",
]

STEADY_WINDOW = 5.0
STEADY_TOL = 1e-4

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
# θ, θ², θ³, θ⁴, so W(θ) = (θ, θ², θ³, θ⁴) @ _P.
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
# Stage derivatives evaluated per attempted step (the first is carried over).
_NEW_STAGES = 6

# Radau IIA, 3 stages (Hairer & Wanner, Solving ODEs II, IV.5 and IV.8).
# The stage values are y + h K_i with (I - h [a_ij L(t + c_j h)]) K =
# [sum_j a_ij L(t + c_j h) y], one linear system for the linear ODE; the
# last node is 1 and the last row of A its weights, so y_new = y + h K_3.
_SQRT6 = math.sqrt(6.0)
_RADAU_C = np.array(((4.0 - _SQRT6) / 10.0, (4.0 + _SQRT6) / 10.0, 1.0))
_RADAU_A = np.array((
    ((88.0 - 7.0 * _SQRT6) / 360.0, (296.0 - 169.0 * _SQRT6) / 1800.0, (-2.0 + 3.0 * _SQRT6) / 225.0),
    ((296.0 + 169.0 * _SQRT6) / 1800.0, (88.0 + 7.0 * _SQRT6) / 360.0, (-2.0 - 3.0 * _SQRT6) / 225.0),
    ((16.0 - _SQRT6) / 36.0, (16.0 + _SQRT6) / 36.0, 1.0 / 9.0),
))
# -a_ij laid out as (i, 1, j, 1), for the blocks of the system matrix.
_RADAU_MINUS_A = -_RADAU_A[:, None, :, None]
# radau5's error estimate, (u1/h I - L(t))^-1 (L(t) y + _RADAU_DD @ K): an
# error of order 3 in h, filtered by the inverse so that stiff modes do not
# inflate it.
_RADAU_DD = np.array((-(13.0 + 7.0 * _SQRT6) / 3.0, (-13.0 + 7.0 * _SQRT6) / 3.0, -1.0 / 3.0))
_RADAU_U1 = 30.0 / (6.0 + 81.0 ** (1.0 / 3.0) - 9.0 ** (1.0 / 3.0))
# The collocation polynomial through y at 0 and y + h K_i at c_i: the state
# at t + θh is y + h (θ, θ², θ³) @ _RADAU_P @ K, with _RADAU_P the inverse
# of the matrix of c_i^k, k = 1..3, in closed form (a LAPACK call at import
# would add about 0.4 MB of resident code to every run).
_RADAU_P = np.array((
    ((13.0 + 7.0 * _SQRT6) / 3.0, (13.0 - 7.0 * _SQRT6) / 3.0, 1.0 / 3.0),
    (-(23.0 + 22.0 * _SQRT6) / 3.0, (-23.0 + 22.0 * _SQRT6) / 3.0, -8.0 / 3.0),
    (10.0 / 3.0 + 5.0 * _SQRT6, 10.0 / 3.0 - 5.0 * _SQRT6, 10.0 / 3.0),
))
_SAFETY = 0.9
_MIN_FACTOR = 0.2
_MAX_FACTOR = 5.0
# Stabilised (PI) control, Hairer & Wanner, Solving ODEs II, IV.2: the prev
# term damps the grow-reject-shrink cycle at the stability edge of stiff
# runs.  dopri5's beta = 0.04 costs smooth runs 4-6% more steps than 0.02.
_BETA = 0.02
_ALPHA = 0.2 - 0.75 * _BETA
# The Radau IIA estimate is of order 3, so its exponent is 1/4 in place of
# 1/5; being L-stable, it has no stability edge to damp, and a PI term costs
# it steps (516 accepted on the stiff bench run, 525 with beta = 0.02).
_RADAU_ALPHA = 0.25
_RADAU_BETA = 0.0
_PREV_FLOOR = 1e-4

# Budget of attempted steps per run, on the stepped span up to the end of
# the pulses; gamma01=100, gamma02=40 over the default window attempts
# about 520 implicit steps (2,155 explicit ones).
MAX_STEPS = 200_000
# Real-axis reach of the Dormand-Prince stability region: a stable step
# needs h * (spectral radius of L0) <= 3.3.
_STABILITY_LIMIT = 3.3
# A lane steps with Radau IIA when the tau/10 cap is more than this many
# times the explicit stability limit, h * rho(L0) > STIFF_RATIO * 3.3: past
# that, fewer but costlier implicit steps take less time (see the README).
STIFF_RATIO = 5.0
# Substeps of the fixed-step reference whose drive parts are built at once.
_RK4_BATCH = 256
# Substeps a fixed-step reference may take in all; dt = 1e-4 over the default window takes 960,000.
_RK4_BUDGET = 10 * MAX_STEPS
# The stepping ends once the drive still to come, integrated and weighted by
# the generator norms, is at most this fraction of atol.
_DRIVE_LEFT = 1e-3
# Padé-13 coefficients and the largest 1-norm it serves unscaled (Higham 2005).
_PADE13 = (64764752532480000.0, 32382376266240000.0, 7771770303897600.0, 1187353796428800.0,
           129060195264000.0, 10559470521600.0, 670442572800.0, 33522128640.0, 1323241920.0,
           40840800.0, 960960.0, 16380.0, 182.0, 1.0)
_THETA13 = 5.371920351148152
# Machine epsilon, for the estimate of the tail's rounding.
_EPS = float(np.finfo(float).eps)
# Rows that the exact tail computes, turns and records at once, and the
# powers of exp(L0 * sample_interval) that it keeps to build them.
_TAIL_ROWS = 256
_TAIL_POWERS = 16
# Dense-output rows per lane that the lockstep stepper lets accumulate
# before it forms them in one batch, at least _BLOCK in all; see
# _LaneSet.flush.
_ROWS_PER_LANE = 4

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
_SAMPLE = slice(0, 1 + PACKED_SIZE)  # what the steppers write: the time and the packed state
_DIAGNOSTICS = slice(1 + PACKED_SIZE, len(TRAJECTORY_COLUMNS))
# Rows whose diagnostics are derived and checked together.
_BLOCK = 64
# Rows whose purity and minimum eigenvalues are formed in one batch before
# they leave a recorder for its sink.  A call to the Jacobi kernel costs
# about 0.5 ms however few rows it gets, and about 600 bytes of temporaries
# a row: 256 rows keep both small next to a run's fixed overhead.
_FINISH_ROWS = 256


class TrajectorySample(NamedTuple):
    """One recorded row: its time, the state and the observables read off it."""

    time: float
    state: DensityMatrix
    record: ObservableRecord


class IntegrationStats(NamedTuple):
    """Step counts and generator evaluations of a run, and the extremes of its recorded diagnostics."""

    steps_accepted: int
    steps_rejected: int
    rhs_evaluations: int
    max_trace_error: float
    min_eigenvalue: float


class SteadySummary(NamedTuple):
    """Late-time values read from the final sample, plus the convergence verdict.

    In a summary from ``steady_states``, ``record.min_eigenvalue`` is NaN
    where the final row's block passed the Cholesky certificate of
    ``observables.packed_verdict``: the lane forms its window's purity
    only.  ``detect_steady_state`` always gives the eigenvalue.
    """

    converged: bool
    time: float
    state: DensityMatrix
    record: ObservableRecord
    doublet_population: float
    doublet_purity: float
    abs_coherence_21: float
    max_delta: float


def _sample(row: np.ndarray) -> TrajectorySample:
    record = _row_record(row)
    return TrajectorySample(time=record.time, state=DensityMatrix(unpack_state(row[_STATE])), record=record)


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

    ``samples`` and ``times`` are views of the rows; equality is identity,
    so compare ``columns`` to compare runs.
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

    def column(self, name: str) -> np.ndarray:
        """The column called ``name`` in TRAJECTORY_COLUMNS."""
        return self.columns[:, TRAJECTORY_COLUMNS.index(name)]

    def with_steady(self, steady: SteadySummary) -> "Trajectory":
        return replace(self, steady=steady)


def _discard(rows: np.ndarray) -> None:
    """The sink of a run that reads none of the rows it sends: ``integrate`` keeps them all, a summary its window."""


def sample_times(scenario: Scenario) -> np.ndarray:
    """Uniform recording grid t_start + k*sample_interval, as a float64 array of ``scenario.sample_rows()`` rows."""
    return scenario.t_start + np.arange(scenario.sample_rows()) * scenario.sample_interval


class _SampleRecorder:
    """Writes one row per sample, checks physicality for every _BLOCK rows at once, and holds the run's outcome.

    A step's rows are written as slices split where a block fills up, so
    each block is checked before a later row is written.  A violation, or
    a non-finite state (an IntegrationError), is stored in ``error`` at its
    first row, with that sample's time, as a per-sample check would find
    it, and nothing is written after it.
    A stepper that gives up calls ``fail``, which checks the partial block
    first, so a bad sample recorded before that is still the error
    reported.  Each block gets the columns of one
    ``observables.packed_verdict`` call, which spares the purity and
    eigenvalues of the blocks it certifies.

    Rows before ``keep_from`` leave the recorder once checked, so only the
    rows from ``keep_from`` on are held, with at most _FINISH_ROWS others.
    Without a ``sink`` they are dropped: a sweep lane forms the columns it
    reads of the rest (see ``steady_states``).  With one, they first get
    the columns of ``observables.packed_diagnostics``, which count toward
    the extremes of their trace errors and minimum eigenvalues, and then go
    to the sink in time order, _FINISH_ROWS at a time; ``finish`` sends the
    last of them with the rows from ``keep_from`` on.
    """

    def __init__(self, scenario: Scenario, n_rows: int, keep_from: int = 0,
                 sink: Callable[[np.ndarray], None] | None = None):
        self.scenario = scenario
        held = n_rows - keep_from
        self.rows = np.empty((min(n_rows, held + _FINISH_ROWS) if sink else max(min(_BLOCK, n_rows), held),
                              len(TRAJECTORY_COLUMNS)))
        self.keep_from = keep_from
        self.sink = sink
        self.base = 0  # index of the sample held in rows[0]
        self.written = 0
        self.checked = 0
        self.error: SimulationError | None = None
        self.max_trace_error, self.min_eigenvalue = -math.inf, math.inf

    def record(self, samples: np.ndarray) -> None:
        """Write (m, 17) ``samples``, each a time and its packed state, checking each full block."""
        done, m = 0, len(samples)
        while done < m and self.error is None:
            take = min(m - done, _BLOCK - (self.written - self.checked))
            at = self.written - self.base
            self.rows[at:at + take, _SAMPLE] = samples[done:done + take]
            self.written += take
            done += take
            if self.written - self.checked == _BLOCK:
                self.check()

    def check(self) -> None:
        if self.checked == self.written:
            return
        block = self.rows[self.checked - self.base:self.written - self.base]
        nonfinite = ~np.isfinite(block[:, _STATE]).all(axis=1)
        if nonfinite.any():  # the rows before it are checked, and their error comes first
            first = int(np.argmax(nonfinite))
            self.error = IntegrationError(f"non-finite state at t={block[first, 0]:g}")
            block = block[:first]
        self.checked = self.written
        sc = self.scenario
        block[:, _DIAGNOSTICS] = packed_verdict(block[:, _STATE], sc.pos_tol)
        bad = (block[:, -2] > sc.trace_tol) | (block[:, -1] < -sc.pos_tol)
        if bad.any():
            t, trace_error, min_eig = block[int(np.argmax(bad)), [0, -2, -1]].tolist()
            self.error = PhysicalityError(
                f"trace error {trace_error:.3e} exceeds {sc.trace_tol:.1e} at t={t:g}" if trace_error > sc.trace_tol
                else f"minimum eigenvalue {min_eig:.3e} below -{sc.pos_tol:.1e} at t={t:g}"
            )
        elif self.base < self.keep_from:
            leaving = min(self.written, self.keep_from) - self.base
            if self.sink is None:
                self._drop(leaving)
            elif leaving >= _FINISH_ROWS:
                self._send(leaving)

    def _drop(self, count: int) -> None:
        """Drop the first ``count`` held rows."""
        self.rows[:self.written - self.base - count] = self.rows[count:self.written - self.base]
        self.base += count

    def _send(self, count: int) -> None:
        """Form every diagnostic column of the first ``count`` held rows, _FINISH_ROWS at a time, and send them on.

        The checks have passed, so only the purity and minimum eigenvalues
        the certificate left out change, to the same bits in any batch.
        """
        rows = self.rows[:count]
        for start in range(0, count, _FINISH_ROWS):
            chunk = rows[start:start + _FINISH_ROWS]
            chunk[:, _DIAGNOSTICS] = packed_diagnostics(chunk[:, _STATE])
        self.max_trace_error = float(np.maximum(self.max_trace_error, rows[:, -2].max(initial=-math.inf)))
        self.min_eigenvalue = float(np.minimum(self.min_eigenvalue, rows[:, -1].min(initial=math.inf)))
        self.sink(rows)
        self._drop(count)

    def fail(self, message: str) -> None:
        """Store IntegrationError(message), unless a row recorded before it fails the check."""
        self.check()
        if self.error is None:
            self.error = IntegrationError(message)

    def kept(self) -> np.ndarray:
        """The held rows, checked: without a sink, those from ``keep_from`` on."""
        self.check()
        return self.rows[:self.written - self.base]

    def finish(self, accepted: int, rejected: int, evaluations: int) -> tuple[np.ndarray, IntegrationStats]:
        """Send every row still held to the sink; return those from ``keep_from`` on, read-only, and the run's stats.

        Raises the run's error if it has one.
        """
        rows = self.kept()
        if self.error is not None:
            raise self.error
        base = self.base
        self._send(len(rows))
        kept = rows[max(0, self.keep_from - base):]
        kept.flags.writeable = False
        return kept, IntegrationStats(accepted, rejected, evaluations, self.max_trace_error, self.min_eigenvalue)


def _reachable(scenario: Scenario, decay: np.ndarray, grid: np.ndarray) -> np.ndarray:
    """Mask of the state components the run can reach.

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
    return coupling_closure(couples)[:, pack_state(scenario.initial_state) != 0].any(axis=1)


def _spectral_radius(decay: np.ndarray, reach: np.ndarray) -> float:
    """rho(L0) on the reachable components, from the eigenvalues of L0's blocks in closed form.

    ``reach`` is closed under the couplings of L0, as ``_reachable`` makes
    it, so the doublet block is reachable whole or has no couplings.  Each
    block (see liouvillian.decay_blocks) is cut to its reachable members:
    the reachable principal submatrix is block triangular in the cut
    blocks, so their eigenvalues are its own.  Each is scaled by its
    largest entry, so that no product overflows.  Each pair of couplings
    has a nonnegative product, so the eigenvalues are real.  A 2x2 block
    [[a, u], [v, d]] has the eigenvalues (a + d)/2 +- sqrt(((a - d)/2)**2 +
    uv).  The doublet block's three come from the invariants J2 and J3 of
    its traceless part by the trigonometric formula, with the discriminant
    4 J2**3 - 27 J3**2 summed from nonnegative terms, so that close
    eigenvalues lose no accuracy (Harari & Albocher 2023).
    """
    entries, reached = decay.tolist(), reach.tolist()
    radius = 0.0
    for block in decay_blocks():
        members = [k for k in block if reached[k]]
        size = len(members)
        block_values = [entries[i][j] for i in members for j in members]
        scale = max(map(abs, block_values), default=0.0)
        if not scale or size == 1:
            radius = max(radius, scale)
            continue
        if size == 2:
            a, u, v, d = (value / scale for value in block_values)
            half = (a - d) / 2.0
            largest = abs(a + d) / 2.0 + math.sqrt(half * half + u * v)
        else:
            a, _, u, _, b, _, v, _, d = (value / scale for value in block_values)
            x, y, z, w = a - d, b - d, a - b, u * v
            j2 = (x * x + y * y + z * z) / 6.0 + 2.0 * w
            j3 = -(2.0 * x - y) * (2.0 * y - x) * (x + y) / 27.0 - w * (x + y) / 3.0
            discriminant = (32.0 * w ** 3 + w * w * (11.0 * z * z + 2.0 * (x * x + y * y))
                            + w * z * z * (3.0 * (x * x + y * y) + (x + y) ** 2) + (x * y * z) ** 2)
            angle = math.atan2(math.sqrt(discriminant), math.sqrt(27.0) * j3) / 3.0
            mean, spread = (a + b + d) / 3.0, 2.0 * math.sqrt(j2 / 3.0)
            largest = max(abs(mean + spread * math.cos(angle)), abs(mean + spread * math.cos(angle + math.tau / 3.0)))
        radius = max(radius, largest * scale)
    return radius


def _expm(a: np.ndarray) -> np.ndarray:
    """exp(a) by Padé-13 scaling and squaring (Higham 2005).

    No eigendecomposition: L0 is defective where decay rates coincide.
    """
    norm = float(np.abs(a).sum(axis=0).max())
    squarings = math.ceil(math.log2(norm / _THETA13)) if norm > _THETA13 else 0
    a = np.ldexp(a, -squarings)
    b = _PADE13
    ident = np.eye(len(a))
    a2 = a @ a
    a4 = a2 @ a2
    a6 = a4 @ a2
    u = a @ (a6 @ (b[13] * a6 + b[11] * a4 + b[9] * a2) + b[7] * a6 + b[5] * a4 + b[3] * a2 + b[1] * ident)
    v = a6 @ (b[12] * a6 + b[10] * a4 + b[8] * a2) + b[6] * a6 + b[4] * a4 + b[2] * a2 + b[0] * ident
    result = np.linalg.solve(v - u, v + u)
    for _ in range(squarings):
        result = result @ result
    return result


def _decay_rows(m: np.ndarray, start: np.ndarray, count: int):
    """Yield (first, rows): packed states M^k @ start for k from ``first`` on, k < count, with M = ``m``.

    Each yield covers up to _TAIL_ROWS rows, in runs of _TAIL_POWERS: row
    j of a run is M^j applied to the run's first row, and run b's first row
    is (M^_TAIL_POWERS)^b applied to the yield's first row.  The rounding of
    M so adds up about linearly in k, as it would however the products were
    grouped.
    """
    powers = _powers(m, min(_TAIL_POWERS, count))
    # Row b of heads @ spread is the run of rows that starts at heads[b].
    spread = powers.reshape(-1, PACKED_SIZE).T
    jump = powers[-1] @ m
    jumps = _powers(jump, -(-min(_TAIL_ROWS, count) // len(powers)))
    leap = jumps[-1] @ jump
    for first in range(0, count, _TAIL_ROWS):
        runs = min(len(jumps), -(-(count - first) // len(powers)))
        heads = jumps[:runs] @ start
        yield first, (heads @ spread).reshape(-1, PACKED_SIZE)[:count - first]
        start = leap @ start


def _powers(m: np.ndarray, n: int) -> np.ndarray:
    """m^0, ..., m^(n-1) as an (n, 16, 16) stack, each the previous one times m."""
    powers = np.empty((n,) + m.shape)
    powers[0] = np.eye(len(m))
    for j in range(1, n):
        np.matmul(powers[j - 1], m, out=powers[j])
    return powers


def _once(shared: dict, key, make):
    """shared[key], made by make() the first time it is asked for."""
    if key not in shared:
        shared[key] = make()
    return shared[key]


class _Lane:
    """One scenario in the lockstep stepper: its controller state, its recorder and its exact tail.

    The controller runs on Python floats: each step is proposed here,
    attempted together with the other lanes' steps, and accepted or
    rejected here by its own error norm.  A lane's recorder holds its
    error; a lane that fails leaves, and the other lanes go on.

    A lane steps only while the pulses are on: up to t_stop, the earlier of
    t_end and t_off (see drive.pulses_over, with eps = _DRIVE_LEFT * atol), or
    not at all when there is no pulse.  It lands on t_stop and ``finish``
    records the grid times after it in closed form.

    Lanes built with one ``shared`` dict compute what they have in common
    once: lanes with equal SystemParams share L0 and the generator basis,
    and those whose reachable components match too share the spectral
    radius and the tail's exponentials; lanes with equal drives and atol
    share t_off.

    The lane's method, ``stepper``, is chosen here from the spectral
    radius of L0 on the reachable components: Radau IIA when the tau/10
    cap is more than STIFF_RATIO times the explicit stability limit, else
    Dormand-Prince.

    Raises IntegrationError up front when L0 times the window is not
    finite; when the stepped span needs more than MAX_STEPS steps: for an
    explicit lane, steps within its stability limit, and for any lane,
    steps of the tau/10 cap; and when the decay rates are so stiff that the
    tail's rounding could exceed atol.
    """

    def __init__(self, scenario: Scenario, grid: np.ndarray, keep_from: int = 0, shared: dict | None = None,
                 sink: Callable[[np.ndarray], None] | None = None):
        drive, params = scenario.drive, scenario.params
        self.shared = {} if shared is None else shared
        self.basis = _once(self.shared, params, lambda: generator_basis(decay_generator(params)))
        decay = self.basis[-1].reshape(PACKED_SIZE, PACKED_SIZE)  # L0
        t_start, t_end = grid[0].item(), grid[-1].item()
        self.reach = _reachable(scenario, decay, grid)
        self.key = (params, self.reach.tobytes())  # all that L0 on the reachable components depends on
        self.decay = _once(self.shared, self.key, lambda: decay[np.ix_(self.reach, self.reach)])
        eps = _DRIVE_LEFT * scenario.atol
        t_off = _once(self.shared, ("t_off", drive, eps), lambda: pulses_over(drive, drive_norms(), eps))
        self.t_stop = max(t_start, min(t_end, t_off))
        span = self.t_stop - t_start
        # The tail's exponentials need L0 times the window to be finite.
        if not np.isfinite(self.decay * (t_end - t_start)).all():
            raise IntegrationError(
                f"decay rates too stiff: L0 times the window from t={t_start:g} to t={t_end:g} is not finite"
            )
        radius = _once(self.shared, ("radius", self.key), lambda: _spectral_radius(decay, self.reach))
        self.max_step = drive.tau / 10.0
        self.stepper = _RadauLanes if radius * self.max_step > STIFF_RATIO * _STABILITY_LIMIT else _DopriLanes
        needed = span * radius / _STABILITY_LIMIT
        if self.stepper is _DopriLanes and needed > MAX_STEPS:
            raise IntegrationError(
                f"decay rates too stiff: a stable run needs at least {needed:.3g} steps; the budget is {MAX_STEPS}"
            )
        # Scaling and squaring turns the rounding of exp(L0 dt) into an error
        # of about eps * |L0 dt|_1 / _THETA13 in its slow modes, and the tail's
        # products carry it on to t_end.
        drift = _EPS * float(np.abs(self.decay).sum(axis=0).max()) * (t_end - self.t_stop) / _THETA13
        if drift > scenario.atol:
            raise IntegrationError(
                f"decay rates too stiff: the exact tail from t={self.t_stop:g} to t={t_end:g} could lose "
                f"{drift:.3g} to rounding, more than atol = {scenario.atol:g}"
            )
        # A step spans at most this many grid times: it bounds the search for them.
        self.span_rows = int(self.max_step / scenario.sample_interval) + 2
        # A tau/10 that underflows to 0 allows no step, so any span to step is too long.
        capped = span / self.max_step if self.max_step else math.inf if span else 0.0
        if capped > MAX_STEPS:
            raise IntegrationError(
                f"window too long: in steps of at most tau/10 = {self.max_step:g}, stepping from t={t_start:g} "
                f"to t={self.t_stop:g} takes at least {capped:.3g} steps; the budget is {MAX_STEPS}"
            )
        self.scenario = scenario
        self.grid = grid
        self.recorder = _SampleRecorder(scenario, len(grid), keep_from, sink)
        # The lane's column of its lane set's block at the start: y0 and, for
        # Dormand-Prince, the first stage L(t_start) y0, which each accepted
        # step then carries over from its last.
        self.column = np.zeros((self.stepper.STAGES + 2, PACKED_SIZE))
        self.y0 = self.column[-2]
        self.y0[...] = pack_state(scenario.initial_state)
        if self.stepper is _DopriLanes:
            self.column[0] = (drive_generators(t_start, drive)[0] + decay) @ self.y0
        self.recorder.record(np.concatenate((grid[:1], self.y0))[None])
        self.alpha, self.beta = self.stepper.ALPHA, self.stepper.BETA
        self.t = t_start
        self.pending = 1  # index of the next grid time to record
        self.next_time = grid[1].item() if len(grid) > 1 else math.inf  # grid[pending]
        self.h_floor = 1e-13 * max(1.0, abs(t_start), abs(self.t_stop))
        self.h = self.max_step
        self.h_try = self.t_new = math.nan
        self.accepted = self.rejected = 0
        self.just_rejected = False
        self.prev = _PREV_FLOOR  # last accepted error norm, floored
        self.failure = ""  # why the lane could not go on, when ``propose`` says so

    def propose(self) -> tuple[float, float] | None:
        """The next trial step (t, h) from the current state; None if the lane fails instead, with ``failure`` set."""
        t, t_stop = self.t, self.t_stop
        if self.accepted + self.rejected >= MAX_STEPS:
            self.failure = f"step budget of {MAX_STEPS} attempted steps exhausted at t={t:g}"
            return None
        # min() and max() spelled out: per lane and step, the builtins cost
        # as much as the rest of the controller.
        h_try = self.h
        if self.max_step < h_try:
            h_try = self.max_step
        if t_stop - t < h_try:
            h_try = t_stop - t
        t_new = t + h_try
        # A step ending within the floor of t_stop lands on it.
        if t_stop - t_new <= self.h_floor:
            t_new, h_try = t_stop, t_stop - t
        elif h_try < self.h_floor:
            self.failure = f"step size underflow at t={t:g} (h={h_try:.3e})"
            return None
        self.h_try, self.t_new = h_try, t_new
        return t, h_try

    def settle(self, square: float, lanes: "_LaneSet", i: int) -> tuple[float, float] | None:
        """Accept or reject the trial step by its sum of squared scaled errors; return the next trial step (t, h).

        An accepted step joins ``lanes.accepted``, and asks the lane set
        for the dense-output rows of the grid times in (t, t_new].  Returns
        None when the lane stops: its step landed on t_stop, or its step or
        ``propose`` set ``failure``.  ``finish`` then ends the lane, once its
        rows are recorded.
        """
        if self.failure:  # the step's system was singular (see _RadauLanes._solve)
            return None
        h_try, t_new = self.h_try, self.t_new
        norm = math.sqrt(square / PACKED_SIZE)
        if not norm <= 1.0:
            self.rejected += 1
            self.just_rejected = True
            self.h = h_try * min(1.0, max(_MIN_FACTOR, _SAFETY * norm ** -self.alpha))
            return self.propose()
        lanes.accepted.append(i)
        if self.next_time <= t_new:
            grid, pending = self.grid, self.pending
            end = bisect.bisect_right(grid, t_new, pending, min(len(grid), pending + self.span_rows))
            lanes.requests.append((i, self.t, h_try, t_new, pending, end - pending))
            lanes.rows += end - pending
            self.pending = end
            self.next_time = grid[end].item() if end < len(grid) else math.inf
        self.t = t_new
        self.accepted += 1
        if norm == 0.0:
            factor = _MAX_FACTOR
        else:  # clamped to [_MIN_FACTOR, _MAX_FACTOR], as min() and max() would (see propose)
            factor = _SAFETY * norm ** -self.alpha * self.prev ** self.beta
            factor = factor if factor > _MIN_FACTOR else _MIN_FACTOR
            factor = factor if factor < _MAX_FACTOR else _MAX_FACTOR
        self.prev = _PREV_FLOOR if _PREV_FLOOR > norm else norm
        if self.just_rejected:
            factor = factor if factor < 1.0 else 1.0
            self.just_rejected = False
        self.h = h_try * factor
        return None if t_new == self.t_stop else self.propose()

    def finish(self, y: np.ndarray) -> None:
        """Record the grid times after t_stop from y, the state at t_stop, by the exact post-pulse propagator.

        A lane that stopped short of t_stop stores its failure instead.
        With the envelopes left out the generator is L0 + delta1 D1 +
        delta2 D2, and the three commute, so y(t) = exp(L0 (t - t_stop))
        exp(dPhi1 D1 + dPhi2 D2) y, with dPhi_k the integral of delta_k
        since t_stop.  The first factor acts on the reachable components
        only (the others stay exactly zero), the second turns each
        coherence.  Every row goes through the recorder.
        """
        if self.t < self.t_stop:
            self.recorder.fail(self.failure)
            return
        times = self.grid[self.pending:]
        if self.recorder.error is not None or not len(times):
            return
        drive, reach = self.scenario.drive, self.reach
        m = np.zeros((PACKED_SIZE, PACKED_SIZE))
        m[np.ix_(reach, reach)] = self._exp_decay(self.scenario.sample_interval)
        start = np.zeros(PACKED_SIZE)
        start[reach] = self._exp_decay(times[0].item() - self.t_stop) @ y[reach]
        phase = detuning_phases(self.t_stop, drive)
        for first, rows in _decay_rows(m, start, len(times)):
            ts = times[first:first + len(rows)]
            rotate_coherences(rows, detuning_phases(ts, drive) - phase)
            self.recorder.record(np.column_stack((ts, rows)))
            if self.recorder.error is not None:
                return
        self.pending = len(self.grid)

    def _exp_decay(self, dt: float) -> np.ndarray:
        """exp(L0 dt) on the reachable components, computed once for the lanes that share L0."""
        return _once(self.shared, ("expm", self.key, dt), lambda: _expm(self.decay * dt))

    def outcome(self) -> tuple[np.ndarray, IntegrationStats]:
        """The rows from keep_from on, once ``_SampleRecorder.finish`` has sent the rest, and the run's stats.

        Raises the run's error if it has one.  The RHS evaluations are the
        generator-vector products of the attempted steps: Dormand-Prince
        makes six per attempt, after the first stage at the start; Radau IIA
        makes four, L(t + c_j h) y and L(t) y.
        """
        attempts = self.accepted + self.rejected
        evaluations = 1 + _NEW_STAGES * attempts if self.stepper is _DopriLanes else 4 * attempts
        return self.recorder.finish(self.accepted, self.rejected, evaluations)


class _FlushScratch:
    """The (rows,) work arrays of _LaneSet.flush, kept from one flush to the next and grown in steps of _BLOCK rows.

    numpy keeps freed arrays of under 1 kB for reuse, up to seven of each
    byte size, so flushes of under 128 rows that made their (rows,) arrays
    afresh would leave some behind for each row count they met: the
    96,001-row chirped trajectory, one lane that flushes at every step,
    peaked about 0.3 MB higher so.
    """

    capacity = 0

    def reserve(self, n: int) -> "_FlushScratch":
        """This scratch, with room for at least n rows."""
        if n > self.capacity:
            self.capacity = capacity = -(-n // _BLOCK) * _BLOCK
            self.index, self.step = np.empty((2, capacity), np.intp)
            self.times, self.theta = np.empty((2, capacity))
            self.span = np.arange(capacity)
        return self


class _LaneSet:
    """The arrays of the active lanes of one method, stepped together, and the dense-output rows they ask for.

    Built from the lanes' columns and rebuilt, by ``keep``, only when a lane
    stops running: the stacked generator bases and drive parameters, the
    stage times, the error-norm buffers and, in the subclasses, the method's
    own buffers and views.  ``block``, of shape (STAGES + 2, n, 16), holds
    the stages, the start state and the trial state of each lane, one
    (n, 16) slab each, so that one gather copies a lane's step for the
    dense output.  Over one round of ``_Lane.settle``, ``accepted`` collects
    the lanes whose step was accepted.  The lane set owns its pending rows:
    the steps that ask for dense-output rows join ``requests``, ``advance``
    copies their columns of ``block`` to ``blocks``, ``rows`` counts the
    rows asked for, and ``flush`` forms and records them, in the work
    arrays of ``scratch``, which ``keep`` hands on.  The lockstep loop
    flushes before every ``keep``, so no row outlives its lane set.
    """

    NODES: np.ndarray  # stage times per step, as fractions of h
    STAGES: int  # stage rows in block
    DENSE: np.ndarray  # continuous extension: W(θ) = (θ, θ², ...) @ DENSE
    ALPHA: float  # controller exponents
    BETA: float

    def __init__(self, lanes: list[_Lane], block: np.ndarray):
        n = len(lanes)
        self.lanes = lanes
        self.accepted: list[int] = []
        # (i, t, h, t_new, index of the first grid time, rows) per step; the
        # first ``gathered`` have their columns of ``block`` in ``blocks``.
        self.requests: list[tuple[int, float, float, float, int, int]] = []
        self.blocks: list[np.ndarray] = []
        self.gathered = self.rows = 0
        self.scratch = _FlushScratch()
        self.drives = DriveLanes([lane.scenario.drive for lane in lanes], len(self.NODES))
        self.basis = np.stack([lane.basis for lane in lanes])
        tolerances = np.array([(lane.scenario.rtol, lane.scenario.atol) for lane in lanes])
        self.rtol, self.atol = tolerances[:, :1], tolerances[:, 1:]
        self.block = block
        self.stages, self.y, self.trial = block[:-2].transpose(1, 0, 2), block[-2], block[-1]
        # What an accepted step carries over, (to, from) per pair.
        self.carry = [(self.y, self.trial)]
        self.times = np.empty((n, len(self.NODES)))
        # Generator coefficients at the stage times; the trailing 1 picks L0
        # out of the basis.
        self.coefs = np.ones((n, len(self.NODES), 5))
        self.drive_coefs = self.coefs[..., :4]
        self.gens = np.empty((n, len(self.NODES), PACKED_SIZE * PACKED_SIZE))
        self.err = np.empty((n, PACKED_SIZE))
        self.scale = np.empty((n, PACKED_SIZE))
        self.abs_states = np.empty((2, n, PACKED_SIZE))  # |y| and |trial|

    def step(self, steps: list[tuple[float, float]]) -> list[float]:
        """Attempt one step (t, h) per lane; return the sums of the squared scaled errors.

        The squared error norm is that sum over PACKED_SIZE: the mean
        square of the error scaled by the tolerances.  A lane whose trial
        state is not finite gets inf, the smallest shrink factor.
        """
        steps = np.array(steps)
        t, h = steps[:, :1], steps[:, 1:]
        np.add(t, np.multiply(h, self.NODES, out=self.times), out=self.times)
        drive_coefficients(self.times, self.drives, out=self.drive_coefs)
        np.matmul(self.coefs, self.basis, out=self.gens)
        self._attempt(h)
        squares = self._squares()
        if np.isfinite(self.trial).all():
            return squares
        finite = np.isfinite(self.trial).all(axis=1).tolist()
        return [square if ok else math.inf for square, ok in zip(squares, finite)]

    def _attempt(self, h: np.ndarray) -> None:
        """From the generators at the stage times, form the stages, the trial state and, in ``err``, its error."""
        raise NotImplementedError

    def _squares(self) -> list[float]:
        """The sums of the squared errors, each scaled by atol + rtol * max(|y|, |trial|)."""
        err, scale = self.err, self.scale
        abs_y, abs_trial = np.abs(self.block[-2:], out=self.abs_states)
        np.maximum(abs_y, abs_trial, out=scale)
        np.multiply(self.rtol, scale, out=scale)
        np.add(self.atol, scale, out=scale)
        np.divide(err, scale, out=err)
        return np.vecdot(err, err).tolist()

    def keep(self, indices: list[int]) -> "_LaneSet":
        """The lane set of the lanes at ``indices``, with their columns of ``block`` (states, carried stages)."""
        kept = type(self)([self.lanes[i] for i in indices], self.block[:, indices])
        kept.scratch = self.scratch
        return kept

    def advance(self) -> None:
        """Copy the new requests' columns of ``block``; carry the accepted lanes' trial states (and stages) over."""
        if self.gathered < len(self.requests):
            self.blocks.append(self.block[:, [request[0] for request in self.requests[self.gathered:]]])
            self.gathered = len(self.requests)
        accepted = self.accepted
        if len(accepted) == len(self.lanes):
            for to, source in self.carry:
                np.copyto(to, source)
        elif accepted:
            for to, source in self.carry:
                to[accepted] = source[accepted]
        accepted.clear()

    def flush(self) -> None:
        """Form the rows asked for since the last flush and record them in their lanes' recorders.

        A step asks for the grid times t_j in (t, t_new]; the row at t_j is
        y + h·W(theta) @ K with theta = (t_j - t)/h, from the step's start
        state y and stages K, except that a time the step lands on takes
        the step's own state.  Each lane gets its rows in one slice, in
        time order.  The steps with m rows form them with the (m, 4) and
        (m, 7) products one step alone would use, stacked, so a row's bits
        do not depend on the other steps flushed with it.  A flush costs
        about 40 numpy calls plus 10 per distinct m and one ``record`` call
        per lane, however many rows it forms, so the lockstep loop flushes
        only when _ROWS_PER_LANE rows per lane, and at least _BLOCK rows,
        are asked for, or a lane stops: a full 64-lane chunk flushes at 256
        rows, a narrow sweep or a one-lane run at one recorder block.  A
        lane's rows so reach its recorder in order and before its tail or
        failure, and its first bad row is the one a per-step recorder finds.
        The lanes share one sample grid.
        """
        if not self.requests:
            return
        n = self.rows
        spec, block = np.array(self.requests), np.concatenate(self.blocks, axis=1)
        scratch = self.scratch.reserve(n)
        self.requests, self.gathered, self.blocks, self.rows = [], 0, [], 0
        stages, y, trial = block[:-2].transpose(1, 0, 2), block[-2], block[-1]
        owners, first, counts = spec[:, [0, 4, 5]].astype(np.intp).T
        t, h, grid, span = spec[:, 1], spec[:, 2], self.lanes[0].grid, scratch.span
        # Each lane's rows take one slice of ``samples``, in time order: step
        # s's rows start at row starts[s], and row r is one of step[r]'s.
        order = np.argsort(owners, kind="stable")
        ends = np.cumsum(counts[order])
        starts = np.empty_like(counts)
        starts[order] = ends - counts[order]
        index, step, times, theta = scratch.index[:n], scratch.step[:n], scratch.times[:n], scratch.theta[:n]
        index[:] = 0
        index[ends[:-1]] = 1
        # Every index is in range; mode="clip" lets np.take write to ``out`` directly.
        np.take(order, np.cumsum(index, out=index), out=step, mode="clip")
        np.take(first - starts, step, out=index, mode="clip")
        np.take(grid, np.add(index, span[:n], out=index), out=times, mode="clip")
        samples = np.empty((n, 1 + PACKED_SIZE))
        samples[:, 0] = times
        # theta = (times - t) / h per row; ``times`` takes each row's h once copied.
        np.subtract(times, np.take(t, step, out=theta, mode="clip"), out=theta)
        np.divide(theta, np.take(h, step, out=times, mode="clip"), out=theta)
        degree = len(self.DENSE)
        powers = np.repeat(theta, degree).reshape(-1, degree)
        np.cumprod(powers, axis=1, out=powers)
        # The steps with m rows each form them in (m, degree) @ (degree,
        # stages) and (m, stages) @ (stages, 16) products, as each would alone.
        for m in np.flatnonzero(np.bincount(counts)).tolist():
            steps = np.flatnonzero(counts == m)
            rows = np.add(starts[steps, None], span[:m], out=scratch.index[:len(steps) * m].reshape(-1, m))
            weights = np.matmul(powers[rows], self.DENSE)
            weights *= h[steps, None, None]
            samples[rows, 1:] = y[steps, None] + np.matmul(weights, stages[steps])
        landed = grid[first + counts - 1] == spec[:, 3]
        samples[(starts + counts - 1)[landed], _STATE] = trial[landed]
        bounds = np.cumsum(np.bincount(owners, counts, len(self.lanes))).astype(np.intp).tolist()
        for lane, start, end in zip(self.lanes, [0] + bounds, bounds):
            if end > start:
                lane.recorder.record(samples[start:end])


class _DopriLanes(_LaneSet):
    """Dormand-Prince lanes: seven stages, the first carried over from the last of the previous step."""

    NODES, STAGES, DENSE, ALPHA, BETA = _C, 7, _P, _ALPHA, _BETA

    def __init__(self, lanes: list[_Lane], block: np.ndarray):
        super().__init__(lanes, block)
        n = len(lanes)
        self.carry.append((block[0], block[6]))
        self.h_a = np.empty((n,) + _A.shape)
        self.sums = np.empty((n, 1, PACKED_SIZE))
        self.y_new = self.trial[:, None]
        gens = self.gens.reshape(n, len(_C), PACKED_SIZE, PACKED_SIZE)
        y, column = self.y[:, None], self.trial[:, :, None]
        # Stage k is L(t + c_k h) (y + (h·_A)[k-1, :k] @ stages[:k]); the
        # last two stages share c = 1.
        self.stage_views = [
            (self.h_a[:, k - 1:k, :k], self.stages[:, :k], y, gens[:, min(k, len(_C)) - 1], column,
             self.stages[:, k, :, None])
            for k in range(1, _NEW_STAGES + 1)
        ]

    def _attempt(self, h: np.ndarray) -> None:
        np.multiply(h[:, :, None], _A, out=self.h_a)
        sums, y_new = self.sums, self.y_new
        for h_a, stages, y, gen, column, out in self.stage_views:
            np.matmul(h_a, stages, out=sums)
            np.add(y, sums, out=y_new)
            np.matmul(gen, column, out=out)
        np.matmul(_E, self.stages, out=self.err)
        np.multiply(h, self.err, out=self.err)


class _RadauLanes(_LaneSet):
    """Radau IIA lanes: per step one (48, 48) solve for the stages and one (16, 16) solve for the error.

    The generators are built at t (for the error estimate) and at the three
    collocation nodes.  ``block`` holds K_1..K_3, y and the trial state.
    """

    NODES = np.concatenate(((0.0,), _RADAU_C))
    STAGES, DENSE, ALPHA, BETA = 3, _RADAU_P, _RADAU_ALPHA, _RADAU_BETA

    def __init__(self, lanes: list[_Lane], block: np.ndarray):
        super().__init__(lanes, block)
        n, size = len(lanes), PACKED_SIZE
        gens = self.gens.reshape(n, len(self.NODES), size, size)
        self.start_gen = gens[:, 0]  # L(t)
        self.node_gens = gens[:, 1:]  # L(t + c_j h)
        # I - h [a_ij L_j] with entry (i, r, j, s) = delta_ij delta_rs - h a_ij L_j[r, s].
        self.system = np.empty((n, 3, size, 3, size))
        self.system_blocks = self.node_gens.transpose(0, 2, 1, 3)[:, None]
        self.h_a = np.empty((n, 3, 1, 3, 1))
        self.matrix = self.system.reshape(n, 3 * size, 3 * size)
        self.system_diagonal = self.matrix.reshape(n, -1)[:, ::3 * size + 1]
        self.node_products = np.empty((n, 3, size, 1))  # L_j y
        self.rhs = np.empty((n, 3, size))
        self.estimate = np.empty((n, size, size))  # u1/h I - L(t)
        self.estimate_diagonal = self.estimate.reshape(n, -1)[:, ::size + 1]
        self.start_product = np.empty((n, size, 1))  # L(t) y

    def _attempt(self, h: np.ndarray) -> None:
        n = len(self.lanes)
        np.multiply(h[:, :, None, None, None], _RADAU_MINUS_A, out=self.h_a)
        np.multiply(self.h_a, self.system_blocks, out=self.system)
        self.system_diagonal += 1.0
        np.matmul(self.node_gens, self.y[:, None, :, None], out=self.node_products)
        np.matmul(_RADAU_A, self.node_products[..., 0], out=self.rhs)
        self.stages[...] = self._solve(self.matrix, self.rhs.reshape(n, -1, 1)).reshape(n, 3, PACKED_SIZE)
        np.multiply(h, self.stages[:, 2], out=self.trial)
        np.add(self.y, self.trial, out=self.trial)
        np.matmul(self.start_gen, self.y[:, :, None], out=self.start_product)
        np.matmul(_RADAU_DD, self.stages, out=self.err)
        np.add(self.err, self.start_product[..., 0], out=self.err)
        np.negative(self.start_gen, out=self.estimate)
        self.estimate_diagonal += _RADAU_U1 / h
        self.err[...] = self._solve(self.estimate, self.err[..., None])[..., 0]

    def _solve(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """np.linalg.solve(a, b) per lane; a singular lane gets NaN and a ``failure``, on which ``settle`` stops it."""
        try:
            return np.linalg.solve(a, b)
        except np.linalg.LinAlgError:
            x = np.full(b.shape, math.nan)
            for i, lane in enumerate(self.lanes):
                try:
                    x[i] = np.linalg.solve(a[i], b[i])
                except np.linalg.LinAlgError:
                    lane.failure = f"Radau IIA system singular at t={lane.t:g} (h={lane.h_try:.3e})"
            return x


def _run_lanes(lanes: list[_Lane]) -> None:
    """Step every lane to its t_stop, in one lockstep group per method and sample grid, and let each record its tail."""
    groups: dict = {}
    for lane in lanes:
        if lane.t >= lane.t_stop:  # no pulse or a one-row grid: nothing to step
            lane.finish(lane.y0)
        else:
            groups.setdefault((lane.stepper, id(lane.grid)), []).append(lane)
    for (stepper, _), group in groups.items():
        _run_group(stepper, group)


def _run_group(stepper: type[_LaneSet], lanes: list[_Lane]) -> None:
    """Step lanes of one method to their t_stop in lockstep, and let each record its tail from there.

    Each iteration attempts one step per lane with one stacked generator
    build, and lets each lane accept or reject its own and propose its
    next.  The dense-output rows are recorded in batches of
    _ROWS_PER_LANE rows per lane, and at least _BLOCK rows (see
    _LaneSet.flush), and at once when a lane lands on t_stop or cannot go
    on; after each batch, every lane that stopped or whose rows failed the
    physicality check records its tail or failure and leaves the active
    set.  So the lane set flushes before every shrink, and ``keep`` starts
    the smaller one with no rows pending.
    """
    active = stepper(lanes, np.stack([lane.column for lane in lanes], axis=1))
    steps = [lane.propose() for lane in lanes]
    while True:
        if None in steps or active.rows >= max(_BLOCK, _ROWS_PER_LANE * len(active.lanes)):
            active.flush()
            steps = [None if lane.recorder.error is not None else step for lane, step in zip(active.lanes, steps)]
        if None in steps:
            for lane, y, step in zip(active.lanes, active.y, steps):
                if step is None:
                    lane.finish(y)
            staying = [i for i, step in enumerate(steps) if step is not None]
            if not staying:
                return
            active, steps = active.keep(staying), [steps[i] for i in staying]
        squares = active.step(steps)
        steps = [lane.settle(square, active, i) for i, (lane, square) in enumerate(zip(active.lanes, squares))]
        active.advance()


def integrate(scenario: Scenario) -> Trajectory:
    """Propagate the scenario and record observables on the sample grid.

    The run is the one-lane case of the lockstep stepper that sweeps use.
    The error controller chooses the steps, capped at tau/10, up to the end
    of the pulses or of the window, whichever comes first; the grid times
    inside each accepted step are read off the continuous extension from
    the step's own stages, and the last step lands on that end.  The grid
    times after it come from the exact post-pulse propagator.  Each
    attempted step builds the generators at its stage times in one stacked
    product: five new ones for Dormand-Prince, and for Radau IIA, chosen
    when the decay is stiff (see STIFF_RATIO), the three collocation nodes
    and the step's start.

    Raises PhysicalityError if a recorded sample violates the scenario's
    trace or positivity tolerances, and IntegrationError on step-size
    underflow, a singular Radau IIA system or a non-finite state, or when
    the stepped span needs more than MAX_STEPS attempted steps (checked up
    front from the tau/10 cap and, for explicit steps, from the spectral
    radius of L0 on the reachable components, and again in the loop), or
    when decay rates that stiff would make the exact tail's rounding
    exceed atol, or L0 times the window is not finite.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        lane = _Lane(scenario, sample_times(scenario), sink=_discard)
        _run_lanes([lane])
        return Trajectory(scenario, *lane.outcome())


def stream_trajectory(
    scenario: Scenario, sink: Callable[[np.ndarray], None] = _discard
) -> tuple[SteadySummary | InsufficientDataError, IntegrationStats]:
    """Run ``integrate(scenario)``, handing its rows to ``sink`` as they are checked, and summarise the steady window.

    ``sink`` gets the rows of ``integrate(scenario).columns`` in time order,
    in (m, 20) slices of at least _FINISH_ROWS rows but the last, and must
    copy what it keeps.  The run holds only its steady window and one batch
    of rows.  Returns what ``detect_steady_state(integrate(scenario))``
    returns, bit for bit, or the InsufficientDataError it raises, and the
    run's stats; raises what ``integrate`` raises, which comes first.
    """
    grid = sample_times(scenario)
    start, window_error = _window_start(scenario, grid)
    with np.errstate(over="ignore", invalid="ignore"):
        lane = _Lane(scenario, grid, bisect.bisect_left(grid, start), sink=sink)
        _run_lanes([lane])
        window, stats = lane.outcome()
    return window_error or _steady_summary(window, start), stats


def steady_states(scenarios: Sequence[Scenario]) -> list[SteadySummary | SimulationError]:
    """Integrate the scenarios as lanes of one lockstep run and summarise each one's steady state.

    Entry i is what ``detect_steady_state(integrate(scenarios[i]))``
    returns, bit for bit, or the error it raises: a lane that fails
    to start, to step or to summarise leaves the others untouched, except
    that ``record.min_eigenvalue`` is NaN where the Cholesky certificate
    passed.  Each lane checks every sample with the verdict of
    ``observables.packed_verdict`` and keeps only the rows of its trailing
    window, so memory does not grow with the sample grid; a lane that ends
    without error then forms their purity column.
    """
    outcomes: list = [None] * len(scenarios)
    lanes = {}
    shared: dict = {}  # one grid per time window, and the set-up that lanes share (see _Lane)
    with np.errstate(over="ignore", invalid="ignore"):
        for i, scenario in enumerate(scenarios):
            window = ("grid", scenario.t_start, scenario.t_end, scenario.sample_interval)
            grid = _once(shared, window, lambda: sample_times(scenario))
            start, window_error = _window_start(scenario, grid)
            try:
                lane = _Lane(scenario, grid, bisect.bisect_left(grid, start), shared)
                lanes[i] = (lane, start, window_error)
            except SimulationError as exc:
                outcomes[i] = exc
        _run_lanes([lane for lane, _, _ in lanes.values()])
        for i, (lane, start, window_error) in lanes.items():
            rows = lane.recorder.kept()  # checks the last rows, and a lane that took no step its only one
            outcomes[i] = lane.recorder.error or window_error
            if outcomes[i] is None:
                rows[:, -3] = packed_purity(rows[:, _STATE])  # the purity column, left out by the verdict
                outcomes[i] = _steady_summary(rows, start)
    return outcomes


def integrate_fixed_step(scenario: Scenario, dt: float) -> Trajectory:
    """Classical fourth-order propagation with uniform steps; test cross-check.

    Requires dt <= tau/40 so the pulses stay well resolved, and at most
    _RK4_BUDGET substeps in all.
    """
    if not (math.isfinite(dt) and dt > 0):
        raise InvalidParameterError(f"dt must be positive, got {dt!r}")
    if dt > scenario.drive.tau / 40.0:
        raise InvalidParameterError(
            f"dt={dt!r} too coarse: fixed-step runs require dt <= tau/40 = {scenario.drive.tau / 40.0:g}"
        )

    grid = sample_times(scenario)
    quotient = scenario.sample_interval / dt - 1e-9
    n_sub = max(1, math.ceil(quotient)) if math.isfinite(quotient) else math.inf
    substeps = (len(grid) - 1) * n_sub
    if not substeps <= _RK4_BUDGET:
        raise InvalidParameterError(f"dt={dt!r} too fine: {substeps:.3g} substeps; the budget is {_RK4_BUDGET}")

    drive = scenario.drive
    decay = decay_generator(scenario.params)
    recorder = _SampleRecorder(scenario, len(grid), sink=_discard)

    y = pack_state(scenario.initial_state)
    recorder.record(np.concatenate((grid[:1], y))[None])

    def rhs(coherent: np.ndarray, y: np.ndarray) -> np.ndarray:
        return coherent @ y + decay @ y

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
        if recorder.error:
            break
        recorder.record(np.concatenate(((target,), y))[None])

    return Trajectory(scenario, *recorder.finish(steps, 0, 4 * steps))


def _steady_window(scenario: Scenario, grid: np.ndarray) -> float:
    """Check that a run sampled on ``grid`` has a usable trailing window; return the window's start."""
    first, last = grid[0].item(), grid[-1].item()
    if STEADY_WINDOW > last - first:
        raise InsufficientDataError(
            f"window {STEADY_WINDOW:g} exceeds trajectory span {last - first:g}"
        )
    pulses_off = scenario.drive.pulses_off_after()
    if last - STEADY_WINDOW < pulses_off:
        raise InsufficientDataError(
            f"trajectory ends at t={last:g}, but needs to reach t={pulses_off + STEADY_WINDOW:g} "
            f"(pulses off at t={pulses_off:g} plus window {STEADY_WINDOW:g})"
        )
    start = last - STEADY_WINDOW - 1e-12
    if len(grid) - bisect.bisect_left(grid, start) < 2:
        raise InsufficientDataError(
            f"window {STEADY_WINDOW:g} holds one sample (t={last:g}); a steady verdict needs two: "
            f"use a sample_interval of at most {STEADY_WINDOW:g}"
        )
    return start


def _window_start(scenario: Scenario, grid: np.ndarray) -> tuple[float, InsufficientDataError | None]:
    """The start of the steady window, or inf and its error, which is reported only if the run itself succeeds."""
    try:
        return _steady_window(scenario, grid), None
    except InsufficientDataError as exc:
        return math.inf, exc


def _steady_summary(rows: np.ndarray, start: float) -> SteadySummary:
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
        converged=max_delta < STEADY_TOL,
        time=final.time,
        state=final.state,
        record=final.record,
        doublet_population=final.record.doublet_population,
        doublet_purity=final.record.doublet_purity,
        abs_coherence_21=abs(final.record.c21),
        max_delta=max_delta,
    )


def detect_steady_state(traj: Trajectory) -> SteadySummary:
    """Decide whether the late-time state has stopped evolving.

    Convergence requires the doublet population, |rho21|, and the doublet
    purity to each vary by less than STEADY_TOL over the trailing
    STEADY_WINDOW; the returned values are read from the final sample.  The
    trajectory must extend at least STEADY_WINDOW past the point where both
    pulse envelopes have fallen below 1e-6 of their peaks, and the window
    must hold at least two samples.
    """
    start = _steady_window(traj.scenario, traj.times)
    return _steady_summary(traj.columns, start)
