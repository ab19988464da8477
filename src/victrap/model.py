"""Physical parameters, density-matrix state type, and derived rates.

The four-level system consists of a ground state |0>, a near-degenerate
excited doublet |1>, |2> whose emission channels into |0> interfere, and a
metastable level |3>.  All rates are expressed in units of a reference
linewidth gamma and all times in 1/gamma, so every quantity here is a plain
dimensionless float.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .errors import ContractViolationError, InvalidParameterError

__all__ = [
    "CHIRP_BASELINE",
    "DIM",
    "HERMITICITY_TOL",
    "MAX_SAMPLE_ROWS",
    "DensityMatrix",
    "SystemParams",
    "DriveConfig",
    "Scenario",
    "ObservableRecord",
    "PhysicalityReport",
    "cross_damping",
    "coherence_decay_rate",
    "initial_metastable",
    "ground_state",
    "maximally_mixed",
    "validate_physicality",
]

DIM = 4

# Constructor-level Hermiticity contract; physical-state tolerances
# (trace_tol, pos_tol) are per-scenario knobs.
HERMITICITY_TOL = 1e-12

# Cap on the recording grid, floor(span/sample_interval) + 1 rows, checked
# before anything is allocated; the presets use at most 1,921 rows.
MAX_SAMPLE_ROWS = 100_000

# Chirp amplitudes (chi1, chi2) of the chirped scenarios, and of a config
# file's [chirp] section switched on without amplitudes.
CHIRP_BASELINE = (0.3, 0.2)

_PULSE_OFF_FRACTION = 1e-6  # below this fraction of its peak an envelope counts as off


def cross_damping(gamma01: float, gamma02: float, theta: float) -> float:
    """Interference cross-damping rate sqrt(g01*g02)*cos(theta).

    This is the rate at which the shared vacuum couples the two doublet
    emission channels; theta is the angle between the transition dipoles.
    The result always satisfies result**2 <= gamma01*gamma02.
    """
    if gamma01 < 0 or gamma02 < 0:
        raise InvalidParameterError(
            f"decay rates must be nonnegative, got {gamma01!r}, {gamma02!r}"
        )
    return math.sqrt(gamma01 * gamma02) * math.cos(theta)


_LEVELS = (0, 1, 2, 3)


def coherence_decay_rate(i: int, j: int, params: "SystemParams") -> float:
    """Damping rate of the coherence between levels i and j.

    Half the total decay rate out of each level plus the collisional rate.
    Level 0 does not decay; levels 1, 2, 3 decay at gamma01, gamma02,
    gamma03 respectively.
    """
    if i == j:
        raise InvalidParameterError(f"coherence requires two distinct levels, got i=j={i}")
    if i not in _LEVELS or j not in _LEVELS:
        raise InvalidParameterError(f"level indices must be in 0..3, got {i}, {j}")
    out = (0.0, params.gamma01, params.gamma02, params.gamma03)
    return 0.5 * (out[i] + out[j]) + params.gamma_coll


class DensityMatrix:
    """Immutable 4x4 Hermitian density matrix.

    The stored matrix is exactly Hermitian: construction symmetrizes
    (M + M^dagger)/2 after checking that the input defect is within
    ``HERMITICITY_TOL``.  Trace and positivity are *diagnostics*, checked by
    :func:`validate_physicality`, so that mid-integration states may carry
    small numerical drift without being rejected at construction.
    """

    __slots__ = ("_m",)

    def __init__(self, matrix: np.ndarray):
        m = np.asarray(matrix, dtype=complex)
        if m.shape != (DIM, DIM):
            raise ContractViolationError(f"expected a {DIM}x{DIM} matrix, got shape {m.shape}")
        if not np.all(np.isfinite(m.view(float))):
            raise ContractViolationError("density matrix contains non-finite entries")
        defect = float(np.max(np.abs(m - m.conj().T)))
        if defect > HERMITICITY_TOL:
            raise ContractViolationError(
                f"matrix is not Hermitian (defect {defect:.3e} > {HERMITICITY_TOL:.0e})"
            )
        m = (m + m.conj().T) / 2.0
        m.flags.writeable = False
        self._m = m

    @property
    def matrix(self) -> np.ndarray:
        """Read-only view of the underlying 4x4 complex array."""
        return self._m

    @classmethod
    def pure(cls, level: int) -> "DensityMatrix":
        if level not in _LEVELS:
            raise InvalidParameterError(f"level must be in 0..3, got {level}")
        m = np.zeros((DIM, DIM), dtype=complex)
        m[level, level] = 1.0
        return cls(m)

    def __eq__(self, other) -> bool:
        if not isinstance(other, DensityMatrix):
            return NotImplemented
        return bool(np.array_equal(self._m, other._m))

    def __hash__(self):
        return hash(self._m.tobytes())

    def __repr__(self) -> str:
        diag = ", ".join(f"{v.real:.4g}" for v in np.diag(self._m))
        return f"DensityMatrix(diag=[{diag}])"


def initial_metastable() -> DensityMatrix:
    """Pure state |3><3|: the population reservoir before the pulse pair."""
    return DensityMatrix.pure(3)


def ground_state() -> DensityMatrix:
    """Pure state |0><0|."""
    return DensityMatrix.pure(0)


def maximally_mixed() -> DensityMatrix:
    """Identity/4."""
    return DensityMatrix(np.eye(DIM, dtype=complex) / DIM)


class PhysicalityReport(NamedTuple):
    """Diagnostics from :func:`validate_physicality`; callers decide whether to abort."""

    trace_error: float
    min_eigenvalue: float
    trace_ok: bool
    positive_ok: bool

    @property
    def ok(self) -> bool:
        return self.trace_ok and self.positive_ok


def validate_physicality(
    rho: DensityMatrix,
    trace_tol: float = 1e-6,
    pos_tol: float = 1e-7,
) -> PhysicalityReport:
    """Measure trace error and minimum eigenvalue; a DensityMatrix is exactly Hermitian by construction.

    The minimum eigenvalue is ``observables.packed_min_eigenvalues``' (see
    there for its error bound).
    """
    # Imported here because liouvillian and observables import this module.
    from .liouvillian import pack_state
    from .observables import packed_min_eigenvalues

    m = rho.matrix
    trace_error = abs(float(np.trace(m).real) - 1.0)
    min_eig = float(packed_min_eigenvalues(pack_state(rho)[None])[0])
    return PhysicalityReport(
        trace_error=trace_error,
        min_eigenvalue=min_eig,
        trace_ok=trace_error <= trace_tol,
        positive_ok=min_eig >= -pos_tol,
    )


@dataclass(frozen=True)
class SystemParams:
    """Decay rates, collisional rate, and the dipole angle.

    Defaults are the baseline parameter set used throughout the preset
    scenarios (gamma01=5.8, gamma02=2.2, gamma03=0.1, theta=0).

    theta must lie in [0, pi/2], the explored range.
    """

    gamma01: float = 5.8
    gamma02: float = 2.2
    gamma03: float = 0.1
    gamma_coll: float = 0.0
    theta: float = 0.0

    def __post_init__(self):
        for name in ("gamma01", "gamma02", "gamma03", "gamma_coll"):
            value = getattr(self, name)
            if not math.isfinite(value) or value < 0:
                raise InvalidParameterError(f"{name} must be a finite nonnegative rate, got {value!r}")
        if not 0.0 <= self.theta <= math.pi / 2:  # also rejects nan
            raise InvalidParameterError(f"theta must lie in [0, pi/2] (got {self.theta!r})")

    @property
    def gamma12(self) -> float:
        """Cross-damping rate between the doublet emission channels."""
        return cross_damping(self.gamma01, self.gamma02, self.theta)


@dataclass(frozen=True)
class DriveConfig:
    """Pulse amplitudes/timing and detuning sweep settings.

    Pulse 1 (amplitude ``g01``) couples |0> to both doublet levels and peaks
    at ``t_origin``; pulse 2 (amplitude ``g02``) couples |0> to |3> and peaks
    at ``t_origin + t0``.  ``t0`` is signed.  The detunings are
    static_delta_i + chi_i * tanh((t - center_i)/chirp_ramp), each swept
    around its pulse center.  The chirp is off exactly when chi1 = chi2 = 0,
    the defaults; the chirped scenarios use ``CHIRP_BASELINE``.  The ramp
    time defaults to half the pulse width (2.0).
    """

    g01: float = 0.9
    g02: float = 0.3
    tau: float = 4.0
    t0: float = 10.0
    chi1: float = 0.0
    chi2: float = 0.0
    chirp_ramp: float = 2.0
    static_delta1: float = 0.0
    static_delta2: float = 0.0
    t_origin: float = 0.0

    def __post_init__(self):
        if not (math.isfinite(self.tau) and self.tau > 0):
            raise InvalidParameterError(f"tau must be a positive pulse width, got {self.tau!r}")
        if not (math.isfinite(self.chirp_ramp) and self.chirp_ramp > 0):
            raise InvalidParameterError(f"chirp_ramp must be a positive time, got {self.chirp_ramp!r}")
        for name in ("g01", "g02"):
            value = getattr(self, name)
            if not math.isfinite(value) or value < 0:
                raise InvalidParameterError(f"{name} must be a finite nonnegative amplitude, got {value!r}")
        for name in ("t0", "chi1", "chi2", "static_delta1", "static_delta2", "t_origin"):
            if not math.isfinite(getattr(self, name)):
                raise InvalidParameterError(f"{name} must be finite, got {getattr(self, name)!r}")

    @property
    def center1(self) -> float:
        """Center of pulse 1 (and of its chirp ramp)."""
        return self.t_origin

    @property
    def center2(self) -> float:
        """Center of pulse 2 (and of its chirp ramp)."""
        return self.t_origin + self.t0

    def pulses_off_after(self) -> float:
        """Time after which both envelopes stay below _PULSE_OFF_FRACTION of their peaks.

        Zero-amplitude pulses never constrain this; with both amplitudes
        zero the result is -inf (there is no pulse to wait out).
        """
        centers = []
        if self.g01 > 0:
            centers.append(self.center1)
        if self.g02 > 0:
            centers.append(self.center2)
        if not centers:
            return -math.inf
        half_width = self.tau * math.sqrt(math.log(1.0 / _PULSE_OFF_FRACTION))
        return max(centers) + half_width


@dataclass(frozen=True)
class Scenario:
    """Everything that determines one run: system, drive, state, window, tolerances."""

    params: SystemParams = field(default_factory=SystemParams)
    drive: DriveConfig = field(default_factory=DriveConfig)
    initial_state: DensityMatrix = field(default_factory=initial_metastable)
    t_start: float = -16.0
    t_end: float = 80.0
    sample_interval: float = 0.05
    rtol: float = 1e-8
    atol: float = 1e-10
    trace_tol: float = 1e-6
    pos_tol: float = 1e-7

    def __post_init__(self):
        if not (math.isfinite(self.t_start) and math.isfinite(self.t_end) and self.t_start < self.t_end):
            raise InvalidParameterError(
                f"need t_start < t_end, got [{self.t_start!r}, {self.t_end!r}]"
            )
        for name in ("sample_interval", "rtol", "atol"):
            value = getattr(self, name)
            if not math.isfinite(value) or value <= 0:
                raise InvalidParameterError(f"{name} must be positive, got {value!r}")
        # rows = floor(quotient + 1e-9) + 1, as in integrator.sample_times.
        quotient = (self.t_end - self.t_start) / self.sample_interval
        if not quotient + 1e-9 < MAX_SAMPLE_ROWS:
            raise InvalidParameterError(
                f"sample grid of {quotient:.3g} intervals exceeds the cap of {MAX_SAMPLE_ROWS} rows; "
                "raise sample_interval or shorten the window"
            )
        for name in ("trace_tol", "pos_tol"):
            value = getattr(self, name)
            if not math.isfinite(value) or value <= 0:
                raise InvalidParameterError(f"{name} must be positive, got {value!r}")
        report = validate_physicality(self.initial_state, self.trace_tol, self.pos_tol)
        if not report.ok:
            raise InvalidParameterError(
                "initial state is unphysical: "
                f"trace_error={report.trace_error:.3e}, "
                f"min_eigenvalue={report.min_eigenvalue:.3e}"
            )


class ObservableRecord(NamedTuple):
    """Per-sample observables: populations, coherences, block purity, diagnostics."""

    time: float
    p0: float
    p1: float
    p2: float
    p3: float
    c10: complex
    c20: complex
    c21: complex
    c30: complex
    c31: complex
    c32: complex
    doublet_purity: float
    trace_error: float
    min_eigenvalue: float

    @property
    def doublet_population(self) -> float:
        return self.p1 + self.p2
