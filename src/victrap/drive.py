"""Time-dependent Rabi envelopes and chirped detunings.

The drive is stated once, vectorised over time: ``drive_coefficients``
gives (g1, g2, delta1, delta2) at an array of times, the coefficients of
the affine generator.  The integrator evaluates all stage times of a step
in one call; the scalar functions below are single-time views of it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import ChirpProfile, DriveConfig

__all__ = ["DriveSample", "drive_coefficients", "pulse_envelopes", "chirped_detunings", "drive_sample"]


@dataclass(frozen=True)
class DriveSample:
    """Instantaneous drive values: the two Rabi envelopes and detunings."""

    g1: float
    g2: float
    delta1: float
    delta2: float


def drive_coefficients(ts, drive: DriveConfig) -> np.ndarray:
    """Drive values at the times ``ts`` as an (n, 4) array of (g1, g2, delta1, delta2).

    Gaussian envelopes g_k = g0k * exp(-(t - c_k)^2 / tau^2) peak at the
    pulse centers c_k.  With chirping enabled each detuning sweeps by its
    chi amplitude around the static offset, centered on the corresponding
    pulse; disabled, the detunings are the static offsets.
    """
    t = np.asarray(ts, dtype=float).reshape(-1, 1)
    offsets = t - (drive.center1, drive.center2)
    u = offsets / drive.tau
    out = np.empty((t.shape[0], 4))
    out[:, :2] = np.exp(-u * u) * (drive.g01, drive.g02)
    out[:, 2:] = (drive.static_delta1, drive.static_delta2)
    if drive.chirp_enabled:
        f = np.tanh(offsets / drive.chirp_ramp) if drive.chirp_profile is ChirpProfile.TANH else 1.0
        out[:, 2:] += f * np.array((drive.chi1, drive.chi2))
    return out


def pulse_envelopes(t: float, drive: DriveConfig) -> tuple[float, float]:
    """Gaussian envelopes (g1, g2) of the two pulses at time t."""
    g1, g2, _, _ = drive_coefficients(t, drive)[0].tolist()
    return g1, g2


def chirped_detunings(t: float, drive: DriveConfig) -> tuple[float, float]:
    """Detunings (delta1, delta2) of the two drives at time t."""
    _, _, d1, d2 = drive_coefficients(t, drive)[0].tolist()
    return d1, d2


def drive_sample(t: float, drive: DriveConfig) -> DriveSample:
    """Bundle envelopes and detunings for one time point."""
    return DriveSample(*drive_coefficients(t, drive)[0].tolist())
