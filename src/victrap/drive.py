"""Time-dependent Rabi envelopes and chirped detunings.

The drive is stated once, vectorised over time and over lanes:
``drive_coefficients`` gives (g1, g2, delta1, delta2), the coefficients of
the affine generator, at an array of times for one ``DriveConfig`` or at
one row of times per lane for a ``DriveLanes`` stack.  The integrator
evaluates all stage times of every lane's step in one call; the scalar
functions below are single-time views of it.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .errors import ContractViolationError
from .model import ChirpProfile, DriveConfig

__all__ = ["DriveSample", "DriveLanes", "drive_coefficients", "pulse_envelopes", "chirped_detunings", "drive_sample"]


@dataclass(frozen=True)
class DriveSample:
    """Instantaneous drive values: the two Rabi envelopes and detunings."""

    g1: float
    g2: float
    delta1: float
    delta2: float


class DriveLanes:
    """The numeric drive parameters of several lanes, one row per lane.

    Each array has shape (lanes, 1, k), ready to broadcast against a
    (lanes, times, 1) array of times.  The chirp switch and profile are
    shared by all lanes (no sweep axis changes them).
    """

    __slots__ = ("centers", "tau", "amplitudes", "static", "chi", "ramp", "chirp", "tanh")
    _FIELDS = ("center1", "center2", "tau", "g01", "g02", "static_delta1", "static_delta2", "chi1", "chi2",
               "chirp_ramp")

    def __init__(self, drives: Sequence[DriveConfig]):
        first = drives[0]
        if any((d.chirp_enabled, d.chirp_profile) != (first.chirp_enabled, first.chirp_profile) for d in drives):
            raise ContractViolationError("lanes of one stack must share the chirp switch and profile")
        values = np.array([[getattr(d, name) for name in self._FIELDS] for d in drives])[:, None, :]
        self.centers, self.tau, self.amplitudes = values[..., 0:2], values[..., 2:3], values[..., 3:5]
        self.static, self.chi, self.ramp = values[..., 5:7], values[..., 7:9], values[..., 9:]
        self.chirp = first.chirp_enabled
        self.tanh = first.chirp_profile is ChirpProfile.TANH

    def __len__(self) -> int:
        return len(self.tau)


def drive_coefficients(ts, drive: DriveConfig | DriveLanes, out: np.ndarray | None = None) -> np.ndarray:
    """Drive values (g1, g2, delta1, delta2) at the times ``ts``.

    For one ``DriveConfig`` the times are flattened and the result has
    shape (n, 4); for ``DriveLanes`` ``ts`` holds one row of times per lane
    and the result has shape (lanes, times, 4), written into ``out`` when
    given.  Gaussian envelopes g_k = g0k * exp(-(t - c_k)^2 / tau^2) peak at
    the pulse centers c_k.  With chirping enabled each detuning sweeps by
    its chi amplitude around the static offset, centered on the
    corresponding pulse; disabled, the detunings are the static offsets.
    """
    lanes = drive if isinstance(drive, DriveLanes) else DriveLanes((drive,))
    t = np.asarray(ts, dtype=float).reshape(len(lanes), -1, 1)
    offsets = t - lanes.centers
    u = offsets / lanes.tau
    if out is None:
        out = np.empty(offsets.shape[:2] + (4,))
    np.multiply(np.exp(-u * u), lanes.amplitudes, out=out[..., :2])
    if lanes.chirp:
        f = np.tanh(offsets / lanes.ramp) if lanes.tanh else 1.0
        np.add(lanes.static, f * lanes.chi, out=out[..., 2:])
    else:
        out[..., 2:] = lanes.static
    return out if lanes is drive else out[0]


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
