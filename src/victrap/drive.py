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


# Field columns of (shift, scale, gain, offset), chirp off and on.  Off, the
# static offsets are the gain of a constant 1.  Adding -0.0 keeps every bit.
_COLUMNS = (np.array(((0, 1, 0, 1), (2, 2, 3, 3), (4, 5, 8, 9), (10, 10, 10, 10))),
            np.array(((0, 1, 0, 1), (2, 2, 3, 3), (4, 5, 6, 7), (10, 10, 8, 9))))


class DriveLanes:
    """The numeric drive parameters of several lanes, tiled for a fixed number of times per lane.

    Each value is gain * f(x) + offset with x = (t - shift) / scale, where
    f(x) = exp(-x^2) for the envelopes and tanh(x), or 1, for the detunings.
    The constants and the scratch buffer ``x`` have shape (lanes, 2, times,
    2), envelopes then detunings.  The chirp switch and profile are shared
    by all lanes (no sweep axis changes them).
    """

    __slots__ = ("shift", "scale", "gain", "offset", "x", "tanh", "blocks")

    def __init__(self, drives: Sequence[DriveConfig], times: int):
        first = drives[0]
        if any((d.chirp_enabled, d.chirp_profile) != (first.chirp_enabled, first.chirp_profile) for d in drives):
            raise ContractViolationError("lanes of one stack must share the chirp switch and profile")
        chirp = first.chirp_enabled
        fields = np.array([(d.center1, d.center2, d.tau, d.chirp_ramp, d.g01, d.g02, d.chi1, d.chi2,
                            d.static_delta1, d.static_delta2, -0.0) for d in drives])
        values = fields[:, _COLUMNS[chirp]].transpose(1, 0, 2).reshape(4, len(drives), 2, 1, 2)
        self.shift, self.scale, self.gain, self.offset = np.repeat(values, times, axis=3)
        self.x = np.empty_like(self.shift)
        self.tanh = chirp and first.chirp_profile is ChirpProfile.TANH
        self.blocks = self.x[:, 0], self.x[:, 1]

    def __len__(self) -> int:
        return len(self.x)


def drive_coefficients(ts, drive: DriveConfig | DriveLanes, out: np.ndarray | None = None) -> np.ndarray:
    """Drive values (g1, g2, delta1, delta2) at the times ``ts``.

    For one ``DriveConfig`` the times are flattened and the result has
    shape (n, 4); for ``DriveLanes`` ``ts`` is a (lanes, times) array
    matching the stack and the result has shape (lanes, times, 4), written
    into ``out`` when given.  Gaussian envelopes g_k = g0k * exp(-(t -
    c_k)^2 / tau^2) peak at the pulse centers c_k.  With chirping enabled
    each detuning sweeps by its chi amplitude around the static offset,
    centered on the corresponding pulse; disabled, the detunings are the
    static offsets.
    """
    if isinstance(drive, DriveLanes):
        lanes, t = drive, ts[:, None, :, None]
    else:
        t = np.asarray(ts, dtype=float).reshape(1, 1, -1, 1)
        lanes = DriveLanes((drive,), t.shape[2])
    if out is None:
        out = np.empty((len(lanes), t.shape[2], 4))
    x, (envelope, detuning) = lanes.x, lanes.blocks
    np.subtract(t, lanes.shift, out=x)
    np.divide(x, lanes.scale, out=x)
    np.square(envelope, out=envelope)
    np.negative(envelope, out=envelope)
    np.exp(envelope, out=envelope)
    if lanes.tanh:
        np.tanh(detuning, out=detuning)
    else:
        detuning.fill(1.0)
    np.multiply(x, lanes.gain, out=x)
    # (lanes, times, 4) seen as (lanes, 2, times, 2), the layout of x.
    np.add(x, lanes.offset, out=out.reshape(out.shape[:2] + (2, 2)).transpose(0, 2, 1, 3))
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
