"""Time-dependent Rabi envelopes and chirped detunings.

The drive is stated once, vectorised over time and over lanes:
``drive_coefficients`` gives (g1, g2, delta1, delta2), the coefficients of
the affine generator, at an array of times for one ``DriveConfig`` or at
one row of times per lane for a ``DriveLanes`` stack.  The integrator
evaluates all stage times of every lane's step in one call;
``drive_sample`` is a single-time view of it.  The exact post-pulse
propagator needs two integrals of the drive in closed form:
``pulses_over`` bounds what the envelopes still to come add up to, and
``detuning_phases`` gives the detunings' antiderivatives.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from typing import NamedTuple

import numpy as np

from .model import DriveConfig

__all__ = ["DriveSample", "DriveLanes", "drive_coefficients", "drive_sample"]


class DriveSample(NamedTuple):
    """Instantaneous drive values: the two Rabi envelopes and detunings."""

    g1: float
    g2: float
    delta1: float
    delta2: float


# Field columns of (shift, scale, gain, offset).  The envelopes' offset is
# -0.0, which keeps every bit.
_COLUMNS = np.array(((0, 1, 0, 1), (2, 2, 3, 3), (4, 5, 6, 7), (10, 10, 8, 9)))


class DriveLanes:
    """The numeric drive parameters of several lanes, tiled for a fixed number of times per lane.

    Each value is gain * f(x) + offset with x = (t - shift) / scale, where
    f(x) = exp(-x^2) for the envelopes and tanh(x) for the detunings.  The
    constants and the scratch buffer ``x`` have shape (lanes, 2, times, 2),
    envelopes then detunings.
    """

    __slots__ = ("shift", "scale", "gain", "offset", "x", "blocks")

    def __init__(self, drives: Sequence[DriveConfig], times: int):
        fields = np.array([(d.center1, d.center2, d.tau, d.chirp_ramp, d.g01, d.g02, d.chi1, d.chi2,
                            d.static_delta1, d.static_delta2, -0.0) for d in drives])
        values = fields[:, _COLUMNS].transpose(1, 0, 2).reshape(4, len(drives), 2, 1, 2)
        self.shift, self.scale, self.gain, self.offset = np.repeat(values, times, axis=3)
        self.x = np.empty_like(self.shift)
        self.blocks = self.x[:, 0], self.x[:, 1]

    def __len__(self) -> int:
        return len(self.x)


def drive_coefficients(ts, drive: DriveConfig | DriveLanes, out: np.ndarray | None = None) -> np.ndarray:
    """Drive values (g1, g2, delta1, delta2) at the times ``ts``.

    For one ``DriveConfig`` the times are flattened and the result has
    shape (n, 4); for ``DriveLanes`` ``ts`` is a (lanes, times) array
    matching the stack and the result has shape (lanes, times, 4), written
    into ``out`` when given.  Gaussian envelopes g_k = g0k * exp(-(t -
    c_k)^2 / tau^2) peak at the pulse centers c_k.  The detunings are
    static_k + chi_k * tanh((t - c_k)/r), with r the chirp ramp.
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
    np.tanh(detuning, out=detuning)
    np.multiply(x, lanes.gain, out=x)
    # (lanes, times, 4) seen as (lanes, 2, times, 2), the layout of x.
    np.add(x, lanes.offset, out=out.reshape(out.shape[:2] + (2, 2)).transpose(0, 2, 1, 3))
    return out if lanes is drive else out[0]


def drive_sample(t: float, drive: DriveConfig) -> DriveSample:
    """Bundle envelopes and detunings for one time point."""
    return DriveSample(*drive_coefficients(t, drive)[0].tolist())


def pulses_over(drive: DriveConfig, weights: Sequence[float], eps: float) -> float:
    """The earliest t_off with sum_k g0k * tau * (sqrt(pi)/2) * erfc((t_off - c_k)/tau) * w_k <= eps.

    The sum is the integral over [t_off, inf) of w1 g1(t) + w2 g2(t).  With
    the weights the norms of the generators G1 and G2, leaving the
    envelopes out after t_off moves no state component by more than about
    eps.  Found by bisection to the last bit; -inf when neither pulse has
    amplitude.
    """
    pulses = [(g0 * drive.tau * math.sqrt(math.pi) / 2.0 * weight, center)
              for g0, center, weight in zip((drive.g01, drive.g02), (drive.center1, drive.center2), weights) if g0 > 0]
    if not pulses:
        return -math.inf

    def left(t: float) -> float:
        return sum(weight * math.erfc((t - center) / drive.tau) for weight, center in pulses)

    lo, width = max(center for _, center in pulses), drive.tau
    while left(lo + width) > eps:  # erfc underflows to 0 past 27, so this ends
        width *= 2.0
    hi = lo + width
    mid = 0.5 * (lo + hi)
    while lo < mid < hi:
        lo, hi = (mid, hi) if left(mid) > eps else (lo, mid)
        mid = 0.5 * (lo + hi)
    return hi


def detuning_phases(ts, drive: DriveConfig) -> np.ndarray:
    """Antiderivatives (Phi1, Phi2) of the detunings at the times ``ts``, shape (n, 2).

    Phi = chi * r * log cosh((t - c)/r) + static * t, with r the chirp
    ramp.  log cosh x is evaluated as |x| + log1p(exp(-2|x|)) - log 2, which
    does not overflow.  A zero chirp amplitude's term is exactly 0 and is
    not evaluated, so a ramp small enough to overflow x forms no 0 * inf.
    Only differences of the phases are meaningful.
    """
    t = np.asarray(ts, dtype=float).reshape(-1, 1)
    chi, static, center = np.array(((drive.chi1, drive.chi2), (drive.static_delta1, drive.static_delta2),
                                    (drive.center1, drive.center2)))
    chirped = chi != 0
    x = np.abs(t - center[chirped]) / drive.chirp_ramp
    chirp = np.zeros((len(t), 2))
    chirp[:, chirped] = chi[chirped] * drive.chirp_ramp * (x + np.log1p(np.exp(-2.0 * x)) - math.log(2.0))
    return chirp + static * t
