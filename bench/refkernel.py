"""Fixed reference kernel used to measure the current speed of the pinned vCPU.

The kernel never imports victrap and never changes: its running time moves
only with the machine, so the ratio ``REF_NOMINAL_S / measured`` rescales a
raw wall time to what it would have been at the nominal speed.  It mixes the
same kinds of work as victrap's hot path: scalar float and complex
arithmetic, 16-element numpy arrays, 4x4 ``eigvalsh`` and float ``repr``.
"""

from __future__ import annotations

import math
import statistics
import time

import numpy as np

# Seconds per kernel batch, as ``ref_seconds()`` reports it, in about the
# fast speed state of the machine the benchmark was written on (see
# NOISE.md).  A constant, so that adjusted times keep the unit of seconds.
REF_NOMINAL_S = 0.011

_ROUNDS = 200
# Kernel batches per speed reading.  The speed state can change within
# 100 ms, so a reading averages several batches (about 0.1 s in all): the
# mean, not the median or the minimum, because the timed work between two
# readings runs through the same mix of fast and slow stretches.
_BATCHES = 6


def _round(k: int, y: np.ndarray, m: np.ndarray) -> float:
    """One round: a scalar RHS-like update, array arithmetic, a 4x4 eigensolve, repr."""
    a, b, c, d = y[:4].tolist()
    z = complex(a, b)
    w = complex(c, d)
    for _ in range(40):
        z = 0.999 * z + 1j * 0.001 * w - 0.5 * (z * w.conjugate()).real
        w = w - 0.001j * z + 0.0005 * abs(w)
    y = 0.9999 * y + 1e-4 * np.roll(y, 1) + 1e-6 * k
    m[1, 0] = m[0, 1] = complex(z.real * 1e-3, w.imag * 1e-3)
    lo = float(np.linalg.eigvalsh(m)[0])
    text = ",".join(repr(v) for v in y.tolist())
    return lo + len(text) * 1e-9 + z.real + w.imag


def ref_once() -> float:
    """Time one fixed batch of kernel rounds; returns seconds."""
    y = np.linspace(0.0, 1.0, 16)
    m = np.diag([0.4, 0.3, 0.2, 0.1]).astype(complex)
    start = time.perf_counter()
    acc = 0.0
    for k in range(_ROUNDS):
        acc += _round(k, y, m)
    elapsed = time.perf_counter() - start
    if not math.isfinite(acc):
        raise RuntimeError("reference kernel produced a non-finite checksum")
    return elapsed


def ref_seconds() -> float:
    """Mean seconds per kernel batch over a few consecutive batches."""
    return statistics.fmean(ref_once() for _ in range(_BATCHES))


def speed_adjusted(raw_s: float, ref_before_s: float, ref_after_s: float) -> float:
    """Raw wall time rescaled to the nominal speed, using the mean bracketing kernel time."""
    measured = 0.5 * (ref_before_s + ref_after_s)
    return raw_s * REF_NOMINAL_S / measured


class Speed:
    """Brackets consecutive timed pieces of work with kernel timings.

    The kernel timing taken after one piece of work is also the one before
    the next, so each piece costs a single kernel call.
    """

    def __init__(self) -> None:
        self.last = ref_seconds()
        self.refs = [self.last]

    def adjust(self, raw_s: float) -> float:
        """Call right after the work: time the kernel and rescale ``raw_s``."""
        after = ref_seconds()
        adjusted = speed_adjusted(raw_s, self.last, after)
        self.last = after
        self.refs.append(after)
        return adjusted

    def ref_median(self) -> float:
        return statistics.median(self.refs)
