"""Quantities read off a density matrix: populations, coherences, purity.

The doublet-block purity is Tr(B^2) of the *unnormalized* 2x2 block over
{|1>, |2>}, so it tends to zero when the doublet empties; a normalized
variant is available separately for diagnostics.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import InvalidParameterError
from .liouvillian import unpack_state
from .model import DensityMatrix, ObservableRecord, SystemParams, validate_physicality

__all__ = [
    "populations",
    "coherence",
    "doublet_purity",
    "doublet_purity_normalized",
    "dark_state_vector",
    "dark_state_overlap",
    "bright_state_overlap",
    "observable_record",
    "packed_diagnostics",
]


def _matrix(rho: DensityMatrix | np.ndarray) -> np.ndarray:
    return rho.matrix if isinstance(rho, DensityMatrix) else np.asarray(rho, dtype=complex)


def populations(rho: DensityMatrix | np.ndarray) -> tuple[float, float, float, float]:
    """Real diagonal (p0, p1, p2, p3)."""
    m = _matrix(rho)
    return (
        float(m[0, 0].real),
        float(m[1, 1].real),
        float(m[2, 2].real),
        float(m[3, 3].real),
    )


def coherence(rho: DensityMatrix | np.ndarray, i: int, j: int) -> complex:
    """Off-diagonal element rho_ij."""
    if i == j:
        raise InvalidParameterError(f"coherence requires two distinct levels, got i=j={i}")
    return complex(_matrix(rho)[i, j])


def doublet_purity(rho: DensityMatrix | np.ndarray) -> float:
    """Tr(B^2) of the unnormalized doublet block B = rho[1:3, 1:3].

    Equals p1^2 + p2^2 + 2|rho21|^2, bounded by (p1 + p2)^2 with equality
    iff the block is rank one.
    """
    m = _matrix(rho)
    p1 = float(m[1, 1].real)
    p2 = float(m[2, 2].real)
    return p1 * p1 + p2 * p2 + 2.0 * abs(complex(m[2, 1])) ** 2


def doublet_purity_normalized(rho: DensityMatrix | np.ndarray) -> float:
    """Purity of the renormalized doublet block, Tr(B^2)/Tr(B)^2.

    Lies in [1/2, 1] for a nonempty block; raises if the block is empty.
    """
    m = _matrix(rho)
    weight = m[1, 1].real + m[2, 2].real
    if weight <= 0.0:
        raise InvalidParameterError("doublet block is empty; normalized purity undefined")
    return doublet_purity(rho) / (weight * weight)


def dark_state_vector(params: SystemParams) -> np.ndarray:
    """Doublet superposition immune to decay at theta=0.

    (sqrt(g02)|1> - sqrt(g01)|2>) / sqrt(g01 + g02), as a length-4 vector.
    """
    total = params.gamma01 + params.gamma02
    if total <= 0.0:
        raise InvalidParameterError("dark state undefined: both doublet decay rates are zero")
    v = np.zeros(4, dtype=complex)
    v[1] = math.sqrt(params.gamma02 / total)
    v[2] = -math.sqrt(params.gamma01 / total)
    return v


def dark_state_overlap(rho: DensityMatrix | np.ndarray, params: SystemParams) -> float:
    """<A|rho|A> for the dark doublet superposition |A>; real, in [0, 1]."""
    v = dark_state_vector(params)
    return float((v.conj() @ _matrix(rho) @ v).real)


def bright_state_overlap(rho: DensityMatrix | np.ndarray, params: SystemParams) -> float:
    """<B|rho|B> for the orthogonal (fast-decaying) doublet superposition."""
    total = params.gamma01 + params.gamma02
    if total <= 0.0:
        raise InvalidParameterError("bright state undefined: both doublet decay rates are zero")
    v = np.zeros(4, dtype=complex)
    v[1] = math.sqrt(params.gamma01 / total)
    v[2] = math.sqrt(params.gamma02 / total)
    return float((v.conj() @ _matrix(rho) @ v).real)


def observable_record(
    time: float,
    rho: DensityMatrix | np.ndarray,
    trace_tol: float = 1e-6,
    pos_tol: float = 1e-7,
) -> ObservableRecord:
    """Snapshot every plotted/emitted quantity plus physicality diagnostics."""
    m = _matrix(rho)
    p0, p1, p2, p3 = populations(m)
    report = validate_physicality(m, trace_tol, pos_tol)
    record = ObservableRecord(
        time=time,
        p0=p0,
        p1=p1,
        p2=p2,
        p3=p3,
        c10=complex(m[1, 0]),
        c20=complex(m[2, 0]),
        c21=complex(m[2, 1]),
        c30=complex(m[3, 0]),
        c31=complex(m[3, 1]),
        c32=complex(m[3, 2]),
        doublet_purity=doublet_purity(m),
        trace_error=report.trace_error,
        min_eigenvalue=report.min_eigenvalue,
    )
    return record


def packed_diagnostics(states: np.ndarray) -> np.ndarray:
    """Doublet purity, trace error and minimum eigenvalue of k packed states, shape (k, 3).

    Bit for bit the values ``observable_record`` gives for each state: the
    trace is summed as (p0 + p1) + (p2 + p3), as ``np.trace`` sums four
    entries; |rho21|^2 is ``hypot(re, im) ** 2`` through Python's float
    power (libm ``pow``, which can differ from ``x * x`` in the last bit);
    the eigenvalues come from one stacked ``eigvalsh`` call.
    """
    p0, p1, p2, p3 = states[:, :4].T
    abs21_sq = [v ** 2 for v in np.hypot(states[:, 8], states[:, 9]).tolist()]
    return np.column_stack((
        p1 * p1 + p2 * p2 + 2.0 * np.array(abs21_sq),
        np.abs((p0 + p1) + (p2 + p3) - 1.0),
        np.linalg.eigvalsh(unpack_state(states))[:, 0],
    ))
