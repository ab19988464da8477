"""Quantities read off a density matrix: populations, coherences, purity.

The doublet-block purity is Tr(B^2) of the *unnormalized* 2x2 block over
{|1>, |2>}, so it tends to zero when the doublet empties.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import InvalidParameterError
from .liouvillian import PACKED_SIZE, unpack_state
from .model import DIM, DensityMatrix, ObservableRecord, SystemParams, validate_physicality

__all__ = [
    "populations",
    "doublet_purity",
    "dark_state_vector",
    "dark_state_overlap",
    "bright_state_overlap",
    "observable_record",
    "packed_diagnostics",
    "packed_purity",
    "packed_verdict",
]

# packed_verdict certifies positivity by Cholesky only for pos_tol of at
# least this multiple of 1 + the largest trace error in its block; see there.
_CHOLESKY_MARGIN = 1e-12


def _embedding_table() -> tuple[np.ndarray, np.ndarray]:
    """Index and sign tables: entry (i, j) of a packed state's real 8x8 embedding is sign[i, j] * state[index[i, j]].

    Each packed real puts +1 or -1 into its entries of the embedding, and
    no two share an entry; the imaginary diagonal gets none (sign 0).
    """
    units = unpack_state(np.eye(PACKED_SIZE))  # each packed real's part of the 4x4 matrix
    embedded = np.block([[units.real, -units.imag], [units.imag, units.real]])
    # A weighted sum, not argmax, picks each entry's packed real: argmax alone
    # would page 64 kB of numpy code that no run uses otherwise.
    index = np.arange(PACKED_SIZE) @ np.abs(embedded).reshape(PACKED_SIZE, -1)
    return index.reshape(embedded.shape[1:]).astype(int), embedded.sum(axis=0)


_EMBED_INDEX, _EMBED_SIGN = _embedding_table()


def populations(rho: DensityMatrix) -> tuple[float, float, float, float]:
    """Real diagonal (p0, p1, p2, p3)."""
    m = rho.matrix
    return (
        float(m[0, 0].real),
        float(m[1, 1].real),
        float(m[2, 2].real),
        float(m[3, 3].real),
    )


def doublet_purity(rho: DensityMatrix) -> float:
    """Tr(B^2) of the unnormalized doublet block B = rho[1:3, 1:3].

    Equals p1^2 + p2^2 + 2|rho21|^2, bounded by (p1 + p2)^2 with equality
    iff the block is rank one.
    """
    m = rho.matrix
    p1 = float(m[1, 1].real)
    p2 = float(m[2, 2].real)
    return p1 * p1 + p2 * p2 + 2.0 * abs(complex(m[2, 1])) ** 2


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


def dark_state_overlap(rho: DensityMatrix, params: SystemParams) -> float:
    """<A|rho|A> for the dark doublet superposition |A>; real, in [0, 1]."""
    v = dark_state_vector(params)
    return float((v.conj() @ rho.matrix @ v).real)


def bright_state_overlap(rho: DensityMatrix, params: SystemParams) -> float:
    """<B|rho|B> for the orthogonal (fast-decaying) doublet superposition, (-dark[2], dark[1]) in the doublet."""
    dark = dark_state_vector(params)
    v = np.array((0.0, -dark[2].real, dark[1].real, 0.0), dtype=complex)
    return float((v.conj() @ rho.matrix @ v).real)


def observable_record(
    time: float,
    rho: DensityMatrix,
    trace_tol: float = 1e-6,
    pos_tol: float = 1e-7,
) -> ObservableRecord:
    """Snapshot every plotted/emitted quantity plus physicality diagnostics."""
    m = rho.matrix
    p0, p1, p2, p3 = populations(rho)
    report = validate_physicality(rho, trace_tol, pos_tol)
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
        doublet_purity=doublet_purity(rho),
        trace_error=report.trace_error,
        min_eigenvalue=report.min_eigenvalue,
    )
    return record


def packed_diagnostics(states: np.ndarray) -> np.ndarray:
    """Doublet purity, trace error and minimum eigenvalue of k packed states, shape (k, 3).

    Bit for bit the values ``observable_record`` gives for each state: the
    purity is ``packed_purity``'s, the trace is summed as (p0 + p1) +
    (p2 + p3), as ``np.trace`` sums four entries, and the eigenvalues come
    from one stacked ``eigvalsh`` call.
    """
    return np.column_stack((
        packed_purity(states),
        _trace_errors(states),
        np.linalg.eigvalsh(unpack_state(states))[:, 0],
    ))


def packed_purity(states: np.ndarray) -> np.ndarray:
    """Doublet purity of k packed states, bit for bit ``doublet_purity``.

    |rho21|^2 is ``hypot(re, im) ** 2`` through Python's float power (libm
    ``pow``, which can differ from ``x * x`` in the last bit).
    """
    p1, p2 = states[:, 1:3].T
    abs21_sq = [v ** 2 for v in np.hypot(states[:, 8], states[:, 9]).tolist()]
    return p1 * p1 + p2 * p2 + 2.0 * np.array(abs21_sq)


def packed_verdict(states: np.ndarray, pos_tol: float) -> np.ndarray:
    """``packed_diagnostics`` for states that need only the physicality verdict, shape (k, 3).

    The trace errors are exact.  If one batched Cholesky factorisation
    certifies, for all k states, that every minimum eigenvalue lies above
    -pos_tol, the purity and minimum-eigenvalue columns are NaN (not
    computed); otherwise, or for pos_tol below the bound given next, the
    columns are those of ``packed_diagnostics``.  A NaN compares false, so
    the verdict "min_eig < -pos_tol" is the one eigvalsh gives.

    The factorisation is LAPACK's real one (dpotrf), of the real 8x8
    embedding M = [[Re A, -Im A], [Im A, Re A]] of A = rho + (pos_tol/2)·I,
    which has the eigenvalues of A, each twice.  Why it decides: a Cholesky
    factorisation that succeeds on M is exact for some M + E with
    ||E||_2 <~ 8·gamma_9·||M||_2 (Higham, Accuracy and Stability of
    Numerical Algorithms, Thm 10.3), about 8e-15·||A||_2.  M + E is
    positive definite, so lambda_min(rho) >= -pos_tol/2 - ||E||_2.  Where
    A factors, ||A||_2 is at most about its trace, 1 + trace error +
    2·pos_tol.  With pos_tol >= 1e-12·(1 + the block's largest trace
    error), pos_tol/2 >= 5e-13 exceeds ||E||_2 by a factor of 50 or more,
    so no state at or below -pos_tol factors; eigvalsh's own error (about
    eps·||rho||) is smaller still.
    """
    trace_errors = _trace_errors(states)
    if pos_tol >= _CHOLESKY_MARGIN * (1.0 + float(trace_errors.max(initial=0.0))):
        embedding = _real_embedding(states)
        embedding.reshape(-1, (2 * DIM) ** 2)[:, ::2 * DIM + 1] += 0.5 * pos_tol  # the diagonal: rho + (pos_tol/2)·I
        try:
            np.linalg.cholesky(embedding)
        except np.linalg.LinAlgError:
            pass
        else:
            verdict = np.full((len(states), 3), np.nan)
            verdict[:, 1] = trace_errors
            return verdict
    return packed_diagnostics(states)


def _real_embedding(states: np.ndarray) -> np.ndarray:
    """[[Re rho, -Im rho], [Im rho, Re rho]] of k packed states, shape (k, 8, 8), gathered in one indexing."""
    return states[:, _EMBED_INDEX] * _EMBED_SIGN


def _trace_errors(states: np.ndarray) -> np.ndarray:
    """|Tr rho - 1| of k packed states."""
    p0, p1, p2, p3 = states[:, :4].T
    return np.abs((p0 + p1) + (p2 + p3) - 1.0)
