"""Quantities read off a density matrix: populations, coherences, purity.

The doublet-block purity is Tr(B^2) of the *unnormalized* 2x2 block over
{|1>, |2>}, so it tends to zero when the doublet empties.
Each quantity has one formula, in the packed kernels that take k packed
states; the functions on one state apply them to a one-row stack.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import InvalidParameterError
from .liouvillian import PACKED_SIZE, pack_state, unpack_state
from .model import DIM, DensityMatrix, ObservableRecord, SystemParams

__all__ = [
    "populations",
    "doublet_purity",
    "dark_state_vector",
    "dark_state_overlap",
    "bright_state_overlap",
    "observable_record",
    "packed_diagnostics",
    "packed_min_eigenvalues",
    "packed_purity",
    "packed_verdict",
    "MIN_EIG_BOUND",
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

_EPS = float(np.finfo(float).eps)
# packed_min_eigenvalues skips a rotation whose entry is at most _JACOBI_TOL
# times the largest entry of its matrix, and sweeps at most _JACOBI_SWEEPS
# times.
_JACOBI_TOL = _EPS
_JACOBI_SWEEPS = 8
# The error bound of packed_min_eigenvalues, in units of the Frobenius norm
# of the matrix: sqrt(12) eps for the off-diagonal entries it leaves, and
# 20 eps for the rounding of each of its 3 * _JACOBI_SWEEPS rounds.
MIN_EIG_BOUND = (math.sqrt(12.0) + 20.0 * 3 * _JACOBI_SWEEPS) * _EPS


def _relabelling(order: tuple[int, ...]) -> tuple[np.ndarray, np.ndarray]:
    """Gather index and imaginary-part signs that relabel a (10, k) stack of packed entries by ``order``.

    The stack holds the diagonal, then the lower triangle in packed order.
    Entry (i, j) of the relabelled matrix is entry (order[i], order[j]) of
    the old one, which is the conjugate of a stored entry when it lies above
    the diagonal.
    """
    lower = [(i, j) for i in range(DIM) for j in range(i)]
    position = {(i, i): i for i in range(DIM)}
    for n, (i, j) in enumerate(lower, DIM):
        position[i, j] = position[j, i] = n
    old = [(order[i], order[j]) for i, j in lower]
    index = [*order, *(position[pair] for pair in old)]
    signs = [1.0] * DIM + [1.0 if i > j else -1.0 for i, j in old]
    return np.array(index), np.array(signs)[:, None]


# Each Jacobi round rotates the planes (0, 1) and (2, 3), then relabels the
# levels by (0, 2, 3, 1): the next round so rotates the old planes (0, 2)
# and (1, 3), the one after (0, 3) and (1, 2), and three rounds make a sweep.
_JACOBI_RELABEL, _JACOBI_SIGNS = _relabelling((0, 2, 3, 1))


def populations(rho: DensityMatrix) -> tuple[float, float, float, float]:
    """Real diagonal (p0, p1, p2, p3): the first four packed reals."""
    return tuple(pack_state(rho)[:DIM].tolist())


def doublet_purity(rho: DensityMatrix) -> float:
    """Tr(B^2) of the unnormalized doublet block B = rho[1:3, 1:3], by ``packed_purity``.

    Equals p1^2 + p2^2 + 2|rho21|^2, bounded by (p1 + p2)^2 with equality
    iff the block is rank one.
    """
    return float(packed_purity(pack_state(rho)[None])[0])


def _square(v: float) -> float:
    """v ** 2 by Python's float power (libm ``pow``), or inf where that overflows, above about 1.34e154."""
    try:
        return v ** 2
    except OverflowError:
        return math.inf


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
    """Snapshot every plotted/emitted quantity plus physicality diagnostics, as a run records them.

    ``trace_tol`` and ``pos_tol`` do not enter the record.
    """
    state = pack_state(rho)
    return _row_record(np.concatenate(((time,), state, packed_diagnostics(state[None])[0])))


def _row_record(row: np.ndarray) -> ObservableRecord:
    """The record of a (20,) row: the time, the 16 packed reals, purity, trace error and minimum eigenvalue."""
    values = row.tolist()
    re_im = values[1 + DIM:1 + PACKED_SIZE]
    coherences = [complex(re, im) for re, im in zip(re_im[::2], re_im[1::2])]
    return ObservableRecord(values[0], *values[1:1 + DIM], *coherences, *values[1 + PACKED_SIZE:])


def packed_diagnostics(states: np.ndarray) -> np.ndarray:
    """Doublet purity, trace error and minimum eigenvalue of k packed states, shape (k, 3).

    Each row is the same bits in any batch, as ``packed_min_eigenvalues``' result is.
    """
    return np.column_stack((packed_purity(states), _trace_errors(states), packed_min_eigenvalues(states)))


def packed_min_eigenvalues(states: np.ndarray) -> np.ndarray:
    """Smallest eigenvalue of the Hermitian matrices of k packed states, shape (k,), by a batched cyclic Jacobi method.

    Golub & Van Loan, Matrix Computations, §8.5, in its parallel ordering:
    each round zeroes the entries of two disjoint planes (see
    ``_jacobi_round``), and three rounds, between which the levels are
    relabelled, rotate every plane once.  The entries are held as a (10, k)
    complex stack, the diagonal and then the lower triangle, each matrix
    scaled first by a power of two to a largest entry in [1, 2): exact
    where the largest entry is below 2, and it keeps every rotation
    finite.  A rotation whose entry is at most _JACOBI_TOL times the
    largest one is skipped exactly (c = 1, s = 0), and the sweeps go on
    until no matrix has an off-diagonal entry above that, at most
    _JACOBI_SWEEPS of them.  The sweeps that follow leave a converged
    matrix as it is, so its result is the same bits in any batch (a zero
    result is +0.0).  Only elementwise ufuncs
    run: no LAPACK routine and no complex matrix product.

    Error bound: |result - lambda_min| <= MIN_EIG_BOUND·||rho||_F, about
    1.1e-13·||rho||_F.  The off-diagonal entries left, each at most eps
    times the largest entry, move an eigenvalue by at most sqrt(12)·eps·
    ||rho||_F (Weyl).  Each round is backward stable: an exact unitary
    similarity of a matrix within about 20·eps·||rho||_F of the one it
    rotates, counting the complex products and the rounding of c and s
    (Higham, Accuracy and Stability of Numerical Algorithms, Lemma 19.8).
    The errors seen against LAPACK's zheevd are a few eps·||rho||_F.
    """
    k = len(states)
    z = np.zeros((DIM + 6, k), dtype=complex)
    z.real[:DIM] = states[:, :DIM].T
    z.real[DIM:] = states[:, DIM::2].T
    z.imag[DIM:] = states[:, DIM + 1::2].T
    _, exponent = np.frexp(0.5 * np.hypot(z.real, z.imag).max(axis=0, initial=0.0))
    for part in (z.real, z.imag):
        np.ldexp(part, -exponent, out=part)
    threshold = _JACOBI_TOL * np.hypot(z.real, z.imag).max(axis=0, initial=0.0)
    for _ in range(_JACOBI_SWEEPS):
        # A difference, not a comparison: an array comparison would page
        # 64 kB of numpy code that no run uses otherwise (as would one in
        # _jacobi_round, which tests signbit instead).
        if float((np.hypot(z.real[DIM:], z.imag[DIM:]) - threshold).max(initial=-np.inf)) <= 0.0:
            break
        for _ in range(3):
            _jacobi_round(z, threshold)
            z = z[_JACOBI_RELABEL]
            z.imag *= _JACOBI_SIGNS
    return np.ldexp(z.real[:DIM].min(axis=0), exponent) + 0.0


def _jacobi_round(z: np.ndarray, threshold: np.ndarray) -> None:
    """Rotate the planes (0, 1) and (2, 3) of the (10, k) entry stack ``z`` in place, zeroing entries (1, 0) and (3, 2).

    For a plane (p, q) with a_qp = r e^(-i phi) and d = a_qq - a_pp, the
    rotation J = [[c, s e^(i phi)], [-s e^(-i phi), c]] takes t = s/c =
    sign(d)·2r/(|d| + hypot(d, 2r)), the smaller root (Golub & Van Loan,
    Algorithm 8.5.1, after the phase), so that a_pp -= t r and a_qq += t r.
    The entries between the two planes, L = a[2:4, 0:2], become J2^H L J1.
    """
    app, aqq, aqp = z.real[0:DIM:2], z.real[1:DIM:2], z[DIM::5]  # a_pp, a_qq and a_qp of the two planes
    r = np.hypot(aqp.real, aqp.imag)
    rotate = np.signbit(threshold - r)  # r > threshold
    d = aqq - app
    w = np.copysign(2.0, d) / np.where(rotate, np.abs(d) + np.hypot(d, 2.0 * r), np.inf)  # t / r, 0 where skipped
    t = w * r
    c = 1.0 / np.sqrt(1.0 + t * t)
    (c1, c2), (s1, s2) = c, (c * w) * aqp  # s e^(-i phi) = c t a_qp / r
    app -= t * r
    aqq += t * r
    aqp *= ~rotate
    between = z[DIM + 1:DIM + 5].reshape(2, 2, -1)  # L: a20, a21 / a30, a31
    left, right = between[:, 0], between[:, 1]
    between[:, 0], between[:, 1] = c1 * left - s1 * right, s1.conj() * left + c1 * right  # L J1
    top, bottom = between
    between[0], between[1] = c2 * top - s2.conj() * bottom, s2 * top + c2 * bottom  # J2^H (L J1)


def packed_purity(states: np.ndarray) -> np.ndarray:
    """Doublet purity of k packed states, p1^2 + p2^2 + 2|rho21|^2.

    |rho21|^2 is ``hypot(re, im) ** 2`` through Python's float power (libm
    ``pow``, which can differ from ``x * x`` in the last bit), and inf
    where that power overflows; an overflowing sum is inf too, without a warning.
    """
    p1, p2 = states[:, 1:3].T
    abs21_sq = list(map(_square, np.hypot(states[:, 8], states[:, 9]).tolist()))
    with np.errstate(over="ignore"):
        return p1 * p1 + p2 * p2 + 2.0 * np.array(abs21_sq)


def packed_verdict(states: np.ndarray, pos_tol: float) -> np.ndarray:
    """``packed_diagnostics`` for states that need only the physicality verdict, shape (k, 3).

    The trace errors are exact.  If one batched Cholesky factorisation
    certifies, for all k states, that every minimum eigenvalue lies above
    -pos_tol, the purity and minimum-eigenvalue columns are NaN (not
    computed); otherwise, or for pos_tol below the bound given next, the
    columns are those of ``packed_diagnostics``.  A NaN compares false, so
    the verdict "min_eig < -pos_tol" is the one ``packed_diagnostics`` gives.

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
    so no state at or below -pos_tol factors; and the error of
    ``packed_min_eigenvalues``, at most MIN_EIG_BOUND·||rho||_F (about
    1.1e-13), is below pos_tol/2 too, so a certified state's minimum
    eigenvalue, once computed, is never below -pos_tol either.
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
    embedding = states[:, _EMBED_INDEX]
    embedding *= _EMBED_SIGN
    return embedding


def _trace_errors(states: np.ndarray) -> np.ndarray:
    """|Tr rho - 1| of k packed states."""
    p0, p1, p2, p3 = states[:, :4].T
    return np.abs((p0 + p1) + (p2 + p3) - 1.0)
