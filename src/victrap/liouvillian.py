"""Right-hand side of the rotating-frame four-level master equation.

State layout: ground |0>, excited doublet |1>, |2> (both driven from |0> by
the same field g1 and sharing detuning delta1), metastable |3> (driven by g2
at detuning delta2).  The doublet's two emission channels into |0> interfere
through the shared vacuum, producing the cross-damping rate gamma12 that
couples populations to the doublet coherence and mixes the optical
coherences pairwise.

The physics is stated once, in operator form: four unit Hamiltonians and
three jump operators with their rate matrix.  On the packed 16-real state
the generator is affine in the drive,

    L(t) = L0 + g1(t) G1 + g2(t) G2 + delta1(t) D1 + delta2(t) D2,
    L0 = gamma01 U01 + gamma02 U02 + gamma03 U03 + gamma12 U12 + gamma_coll Uc,

with the nine unit matrices built from the operators once per process.  The
coherent part -i[H, rho] and the dissipator are two separate matrix-vector
products, so ``master_rhs`` (an exactly Hermitian 4x4 array) is their exact
sum and the packed right-hand side uses the same arithmetic.
"""

from __future__ import annotations

import functools

import numpy as np

from .drive import drive_coefficients
from .model import DIM, DensityMatrix, DriveConfig, SystemParams

__all__ = ["master_rhs", "dissipator_only", "coherent_only", "pack_state", "unpack_state", "make_packed_rhs",
           "drive_generators", "decay_generator", "generator_basis"]

# Packed real state layout used by the steppers: the four populations
# followed by (re, im) of the six lower-triangle coherences.  Evolving this
# 16-vector keeps rho_ij and rho_ji* from drifting apart.
PACKED_SIZE = 16
_ROWS, _COLS = np.array([(1, 0), (2, 0), (2, 1), (3, 0), (3, 1), (3, 2)]).T
# Index of each 4x4 entry in (populations, coherences, conjugated coherences).
_GATHER = np.zeros((DIM, DIM), dtype=int)
_GATHER[np.diag_indices(DIM)] = range(DIM)
_GATHER[_ROWS, _COLS], _GATHER[_COLS, _ROWS] = range(DIM, 10), range(10, PACKED_SIZE)
# Position of each packed real in the flattened (re, im) view of a 4x4 matrix.
_FLAT = np.arange(2 * DIM * DIM).reshape(DIM, DIM, 2)
_PACK = np.concatenate((_FLAT[np.diag_indices(DIM)][:, 0], _FLAT[_ROWS, _COLS].ravel()))


def pack_state(rho: DensityMatrix) -> np.ndarray:
    """Encode a density matrix as 16 reals."""
    m = rho.matrix
    return np.concatenate((m.diagonal().real, m[_ROWS, _COLS].view(float)))


def unpack_state(y: np.ndarray) -> np.ndarray:
    """Rebuild the exactly Hermitian 4x4 matrix from 16 reals; a (k, 16) stack gives (k, 4, 4)."""
    coherences = np.ascontiguousarray(y[..., DIM:], dtype=float).view(complex)
    return np.concatenate((y[..., :DIM], coherences, coherences.conj()), axis=-1)[..., _GATHER]


def _lindblad(*pairs):
    """rho -> sum of A rho B^T - {B^T A, rho}/2 over pairs (A, B) of real jump operators."""
    return lambda rho: sum(a @ rho @ b.T - 0.5 * (b.T @ a @ rho + rho @ b.T @ a) for a, b in pairs)


@functools.cache
def _units() -> tuple[np.ndarray, np.ndarray]:
    """Unit generators in the packed basis, flattened: (drive (4, 256), decay (5, 256)).

    Drive rows are -i[H_k, .] for the coefficients of (g1, g2, delta1,
    delta2) in the rotating-frame Hamiltonian; decay rows belong to the
    rates (gamma01, gamma02, gamma03, gamma12, gamma_coll).  Column j is
    the packed image of basis state j; each operator maps all 16 at once.

    Every operator is real, so each maps the real and the imaginary part
    of the basis separately, and the commutator's -i is applied once, where
    the two parts are recombined.  A complex matrix product here would be
    the only one in a run and would page BLAS's complex kernels (zgemm)
    into every process; the real products give the same bits.
    """
    ket = np.eye(DIM)
    kb = [[np.outer(ket[i], ket[j]) for j in range(DIM)] for i in range(DIM)]  # kb[i][j] = |i><j|
    hamiltonians = (-(kb[1][0] + kb[2][0] + kb[0][1] + kb[0][2]), -(kb[3][0] + kb[0][3]),
                    -(kb[1][1] + kb[2][2]), -kb[3][3])
    # Jump operators |0><i| weighted by the rate matrix [[g01, g12, 0],
    # [g12, g02, 0], [0, 0, g03]]; collisional dephasing damps every
    # coherence at gamma_coll and leaves the populations alone.
    a1, a2, a3 = kb[0][1:]
    decays = (_lindblad((a1, a1)), _lindblad((a2, a2)), _lindblad((a3, a3)),
              _lindblad((a1, a2), (a2, a1)), lambda rho: np.where(np.eye(DIM, dtype=bool), rho, 0) - rho)
    commutators = [lambda rho, h=h: h @ rho - rho @ h for h in hamiltonians]
    basis = unpack_state(np.eye(PACKED_SIZE))
    parts = basis.real, basis.imag

    def image(op):
        out = np.empty(basis.shape, dtype=complex)
        out.real, out.imag = (op(part) for part in parts)
        return out

    def packed(images):
        return images.view(float).reshape(PACKED_SIZE, -1)[:, _PACK].T.ravel()

    return np.array([packed(-1j * image(op)) for op in commutators]), np.array([packed(image(op)) for op in decays])


def coupling_closure(couples: np.ndarray) -> np.ndarray:
    """The reflexive transitive closure of a square boolean pattern: (i, j) is true when j reaches i."""
    paths = couples | np.eye(len(couples), dtype=bool)
    for _ in range(len(couples).bit_length()):  # doubling the path length each time
        paths = paths @ paths
    return paths


@functools.cache
def decay_blocks() -> tuple[tuple[int, ...], ...]:
    """The strongly connected blocks of L0's sparsity pattern, each a sorted tuple of packed indices.

    L0, and any principal submatrix of it, is block triangular in these
    blocks, so its eigenvalues are theirs; a zero rate can only split a
    block.  They are 1x1 or 2x2, except the doublet block (p1, p2, Re
    rho21), an arrowhead: p1 and p2 do not couple, and each couples to Re
    rho21 with the same product of entries, gamma12**2 / 2.
    """
    paths = coupling_closure((_units()[1] != 0).any(axis=0).reshape(PACKED_SIZE, PACKED_SIZE))
    return tuple(sorted({tuple(np.flatnonzero(row).tolist()) for row in paths & paths.T}))


@functools.cache
def drive_norms() -> tuple[float, float]:
    """The norms (largest absolute row sums) of G1 and G2."""
    return tuple(np.abs(_units()[0][:2].reshape(2, PACKED_SIZE, PACKED_SIZE)).sum(axis=2).max(axis=1).tolist())


def drive_generators(ts, drive: DriveConfig) -> np.ndarray:
    """Coherent parts g1 G1 + g2 G2 + delta1 D1 + delta2 D2 at the times ts, shape (n, 16, 16)."""
    return (drive_coefficients(ts, drive) @ _units()[0]).reshape(-1, PACKED_SIZE, PACKED_SIZE)


def decay_generator(params: SystemParams) -> np.ndarray:
    """Drive-independent part L0 of the generator.

    Finite rates near the float limit overflow to non-finite entries; the
    integrator, which runs under its own numpy error scope, rejects such
    an L0 as too stiff, and direct callers get numpy's default warnings.
    """
    rates = np.array((params.gamma01, params.gamma02, params.gamma03, params.gamma12, params.gamma_coll))
    return (rates @ _units()[1]).reshape(PACKED_SIZE, PACKED_SIZE)


def generator_basis(decay: np.ndarray) -> np.ndarray:
    """The rows G1, G2, D1, D2 and L0 = ``decay``, flattened to shape (5, 256).

    L(t) = (g1, g2, delta1, delta2, 1) @ basis, so L0 rides in the same
    product as the drive.
    """
    return np.vstack((_units()[0], decay.reshape(1, -1)))


@functools.cache
def _detuning_rates() -> np.ndarray:
    """The rotation rate of each coherence under D1 and D2, shape (2, 6): D_k[im, re] of its pair."""
    return _units()[0][2:].reshape(2, PACKED_SIZE, PACKED_SIZE)[:, DIM + 1::2, DIM::2].diagonal(axis1=1, axis2=2)


def rotate_coherences(states: np.ndarray, phases: np.ndarray) -> None:
    """Apply exp(Phi1 D1 + Phi2 D2) to each row of a C-contiguous (n, 16) stack of packed states, in place.

    ``phases`` holds one (Phi1, Phi2) row per state.  The detuning
    Hamiltonian is diagonal, so D1 and D2 leave the populations alone and
    turn each coherence re + i im by exp(i Phi @ rates), one exponential
    per coherence.
    """
    coherences = states[:, DIM:].view(complex)
    coherences *= np.exp(1j * (phases @ _detuning_rates()))


def master_rhs(t: float, rho: DensityMatrix, params: SystemParams, drive: DriveConfig) -> np.ndarray:
    """d(rho)/dt under drive and dissipation at time t.

    Equals ``coherent_only(t, rho, ...) + dissipator_only(rho, ...)`` exactly
    (entrywise, bit for bit).
    """
    y = pack_state(rho)
    return unpack_state(drive_generators(t, drive)[0] @ y + decay_generator(params) @ y)


def dissipator_only(rho: DensityMatrix, params: SystemParams) -> np.ndarray:
    """Decay/dephasing part of the generator alone (drive-independent)."""
    return unpack_state(decay_generator(params) @ pack_state(rho))


def coherent_only(t: float, rho: DensityMatrix, drive: DriveConfig) -> np.ndarray:
    """Drive commutator -i[H(t), rho] alone; traceless for any input."""
    return unpack_state(drive_generators(t, drive)[0] @ pack_state(rho))


def make_packed_rhs(params: SystemParams, drive: DriveConfig):
    """Build the 16-real derivative function f(t, y) = L(t) y at one time.

    L0 is contracted once here; each call adds the drive part as a separate
    matrix-vector product, in the same arithmetic as ``master_rhs``.  The
    steppers build their generators for many times at once instead.
    """
    decay = decay_generator(params)

    def rhs(t: float, y: np.ndarray) -> np.ndarray:
        return drive_generators(t, drive)[0] @ y + decay @ y

    return rhs
