"""The batched Jacobi kernel for the minimum eigenvalue, against LAPACK's eigvalsh as an independent oracle."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from victrap import DensityMatrix, DriveConfig, InvalidParameterError, Scenario, SystemParams, integrate, preset
from victrap.cli import main
from victrap.liouvillian import pack_state, unpack_state
from victrap.observables import MIN_EIG_BOUND, observable_record, packed_min_eigenvalues

EPS = np.finfo(float).eps
# eigvalsh is backward stable as well, but within a few eps of its own: the
# oracle's share of a difference.
ORACLE_ERROR = 8 * EPS


def hermitian(z: np.ndarray, spectrum) -> np.ndarray:
    """The Hermitian matrix with the given spectrum in the unitary basis of QR(z + 2 I)."""
    q, _ = np.linalg.qr(z + 2.0 * np.eye(4))  # the shift keeps z + 2 I far from singular
    m = (q * np.asarray(spectrum)) @ q.conj().T
    return (m + m.conj().T) / 2.0


def frobenius(m: np.ndarray) -> float:
    """||m||_F, scaled first so that no square underflows."""
    magnitudes = np.abs(m)
    scale = magnitudes.max()
    return scale * np.linalg.norm(magnitudes / scale) if scale else 0.0


def packed(m: np.ndarray) -> np.ndarray:
    """The packed state of a Hermitian matrix, without the Hermiticity check of DensityMatrix."""
    rows, cols = np.tril_indices(4, -1)
    return np.concatenate((m.diagonal().real, np.ascontiguousarray(m[rows, cols]).view(float)))


# 999 random unit-trace states, among which a drawn matrix is placed.
_rng = np.random.default_rng(0)
OTHERS = np.array([
    packed(hermitian(_rng.normal(size=(4, 4)) + 1j * _rng.normal(size=(4, 4)), _rng.dirichlet(np.ones(4))))
    for _ in range(999)
])

unit = st.floats(0.0, 1.0)
basis = st.lists(st.floats(-1.0, 1.0), min_size=32, max_size=32).map(
    lambda values: np.array(values).view(complex).reshape(4, 4))


@st.composite
def spectra(draw):
    """Four eigenvalues: generic, near-pure, rank-deficient, degenerate or with a near-degenerate pair."""
    kind = draw(st.sampled_from(("generic", "near_pure", "rank_deficient", "degenerate", "close_pair")))
    if kind == "generic":
        weights = np.array(draw(st.lists(st.floats(-0.2, 1.0), min_size=4, max_size=4)))
    elif kind == "near_pure":
        tiny = draw(st.lists(st.floats(-1e-12, 1e-12), min_size=3, max_size=3))
        weights = np.array((1.0, *tiny))
    elif kind == "rank_deficient":
        rank = draw(st.integers(1, 3))
        weights = np.array(draw(st.lists(unit, min_size=rank, max_size=rank)) + [0.0] * (4 - rank))
    elif kind == "degenerate":
        value, other = draw(unit), draw(unit)
        weights = np.array((value, value, value, other))
    else:
        value, gap = draw(unit), draw(st.floats(0.0, 1e-10))
        weights = np.array((value, value + gap, *draw(st.lists(unit, min_size=2, max_size=2))))
    return draw(st.permutations(weights.tolist()))


@st.composite
def matrices(draw):
    """A Hermitian 4x4 matrix with entries from 1e-300 to 1: a spectrum in a random basis, or a diagonal."""
    if draw(st.booleans()):
        m = hermitian(draw(basis), draw(spectra()))
        # Off-diagonal entries shrunk towards 1e-300, as the coherences of a
        # nearly diagonal state.
        m = np.where(np.eye(4, dtype=bool), m, m * 10.0 ** -draw(st.integers(0, 300)))
    else:
        m = np.diag(draw(spectra())).astype(complex)
    return m * 10.0 ** -draw(st.integers(0, 300))


@pytest.mark.filterwarnings("error::RuntimeWarning")
@settings(derandomize=True, max_examples=400, deadline=None)
@given(m=matrices(), position=st.integers(0, 999))
def test_kernel_property(m, position):
    # The stated bound, against eigvalsh; a diagonal input is returned
    # exactly; and the row gives the same bits alone as in 1,000 rows.
    state = packed(m)
    assert np.array_equal(unpack_state(state), m)
    lowest = packed_min_eigenvalues(state[None])[0]
    oracle = np.linalg.eigvalsh(m)[0]
    assert abs(lowest - oracle) <= (MIN_EIG_BOUND + ORACLE_ERROR) * frobenius(m)
    if not np.any(m - np.diag(np.diag(m))):
        assert lowest == np.min(np.diag(m).real) + 0.0
    batch = np.insert(OTHERS, position, state, axis=0)
    assert packed_min_eigenvalues(batch)[position].tobytes() == lowest.tobytes()


def test_kernel_edge_batches():
    # No rows; the zero matrix (+0.0, not -0.0); a matrix whose eigenvalues
    # are all equal.
    assert packed_min_eigenvalues(np.zeros((0, 16))).shape == (0,)
    assert packed_min_eigenvalues(np.zeros((2, 16))).tobytes() == np.zeros(2).tobytes()
    assert packed_min_eigenvalues(pack_state(DensityMatrix(np.eye(4) / 4.0))[None])[0] == 0.25


def test_no_run_calls_eigvalsh(monkeypatch, capsys):
    # Trajectories, the validate command, the message for an unphysical
    # initial state and the scalar record all take their minimum eigenvalue
    # from the Jacobi kernel, with np.linalg.eigvalsh refused.
    def refused(*args, **kwargs):
        raise AssertionError("np.linalg.eigvalsh called")

    monkeypatch.setattr(np.linalg, "eigvalsh", refused)
    # test_integrator's STIFF: Radau IIA lanes record through the same path.
    stiff = Scenario(params=SystemParams(gamma01=100.0, gamma02=40.0), drive=DriveConfig(chi1=0.3, chi2=0.2),
                     t_start=-12.0, t_end=22.0, sample_interval=0.1)
    for sc in (preset("fig2"), preset("fig4"), stiff):
        traj = integrate(sc)
        assert not np.isnan(traj.column("min_eig")).any()
    assert main(["validate"]) == 0
    assert capsys.readouterr().err.count("PASS") == 5
    dipped = DensityMatrix(np.diag((1.01, -0.01, 0.0, 0.0)).astype(complex))
    with pytest.raises(InvalidParameterError, match="min_eigenvalue=-1.000e-02"):
        Scenario(initial_state=dipped)
    assert observable_record(0.0, dipped).min_eigenvalue == -0.01
