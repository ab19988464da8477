import math
from types import SimpleNamespace

import numpy as np
import pytest

from victrap import (
    ContractViolationError,
    DensityMatrix,
    DriveConfig,
    SystemParams,
    coherent_only,
    dissipator_only,
    ground_state,
    initial_metastable,
    master_rhs,
    maximally_mixed,
)
from victrap import liouvillian
from victrap.liouvillian import make_packed_rhs, pack_state, unpack_state
from victrap.drive import drive_coefficients
from victrap.observables import dark_state_vector

from conftest import random_density_matrix, random_hermitian

PARAMS = SystemParams()
DRIVE = DriveConfig(chi1=0.3, chi2=0.2)
QUIET = DriveConfig(g01=0.0, g02=0.0)


def lindblad_oracle(rho: np.ndarray, params: SystemParams) -> np.ndarray:
    """Brute-force dissipator: emission channels |0><i| with an interference
    cross rate between the doublet channels, plus collisional dephasing."""
    ops = []
    for level in (1, 2, 3):
        a = np.zeros((4, 4), dtype=complex)
        a[0, level] = 1.0
        ops.append(a)
    g12 = params.gamma12
    rates = np.array(
        [
            [params.gamma01, g12, 0.0],
            [g12, params.gamma02, 0.0],
            [0.0, 0.0, params.gamma03],
        ]
    )
    out = np.zeros((4, 4), dtype=complex)
    for a in range(3):
        for b in range(3):
            rate = rates[a, b]
            if rate == 0.0:
                continue
            la, lb = ops[a], ops[b]
            out += 0.5 * rate * (
                2.0 * la @ rho @ lb.conj().T
                - lb.conj().T @ la @ rho
                - rho @ lb.conj().T @ la
            )
    if params.gamma_coll:
        out += params.gamma_coll * (np.diag(np.diag(rho)) - rho)
    return out


def hamiltonian_oracle(t: float, drive: DriveConfig) -> np.ndarray:
    g1, g2, d1, d2 = drive_coefficients(t, drive)[0].tolist()
    h = np.zeros((4, 4), dtype=complex)
    h[1, 1] = h[2, 2] = -d1
    h[3, 3] = -d2
    h[1, 0] = h[2, 0] = -g1
    h[3, 0] = -g2
    h[0, 1] = h[0, 2] = -g1
    h[0, 3] = -g2
    return h


def commutator_oracle(t: float, rho: np.ndarray, drive: DriveConfig) -> np.ndarray:
    h = hamiltonian_oracle(t, drive)
    return -1j * (h @ rho - rho @ h)


class TestAgainstBruteForceOracles:
    def test_dissipator_matches_matrix_form(self):
        rng = np.random.default_rng(11)
        for params in (PARAMS, SystemParams(theta=0.4), SystemParams(gamma_coll=0.25)):
            for _ in range(30):
                rho = random_density_matrix(rng)
                got = dissipator_only(rho, params)
                want = lindblad_oracle(rho.matrix, params)
                assert np.max(np.abs(got - want)) < 1e-13

    def test_coherent_matches_commutator(self):
        rng = np.random.default_rng(12)
        for t in (-6.0, 0.0, 3.7, 11.0):
            for _ in range(20):
                rho = random_density_matrix(rng)
                got = coherent_only(t, rho, DRIVE)
                want = commutator_oracle(t, rho.matrix, DRIVE)
                assert np.max(np.abs(got - want)) < 1e-13

    def test_full_equation_matches_oracle_sum(self):
        rng = np.random.default_rng(13)
        for _ in range(30):
            rho = random_density_matrix(rng)
            got = master_rhs(1.2, rho, PARAMS, DRIVE)
            want = commutator_oracle(1.2, rho.matrix, DRIVE) + lindblad_oracle(rho.matrix, PARAMS)
            assert np.max(np.abs(got - want)) < 1e-13


class TestRateEquationEntries:
    """Packed-generator entries probed with basis vectors e_k and compared
    with the rate equations written out by hand, independently of the
    operator form the generator is built from."""

    P1, RE10, IM10, RE20, RE21, RE31, RE32 = 1, 4, 5, 6, 8, 12, 14

    @staticmethod
    def entry(rhs, t, row, col):
        """d(ydot[row]) / d(y[col]) of the linear map y -> rhs(t, y)."""
        return rhs(t, np.eye(16)[col])[row]

    @pytest.mark.parametrize("theta", [0.0, 0.4])
    @pytest.mark.parametrize("gamma_coll", [0.0, 0.25])
    def test_decay_entries(self, theta, gamma_coll):
        params = SystemParams(theta=theta, gamma_coll=gamma_coll)
        rhs = make_packed_rhs(params, DriveConfig(g01=0.0, g02=0.0))
        g12 = math.sqrt(params.gamma01 * params.gamma02) * math.cos(theta)
        expected = {
            (self.P1, self.P1): -params.gamma01,
            (self.P1, self.RE21): -g12,
            (self.RE21, self.P1): -g12 / 2,
            (self.RE10, self.RE10): -(params.gamma01 / 2 + gamma_coll),
            (self.RE10, self.RE20): -g12 / 2,
            (self.RE31, self.RE32): -g12 / 2,
        }
        for (row, col), want in expected.items():
            assert self.entry(rhs, 0.0, row, col) == pytest.approx(want, rel=1e-15, abs=0.0), (row, col)

    @pytest.mark.parametrize("theta", [0.0, 0.4])
    @pytest.mark.parametrize("gamma_coll", [0.0, 0.25])
    def test_drive_entry(self, theta, gamma_coll):
        params = SystemParams(theta=theta, gamma_coll=gamma_coll)
        drive = DriveConfig()
        t = 1.3
        g1 = drive.g01 * math.exp(-((t - drive.center1) / drive.tau) ** 2)
        got = self.entry(make_packed_rhs(params, drive), t, self.P1, self.IM10)
        assert got == pytest.approx(2.0 * g1, rel=1e-15, abs=0.0)


class TestStructuralProperties:
    def test_split_sums_exactly(self):
        rng = np.random.default_rng(14)
        for _ in range(100):
            rho = random_density_matrix(rng)
            total = master_rhs(0.8, rho, PARAMS, DRIVE)
            parts = coherent_only(0.8, rho, DRIVE) + dissipator_only(rho, PARAMS)
            assert np.array_equal(total, parts)

    def test_trace_free(self):
        rng = np.random.default_rng(15)
        for _ in range(100):
            rho = random_density_matrix(rng)
            deriv = master_rhs(0.0, rho, PARAMS, DRIVE)
            assert abs(np.trace(deriv)) < 1e-14

    def test_coherent_part_trace_free(self):
        rng = np.random.default_rng(16)
        for _ in range(20):
            rho = random_density_matrix(rng)
            assert abs(np.trace(coherent_only(2.0, rho, DRIVE))) < 1e-15

    def test_exactly_hermitian_output(self):
        rng = np.random.default_rng(17)
        for _ in range(50):
            rho = random_density_matrix(rng)
            deriv = master_rhs(0.5, rho, PARAMS, DRIVE)
            assert np.max(np.abs(deriv - deriv.conj().T)) == 0.0

    def test_linear_in_state(self):
        rng = np.random.default_rng(18)
        for _ in range(20):
            r1 = random_hermitian(rng)
            r2 = random_hermitian(rng)
            alpha, beta = 0.3, -1.7
            lhs = master_rhs(1.0, DensityMatrix(alpha * r1.matrix + beta * r2.matrix), PARAMS, DRIVE)
            rhs = alpha * master_rhs(1.0, r1, PARAMS, DRIVE) + beta * master_rhs(
                1.0, r2, PARAMS, DRIVE
            )
            assert np.max(np.abs(lhs - rhs)) < 1e-12

    def test_non_hermitian_input_rejected(self):
        m = np.zeros((4, 4), dtype=complex)
        m[0, 1] = 0.5
        with pytest.raises(ContractViolationError, match="not Hermitian"):
            master_rhs(0.0, DensityMatrix(m), PARAMS, DRIVE)

    def test_positivity_flow_on_boundary_states(self):
        # On rank-deficient states with the fields off, a zero eigenvalue
        # cannot flow negative.
        rng = np.random.default_rng(19)
        for rank in (1, 2, 3):
            for _ in range(20):
                vecs = rng.normal(size=(rank, 4)) + 1j * rng.normal(size=(rank, 4))
                rho = np.zeros((4, 4), dtype=complex)
                for v in vecs:
                    rho += np.outer(v, v.conj())
                rho = DensityMatrix(rho / np.trace(rho).real)
                deriv = master_rhs(0.0, rho, PARAMS, QUIET)
                eigvals, eigvecs = np.linalg.eigh(rho.matrix)
                for idx in range(4):
                    if eigvals[idx] < 1e-12:
                        v = eigvecs[:, idx]
                        flow = float((v.conj() @ deriv @ v).real)
                        assert flow >= -1e-12


class TestKnownFlows:
    def test_undriven_ground_state_is_stationary(self):
        deriv = master_rhs(0.0, ground_state(), PARAMS, QUIET)
        assert np.max(np.abs(deriv)) == 0.0

    def test_metastable_single_channel_decay(self):
        deriv = master_rhs(0.0, initial_metastable(), PARAMS, QUIET)
        expected = np.zeros((4, 4), dtype=complex)
        expected[3, 3] = -PARAMS.gamma03
        expected[0, 0] = PARAMS.gamma03
        assert np.max(np.abs(deriv - expected)) < 1e-15

    def test_dark_state_is_stationary_at_full_interference(self):
        # rho11 = g02/(g01+g02), rho22 = g01/(g01+g02),
        # rho21 = -sqrt(g01 g02)/(g01+g02): the antisymmetric doublet state.
        v = dark_state_vector(PARAMS)
        rho = DensityMatrix(np.outer(v, v.conj()))
        assert rho.matrix[1, 1].real == pytest.approx(0.275)
        assert rho.matrix[2, 2].real == pytest.approx(0.725)
        assert rho.matrix[2, 1].real == pytest.approx(-0.4465142774872938)
        deriv = master_rhs(0.0, rho, PARAMS, QUIET)
        assert np.max(np.abs(deriv)) < 1e-12

    def test_dark_state_decays_without_full_interference(self):
        v = dark_state_vector(PARAMS)
        rho = DensityMatrix(np.outer(v, v.conj()))
        tilted = SystemParams(theta=0.3)
        deriv = master_rhs(0.0, rho, tilted, QUIET)
        assert np.max(np.abs(deriv)) > 1e-6

    def test_no_interference_decouples_channels(self):
        params = SystemParams(theta=math.pi / 2)
        deriv = dissipator_only(maximally_mixed(), params)
        assert deriv[1, 1].real == pytest.approx(-5.8 / 4)
        assert deriv[2, 2].real == pytest.approx(-2.2 / 4)
        assert deriv[3, 3].real == pytest.approx(-0.1 / 4)
        assert deriv[0, 0].real == pytest.approx((5.8 + 2.2 + 0.1) / 4)
        # cos(pi/2) is ~6e-17 in floating point, so the cross terms are not
        # exactly zero, just negligible.
        off_diag = deriv - np.diag(np.diag(deriv))
        assert np.max(np.abs(off_diag)) < 1e-15


class TestPackedRepresentation:
    def test_round_trip(self):
        rng = np.random.default_rng(20)
        for _ in range(20):
            rho = random_density_matrix(rng)
            packed = pack_state(rho)
            assert packed.shape == (16,)
            assert np.array_equal(unpack_state(packed), rho.matrix)
            assert np.array_equal(pack_state(DensityMatrix(unpack_state(packed))), packed)

    def test_packed_rhs_matches_matrix_rhs(self):
        rng = np.random.default_rng(21)
        rhs = make_packed_rhs(PARAMS, DRIVE)
        for t in (-4.0, 0.0, 9.5):
            rho = random_density_matrix(rng)
            packed_deriv = rhs(t, pack_state(rho))
            assert np.array_equal(unpack_state(packed_deriv), master_rhs(t, rho, PARAMS, DRIVE))

    def test_unit_generators_match_per_basis_construction(self):
        # The unit matrices map all 16 basis states at once; built one basis
        # state at a time, column by column, from the oracles above with one
        # unit coefficient or rate each, they come out the same.
        def unit_matrix(op):
            return np.column_stack([pack_state(DensityMatrix(op(unpack_state(e)))) for e in np.eye(16)]).ravel()

        drive = []
        for g1, g2, d1, d2 in np.eye(4):  # (g1, g2, delta1, delta2)
            h = -np.array([[0, g1, g1, g2], [g1, d1, 0, 0], [g1, 0, d1, 0], [g2, 0, 0, d2]], dtype=complex)
            drive.append(unit_matrix(lambda rho, h=h: -1j * (h @ rho - rho @ h)))
        rates = ("gamma01", "gamma02", "gamma03", "gamma12", "gamma_coll")
        units = [SimpleNamespace(**{rate: float(rate == name) for rate in rates}) for name in rates]
        decay = [unit_matrix(lambda rho, unit=unit: lindblad_oracle(rho, unit)) for unit in units]
        assert np.array_equal(liouvillian._units()[0], np.array(drive))
        assert np.array_equal(liouvillian._units()[1], np.array(decay))


class TestRotateCoherences:
    @staticmethod
    def six_exponentials(states, phases):
        """The rotation with one exponential per coherence: rates D_k[im, re] of each (re, im) pair."""
        units = liouvillian._units()[0][2:].reshape(2, 16, 16)
        rates = units[:, 5::2, 4::2].diagonal(axis1=1, axis2=2)
        rotated = states.copy()
        coherences = rotated[:, 4:].view(complex)
        coherences *= np.exp(1j * (phases @ rates))
        return rotated

    def test_four_distinct_rates(self):
        rates = liouvillian._detuning_rates()
        # rho10 and rho20 turn with delta1, rho21 not at all, rho30 with
        # delta2, rho31 and rho32 with delta2 - delta1.
        assert np.array_equal(rates, [[1, 1, 0, 0, -1, -1], [0, 0, 0, 1, 1, 1]])
        assert len({tuple(column) for column in rates.T.tolist()}) == 4

    def test_bit_for_bit_against_six_exponentials(self):
        rng = np.random.default_rng(22)
        zeros = np.array([[0.0, 0.0], [0.0, -0.0], [-0.0, 0.0], [-0.0, -0.0]])
        phases = np.vstack((zeros, rng.normal(size=(60, 2)), 1e6 * rng.normal(size=(60, 2)),
                            1e6 + rng.normal(size=(4, 2)), -1e6 + rng.normal(size=(4, 2))))
        states = rng.normal(size=(len(phases), 16))
        # Signed zeros in the coherences: every sign pattern of re and im,
        # on some rows beside a zero phase.
        states[:8, 4:] = 0.0
        states[1::2, 4::2] *= -1.0
        states[2::4, 5::2] = -0.0
        states[-8:, 4:] = np.copysign(0.0, rng.normal(size=(8, 12)))
        expected = self.six_exponentials(states, phases)
        rotated = states.copy()
        liouvillian.rotate_coherences(rotated, phases)
        assert rotated.tobytes() == expected.tobytes()
        assert np.array_equal(rotated[:, :4], states[:, :4])
