import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from victrap import (
    ContractViolationError,
    DensityMatrix,
    DriveConfig,
    InvalidParameterError,
    Scenario,
    SystemParams,
    coherence_decay_rate,
    cross_damping,
    ground_state,
    initial_metastable,
    maximally_mixed,
    validate_physicality,
)
from victrap.liouvillian import decay_generator
from victrap.model import MAX_SAMPLE_ROWS

rates = st.floats(min_value=0.0, max_value=50.0, allow_nan=False)
angles = st.floats(min_value=0.0, max_value=math.pi / 2, allow_nan=False)
normal_rates = st.just(0.0) | st.floats(min_value=1e-300, max_value=1e3)


def doublet_decay_matrix(params: SystemParams) -> np.ndarray:
    """2x2 decay matrix [[g01, g12], [g12, g02]] of the excited doublet."""
    g12 = cross_damping(params.gamma01, params.gamma02, params.theta)
    return np.array([[params.gamma01, g12], [g12, params.gamma02]])


class TestCrossDamping:
    def test_fig2_rates_full_interference(self):
        # independent hand evaluation: sqrt(5.8 * 2.2)
        assert cross_damping(5.8, 2.2, 0.0) == pytest.approx(3.57211421989835, abs=1e-12)

    def test_orthogonal_dipoles_switch_off(self):
        assert cross_damping(5.8, 2.2, math.pi / 2) == pytest.approx(0.0, abs=1e-12)

    def test_zero_rate_switches_off(self):
        assert cross_damping(0.0, 2.2, 0.0) == 0.0

    def test_negative_rate_rejected(self):
        with pytest.raises(InvalidParameterError):
            cross_damping(-1.0, 2.2, 0.0)
        with pytest.raises(InvalidParameterError):
            cross_damping(5.8, -0.1, 0.0)

    @given(g1=rates, g2=rates, th1=angles, th2=angles)
    def test_monotone_decreasing_in_angle(self, g1, g2, th1, th2):
        lo, hi = sorted((th1, th2))
        assert cross_damping(g1, g2, lo) >= cross_damping(g1, g2, hi) - 1e-12

    @given(g1=rates, g2=rates, th=angles)
    def test_cauchy_schwarz(self, g1, g2, th):
        value = cross_damping(g1, g2, th)
        assert value * value <= g1 * g2 + 1e-9


class TestCoherenceDecayRate:
    def test_doublet_pair(self):
        assert coherence_decay_rate(2, 1, SystemParams()) == pytest.approx(4.0)

    def test_excited_ground_pair(self):
        assert coherence_decay_rate(1, 0, SystemParams()) == pytest.approx(2.9)

    def test_undecaying_pair(self):
        params = SystemParams(gamma03=0.0)
        assert coherence_decay_rate(3, 0, params) == 0.0

    def test_collisional_offset(self):
        params = SystemParams(gamma_coll=0.7)
        assert coherence_decay_rate(1, 0, params) == pytest.approx(2.9 + 0.7)

    @pytest.mark.parametrize("i,j", [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)])
    def test_symmetry(self, i, j):
        params = SystemParams(gamma_coll=0.3)
        assert coherence_decay_rate(i, j, params) == coherence_decay_rate(j, i, params)

    def test_same_level_rejected(self):
        with pytest.raises(InvalidParameterError):
            coherence_decay_rate(2, 2, SystemParams())

    @settings(derandomize=True)
    @given(g01=normal_rates, g02=normal_rates, g03=normal_rates, g_coll=normal_rates, th=angles)
    def test_equals_the_packed_decay_generator_diagonal(self, g01, g02, g03, g_coll, th):
        # The packed L0, built from the jump operators, damps both parts of
        # each coherence (pairs in packed order) at exactly this rate.
        # Halving is exact only while the half is a normal float, so rates
        # below about 4.5e-308 may differ in the last bit and are not drawn.
        params = SystemParams(g01, g02, g03, g_coll, th)
        damping = -np.diagonal(decay_generator(params))[4:]
        pairs = ((1, 0), (2, 0), (2, 1), (3, 0), (3, 1), (3, 2))
        assert damping.tolist() == [coherence_decay_rate(i, j, params) for i, j in pairs for _ in ("re", "im")]

    def test_out_of_range_level_rejected(self):
        with pytest.raises(InvalidParameterError):
            coherence_decay_rate(4, 0, SystemParams())


class TestSystemParams:
    def test_negative_rate_rejected(self):
        with pytest.raises(InvalidParameterError):
            SystemParams(gamma01=-0.1)

    def test_theta_out_of_range_rejected(self):
        with pytest.raises(InvalidParameterError):
            SystemParams(theta=-0.1)
        with pytest.raises(InvalidParameterError):
            SystemParams(theta=2.0)
        for theta in (math.nan, math.inf):
            with pytest.raises(InvalidParameterError, match=r"\[0, pi/2\]"):
                SystemParams(theta=theta)

    def test_doublet_decay_matrix_singular_at_full_interference(self):
        mat = doublet_decay_matrix(SystemParams(theta=0.0))
        assert abs(np.linalg.det(mat)) < 1e-12

    @given(th=st.floats(min_value=1e-3, max_value=math.pi / 2, allow_nan=False))
    def test_doublet_decay_matrix_determinant(self, th):
        params = SystemParams(theta=th)
        det = np.linalg.det(doublet_decay_matrix(params))
        assert det == pytest.approx(5.8 * 2.2 * math.sin(th) ** 2, rel=1e-9)
        assert det > 0


class TestDriveConfig:
    def test_nonpositive_width_rejected(self):
        with pytest.raises(InvalidParameterError):
            DriveConfig(tau=0.0)

    def test_negative_amplitude_rejected(self):
        with pytest.raises(InvalidParameterError):
            DriveConfig(g01=-0.5)

    def test_nonpositive_ramp_rejected(self):
        with pytest.raises(InvalidParameterError):
            DriveConfig(chirp_ramp=0.0)

    def test_centers_follow_origin(self):
        drive = DriveConfig(t0=10.0, t_origin=3.0)
        assert drive.center1 == 3.0
        assert drive.center2 == 13.0

    def test_pulses_off_after_ignores_silent_pulses(self):
        assert DriveConfig(g01=0.0, g02=0.0).pulses_off_after() == -math.inf
        only_first = DriveConfig(g02=0.0)
        assert only_first.pulses_off_after() == pytest.approx(4.0 * math.sqrt(math.log(1e6)))


class TestDensityMatrix:
    def test_metastable_initial_state(self):
        m = initial_metastable().matrix
        assert m[3, 3] == 1.0
        assert np.trace(m).real == 1.0
        assert np.trace(m @ m).real == pytest.approx(1.0)
        assert np.linalg.eigvalsh(m)[0] == pytest.approx(0.0, abs=1e-15)

    def test_metastable_passes_physicality_exactly(self):
        report = validate_physicality(initial_metastable())
        assert report.ok
        assert report.trace_error == 0.0
        assert report.min_eigenvalue == 0.0

    def test_stored_matrix_is_exactly_hermitian(self):
        # Within HERMITICITY_TOL the input is accepted and symmetrized, so
        # no state argument carries a Hermiticity defect.
        m = np.eye(4, dtype=complex) / 4.0
        m[1, 0], m[0, 1] = 0.1 + 0.2j, 0.1 - 0.2j + 5e-13
        stored = DensityMatrix(m).matrix
        assert np.array_equal(stored, stored.conj().T)

    def test_non_hermitian_rejected(self):
        m = np.zeros((4, 4), dtype=complex)
        m[0, 1] = 1.0
        with pytest.raises(ContractViolationError):
            DensityMatrix(m)

    def test_wrong_shape_rejected(self):
        with pytest.raises(ContractViolationError):
            DensityMatrix(np.eye(3))

    def test_nonfinite_rejected(self):
        m = np.eye(4, dtype=complex)
        m[2, 2] = math.nan
        with pytest.raises(ContractViolationError):
            DensityMatrix(m)

    def test_storage_is_read_only(self):
        rho = maximally_mixed()
        with pytest.raises(ValueError):
            rho.matrix[0, 0] = 2.0

    def test_equality(self):
        assert ground_state() == DensityMatrix.pure(0)
        assert ground_state() != initial_metastable()

    def test_bad_level_rejected(self):
        with pytest.raises(InvalidParameterError):
            DensityMatrix.pure(5)


class TestValidatePhysicality:
    def test_maximally_mixed(self):
        report = validate_physicality(maximally_mixed())
        assert report.trace_error == 0.0
        assert report.min_eigenvalue == pytest.approx(0.25, abs=1e-12)
        assert report.ok

    def test_negative_population_flagged(self):
        m = np.eye(4, dtype=complex) / 4.0
        m[1, 1] = -0.01
        m[0, 0] = 0.25 + 0.01 + 0.25  # keep the trace at one
        m[2, 2] = 0.25
        m[3, 3] = 0.25
        report = validate_physicality(DensityMatrix(m))
        assert report.trace_error < 1e-12
        assert not report.positive_ok
        assert not report.ok

    def test_trace_violation_flagged(self):
        report = validate_physicality(DensityMatrix(np.eye(4, dtype=complex)))
        assert not report.trace_ok


class TestScenario:
    def test_defaults_are_baseline(self):
        sc = Scenario()
        assert sc.params.gamma01 == 5.8
        assert sc.drive.g01 == 0.9
        assert sc.initial_state == initial_metastable()

    def test_bad_window_rejected(self):
        with pytest.raises(InvalidParameterError):
            Scenario(t_start=10.0, t_end=10.0)

    def test_bad_tolerances_rejected(self):
        with pytest.raises(InvalidParameterError):
            Scenario(rtol=0.0)
        with pytest.raises(InvalidParameterError):
            Scenario(sample_interval=-1.0)

    def test_oversized_sample_grid_rejected(self):
        # Rejected in validation; the grid itself is never built.
        with pytest.raises(InvalidParameterError, match="sample grid"):
            Scenario(sample_interval=1e-9)
        with pytest.raises(InvalidParameterError, match="sample grid"):
            Scenario(t_start=-1e308, t_end=1e308)
        with pytest.raises(InvalidParameterError, match="sample grid"):
            Scenario(t_start=0.0, t_end=float(MAX_SAMPLE_ROWS), sample_interval=1.0)
        Scenario(t_start=0.0, t_end=float(MAX_SAMPLE_ROWS - 1), sample_interval=1.0)

    def test_unphysical_initial_state_rejected(self):
        m = np.eye(4, dtype=complex) / 4.0
        m[1, 1] = -0.01
        m[0, 0] = 0.51
        state = DensityMatrix(m)
        with pytest.raises(InvalidParameterError):
            Scenario(initial_state=state)
        # The Cholesky verdict decides, also for a pos_tol below its margin
        # (where it falls back to eigvalsh); the message quotes
        # validate_physicality's figures.
        for pos_tol in (1e-7, 1e-13):
            for dip, ok in ((0.9, True), (1.1, False)):
                state = DensityMatrix(np.diag((1.0 + dip * pos_tol, -dip * pos_tol, 0.0, 0.0)).astype(complex))
                if ok:
                    Scenario(initial_state=state, pos_tol=pos_tol)
                    continue
                with pytest.raises(InvalidParameterError) as exc:
                    Scenario(initial_state=state, pos_tol=pos_tol)
                report = validate_physicality(state, 1e-6, pos_tol)
                assert str(exc.value) == ("initial state is unphysical: "
                                          f"trace_error={report.trace_error:.3e}, "
                                          f"min_eigenvalue={report.min_eigenvalue:.3e}")
        with pytest.raises(InvalidParameterError, match="trace_error=1.000e-01, min_eigenvalue=0.000e"):
            Scenario(initial_state=DensityMatrix(np.diag((1.1, 0.0, 0.0, 0.0)).astype(complex)))
