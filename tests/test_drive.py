import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from victrap import DriveConfig, drive_sample
from victrap.drive import detuning_phases, drive_coefficients

times = st.floats(min_value=-40.0, max_value=80.0, allow_nan=False)

FIG2_DRIVE = DriveConfig()


def envelopes(t, drive):
    """(g1, g2) at one time, read off the drive coefficients."""
    return tuple(drive_coefficients(t, drive)[0, :2].tolist())


def detunings(t, drive):
    """(delta1, delta2) at one time, read off the drive coefficients."""
    return tuple(drive_coefficients(t, drive)[0, 2:].tolist())


class TestEnvelopes:
    def test_first_pulse_peak(self):
        g1, _ = envelopes(0.0, FIG2_DRIVE)
        assert g1 == 0.9

    def test_second_pulse_peak(self):
        _, g2 = envelopes(FIG2_DRIVE.t0, FIG2_DRIVE)
        assert g2 == 0.3

    def test_one_width_from_center(self):
        # direct evaluation: 0.9 * exp(-1)
        g1, _ = envelopes(FIG2_DRIVE.tau, FIG2_DRIVE)
        assert g1 == pytest.approx(0.33109149705429813, abs=1e-15)

    @given(t=times)
    def test_strictly_positive_and_bounded(self, t):
        g1, g2 = envelopes(t, FIG2_DRIVE)
        assert 0.0 < g1 <= FIG2_DRIVE.g01
        assert 0.0 < g2 <= FIG2_DRIVE.g02

    @given(t1=times, t3=times)
    def test_log_is_quadratic(self, t1, t3):
        # For a Gaussian, ln g at three evenly spaced points satisfies
        # ln g(t1) + ln g(t3) - 2 ln g(mid) = -(t3 - t1)^2 / (2 tau^2).
        t2 = 0.5 * (t1 + t3)
        g = lambda t: envelopes(t, FIG2_DRIVE)[0]
        lhs = math.log(g(t1)) + math.log(g(t3)) - 2.0 * math.log(g(t2))
        rhs = -((t3 - t1) ** 2) / (2.0 * FIG2_DRIVE.tau**2)
        assert lhs == pytest.approx(rhs, abs=1e-7)

    def test_translation_by_origin(self):
        shifted = DriveConfig(t_origin=5.0)
        for t in (-3.0, 0.0, 4.5, 12.0):
            assert envelopes(t + 5.0, shifted) == envelopes(t, FIG2_DRIVE)


CHIRPED = DriveConfig(chi1=0.3, chi2=0.2)


class TestChirp:
    def test_zero_at_first_center(self):
        d1, _ = detunings(0.0, CHIRPED)
        assert d1 == 0.0

    def test_zero_at_second_center(self):
        _, d2 = detunings(CHIRPED.t0, CHIRPED)
        assert d2 == 0.0

    def test_asymptotic_values(self):
        d1, d2 = detunings(1e4, CHIRPED)
        assert d1 == pytest.approx(0.3, abs=1e-12)
        assert d2 == pytest.approx(0.2, abs=1e-12)

    def test_disabled_means_static(self):
        drive = DriveConfig(chi1=0.0, chi2=0.0, static_delta1=0.0, static_delta2=0.0)
        for t in (-20.0, 0.0, 7.0, 55.0):
            assert detunings(t, drive) == (0.0, 0.0)

    def test_static_offsets_add(self):
        drive = DriveConfig(chi1=0.3, chi2=0.2, static_delta1=1.5, static_delta2=-0.5)
        d1, d2 = detunings(1e4, drive)
        assert d1 == pytest.approx(1.5 + 0.3)
        assert d2 == pytest.approx(-0.5 + 0.2)

    @given(s=st.floats(min_value=0.0, max_value=50.0, allow_nan=False))
    def test_odd_about_center(self, s):
        before = detunings(CHIRPED.center1 - s, CHIRPED)[0]
        after = detunings(CHIRPED.center1 + s, CHIRPED)[0]
        assert after == pytest.approx(-before, abs=1e-12)

    @given(t=times)
    def test_sweep_bounded_by_amplitude(self, t):
        d1, d2 = detunings(t, CHIRPED)
        assert abs(d1) <= abs(CHIRPED.chi1)
        assert abs(d2) <= abs(CHIRPED.chi2)

    def test_ramp_time_scales_argument(self):
        slow = DriveConfig(chi1=0.3, chi2=0.2, chirp_ramp=4.0)
        fast = DriveConfig(chi1=0.3, chi2=0.2, chirp_ramp=1.0)
        assert detunings(2.0, slow)[0] == pytest.approx(0.3 * math.tanh(0.5))
        assert detunings(2.0, fast)[0] == pytest.approx(0.3 * math.tanh(2.0))


class TestDetuningPhases:
    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("ramp", [5e-324, 1e-300, 2.0, 1e300])
    def test_chirp_off_is_static_for_any_ramp(self, ramp):
        # A zero amplitude's term is exactly 0: no 0 * inf, however far a
        # tiny ramp pushes the log cosh argument.
        drive = DriveConfig(chi1=0.0, chi2=0.0, static_delta1=0.7, static_delta2=-0.25, chirp_ramp=ramp)
        ts = np.array([-40.0, -1.5, 0.0, 3.5, 31.35, 80.0])
        assert np.array_equal(detuning_phases(ts, drive), np.array([0.7, -0.25]) * ts[:, None])

    def test_derivative_is_the_detuning(self):
        drive = DriveConfig(chi1=0.3, chi2=-0.2, static_delta1=0.1, static_delta2=0.05)
        ts, h = np.linspace(-10.0, 20.0, 31), 1e-5
        slope = (detuning_phases(ts + h, drive) - detuning_phases(ts - h, drive)) / (2.0 * h)
        assert np.allclose(slope, drive_coefficients(ts, drive)[:, 2:], atol=1e-8)


class TestDriveSample:
    @given(t=times)
    def test_bundles_envelope_and_detuning(self, t):
        sample = drive_sample(t, CHIRPED)
        assert [sample.g1, sample.g2, sample.delta1, sample.delta2] == drive_coefficients(t, CHIRPED)[0].tolist()
