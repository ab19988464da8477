import math
from dataclasses import replace

import numpy as np
import pytest

from victrap import (
    DriveConfig,
    IntegrationError,
    InsufficientDataError,
    InvalidParameterError,
    PhysicalityError,
    Scenario,
    SystemParams,
    detect_steady_state,
    ground_state,
    initial_metastable,
    integrate,
    integrate_fixed_step,
    preset,
)
from victrap import integrator
from victrap.integrator import sample_times
from victrap.liouvillian import decay_generator

QUIET_DRIVE = DriveConfig(g01=0.0, g02=0.0)

# Stiff decay rates (gamma01 * tau = 400) with the chirp on, over a window
# covering both pulses; stepping here is limited by stability, not accuracy.
STIFF = Scenario(
    params=SystemParams(gamma01=100.0, gamma02=40.0),
    drive=DriveConfig(chirp_enabled=True),
    t_start=-12.0,
    t_end=22.0,
    sample_interval=0.1,
)


def quiet_scenario(**kwargs) -> Scenario:
    defaults = dict(
        params=SystemParams(),
        drive=QUIET_DRIVE,
        initial_state=ground_state(),
        t_start=0.0,
        t_end=20.0,
    )
    defaults.update(kwargs)
    return Scenario(**defaults)


class TestSampleGrid:
    def test_row_count(self):
        sc = quiet_scenario(t_start=-16.0, t_end=60.0, sample_interval=0.05)
        grid = sample_times(sc)
        assert len(grid) == math.floor(76.0 / 0.05) + 1
        assert grid[0] == -16.0
        assert grid[-1] == pytest.approx(60.0, abs=1e-9)

    def test_strictly_increasing(self):
        grid = sample_times(quiet_scenario(sample_interval=0.7))
        assert all(b > a for a, b in zip(grid, grid[1:]))


class TestStationaryStates:
    def test_ground_state_is_constant(self):
        traj = integrate(quiet_scenario())
        assert traj.stats.steps_rejected == 0
        for sample in traj.samples:
            assert sample.record.p0 == 1.0
            assert sample.record.p1 == 0.0
            assert abs(sample.record.c21) == 0.0

    def test_fixed_step_ground_state_is_constant(self):
        traj = integrate_fixed_step(quiet_scenario(t_end=2.0), 0.05)
        for sample in traj.samples:
            assert sample.record.p0 == 1.0


class TestAnalyticDecay:
    def test_metastable_exponential(self):
        sc = quiet_scenario(initial_state=initial_metastable(), t_end=40.0)
        traj = integrate(sc)
        for sample in traj.samples:
            assert sample.record.p3 == pytest.approx(math.exp(-0.1 * sample.time), abs=1e-8)

    def test_doublet_bright_decay_rate(self):
        # At full interference the doublet decay matrix has eigenvalues
        # {0, g01+g02}; a bright-state preparation decays at the sum rate.
        from victrap.observables import bright_state_overlap, dark_state_overlap

        params = SystemParams()
        v = np.zeros(4, dtype=complex)
        total = params.gamma01 + params.gamma02
        v[1] = math.sqrt(params.gamma01 / total)
        v[2] = math.sqrt(params.gamma02 / total)
        bright = np.outer(v, v.conj())
        from victrap import DensityMatrix

        sc = quiet_scenario(initial_state=DensityMatrix(bright), t_end=1.0, sample_interval=0.01)
        traj = integrate(sc)
        for sample in traj.samples[:30]:
            expected = math.exp(-total * sample.time)
            assert bright_state_overlap(sample.state, params) == pytest.approx(expected, abs=1e-7)
            assert dark_state_overlap(sample.state, params) == pytest.approx(0.0, abs=1e-9)


class TestControllerBehaviour:
    def test_deterministic_repetition(self):
        sc = replace(preset("fig2"), t_end=10.0)
        a = integrate(sc)
        b = integrate(sc)
        assert a.stats == b.stats
        for sa, sb in zip(a.samples, b.samples):
            assert np.array_equal(sa.state.matrix, sb.state.matrix)

    def test_step_cap_resolves_pulses(self):
        # With sparse sampling the tau/10 cap is what limits the step size.
        sc = quiet_scenario(
            initial_state=initial_metastable(), t_end=40.0, sample_interval=5.0
        )
        traj = integrate(sc)
        assert traj.stats.steps_accepted >= 40.0 / (sc.drive.tau / 10.0)

    def test_tolerance_halving_consistency(self):
        sc = replace(preset("fig2"), t_end=40.0)
        loose = integrate(sc)
        tight = integrate(replace(sc, rtol=sc.rtol / 2.0, atol=sc.atol / 2.0))
        drift = abs(
            loose.final.record.doublet_population - tight.final.record.doublet_population
        )
        assert drift < 10.0 * sc.rtol

    def test_time_translation_invariance(self):
        shift = 7.5
        base = replace(preset("fig4"), t_end=30.0)
        moved = replace(
            base,
            drive=replace(base.drive, t_origin=base.drive.t_origin + shift),
            t_start=base.t_start + shift,
            t_end=base.t_end + shift,
        )
        a = integrate(base)
        b = integrate(moved)
        assert len(a.samples) == len(b.samples)
        for sa, sb in zip(a.samples, b.samples):
            assert sb.time == pytest.approx(sa.time + shift, abs=1e-9)
            assert np.max(np.abs(sa.state.matrix - sb.state.matrix)) < 1e-7

    @pytest.mark.parametrize("name", ["fig2", "stiff"])
    def test_rhs_evaluations_count_six_per_attempted_step(self, name, request):
        # One initial evaluation, then six new stages per attempted step
        # (first-same-as-last), accepted or rejected.
        stats = request.getfixturevalue("fig2_run").traj.stats if name == "fig2" else integrate(STIFF).stats
        assert stats.rhs_evaluations == 1 + 6 * (stats.steps_accepted + stats.steps_rejected)

    def test_stiff_rates_match_fixed_step(self):
        adaptive = integrate(STIFF)
        assert adaptive.stats.steps_rejected > 0
        fixed = integrate_fixed_step(STIFF, 1.0 / STIFF.params.gamma01)
        assert len(fixed.samples) == len(adaptive.samples)
        for fa, ad in zip(fixed.samples, adaptive.samples):
            assert np.max(np.abs(fa.state.matrix - ad.state.matrix)) <= 1e-6, fa.time

    def test_stiff_run_rejects_almost_no_steps(self):
        # Over the default window the stepping is stability-limited: the
        # stabilised controller settles just below the stability edge
        # instead of cycling grow-reject-shrink (10% rejected without the
        # prev^beta term), and attempts little more than the up-front
        # estimate span * rho(L0) / 3.3, about 4,073 steps.
        sc = Scenario(params=SystemParams(gamma01=100.0, gamma02=40.0), drive=DriveConfig(chirp_enabled=True))
        stats = integrate(sc).stats
        attempted = stats.steps_accepted + stats.steps_rejected
        radius = np.max(np.abs(np.linalg.eigvals(decay_generator(sc.params))))
        assert stats.steps_rejected <= 0.01 * attempted
        assert attempted <= 1.05 * (sc.t_end - sc.t_start) * radius / 3.3

    def test_smooth_run_step_count(self, fig2_run):
        # The damping term costs smooth runs a few steps (517 accepted
        # with the plain controller, 525 with beta = 0.02).
        assert fig2_run.traj.stats.steps_accepted <= 528

    def test_controller_not_grid_chooses_steps(self):
        # Both intervals are exact in binary and both grids end on t_end, so
        # the runs differ only in which times are read off the steps.
        coarse, fine = (replace(preset("fig2"), sample_interval=dt) for dt in (0.5, 0.25))
        a, b = integrate(coarse), integrate(fine)
        for sc, traj in ((coarse, a), (fine, b)):
            assert traj.times.tolist() == sample_times(sc)
            stats = traj.stats
            assert stats.rhs_evaluations == 1 + 6 * (stats.steps_accepted + stats.steps_rejected)
        assert (a.stats.steps_accepted, a.stats.steps_rejected, a.stats.rhs_evaluations) == (
            b.stats.steps_accepted, b.stats.steps_rejected, b.stats.rhs_evaluations
        )
        assert a.columns[-1].tobytes() == b.columns[-1].tobytes()

    def test_step_budget_exhausted_in_loop(self, monkeypatch):
        # fig2 up to the first pulse: the up-front stiffness estimate
        # (16 * 8 / 3.3, about 39 steps) passes, and the controller then
        # attempts about 200 steps to resolve the pulse.
        monkeypatch.setattr(integrator, "MAX_STEPS", 100)
        with pytest.raises(IntegrationError, match="step budget of 100"):
            integrate(replace(preset("fig2"), t_end=0.0))

    @pytest.mark.parametrize("rate", [1e5, 1e308])
    def test_too_stiff_rejected_before_stepping(self, rate):
        # The drive carries |3> into the doublet; 1e308 overflows L0 to
        # non-finite entries.
        sc = Scenario(params=SystemParams(gamma01=rate, gamma02=rate))
        with pytest.raises(IntegrationError, match="too stiff"):
            integrate(sc)

    def test_unexcited_fast_decay_does_not_count(self):
        # The undriven ground state never reaches the doublet, so its
        # gamma01 = 1e5 limits no step; the state stays exactly constant.
        traj = integrate(quiet_scenario(params=SystemParams(gamma01=1e5)))
        assert traj.stats.steps_rejected == 0
        assert all(s.record.p0 == 1.0 for s in traj.samples)

    def test_undriven_metastable_decay_does_not_count(self):
        # With g02 = 0 nothing couples into |3> or its coherences, so the
        # stiff gamma03 never acts; the g1-driven run stays in budget.
        sc = quiet_scenario(
            params=SystemParams(gamma03=1e5),
            drive=DriveConfig(g02=0.0),
            t_start=-12.0,
            t_end=22.0,
        )
        traj = integrate(sc)
        assert max(s.record.p1 for s in traj.samples) > 0.1
        assert all(s.record.p3 == 0.0 for s in traj.samples)

    def test_physicality_abort(self):
        sc = replace(preset("fig2"), t_end=10.0, trace_tol=1e-17)
        with pytest.raises(PhysicalityError):
            integrate(sc)


class TestFixedStep:
    def test_coarse_step_rejected(self):
        with pytest.raises(InvalidParameterError):
            integrate_fixed_step(quiet_scenario(), 0.2)  # tau/40 = 0.1

    def test_nonpositive_step_rejected(self):
        with pytest.raises(InvalidParameterError):
            integrate_fixed_step(quiet_scenario(), 0.0)

    def test_matches_adaptive_on_decay(self):
        sc = quiet_scenario(initial_state=initial_metastable(), t_end=10.0)
        fixed = integrate_fixed_step(sc, 0.01)
        adaptive = integrate(sc)
        for fa, ad in zip(fixed.samples, adaptive.samples):
            assert fa.record.p3 == pytest.approx(ad.record.p3, abs=1e-9)


class TestSteadyDetection:
    def test_constant_trajectory_converges(self):
        traj = integrate(quiet_scenario())
        steady = detect_steady_state(traj, window=5.0)
        assert steady.converged
        assert steady.doublet_population == 0.0
        assert steady.max_delta == 0.0

    def test_truncated_mid_pulse_rejected(self):
        sc = replace(preset("fig2"), t_end=preset("fig2").drive.t0)
        traj = integrate(sc)
        with pytest.raises(InsufficientDataError):
            detect_steady_state(traj)

    def test_window_longer_than_span_rejected(self):
        traj = integrate(quiet_scenario(t_end=3.0))
        with pytest.raises(InsufficientDataError):
            detect_steady_state(traj, window=10.0)

    def test_bad_window_rejected(self):
        traj = integrate(quiet_scenario())
        with pytest.raises(InvalidParameterError):
            detect_steady_state(traj, window=-1.0)

    def test_fig2_converges(self, fig2_run):
        assert fig2_run.steady.converged
        assert fig2_run.steady.time == fig2_run.traj.samples[-1].time


class TestTrajectoryShape:
    def test_covering_window_and_sorted(self, fig2_run):
        times = fig2_run.traj.times
        assert times[0] == fig2_run.scenario.t_start
        assert times[-1] == pytest.approx(fig2_run.scenario.t_end, abs=1e-9)
        assert np.all(np.diff(times) > 0)

    def test_every_sample_physical(self, fig2_run):
        sc = fig2_run.scenario
        for sample in fig2_run.traj.samples:
            assert sample.record.trace_error <= sc.trace_tol
            assert sample.record.min_eigenvalue >= -sc.pos_tol
