import importlib.util
import math
import sys
import time
import tracemalloc
from dataclasses import replace
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from victrap import (
    DensityMatrix,
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
    parse_config,
    preset,
    sweep,
)
from victrap import integrator, liouvillian
from victrap.drive import drive_coefficients
from victrap.experiments import PRESET_NAMES, apply_parameter
from victrap.integrator import sample_times
from victrap.liouvillian import decay_blocks, decay_generator, generator_basis

QUIET_DRIVE = DriveConfig(g01=0.0, g02=0.0)

# Stiff decay rates (gamma01 * tau = 400) with the chirp on, over a window
# covering both pulses.  The tau/10 cap is 17 times the explicit stability
# limit, so the lane steps with Radau IIA.
STIFF = Scenario(
    params=SystemParams(gamma01=100.0, gamma02=40.0),
    drive=DriveConfig(chi1=0.3, chi2=0.2),
    t_start=-12.0,
    t_end=22.0,
    sample_interval=0.1,
)
# Decay rates on the explicit side of the selection: the tau/10 cap is 3.3
# times the Dormand-Prince stability limit, so stepping is held at that
# limit, and still below STIFF_RATIO times it.
EDGE = replace(STIFF, params=SystemParams(gamma01=20.0, gamma02=7.6))


def stability_ratio(scenario: Scenario) -> float:
    """The tau/10 cap over the explicit stability limit, h * rho(L0) <= 3.3."""
    radius = np.max(np.abs(np.linalg.eigvals(decay_generator(scenario.params))))
    return scenario.drive.tau / 10.0 * radius / 3.3


def exact_tail(scenario: Scenario, rows: np.ndarray) -> np.ndarray:
    """Oracle B: the states at the times of ``rows``, propagated exactly from its first row.

    Valid once the envelopes are negligible, where the generator is L0 +
    delta1 D1 + delta2 D2 and the three commute: the propagator from t_a is
    exp(L0 (t - t_a) + dPhi1 D1 + dPhi2 D2).  Nothing here is shared with
    the solver's tail: the phases dPhi_k are 8-point Gauss-Legendre
    quadratures of the detunings over each sample interval, summed, and
    the exponential is a 30-term Taylor series with scaling and squaring.
    """
    times = rows[:, 0]
    nodes, weights = np.polynomial.legendre.leggauss(8)
    half, mid = np.diff(times)[:, None] / 2.0, (times[:-1] + times[1:])[:, None] / 2.0
    detunings = drive_coefficients(mid + half * nodes, scenario.drive)[:, 2:].reshape(len(mid), 8, 2)
    phases = np.vstack((np.zeros(2), np.cumsum(half * np.einsum("i,kij->kj", weights, detunings), axis=0)))
    _, _, d1, d2, l0 = generator_basis(decay_generator(scenario.params)).reshape(5, 16, 16)
    a = ((times - times[0])[:, None, None] * l0 + phases[:, 0, None, None] * d1
         + phases[:, 1, None, None] * d2)
    squarings = max(0, math.ceil(math.log2(np.abs(a).sum(axis=1).max() / 0.5)))
    a = a / 2.0 ** squarings
    term = np.broadcast_to(np.eye(16), a.shape)
    total = term.copy()
    for k in range(1, 31):
        term = term @ a / k
        total += term
    for _ in range(squarings):
        total = total @ total
    return total @ rows[0, 1:17]


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

    def test_array_holds_the_scalar_formula_bits(self):
        # t_start + k * interval, one float64 per row, the same IEEE
        # operations as the scalar expression for each k.
        sc = preset("fig4")
        grid = sample_times(sc)
        assert grid.dtype == np.float64
        assert grid.tolist() == [sc.t_start + k * sc.sample_interval for k in range(len(grid))]

    def test_integrate_memory_is_the_trajectory_array(self):
        # 19,201 rows: beside the columns (160 bytes a row), integrate holds
        # the float64 grid (8 bytes a row) and small per-step buffers.
        sc = replace(preset("fig4"), sample_interval=0.005)
        integrate(replace(sc, t_end=-10.0))  # warm caches
        tracemalloc.start()
        try:
            traj = integrate(sc)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(traj.columns) == 19_201
        assert peak < 1.15 * traj.columns.nbytes


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
        # With sparse sampling and pulses too weak to move the state, the
        # tau/10 cap is what limits the step size.  The window ends before
        # the pulses are over, so all of it is stepped.
        sc = quiet_scenario(
            initial_state=initial_metastable(),
            drive=DriveConfig(g01=1e-9, g02=1e-9),
            t_end=20.0,
            sample_interval=5.0,
        )
        traj = integrate(sc)
        assert traj.stats.steps_accepted >= 20.0 / (sc.drive.tau / 10.0)

    def test_tolerance_halving_consistency(self):
        sc = replace(preset("fig2"), t_end=40.0)
        loose = integrate(sc)
        tight = integrate(replace(sc, rtol=sc.rtol / 2.0, atol=sc.atol / 2.0))
        drift = abs(
            loose.samples[-1].record.doublet_population - tight.samples[-1].record.doublet_population
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
        stats = request.getfixturevalue("fig2_run").traj.stats if name == "fig2" else integrate(EDGE).stats
        assert stats.steps_rejected > 0
        assert stats.rhs_evaluations == 1 + 6 * (stats.steps_accepted + stats.steps_rejected)

    def test_rhs_evaluations_count_four_per_implicit_step(self):
        # A Radau IIA step applies the generators at its three nodes and at
        # its start to the start state, accepted or rejected; nothing is
        # evaluated before the first step.
        stats = integrate(replace(STIFF, initial_state=ground_state(), t_start=STIFF.drive.center1)).stats
        assert stats.steps_rejected > 0
        assert stats.rhs_evaluations == 4 * (stats.steps_accepted + stats.steps_rejected)

    def test_stiff_rates_match_fixed_step(self):
        adaptive = integrate(STIFF)
        fixed = integrate_fixed_step(STIFF, 1.0 / STIFF.params.gamma01)
        assert len(fixed.samples) == len(adaptive.samples)
        for fa, ad in zip(fixed.samples, adaptive.samples):
            assert np.max(np.abs(fa.state.matrix - ad.state.matrix)) <= 1e-6, fa.time

    def test_forced_rejection_matches_fixed_step(self):
        # Pulse 1 at its peak drives the ground state into the fast-decaying
        # optical coherences from the first stage on, and the first trial
        # step, tau/10, is past the stability edge h * rho(L0) <= 3.3 of the
        # explicit step: the run must reject it whatever the controller's
        # tuning.
        sc = replace(EDGE, initial_state=ground_state(), t_start=EDGE.drive.center1, t_end=4.0)
        assert 1.0 < stability_ratio(sc) < integrator.STIFF_RATIO
        adaptive = integrate(sc)
        assert adaptive.stats.steps_rejected > 0
        fixed = integrate_fixed_step(sc, 0.01)
        assert len(fixed.samples) == len(adaptive.samples)
        for fa, ad in zip(fixed.samples, adaptive.samples):
            assert np.max(np.abs(fa.state.matrix - ad.state.matrix)) <= 1e-6, fa.time

    def test_stiff_run_rejects_almost_no_steps(self):
        # Up to the end of the pulses the explicit stepping is held at the
        # stability edge: the stabilised controller settles just below it
        # instead of cycling grow-reject-shrink.  The run attempts about 707
        # steps, within the estimate for the whole window, span * rho(L0) /
        # 3.3 = 803.
        sc = Scenario(params=EDGE.params, drive=EDGE.drive)
        assert 1.0 < stability_ratio(sc) < integrator.STIFF_RATIO
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
        # the runs differ only in which times are read off the steps.  To
        # t = 30, before the pulses are over, the last row is the last step's
        # own state: the same bits on both grids.  Over the whole window the
        # steps are still the same, and the last row is the exact tail applied
        # to the same state at t_stop, but through powers of exp(L0 *
        # sample_interval) that differ with the grid.  The two last rows then
        # differ only by the tail's rounding, which the lane estimates as
        # eps * |L0|_1 * (t_end - t_stop) / 5.37, about 3.7e-14 here; 1.2e-15
        # is measured, and 1e-13 is far below any physical difference.
        for t_end, tol in ((30.0, 0.0), (80.0, 1e-13)):
            coarse, fine = (replace(preset("fig2"), sample_interval=dt, t_end=t_end) for dt in (0.5, 0.25))
            a, b = integrate(coarse), integrate(fine)
            for sc, traj in ((coarse, a), (fine, b)):
                assert traj.times.tobytes() == sample_times(sc).tobytes()
                stats = traj.stats
                assert stats.rhs_evaluations == 1 + 6 * (stats.steps_accepted + stats.steps_rejected)
            assert (a.stats.steps_accepted, a.stats.steps_rejected, a.stats.rhs_evaluations) == (
                b.stats.steps_accepted, b.stats.steps_rejected, b.stats.rhs_evaluations
            )
            if tol == 0.0:
                assert a.columns[-1].tobytes() == b.columns[-1].tobytes()
            else:
                assert np.max(np.abs(a.columns[-1, 1:17] - b.columns[-1, 1:17])) <= tol

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

    def test_window_too_long_for_the_step_cap_rejected_before_stepping(self, monkeypatch):
        # Slow decay passes the stiffness estimate, but the 100,031 time
        # units before the pulses are over, in steps of at most tau/10 = 0.4,
        # take at least 250,078 accepted steps: without the up-front check
        # the loop exhausts its budget first.
        sc = Scenario(
            params=SystemParams(gamma01=0.01, gamma02=0.01, gamma03=0.001), t_start=-100_000.0, sample_interval=10.0
        )

        def step(self, steps):
            pytest.fail("a lane stepped")

        monkeypatch.setattr(integrator._LaneSet, "step", step)
        with pytest.raises(IntegrationError, match="window too long: .* at least 2.5e[+]05 steps"):
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


def bench_job(name: str):
    """The parsed config of a bench workload at seed 0 (bench/workloads.py, loaded without the harness)."""
    module = sys.modules.get("bench_workloads")
    if module is None:
        path = Path(__file__).resolve().parent.parent / "bench" / "workloads.py"
        spec = importlib.util.spec_from_file_location("bench_workloads", path)
        module = sys.modules["bench_workloads"] = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
    return parse_config(module.make(name, 0).config)


def stepper(scenario: Scenario) -> type:
    return integrator._Lane(scenario, sample_times(scenario)).stepper


class TestStepperSelection:
    """A lane steps with Radau IIA only when the tau/10 cap is past STIFF_RATIO times the explicit stability limit."""

    @pytest.mark.parametrize("scenario", [
        pytest.param(preset("fig2"), id="fig2"),
        pytest.param(preset("fig4"), id="fig4"),
        pytest.param(preset("fig6").base, id="fig6_base"),
        pytest.param(bench_job("trajectory_csv"), id="trajectory_csv"),
        pytest.param(bench_job("sweep_2d").base, id="sweep_2d_base"),
    ])
    def test_paper_scenarios_step_explicitly(self, scenario):
        assert stability_ratio(scenario) < 1.0
        assert stepper(scenario) is integrator._DopriLanes

    @pytest.mark.parametrize("scenario", [
        pytest.param(STIFF, id="STIFF"),
        pytest.param(bench_job("stiff_json"), id="stiff_json"),
    ])
    def test_stiff_decay_steps_implicitly(self, scenario, monkeypatch):
        assert stability_ratio(scenario) > integrator.STIFF_RATIO
        assert stepper(scenario) is integrator._RadauLanes
        monkeypatch.setattr(integrator, "STIFF_RATIO", math.inf)
        assert stepper(scenario) is integrator._DopriLanes

    def test_radau_tableau(self):
        # The stage equations reproduce the nodes, the collocation polynomial
        # passes through every stage value, and radau5's error weights are
        # its slope at 0, negated.
        c, a, p = integrator._RADAU_C, integrator._RADAU_A, integrator._RADAU_P
        np.testing.assert_allclose(a.sum(axis=1), c, rtol=0, atol=1e-15)
        np.testing.assert_allclose((c[:, None] ** np.arange(1, 4)) @ p, np.eye(3), rtol=0, atol=1e-13)
        np.testing.assert_allclose(integrator._RADAU_DD, -p[0], rtol=1e-15)

    def test_implicit_run_takes_a_quarter_of_the_explicit_steps(self):
        # The stiff bench run: 516 accepted steps, against 2,150 held at the
        # explicit stability edge.
        stats = integrate(bench_job("stiff_json")).stats
        assert stats.steps_accepted <= 700
        assert stats.steps_rejected <= 10

    def test_very_stiff_decay_finishes(self, monkeypatch):
        # gamma01 = 1e4 over the default window: stepped explicitly it would
        # need at least 2.01e5 steps and is rejected up front; implicitly it
        # takes about 470.  The rows on a short window agree with the
        # fixed-step reference at dt = 1e-4, inside its stability limit.
        sc = Scenario(params=SystemParams(gamma01=1e4, gamma02=4e3))
        traj = integrate(sc)
        assert traj.stats.steps_accepted + traj.stats.steps_rejected < 1_000
        assert traj.stats.max_trace_error <= 1e-9
        assert traj.stats.min_eigenvalue >= -1e-12
        short = replace(sc, t_start=-2.0, t_end=-1.0)
        adaptive, fixed = integrate(short), integrate_fixed_step(short, 1e-4)
        assert adaptive.times.tobytes() == fixed.times.tobytes()
        assert np.max(np.abs(adaptive.columns[:, 1:18] - fixed.columns[:, 1:18])) <= 1e-6
        monkeypatch.setattr(integrator, "STIFF_RATIO", math.inf)
        with pytest.raises(IntegrationError, match="needs at least 2.01e[+]05 steps"):
            integrate(sc)

    def test_implicit_lanes_keep_their_solo_bits_beside_each_other(self):
        # Each kind of lane steps in its own lockstep group; within it, a
        # lane's arithmetic (one batched solve per step) does not depend on
        # the others.
        scenarios = [STIFF, replace(STIFF, params=SystemParams(gamma01=60.0, gamma02=40.0, theta=0.4)),
                     preset("fig2"), replace(STIFF, drive=DriveConfig(chi1=0.45, chi2=0.2))]
        outcomes = integrator.steady_states([replace(sc, t_end=60.0) for sc in scenarios])
        for sc, outcome in zip(scenarios, outcomes):
            solo = detect_steady_state(integrate(replace(sc, t_end=60.0)))
            assert outcome.state.matrix.tobytes() == solo.state.matrix.tobytes()
            assert outcome.max_delta == solo.max_delta


def grown_reach(couples: np.ndarray, support: np.ndarray) -> np.ndarray:
    """Oracle for the reach: grow the support along the couplings until it stops changing."""
    reach = support
    for _ in range(16):
        grown = reach | couples[:, reach].any(axis=1)
        if np.array_equal(grown, reach):
            break
        reach = grown
    return reach


class TestReachable:
    """The reach is the closure of the initial support under the couplings of L(t)."""

    def test_random_patterns_match_growing_the_support(self):
        # A quiet drive has no couplings, so L0's pattern is all there is;
        # _reachable reads only the scenario's drive and initial state.  The
        # chain from component 0 takes the longest path, 15 couplings.
        rng = np.random.default_rng(29)
        grid = np.array([0.0, 1.0])
        cases = [(rng.random((16, 16)) < density, np.where(rng.random(16) < 0.15, rng.random(16), 0.0))
                 for density in (0.02, 0.05, 0.1, 0.2) for _ in range(50)]
        cases.append((np.eye(16, k=-1, dtype=bool), np.eye(16)[0]))
        for couples, y in cases:
            scenario = SimpleNamespace(drive=QUIET_DRIVE, initial_state=DensityMatrix(liouvillian.unpack_state(y)))
            reach = integrator._reachable(scenario, couples.astype(float), grid)
            assert reach.tolist() == grown_reach(couples, y != 0).tolist(), (couples, y)

    @pytest.mark.parametrize("name", PRESET_NAMES)
    def test_presets_match_growing_the_support(self, name):
        # The oracle reads the drive's couplings at every grid time.
        sc = getattr(preset(name), "base", preset(name))
        grid = sample_times(sc)
        decay = decay_generator(sc.params)
        couples = (decay != 0) | np.any(liouvillian.drive_generators(grid, sc.drive) != 0, axis=0)
        support = liouvillian.pack_state(sc.initial_state) != 0
        assert integrator._reachable(sc, decay, grid).tolist() == grown_reach(couples, support).tolist()


class TestSpectralRadius:
    """rho(L0) comes from L0's blocks in closed form; np.linalg.eigvals is the oracle."""

    def test_blocks_are_at_most_3x3_and_the_doublet_block_is_an_arrowhead(self):
        blocks = decay_blocks()
        assert blocks == ((0,), (1, 2, 8), (3,), (4, 6), (5, 7), (9,), (10,), (11,), (12, 14), (13, 15))
        assert sorted(k for block in blocks for k in block) == list(range(16))
        assert max(map(len, blocks)) == 3
        units = liouvillian._units()[1].reshape(5, 16, 16)
        for block in blocks:
            # For nonnegative rates every pair of couplings has a nonnegative
            # product, so every eigenvalue is real.
            for i in block:
                for j in block:
                    assert (np.outer(units[:, i, j], units[:, j, i]) >= 0).all()
            if len(block) == 3:
                p1, p2, hub = block
                assert not units[:, p1, p2].any() and not units[:, p2, p1].any()
                assert (units[:, p1, hub] == units[:, p2, hub]).all() and (units[:, hub, p1] == units[:, hub, p2]).all()

    def test_closed_form_matches_eigvals(self):
        # Every zero/nonzero pattern of the five rates, gamma12 included on
        # its own, so that patterns no angle reaches are covered too; three
        # sets of values: the defaults, all rates equal, and gamma_coll =
        # (gamma01 - gamma02)/2, where p1 decays as fast as Re rho21 and two
        # eigenvalues coincide or, with gamma12 tiny, all but coincide (the
        # textbook discriminant 4 J2**3 - 27 J3**2 loses 1e-9 there); and the
        # reachable components of each preset's drive and initial state.
        units = liouvillian._units()[1]
        scenarios = [getattr(spec, "base", spec) for spec in map(preset, PRESET_NAMES)]
        cut = 0
        for pattern in np.ndindex(*(2,) * 5):
            support = (np.array(pattern, dtype=float) @ units).reshape(16, 16)
            masks = {reach.tobytes(): reach for reach in
                     (integrator._reachable(sc, support, sample_times(sc)) for sc in scenarios)}
            for theta in (0.0, 1e-8, 0.3, math.pi / 4, math.pi / 2):
                for g01, g02, g03, g_coll in ((5.8, 2.2, 0.1, 0.7), (1.0, 1.0, 1.0, 1.0), (5.8, 2.2, 0.1, 1.8)):
                    base = np.array((g01, g02, g03, math.sqrt(g01 * g02) * math.cos(theta), g_coll)) * pattern
                    for scale in (1e-6, 1e-3, 1.0, 1e3, 1e6, 1e12, 1e25, 1e50, 1e100, 1e150):
                        decay = (scale * base @ units).reshape(16, 16)
                        for reach in masks.values():
                            expected = float(np.max(np.abs(np.linalg.eigvals(decay[np.ix_(reach, reach)]))))
                            assert abs(integrator._spectral_radius(decay, reach) - expected) <= 1e-13 * expected, (
                                pattern, theta, g01, scale, reach)
                            cut += not reach.all()
        assert cut

    def test_no_run_calls_eigvals(self, monkeypatch):
        # Each preset's lanes, each of fig6's points and the stiff scenarios
        # pick the stepper that the eigvals-based stability ratio predicts;
        # then the runs go through with np.linalg.eigvals refused.
        fig6 = preset("fig6")
        scenarios = [spec for spec in map(preset, PRESET_NAMES) if isinstance(spec, Scenario)] + [STIFF, EDGE]
        scenarios += [apply_parameter(fig6.base, fig6.parameters[0], value) for (value,) in fig6.grid()]
        predicted = [integrator._RadauLanes if stability_ratio(sc) > integrator.STIFF_RATIO else integrator._DopriLanes
                     for sc in scenarios]
        assert integrator._RadauLanes in predicted and integrator._DopriLanes in predicted

        def refused(a):
            raise AssertionError("np.linalg.eigvals called")

        monkeypatch.setattr(np.linalg, "eigvals", refused)
        assert [stepper(sc) for sc in scenarios] == predicted
        for sc in (preset("fig2"), preset("fig4"), STIFF):
            integrate(sc)
        assert len(sweep(fig6).rows) == 64


class TestExactTail:
    """Runs step only while the pulses are on; the rows after that come from a closed form."""

    @pytest.mark.parametrize("scenario", [
        pytest.param(preset("fig2"), id="fig2"),
        pytest.param(replace(preset("fig2"), drive=DriveConfig(static_delta1=0.3, static_delta2=-0.2)),
                     id="chirp_off_detuned"),
        pytest.param(preset("fig4"), id="fig4_tanh"),
        pytest.param(replace(preset("fig4"), params=SystemParams(theta=0.1)), id="fig4_theta_0.1"),
        pytest.param(replace(STIFF, t_start=-16.0, t_end=80.0), id="stiff"),
    ])
    def test_matches_oracle_b(self, scenario):
        # From the first row after the envelopes fall below 1e-10 of their
        # peaks: that row is still stepped, so the hand-over is covered too.
        traj = integrate(scenario)
        drive = scenario.drive
        rows = traj.columns[traj.times >= max(drive.center1, drive.center2) + drive.tau * math.sqrt(math.log(1e10))]
        assert len(rows) > 500
        assert np.max(np.abs(rows[:, 1:17] - exact_tail(scenario, rows))) <= 1e-7

    def test_window_ending_before_the_pulses_are_over_steps_as_before(self, monkeypatch):
        # fig4 to t = 30 ends before t_off (about 31.3): the run is the same,
        # bit for bit, as one whose stepping never stops early.
        sc = replace(preset("fig4"), t_end=30.0)
        lane = integrator._Lane(sc, sample_times(sc))
        assert lane.t_stop == sc.t_end
        ours = integrate(sc)
        monkeypatch.setattr(integrator, "pulses_over", lambda *args: math.inf)
        stepped = integrate(sc)
        assert ours.stats == stepped.stats
        assert ours.columns.tobytes() == stepped.columns.tobytes()
        stats = ours.stats
        assert stats.rhs_evaluations == 1 + 6 * (stats.steps_accepted + stats.steps_rejected)

    @pytest.mark.parametrize("state, gamma, invariant", [
        (ground_state(), dict(gamma01=1e5), ("p0", 1.0)),
        (DensityMatrix.pure(1), dict(gamma03=1e5), ("p3", 0.0)),
    ], ids=["unexcited_fast_decay", "unreached_metastable_decay"])
    def test_no_pulse_lane_takes_no_step(self, state, gamma, invariant):
        # Without a pulse the whole run is the closed form from t_start.  The
        # ground state is stationary, and with no drive nothing reaches |3>,
        # so the stiff rate acts on neither; the invariants hold exactly.
        sc = quiet_scenario(params=SystemParams(**gamma), initial_state=state)
        traj = integrate(sc)
        assert (traj.stats.steps_accepted, traj.stats.steps_rejected, traj.stats.rhs_evaluations) == (0, 0, 1)
        name, value = invariant
        assert all(getattr(s.record, name) == value for s in traj.samples)
        fixed = integrate_fixed_step(sc, 0.01)
        assert np.max(np.abs(fixed.columns[:, 1:18] - traj.columns[:, 1:18])) <= 1e-5

    def test_no_pulse_lane_with_a_zero_step_cap_takes_no_step(self):
        # tau = 5e-324 makes the tau/10 cap 0, but a lane without a pulse
        # steps nothing, so the cap bounds nothing: the run is the same closed
        # form as at the default tau.
        sc = quiet_scenario(initial_state=DensityMatrix.pure(1))
        traj = integrate(replace(sc, drive=replace(QUIET_DRIVE, tau=5e-324)))
        assert (traj.stats.steps_accepted, traj.stats.steps_rejected) == (0, 0)
        assert traj.columns.tobytes() == integrate(sc).columns.tobytes()

    @pytest.mark.parametrize("gamma03, rejected", [(1e4, False), (1e8, True), (1e10, True), (1e12, True)])
    def test_no_pulse_stiff_decay_is_within_atol_or_rejected(self, gamma03, rejected):
        # From |3> without a pulse the population falls to |0> at once, so p0
        # is 1 on every later row.  The tail's exponential takes about
        # log2(gamma03 * sample_interval) squarings, each doubling the
        # rounding of its stationary entry: where that could exceed atol the
        # run is rejected as too stiff, instead of returning p0 short of 1
        # (by 4.5e-7 at 1e8) or failing the trace check (from about 1e9).
        sc = Scenario(drive=QUIET_DRIVE, params=SystemParams(gamma03=gamma03), initial_state=DensityMatrix.pure(3))
        if rejected:
            with pytest.raises(IntegrationError, match="too stiff"):
                integrate(sc)
        else:
            traj = integrate(sc)
            assert np.max(np.abs(traj.columns[1:, 1] - 1.0)) <= sc.atol

    def test_stiff_window_longer_than_the_step_budget_finishes(self):
        # Stepping gamma01 = 100, gamma02 = 40 explicitly to t = 5000 would
        # take about 212,000 steps, more than MAX_STEPS; up to the end of the
        # pulses it takes about 520 implicit steps.  The rows to t = 80 agree with the fixed-step
        # reference within the criterion-9 tolerance, and every row after
        # the pulses with oracle B.
        sc = replace(STIFF, t_start=-16.0, t_end=5000.0, sample_interval=1.0)
        radius = np.max(np.abs(np.linalg.eigvals(decay_generator(sc.params))))
        assert (sc.t_end - sc.t_start) * radius / 3.3 > integrator.MAX_STEPS
        traj = integrate(sc)
        assert traj.stats.steps_accepted + traj.stats.steps_rejected < 2_600
        fixed = integrate_fixed_step(replace(sc, t_end=80.0), 1.0 / sc.params.gamma01)
        head = traj.columns[:len(fixed.columns)]
        assert head[:, 0].tobytes() == fixed.times.tobytes()
        assert np.max(np.abs(head[:, 1:18] - fixed.columns[:, 1:18])) <= 1e-5
        drive = sc.drive
        rows = traj.columns[traj.times >= max(drive.center1, drive.center2) + drive.tau * math.sqrt(math.log(1e10))]
        assert np.max(np.abs(rows[:, 1:17] - exact_tail(sc, rows))) <= 1e-7


class TestChirpOff:
    """A config file's [chirp] enabled = false is chi = 0: the detunings are the static offsets."""

    @pytest.mark.parametrize("static", [(0.0, 0.0), (0.37, -0.11)], ids=["fig2", "static_detuned"])
    def test_same_bits_as_a_zero_chirp(self, static):
        parsed = parse_config(f"[drive]\ndelta1 = {static[0]!r}\ndelta2 = {static[1]!r}\n"
                              "[chirp]\nenabled = false\nchi1 = 0.3\nchi2 = 0.2\n")
        off = integrate(parsed)
        zero = integrate(replace(preset("fig2"), drive=DriveConfig(static_delta1=static[0], static_delta2=static[1])))
        assert off.columns.tobytes() == zero.columns.tobytes()
        assert off.stats == zero.stats


class TestFixedStep:
    def test_coarse_step_rejected(self):
        with pytest.raises(InvalidParameterError):
            integrate_fixed_step(quiet_scenario(), 0.2)  # tau/40 = 0.1

    def test_nonpositive_step_rejected(self):
        with pytest.raises(InvalidParameterError):
            integrate_fixed_step(quiet_scenario(), 0.0)

    @pytest.mark.parametrize("dt", [1e-300, 5e-324])
    def test_step_too_fine_for_the_budget_rejected_at_once(self, dt):
        # 1e-300 asked for about 1e301 substeps and never returned; 5e-324
        # overflowed the substep count to inf.
        start = time.perf_counter()
        with pytest.raises(InvalidParameterError, match="substeps; the budget is 2000000"):
            integrate_fixed_step(preset("fig2"), dt)
        assert time.perf_counter() - start < 1.0

    def test_matches_adaptive_on_decay(self):
        sc = quiet_scenario(initial_state=initial_metastable(), t_end=10.0)
        fixed = integrate_fixed_step(sc, 0.01)
        adaptive = integrate(sc)
        for fa, ad in zip(fixed.samples, adaptive.samples):
            assert fa.record.p3 == pytest.approx(ad.record.p3, abs=1e-9)


class TestSteadyDetection:
    def test_constant_trajectory_converges(self):
        traj = integrate(quiet_scenario())
        steady = detect_steady_state(traj)
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
        with pytest.raises(InsufficientDataError, match="window 5 exceeds trajectory span 3"):
            detect_steady_state(traj)

    def test_window_holding_one_sample_rejected(self):
        # On the grid -16, 14, 44, 74 the 5-unit window holds t = 74 alone,
        # which would read as converged with max_delta = 0.
        traj = integrate(replace(preset("fig2"), sample_interval=30.0))
        with pytest.raises(InsufficientDataError, match="window 5 holds one sample"):
            detect_steady_state(traj)
        # Rows 74 and 79 are two samples, enough for a verdict.
        assert detect_steady_state(integrate(replace(preset("fig2"), sample_interval=5.0))).converged

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
