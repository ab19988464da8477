import math
import re
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from victrap import (
    CHIRP_BASELINE,
    InsufficientDataError,
    IntegrationError,
    InvalidParameterError,
    PhysicalityError,
    Scenario,
    SimulationError,
    SweepAxis,
    SweepSpec,
    detect_steady_state,
    experiments,
    integrate,
    integrator,
    parse_config,
    preset,
    sweep,
)
from victrap.experiments import MAX_AXIS_POINTS, MAX_GRID_POINTS, apply_parameter
from victrap.integrator import STEADY_WINDOW


class TestPresets:
    def test_fig2_parameters(self):
        sc = preset("fig2")
        assert sc.params.gamma01 == 5.8
        assert sc.params.gamma02 == 2.2
        assert sc.params.gamma03 == 0.1
        assert sc.params.theta == 0.0
        assert sc.drive.g01 == 0.9
        assert sc.drive.g02 == 0.3
        assert sc.drive.tau == 4.0
        assert sc.drive.t0 == 10.0  # 2.5 * tau
        assert sc.drive.chi1 == 0.0 and sc.drive.chi2 == 0.0  # chirp off
        assert sc.drive.static_delta1 == 0.0 and sc.drive.static_delta2 == 0.0

    def test_fig3_is_the_fig2_run(self):
        assert preset("fig3") == preset("fig2")

    def test_fig4_enables_chirp(self):
        sc = preset("fig4")
        assert (sc.drive.chi1, sc.drive.chi2) == CHIRP_BASELINE
        assert sc.drive.chi1 == 0.3
        assert sc.drive.chi2 == 0.2
        assert sc == replace(preset("fig2"), drive=replace(preset("fig2").drive, chi1=0.3, chi2=0.2))

    def test_fig5_is_the_fig4_run(self):
        assert preset("fig5") == preset("fig4")

    def test_fig6_sweeps_theta(self):
        spec = preset("fig6")
        assert isinstance(spec, SweepSpec)
        assert spec.parameters == ("theta",)
        values = spec.axes[0].values
        assert len(values) == 64
        assert values[0] == 0.0
        assert values[-1] == pytest.approx(math.pi / 2)
        assert spec.base == preset("fig5")

    def test_unknown_name_rejected(self):
        with pytest.raises(InvalidParameterError):
            preset("fig7")

    def test_fig3_trajectory_identical_to_fig2(self):
        a = integrate(replace(preset("fig2"), t_end=-6.0 + 1.0, t_start=-6.0))
        b = integrate(replace(preset("fig3"), t_end=-6.0 + 1.0, t_start=-6.0))
        assert a.samples[-1].state == b.samples[-1].state


class TestSweepSpec:
    def test_unknown_parameter_rejected(self):
        with pytest.raises(InvalidParameterError):
            SweepAxis(parameter="bogus", values=(1.0,))

    def test_empty_grid_rejected(self):
        with pytest.raises(InvalidParameterError):
            SweepAxis(parameter="theta", values=())

    def test_nonfinite_grid_rejected(self):
        with pytest.raises(InvalidParameterError):
            SweepAxis(parameter="theta", values=(0.0, math.inf))

    def test_linspace_endpoints(self):
        axis = SweepAxis.linspace("theta", 0.0, 1.0, 5)
        assert axis.values == (0.0, 0.25, 0.5, 0.75, 1.0)

    def test_oversized_axis_rejected_before_allocation(self):
        with pytest.raises(InvalidParameterError, match="points"):
            SweepAxis.linspace("theta", 0.0, 1.0, 10**12)
        with pytest.raises(InvalidParameterError, match="points"):
            SweepAxis.linspace("theta", 0.0, 1.0, MAX_AXIS_POINTS + 1)
        with pytest.raises(InvalidParameterError, match="points"):
            SweepAxis(parameter="theta", values=(0.0,) * (MAX_AXIS_POINTS + 1))
        assert len(SweepAxis.linspace("theta", 0.0, 1.0, MAX_AXIS_POINTS).values) == MAX_AXIS_POINTS

    def test_oversized_grid_rejected(self):
        side = math.isqrt(MAX_GRID_POINTS) + 1
        axes = (SweepAxis.linspace("theta", 0.0, 1.0, side), SweepAxis.linspace("g02", 0.1, 0.3, side))
        with pytest.raises(InvalidParameterError, match="grid"):
            SweepSpec(base=Scenario(), axes=axes)
        fits = (axes[0], SweepAxis.linspace("g02", 0.1, 0.3, MAX_GRID_POINTS // side))
        assert len(SweepSpec(base=Scenario(), axes=fits).grid()) <= MAX_GRID_POINTS

    def test_too_many_axes_rejected(self):
        axis = SweepAxis(parameter="theta", values=(0.0,))
        with pytest.raises(InvalidParameterError):
            SweepSpec(base=Scenario(), axes=(axis, axis, axis))

    def test_axes_naming_one_parameter_rejected(self):
        # The second axis's value would overwrite the first's in every point.
        axes = (SweepAxis(parameter="theta", values=(0.1,)), SweepAxis(parameter="theta", values=(0.2,)))
        with pytest.raises(InvalidParameterError, match="theta"):
            SweepSpec(base=Scenario(), axes=axes)

    def test_two_axis_grid_order(self):
        spec = SweepSpec(
            base=Scenario(),
            axes=(
                SweepAxis(parameter="theta", values=(0.0, 0.5)),
                SweepAxis(parameter="g02", values=(0.1, 0.2, 0.3)),
            ),
        )
        grid = spec.grid()
        assert len(grid) == 6
        assert grid[0] == (0.0, 0.1)
        assert grid[1] == (0.0, 0.2)  # last axis fastest
        assert grid[3] == (0.5, 0.1)


class TestApplyParameter:
    def test_system_field(self):
        sc = apply_parameter(Scenario(), "theta", 0.4)
        assert sc.params.theta == 0.4

    def test_drive_field(self):
        sc = apply_parameter(Scenario(), "g02", 0.7)
        assert sc.drive.g02 == 0.7

    def test_unknown_field(self):
        with pytest.raises(InvalidParameterError):
            apply_parameter(Scenario(), "nope", 1.0)


def quiet_base(**kwargs) -> Scenario:
    base = preset("fig2")
    return replace(
        base, drive=replace(base.drive, g01=0.0, g02=0.0), **kwargs
    )


class TestSweepExecution:
    def test_undriven_doublet_stays_empty(self):
        spec = SweepSpec(
            base=quiet_base(),
            axes=(SweepAxis(parameter="theta", values=(0.0, math.pi / 2)),),
        )
        table = sweep(spec)
        assert table.parameters == ("theta",)
        assert len(table.rows) == 2
        for row, theta in zip(table.rows, (0.0, math.pi / 2)):
            assert row.values == (theta,)
            assert row.converged
            assert row.error is None
            assert abs(row.doublet_population) < 1e-12
            assert abs(row.doublet_purity) < 1e-12

    def test_rows_keep_grid_order_under_parallelism(self):
        spec = SweepSpec(
            base=quiet_base(),
            axes=(SweepAxis(parameter="theta", values=(0.0, 0.3, 0.6, 0.9)),),
        )
        serial = sweep(spec, max_workers=1)
        parallel = sweep(spec, max_workers=4)
        assert serial == parallel

    def test_failed_point_is_flagged_not_fatal(self):
        # t_end inside the pulse sequence: steady detection cannot run.
        base = replace(preset("fig2"), t_end=10.0)
        spec = SweepSpec(
            base=base, axes=(SweepAxis(parameter="theta", values=(0.0, 0.2)),)
        )
        table = sweep(spec)
        assert len(table.rows) == 2
        for row in table.rows:
            assert not row.converged
            assert row.error is not None
            assert math.isnan(row.doublet_population)


def point_scenario(spec, values):
    scenario = spec.base
    for name, value in zip(spec.parameters, values):
        scenario = apply_parameter(scenario, name, value)
    return scenario


def row_bits(row):
    return repr((row.values, row.doublet_population, row.doublet_purity, row.abs_coherence_21,
                 row.converged, row.error))


def solo_bits(spec, values):
    """The row bits of one point integrated and summarised on its own."""
    try:
        steady = detect_steady_state(integrate(point_scenario(spec, values)))
    except SimulationError as exc:
        return repr((values, math.nan, math.nan, math.nan, False, str(exc)))
    return repr((values, steady.doublet_population, steady.doublet_purity, steady.abs_coherence_21,
                 steady.converged, None))


# Two axes, chirped: theta = 0.1 is in the slow-mode band and does not converge.
THETA_CHI1 = SweepSpec(
    base=preset("fig4"),
    axes=(SweepAxis("theta", (0.0, 0.1, 0.8, 1.5)), SweepAxis("chi1", (0.15, 0.45))),
)


class TestLaneBatchedSweep:
    @pytest.fixture(scope="class")
    def solo_rows(self):
        return [solo_bits(THETA_CHI1, values) for values in THETA_CHI1.grid()]

    @pytest.mark.parametrize("lanes", [None, 3], ids=["default_chunk", "three_lanes"])
    def test_rows_match_per_point_runs_bit_for_bit(self, monkeypatch, solo_rows, lanes):
        if lanes is not None:
            monkeypatch.setattr(experiments, "MAX_LANES", lanes)
        table = sweep(THETA_CHI1)
        assert [row_bits(row) for row in table.rows] == solo_rows
        converged = [row.converged for row in table.rows]
        assert not all(converged) and any(converged)

    def test_sweep_calls_no_eigensolver(self, monkeypatch, solo_rows):
        # Every row of a sweep lane, dropped or kept, and each point's initial
        # state take the Cholesky verdict (observables.packed_verdict), a real
        # factorisation; no minimum eigenvalue is computed unless it fails.
        # Radau IIA lanes (gamma01 = 100) record through the same path.
        stiff = SweepSpec(base=replace(preset("fig4"), params=replace(preset("fig4").params, gamma01=100.0)),
                          axes=(SweepAxis("theta", (0.0, 0.8)),))
        assert {integrator._Lane(sc, integrator.sample_times(sc)).stepper
                for sc in (point_scenario(stiff, values) for values in stiff.grid())} == {integrator._RadauLanes}
        stiff_rows = [solo_bits(stiff, values) for values in stiff.grid()]
        cholesky = np.linalg.cholesky
        factored = []

        def no_eigvalsh(*args, **kwargs):
            raise AssertionError("eigvalsh called")

        def real_cholesky(a):
            factored.append(a.dtype)
            return cholesky(a)

        monkeypatch.setattr(np.linalg, "eigvalsh", no_eigvalsh)
        monkeypatch.setattr(np.linalg, "cholesky", real_cholesky)
        assert [row_bits(row) for row in sweep(THETA_CHI1).rows] == solo_rows
        assert [row_bits(row) for row in sweep(stiff).rows] == stiff_rows
        assert factored and set(factored) == {np.dtype(float)}

    def test_chirp_amplitude_axis_on_a_chirp_off_base_chirps(self):
        # chi1 = 0 is the chirp off, so the first row is fig2's; the others
        # chirp pulse 1 and move every observable.
        spec = SweepSpec(base=preset("fig2"), axes=(SweepAxis("chi1", (0.0, 0.3, 0.6)),))
        table = sweep(spec)
        assert [row_bits(row) for row in table.rows] == [solo_bits(spec, values) for values in spec.grid()]
        for name in ("doublet_population", "doublet_purity", "abs_coherence_21"):
            assert len({getattr(row, name) for row in table.rows}) == 3, name

    def test_lane_failing_mid_run_is_flagged_and_others_untouched(self, monkeypatch):
        # gamma01 = 20 steps explicitly past its stability edge: it passes the
        # up-front estimate for the span it steps, up to the end of the
        # pulses (about 318 steps), and needs about 666 attempts there;
        # 1e5 is rejected before stepping.
        monkeypatch.setattr(integrator, "MAX_STEPS", 550)
        spec = SweepSpec(base=preset("fig4"), axes=(SweepAxis("gamma01", (5.8, 20.0, 1e5)),))
        ok, exhausted, stiff = sweep(spec).rows
        assert "step budget" in exhausted.error
        assert "too stiff" in stiff.error
        for flagged in (exhausted, stiff):
            assert not flagged.converged
            assert math.isnan(flagged.doublet_population)
        assert ok.error is None
        assert row_bits(ok) == solo_bits(spec, (5.8,))

    def test_explicit_and_implicit_lanes_give_their_solo_rows(self):
        # gamma01 = 5.8 steps with Dormand-Prince and gamma01 = 100 with
        # Radau IIA; each kind steps in its own lockstep group.
        spec = SweepSpec(base=preset("fig4"),
                         axes=(SweepAxis("gamma01", (5.8, 100.0)), SweepAxis("theta", (0.0, 0.8))))
        points = [point_scenario(spec, values) for values in spec.grid()]
        kinds = [integrator._Lane(sc, integrator.sample_times(sc)).stepper for sc in points]
        assert kinds == [integrator._DopriLanes] * 2 + [integrator._RadauLanes] * 2
        rows = sweep(spec).rows
        assert all(row.error is None for row in rows)
        assert [row_bits(row) for row in rows] == [solo_bits(spec, values) for values in spec.grid()]

    def test_point_whose_scenario_cannot_be_built_is_flagged(self):
        spec = SweepSpec(base=preset("fig4"), axes=(SweepAxis("tau", (4.0, -1.0)),))
        ok, bad = sweep(spec).rows
        assert math.isnan(bad.doublet_population) and math.isnan(bad.doublet_purity)
        assert math.isnan(bad.abs_coherence_21)
        assert not bad.converged
        assert "tau must be a positive pulse width" in bad.error
        assert row_bits(ok) == solo_bits(spec, (4.0,))

    def test_window_too_long_for_the_step_cap_is_flagged(self, monkeypatch):
        # With a budget of 1,000 steps, tau = 0.2 caps steps at 0.02 and the
        # 27 units up to the end of its pulses need at least 1,350: that point
        # is flagged before stepping, as is tau = 5e-324, whose cap underflows
        # to 0, while tau = 4 (about 425 attempts) runs as it does alone.
        monkeypatch.setattr(integrator, "MAX_STEPS", 1_000)
        spec = SweepSpec(base=preset("fig4"), axes=(SweepAxis("tau", (4.0, 0.2, 5e-324)),))
        ok, *long = sweep(spec).rows
        for row in long:
            assert "window too long" in row.error
            assert not row.converged
            assert math.isnan(row.doublet_population)
        assert ok.error is None
        assert row_bits(ok) == solo_bits(spec, (4.0,))

    @pytest.mark.filterwarnings("error")
    def test_lane_with_singular_implicit_system_is_flagged_and_others_untouched(self):
        # gamma01 = 1e4 steps with Radau IIA.  At g01 = 1e20, h * g01 swamps
        # the identity in the stage matrix, which is then singular in floating
        # point: that lane fails, and the lanes stepped with it keep their bits.
        base = replace(preset("fig4"), params=replace(preset("fig4").params, gamma01=1e4), sample_interval=0.5)
        spec = SweepSpec(base=base, axes=(SweepAxis("g01", (0.9, 1e20, 0.5)),))
        kinds = {integrator._Lane(sc, integrator.sample_times(sc)).stepper
                 for sc in (point_scenario(spec, values) for values in spec.grid())}
        assert kinds == {integrator._RadauLanes}
        first, singular, last = sweep(spec).rows
        assert singular.error.startswith("Radau IIA system singular at t=")
        assert math.isnan(singular.doublet_population) and not singular.converged
        assert solo_bits(spec, (1e20,)) == row_bits(singular)
        for row, value in ((first, 0.9), (last, 0.5)):
            assert row.error is None
            assert row_bits(row) == solo_bits(spec, (value,))

    def test_lane_memory_bounded_by_steady_window(self, monkeypatch):
        # 9,601 rows per lane; a lane keeps the rows of its 5-unit steady
        # window (about 500), so the sweep's peak stays below what even one
        # full trajectory would take.
        base = replace(preset("fig4"), sample_interval=0.01)
        spec = SweepSpec(base=base, axes=(SweepAxis("theta", (0.0, 0.3, 0.8, 1.5)),))
        rows = len(integrator.sample_times(base))
        assert rows == 9601
        sweep(SweepSpec(base=preset("fig4"), axes=(SweepAxis("theta", (0.0,)),)))  # warm caches
        held = []

        class Recorder(integrator._SampleRecorder):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                held.append(len(self.rows))

        monkeypatch.setattr(integrator, "_SampleRecorder", Recorder)
        tracemalloc.start()
        try:
            table = sweep(spec)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert all(row.error is None for row in table.rows)
        assert len(held) == 4
        assert max(held) <= STEADY_WINDOW / base.sample_interval + 2
        assert peak < rows * len(integrator.TRAJECTORY_COLUMNS) * 8

    def test_narrow_sweep_holds_one_recorder_block_of_pending_rows(self):
        # The bench's sweep_2d spec at seed 0: 8 lanes of 161 rows each, at
        # about one row per lane and step.  Its pending dense-output rows are
        # flushed at 64, not 256, so the copies of each step's stages they
        # hold stay small.  Traced peak: 540 kB (1,026 kB when a flush waited
        # for 256 rows); the bound leaves a margin of 30% over 540 kB.
        spec = parse_config(
            "[drive]\ng01 = 0.9\ng02 = 0.3\n"
            "[chirp]\nenabled = true\nchi2 = 0.2\n"
            "[integration]\nsample_interval = 0.5\n"
            "[sweep]\nparameter = theta\nvalues = 0.0, 0.1, 0.8, 1.5\n"
            "parameter2 = chi1\nvalues2 = 0.15, 0.45\n"
        )
        assert len(spec.grid()) == 8
        sweep(spec)  # warm caches
        tracemalloc.start()
        try:
            table = sweep(spec)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert all(row.error is None for row in table.rows)
        assert peak < 700 * 1024


def summary_bits(outcome):
    if isinstance(outcome, SimulationError):
        return repr((type(outcome), str(outcome)))
    return repr((outcome.time, outcome.doublet_population, outcome.doublet_purity,
                 outcome.abs_coherence_21, outcome.converged, outcome.max_delta))


_STIFF_RATES = (integrator._RadauLanes, lambda k: dict(gamma01=100.0, gamma02=30.0 + 2.0 * k))
_EXPLICIT_RATES = (integrator._DopriLanes, lambda k: dict(gamma01=20.0 + k, gamma02=6.0 + k))


@pytest.mark.parametrize("stepper, rates, mixed_windows", [
    (*_STIFF_RATES, False), (*_EXPLICIT_RATES, False), (*_STIFF_RATES, True), (*_EXPLICIT_RATES, True),
], ids=["stiff", "explicit", "stiff-mixed-windows", "explicit-mixed-windows"])
def test_lanes_leaving_at_different_times_leave_the_others_untouched(monkeypatch, stepper, rates, mixed_windows):
    # Each lane takes its own number of steps, so on a common window the
    # lanes land on t_stop one by one and the active set is compacted after
    # each; every compaction must carry the remaining lanes' states over
    # unchanged, and for Dormand-Prince their first stages too.  Lanes on
    # different sample grids step as groups of one.
    chirped = preset("fig4")
    scenarios = [
        replace(chirped, params=replace(chirped.params, **rates(k)), t_end=40.0 + 4.0 * k if mixed_windows else 60.0)
        for k in range(8)
    ]
    assert all(integrator._Lane(sc, integrator.sample_times(sc)).stepper is stepper for sc in scenarios)
    kept = []
    keep = integrator._LaneSet.keep

    def counted_keep(self, indices):
        # The lane set's pending rows are routed by active-set index, so
        # they must all be flushed before the set shrinks.
        assert not self.requests and not self.blocks and self.rows == 0
        kept.append(len(indices))
        return keep(self, indices)

    monkeypatch.setattr(integrator._LaneSet, "keep", counted_keep)
    outcomes = integrator.steady_states(scenarios)
    monkeypatch.undo()
    assert kept == ([] if mixed_windows else [7, 6, 5, 4, 3, 2, 1])
    for scenario, outcome in zip(scenarios, outcomes):
        try:
            solo = detect_steady_state(integrate(scenario))
        except SimulationError as exc:
            solo = exc
        assert summary_bits(outcome) == summary_bits(solo)


def flush_threshold(lanes: int) -> int:
    """The pending rows at which the lockstep loop flushes a lane set of ``lanes`` lanes."""
    return max(integrator._BLOCK, integrator._ROWS_PER_LANE * lanes)


def watch_flushes(monkeypatch) -> list[tuple[int, int]]:
    """The (pending rows, lanes) of every flush to come; each step asserts that no full batch waits."""
    flushes = []
    step, flush = integrator._LaneSet.step, integrator._LaneSet.flush

    def checked_step(self, steps):
        assert self.rows < flush_threshold(len(self.lanes))
        return step(self, steps)

    def counted_flush(self):
        flushes.append((self.rows, len(self.lanes)))
        flush(self)

    monkeypatch.setattr(integrator._LaneSet, "step", checked_step)
    monkeypatch.setattr(integrator._LaneSet, "flush", counted_flush)
    return flushes


def test_flush_batch_is_sized_by_the_lanes_that_share_it(monkeypatch):
    # fig6's chunk of 64 lanes flushes at 256 rows, its narrowing tail at
    # 64: 181 flushes in all, as when every batch waited for 256 rows.  An
    # iteration adds at most span_rows rows per lane, so no flush holds more
    # than its threshold plus that.
    spec = preset("fig6")
    span_rows = integrator._Lane(spec.base, integrator.sample_times(spec.base)).span_rows
    flushes = watch_flushes(monkeypatch)
    sweep(spec)
    assert 0 < len(flushes) <= 181
    assert max(lanes for _, lanes in flushes) == experiments.MAX_LANES
    assert all(rows < flush_threshold(lanes) + lanes * span_rows for rows, lanes in flushes)


def test_one_lane_flushes_at_one_recorder_block(monkeypatch):
    # fig2 at a fifth of its interval: 9,601 rows, about 40 a step.  Every
    # flush but the last, when the lane lands, comes once 64 rows wait.
    scenario = replace(preset("fig2"), sample_interval=0.01)
    span_rows = integrator._Lane(scenario, integrator.sample_times(scenario)).span_rows
    flushes = watch_flushes(monkeypatch)
    integrate(scenario)
    assert len(flushes) > 50
    assert all(lanes == 1 for _, lanes in flushes)
    assert all(integrator._BLOCK <= rows < integrator._BLOCK + span_rows for rows, _ in flushes[:-1])


def test_physicality_failure_in_one_lane_leaves_the_others_untouched():
    # The middle lane's first sample below -1e-17 is its outcome, with the
    # message that integrating it alone raises; its neighbours keep their bits.
    chirped = preset("fig4")
    scenarios = [chirped, replace(chirped, pos_tol=1e-17), apply_parameter(chirped, "theta", 0.8)]
    with pytest.raises(PhysicalityError) as solo:
        integrate(scenarios[1])
    outcomes = integrator.steady_states(scenarios)
    assert summary_bits(outcomes[1]) == summary_bits(solo.value)
    for i in (0, 2):
        assert summary_bits(outcomes[i]) == summary_bits(detect_steady_state(integrate(scenarios[i])))


def dent_at(monkeypatch, scenario, time):
    """Record the scenario's sample at ``time`` with p3 + 1e-8 of population moved from |3> to |0>.

    p3 becomes -1e-8, so the dented sample's smallest eigenvalue lies at
    or below -1e-8, while its trace stays 1.
    """
    record = integrator._SampleRecorder.record

    def dented(self, samples):
        if self.scenario is scenario and time in samples[:, 0]:
            samples = samples.copy()
            row = samples[samples[:, 0] == time][0]
            row[[1, 4]] += (row[4] + 1e-8, -(row[4] + 1e-8))
            samples[samples[:, 0] == time] = row
        record(self, samples)

    monkeypatch.setattr(integrator._SampleRecorder, "record", dented)


def test_physicality_failure_first_in_a_dropped_row_is_the_lane_outcome(monkeypatch):
    # Loose tolerances let fig4 dip below -1e-9 at t = -9.5, long before the
    # steady window: the row is dropped unread, so the Cholesky verdict checks
    # it, finds it cannot certify the block, and falls back to the exact
    # diagnostics (packed_diagnostics).  The outcome is the solo run's error;
    # the neighbours keep their bits.  The
    # rows a lane keeps take the same verdict: in the second case fig4's
    # first bad row is one dented inside the steady window, at t = 77.5.
    loose = replace(preset("fig4"), rtol=1e-4, atol=1e-6, pos_tol=1e-9)
    dented = replace(preset("fig4"), pos_tol=1e-9)
    for failing, at in ((loose, -9.5), (dented, 77.5)):
        if failing is dented:
            dent_at(monkeypatch, dented, at)
        with pytest.raises(PhysicalityError) as solo:
            integrate(failing)
        assert str(solo.value).endswith(f"at t={at:g}")
        uncertified = []
        real = integrator.packed_verdict

        def verdict(states, pos_tol):
            columns = real(states, pos_tol)
            uncertified.append(pos_tol == failing.pos_tol and not np.isnan(columns[:, 2]).any())
            return columns

        monkeypatch.setattr(integrator, "packed_verdict", verdict)
        scenarios = [preset("fig4"), failing, apply_parameter(preset("fig4"), "theta", 0.8)]
        outcomes = integrator.steady_states(scenarios)
        assert summary_bits(outcomes[1]) == summary_bits(solo.value)
        assert any(uncertified)
        monkeypatch.undo()
        for i in (0, 2):
            assert summary_bits(outcomes[i]) == summary_bits(detect_steady_state(integrate(scenarios[i])))


@pytest.mark.parametrize("spec, distinct", [
    (SweepSpec(base=preset("fig4"), axes=(SweepAxis("chi1", (0.15, 0.3, 0.45)),)), 1),
    (THETA_CHI1, 4),
], ids=["chi1", "theta_chi1"])
def test_lanes_with_equal_decay_rates_share_their_set_up(monkeypatch, spec, distinct):
    # One spectral radius and two exponentials (exp(L0 * sample_interval)
    # and exp(L0 * offset), every lane's tail starting at the same offset)
    # per distinct SystemParams, not per lane; each row keeps its solo bits.
    solo = [solo_bits(spec, values) for values in spec.grid()]
    calls = {"radius": 0, "expm": 0}
    radius, expm = integrator._spectral_radius, integrator._expm

    def counted_radius(decay, reach):
        calls["radius"] += 1
        return radius(decay, reach)

    def counted_expm(a):
        calls["expm"] += 1
        return expm(a)

    monkeypatch.setattr(integrator, "_spectral_radius", counted_radius)
    monkeypatch.setattr(integrator, "_expm", counted_expm)
    rows = sweep(spec).rows
    assert calls == {"radius": distinct, "expm": 2 * distinct}
    assert [row_bits(row) for row in rows] == solo


def test_physicality_failure_first_in_the_exact_tail_is_the_lane_outcome():
    # fig2's stepped rows keep their trace error far below 1e-14; the first
    # row above it lies past t_stop, among the rows of the exact tail.
    failing = replace(preset("fig2"), trace_tol=1e-14)
    t_stop = integrator._Lane(failing, integrator.sample_times(failing)).t_stop
    traj = integrate(preset("fig2"))
    assert traj.column("trace_error")[traj.times <= t_stop].max() < 1e-15
    with pytest.raises(PhysicalityError) as solo:
        integrate(failing)
    assert float(re.search(r"at t=(\S+)$", str(solo.value)).group(1)) > t_stop
    outcomes = integrator.steady_states([failing, preset("fig4")])
    assert summary_bits(outcomes[0]) == summary_bits(solo.value)
    assert summary_bits(outcomes[1]) == summary_bits(detect_steady_state(integrate(preset("fig4"))))


@pytest.mark.filterwarnings("error")
def test_lanes_with_different_chirp_settings_share_one_stack():
    # Chirp off (fig2), on (fig4) and on at another angle step side by side,
    # each with the bits it has alone.
    scenarios = [preset("fig2"), preset("fig4"), apply_parameter(preset("fig2"), "theta", 0.8)]
    outcomes = integrator.steady_states(scenarios)
    for scenario, outcome in zip(scenarios, outcomes):
        assert summary_bits(outcome) == summary_bits(detect_steady_state(integrate(scenario)))


def test_window_holding_one_sample_is_the_lane_outcome_after_its_run_error():
    # On the grid -16, 14, 44, 74 the 5-unit window holds one sample.  A lane
    # whose run fails reports that failure instead.
    coarse = replace(preset("fig2"), sample_interval=30.0)
    outcomes = integrator.steady_states([coarse, replace(coarse, trace_tol=1e-17)])
    assert isinstance(outcomes[0], InsufficientDataError)
    assert "window 5 holds one sample" in str(outcomes[0])
    assert isinstance(outcomes[1], PhysicalityError)


def test_non_finite_lane_fails_alone_without_warnings(monkeypatch):
    # The lane without a first pulse (g1 = 0 at every time) gets NaN drive
    # values from t = 5 on: its trial states turn NaN, each such attempt
    # scores inf (the smallest shrink factor) until the step underflows,
    # and no RuntimeWarning escapes.  The lanes around it keep their bits.
    chirped = preset("fig4")
    scenarios = [replace(chirped, params=replace(chirped.params, theta=theta)) for theta in (0.0, 0.3, 0.8)]
    scenarios.insert(1, replace(chirped, drive=replace(chirped.drive, g01=0.0)))
    healthy = (0, 2, 3)
    solo = [summary_bits(detect_steady_state(integrate(scenarios[i]))) for i in healthy]
    real = integrator.drive_coefficients

    def nan_in_one_lane(ts, lanes, out):
        values = real(ts, lanes, out=out)
        values[(values[..., 0] == 0.0) & (ts > 5.0)] = np.nan
        return values

    scores = []
    step = integrator._LaneSet.step

    def scored_step(self, steps):
        squares = step(self, steps)
        scores.extend(squares)
        return squares

    monkeypatch.setattr(integrator, "drive_coefficients", nan_in_one_lane)
    monkeypatch.setattr(integrator._LaneSet, "step", scored_step)
    outcomes = integrator.steady_states(scenarios)
    assert isinstance(outcomes[1], IntegrationError)
    assert math.inf in scores and all(math.isfinite(s) or s == math.inf for s in scores)
    assert [summary_bits(outcomes[i]) for i in healthy] == solo


def test_one_row_grid_takes_no_step():
    # sample_interval longer than the window: the grid is t_start alone.
    short = replace(preset("fig2"), t_start=0.0, t_end=0.01, sample_interval=0.05)
    traj = integrate(short)
    assert traj.columns.shape == (1, len(integrator.TRAJECTORY_COLUMNS))
    assert traj.stats.steps_accepted + traj.stats.steps_rejected == 0
    spec = SweepSpec(base=short, axes=(SweepAxis("theta", (0.0, 0.1)),))
    rows = sweep(spec).rows
    assert [row_bits(row) for row in rows] == [solo_bits(spec, values) for values in spec.grid()]
    assert "exceeds trajectory span" in rows[0].error
