import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from victrap import (
    IntegrationError,
    InvalidParameterError,
    Scenario,
    SimulationError,
    SweepAxis,
    SweepSpec,
    detect_steady_state,
    experiments,
    integrate,
    integrator,
    preset,
    sweep,
)
from victrap.experiments import MAX_AXIS_POINTS, MAX_GRID_POINTS, apply_parameter
from victrap.integrator import DEFAULT_STEADY_WINDOW


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
        assert not sc.drive.chirp_enabled
        assert sc.drive.static_delta1 == 0.0 and sc.drive.static_delta2 == 0.0

    def test_fig3_is_the_fig2_run(self):
        assert preset("fig3") == preset("fig2")

    def test_fig4_enables_chirp(self):
        sc = preset("fig4")
        assert sc.drive.chirp_enabled
        assert sc.drive.chi1 == 0.3
        assert sc.drive.chi2 == 0.2

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

    def test_lane_failing_mid_run_is_flagged_and_others_untouched(self, monkeypatch):
        # gamma01 = 100 passes the up-front estimate (about 2,973 steps) and
        # needs about 3,261 attempts; 1e5 is rejected before stepping.
        monkeypatch.setattr(integrator, "MAX_STEPS", 3_200)
        spec = SweepSpec(base=preset("fig4"), axes=(SweepAxis("gamma01", (5.8, 100.0, 1e5)),))
        ok, exhausted, stiff = sweep(spec).rows
        assert "step budget" in exhausted.error
        assert "too stiff" in stiff.error
        for flagged in (exhausted, stiff):
            assert not flagged.converged
            assert math.isnan(flagged.doublet_population)
        assert ok.error is None
        assert row_bits(ok) == solo_bits(spec, (5.8,))

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
        assert max(held) <= DEFAULT_STEADY_WINDOW / base.sample_interval + 2
        assert peak < rows * len(integrator.TRAJECTORY_COLUMNS) * 8


def summary_bits(outcome):
    if isinstance(outcome, SimulationError):
        return repr((type(outcome), str(outcome)))
    return repr((outcome.time, outcome.doublet_population, outcome.doublet_purity,
                 outcome.abs_coherence_21, outcome.converged, outcome.max_delta))


def test_lanes_leaving_at_different_times_leave_the_others_untouched():
    # Stiff lanes reject about one step in ten, each in its own pattern,
    # and finish one by one; every compaction of the active set must carry
    # the remaining lanes' states and stages over unchanged.
    chirped = preset("fig4")
    scenarios = [
        replace(chirped, params=replace(chirped.params, gamma01=100.0, gamma02=30.0 + 2.0 * k), t_end=40.0 + 4.0 * k)
        for k in range(8)
    ]
    outcomes = integrator.steady_states(scenarios)
    for scenario, outcome in zip(scenarios, outcomes):
        try:
            solo = detect_steady_state(integrate(scenario))
        except SimulationError as exc:
            solo = exc
        assert summary_bits(outcome) == summary_bits(solo)


@pytest.mark.filterwarnings("error")
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
