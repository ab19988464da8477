import math
from dataclasses import replace

import pytest

from victrap import (
    InvalidParameterError,
    Scenario,
    SweepAxis,
    SweepSpec,
    integrate,
    preset,
    sweep,
)
from victrap.experiments import MAX_AXIS_POINTS, MAX_GRID_POINTS, apply_parameter


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
