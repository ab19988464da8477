import io
import json
import math
import tracemalloc
from dataclasses import replace

import pytest

from victrap import (
    DriveConfig,
    Scenario,
    SystemParams,
    TRAJECTORY_CSV_HEADER,
    emit_summary_json,
    emit_sweep_csv,
    emit_sweep_json,
    emit_trajectory_csv,
    ground_state,
    integrate,
    preset,
)
from victrap.experiments import SweepRow, SweepTable


def quiet_run():
    sc = Scenario(
        params=SystemParams(),
        drive=DriveConfig(g01=0.0, g02=0.0),
        initial_state=ground_state(),
        t_start=0.0,
        t_end=2.0,
        sample_interval=0.1,
    )
    return integrate(sc)


EXPECTED_HEADER = (
    "t,rho00,rho11,rho22,rho33,"
    "re_rho10,im_rho10,re_rho20,im_rho20,re_rho21,im_rho21,"
    "re_rho30,im_rho30,re_rho31,im_rho31,re_rho32,im_rho32,"
    "doublet_purity,trace_error,min_eig"
)


class TestTrajectoryCsv:
    def test_header_bytes(self):
        sink = io.StringIO()
        emit_trajectory_csv(quiet_run(), sink)
        first_line = sink.getvalue().split("\n", 1)[0]
        assert first_line == EXPECTED_HEADER
        assert TRAJECTORY_CSV_HEADER == EXPECTED_HEADER

    def test_stationary_ground_state_rows(self):
        sink = io.StringIO()
        emit_trajectory_csv(quiet_run(), sink)
        lines = sink.getvalue().rstrip("\n").split("\n")
        assert len(lines) == 1 + math.floor(2.0 / 0.1) + 1
        for line in lines[1:]:
            fields = line.split(",")
            assert fields[1] == "1.0"  # rho00
            assert fields[2] == "0.0" and fields[3] == "0.0" and fields[4] == "0.0"

    def test_newline_termination(self):
        sink = io.StringIO()
        emit_trajectory_csv(quiet_run(), sink)
        text = sink.getvalue()
        assert text.endswith("\n")
        assert "\r" not in text

    def test_full_precision_round_trip(self, fig2_run):
        sink = io.StringIO()
        emit_trajectory_csv(fig2_run.traj, sink)
        last = sink.getvalue().rstrip("\n").split("\n")[-1].split(",")
        record = fig2_run.traj.samples[-1].record
        assert float(last[0]) == record.time
        assert float(last[2]) == record.p1
        assert float(last[9]) == record.c21.real

    def test_byte_identical_repetition(self):
        a, b = io.StringIO(), io.StringIO()
        emit_trajectory_csv(quiet_run(), a)
        emit_trajectory_csv(quiet_run(), b)
        assert a.getvalue() == b.getvalue()


def row_by_row_csv(traj) -> str:
    """Reference text: every sample formatted on its own with %r."""
    row_format = ",".join(["%r"] * 20) + "\n"
    return EXPECTED_HEADER + "\n" + "".join(row_format % tuple(row) for row in traj.columns.tolist())


def fig2_rows(n: int):
    # 0.25 and every window below are exact in binary, so the grid has
    # exactly n rows; one row needs a window shorter than one interval.
    sc = replace(preset("fig2"), sample_interval=0.25)
    traj = integrate(replace(sc, t_end=sc.t_start + (0.25 * (n - 1) if n > 1 else 0.125)))
    assert len(traj.columns) == n
    return traj


class _Discard:
    def write(self, text: str) -> int:
        return len(text)


class TestTrajectoryCsvBlocks:
    @pytest.mark.parametrize("n", [1, 63, 64, 65, 129])
    def test_block_boundaries_byte_identical(self, n):
        traj = fig2_rows(n)
        sink = io.StringIO()
        emit_trajectory_csv(traj, sink)
        assert sink.getvalue() == row_by_row_csv(traj)

    def test_fig2_byte_identical(self, fig2_run):
        assert len(fig2_run.traj.columns) == 1921
        sink = io.StringIO()
        emit_trajectory_csv(fig2_run.traj, sink)
        assert sink.getvalue() == row_by_row_csv(fig2_run.traj)

    def test_emission_memory_does_not_grow_with_rows(self):
        # 19,201 rows: as Python floats the whole array would take about
        # 13 MB; one block of rows takes well under 100 KB.
        traj = integrate(replace(preset("fig2"), sample_interval=0.005))
        assert len(traj.columns) == 19_201
        emit_trajectory_csv(traj, _Discard())
        tracemalloc.start()
        try:
            emit_trajectory_csv(traj, _Discard())
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 256 * 1024


SAMPLE_TABLE = SweepTable(
    parameters=("theta",),
    rows=(
        SweepRow(values=(0.0,), doublet_population=0.5, doublet_purity=0.25,
                 abs_coherence_21=0.2, converged=True),
        SweepRow(values=(0.3,), doublet_population=math.nan, doublet_purity=math.nan,
                 abs_coherence_21=math.nan, converged=False, error="boom"),
    ),
)


class TestSweepOutput:
    def test_csv_header_and_rows(self):
        sink = io.StringIO()
        emit_sweep_csv(SAMPLE_TABLE, sink)
        lines = sink.getvalue().rstrip("\n").split("\n")
        assert lines[0] == "theta,p_doublet,purity,abs_rho21,converged"
        assert lines[1] == "0.0,0.5,0.25,0.2,true"
        assert lines[2].startswith("0.3,nan,nan,nan,false")

    def test_json_rows(self):
        sink = io.StringIO()
        emit_sweep_json(SAMPLE_TABLE, sink)
        payload = json.loads(sink.getvalue())
        assert payload["parameters"] == ["theta"]
        good, bad = payload["rows"]
        assert good == {
            "theta": 0.0, "p_doublet": 0.5, "purity": 0.25,
            "abs_rho21": 0.2, "converged": True,
        }
        assert bad["p_doublet"] is None
        assert bad["error"] == "boom"


class TestSummaryJson:
    def test_flat_summary(self, fig2_run):
        sink = io.StringIO()
        emit_summary_json(fig2_run.steady, sink, fig2_run.traj.stats)
        payload = json.loads(sink.getvalue())
        assert payload["converged"] is True
        assert payload["p_doublet"] == pytest.approx(
            fig2_run.steady.doublet_population
        )
        assert payload["rho11"] + payload["rho22"] == pytest.approx(payload["p_doublet"])
        assert payload["steps_accepted"] == fig2_run.traj.stats.steps_accepted
        assert payload["steps_rejected"] == fig2_run.traj.stats.steps_rejected
        # flat object: no nested containers
        assert all(not isinstance(v, (dict, list)) for v in payload.values())
