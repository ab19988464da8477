import gc
import io
import json
import os
import random
import re
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import pytest

from victrap import (
    TRAJECTORY_CSV_HEADER, cli, emit_summary_json, emit_trajectory_csv, experiments, integrate, parse_config,
)
from victrap.cli import main
from victrap.integrator import sample_times
from victrap.observables import packed_diagnostics

QUIET_SWEEP_CFG = """\
[drive]
g01 = 0.0
g02 = 0.0

[integration]
t_start = 0.0
t_end = 20.0

[sweep]
parameter = theta
values = 0.0, 1.5707963267948966
"""

PURE_STATE_CFG = """\
[decay]
gamma01 = 0
gamma02 = 0
gamma03 = 0

[drive]
g01 = 30
g02 = 10
t0 = 0
"""

SHORT_RUN_CFG = """\
[integration]
t_start = -16.0
t_end = 40.0
"""


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return str(path)


class TestRun:
    def test_csv_run(self, tmp_path, capsys):
        cfg = write(tmp_path, "run.cfg", SHORT_RUN_CFG)
        out = tmp_path / "traj.csv"
        code = main(["run", "--config", cfg, "--out", str(out)])
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == TRAJECTORY_CSV_HEADER
        assert len(lines) == 1 + int(56.0 / 0.05) + 1

    def test_json_run(self, tmp_path):
        cfg = write(tmp_path, "run.cfg", SHORT_RUN_CFG)
        out = tmp_path / "steady.json"
        code = main(["--format", "json", "run", "--config", cfg, "--out", str(out)])
        assert code == 0
        payload = json.loads(out.read_text())
        assert payload["converged"] is True
        assert 0.35 < payload["p_doublet"] < 0.60

    def test_stdout_default(self, tmp_path, capsys):
        cfg = write(
            tmp_path,
            "run.cfg",
            "[integration]\nt_start = 0\nt_end = 20\ninitial_state = ground\n"
            "[drive]\ng01 = 0\ng02 = 0\n",
        )
        code = main(["--quiet", "run", "--config", cfg])
        assert code == 0
        captured = capsys.readouterr()
        assert captured.out.startswith(TRAJECTORY_CSV_HEADER)
        assert captured.err == ""

    def test_missing_config_file(self, tmp_path, capsys):
        code = main(["run", "--config", str(tmp_path / "absent.cfg")])
        assert code == 1
        assert "absent.cfg" in capsys.readouterr().err

    def test_non_utf8_config_is_a_config_error(self, tmp_path, capsys):
        path = tmp_path / "random.cfg"
        path.write_bytes(random.Random(0).randbytes(200))
        with pytest.raises(UnicodeDecodeError):
            path.read_bytes().decode("utf-8")
        assert main(["run", "--config", str(path)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("victrap: error: cannot read config")
        assert "utf-8" in captured.err

    def test_config_over_one_mib_is_a_config_error(self, tmp_path, capsys):
        # The same invalid config, padded with a comment to 1 MiB and to one
        # byte more: the first is parsed (and fails on theta), the second is
        # refused before parsing.
        head = "[decay]\ntheta = -0.1\n#"
        for size, message in ((1 << 20, "theta"), ((1 << 20) + 1, "larger than 1 MiB")):
            path = tmp_path / f"big-{size}.cfg"
            path.write_text(head + "x" * (size - len(head) - 1) + "\n", encoding="utf-8")
            assert path.stat().st_size == size
            assert main(["run", "--config", str(path)]) == 1
            err = capsys.readouterr().err
            assert err.startswith("victrap: error:") and message in err

    def test_config_newlines_read_as_in_text_mode(self, tmp_path, capsys):
        errors = []
        for name, newline in (("lf.cfg", "\n"), ("crlf.cfg", "\r\n"), ("cr.cfg", "\r")):
            path = tmp_path / name
            path.write_bytes(f"[decay]{newline}theta = -0.1{newline}".encode())
            assert main(["run", "--config", str(path)]) == 1
            errors.append(capsys.readouterr().err.replace(name, "F"))
        assert errors[0] == errors[1] == errors[2]
        assert "theta" in errors[0]

    def test_config_byte_order_mark_is_ignored(self, tmp_path, capsys):
        outputs = []
        for name, mark in (("plain.cfg", b""), ("bom.cfg", b"\xef\xbb\xbf")):
            path = tmp_path / name
            path.write_bytes(mark + ("[decay]\ngamma01 = 6.0\n" + SHORT_RUN_CFG).encode())
            code = main(["--quiet", "--format", "json", "run", "--config", str(path)])
            outputs.append((code, capsys.readouterr()))
        assert outputs[0] == outputs[1]
        assert outputs[0][0] == 0 and '"p_doublet"' in outputs[0][1].out

    def test_physics_failure_leaves_the_output_path_alone(self, tmp_path, capsys):
        cfg = write(tmp_path, "stiff.cfg", "[decay]\ngamma01 = 100000\n")
        existing = tmp_path / "existing.csv"
        existing.write_bytes(b"earlier result\n")
        fresh = tmp_path / "fresh.csv"
        assert main(["--quiet", "run", "--config", cfg, "--out", str(existing)]) == 2
        assert main(["--quiet", "run", "--config", cfg, "--out", str(fresh)]) == 2
        assert existing.read_bytes() == b"earlier result\n"
        assert not fresh.exists()
        assert capsys.readouterr().err.count("too stiff") == 2

    def test_failure_after_streamed_rows_writes_nothing(self, tmp_path, capsys, monkeypatch):
        # A pure state driven hard without decay dips below -pos_tol through
        # the integrator's own error, after more than one batch of rows has
        # left the recorder for the spool.  Nothing reaches stdout or --out,
        # and no spool is left behind, in the --out directory or the temp one.
        cfg = write(tmp_path, "pure.cfg", PURE_STATE_CFG)
        existing = tmp_path / "existing.csv"
        existing.write_bytes(b"earlier result\n")
        fresh = tmp_path / "fresh.csv"
        spools = tmp_path / "tmp"
        spools.mkdir()
        monkeypatch.setattr(tempfile, "tempdir", str(spools))
        streamed = []
        emit = cli.emit_trajectory_rows
        monkeypatch.setattr(cli, "emit_trajectory_rows",
                            lambda rows, sink: streamed.append(len(rows)) or emit(rows, sink))
        before = sorted(tmp_path.rglob("*"))
        for out in (["--out", str(existing)], ["--out", str(fresh)], [], ["--out", "-"]):
            streamed.clear()
            assert main(["--quiet", "run", "--config", cfg, *out]) == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err == "victrap: physics failure: minimum eigenvalue -1.001e-07 below -1.0e-07 at t=3.4\n"
            assert sum(streamed) >= 256
        assert existing.read_bytes() == b"earlier result\n"
        assert not fresh.exists()
        assert sorted(tmp_path.rglob("*")) == before

    def test_pure_state_run_passes_at_tight_tolerances(self, tmp_path, capsys):
        # The failure above is the integrator's global error on a pure
        # state, not the physics: at rtol = 1e-10 the run stays above -pos_tol.
        cfg = write(tmp_path, "pure.cfg", PURE_STATE_CFG + "\n[integration]\nrtol = 1e-10\natol = 1e-12\n")
        assert main(["--quiet", "run", "--config", cfg]) == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        rows = sample_times(parse_config((tmp_path / "pure.cfg").read_text()))
        assert len(captured.out.splitlines()) == 1 + len(rows)

    def test_invalid_config_value(self, tmp_path, capsys):
        cfg = write(tmp_path, "bad.cfg", "[decay]\ntheta = -0.1\n")
        code = main(["run", "--config", cfg])
        assert code == 1
        assert "theta" in capsys.readouterr().err

    def test_sweep_config_is_usage_error(self, tmp_path, capsys):
        cfg = write(tmp_path, "sweep.cfg", QUIET_SWEEP_CFG)
        assert main(["run", "--config", cfg]) == 1

    def test_unconverged_window_exits_nonzero(self, tmp_path):
        cfg = write(tmp_path, "short.cfg", "[integration]\nt_start = -16\nt_end = 20\n")
        out = tmp_path / "t.csv"
        code = main(["--quiet", "run", "--config", cfg, "--out", str(out)])
        assert code == 2
        assert out.read_text().startswith(TRAJECTORY_CSV_HEADER)  # output still emitted


    def test_window_holding_one_sample_exits_2(self, tmp_path, capsys):
        # A JSON summary needs a verdict: the reason is a physics failure,
        # printed under --quiet too.  A CSV run still writes its rows, and
        # says why it has no verdict, under --quiet too.
        cfg = write(tmp_path, "coarse.cfg", "[integration]\nsample_interval = 30\n")
        for quiet in ([], ["--quiet"]):
            assert main([*quiet, "--format", "json", "run", "--config", cfg]) == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err.startswith("victrap: physics failure: window 5 holds one sample")
            assert main([*quiet, "run", "--config", cfg]) == 2
            captured = capsys.readouterr()
            assert captured.out.startswith(TRAJECTORY_CSV_HEADER)
            assert len(captured.out.splitlines()) == 1 + len(sample_times(parse_config((tmp_path / "coarse.cfg").read_text())))
            assert captured.err.startswith("steady-state detection skipped: window 5 holds one sample")

    def test_profile_key_is_usage_error(self, tmp_path, capsys):
        cfg = write(tmp_path, "profile.cfg", "[chirp]\nenabled = true\nprofile = constant\n")
        assert main(["run", "--config", cfg]) == 1
        assert "unknown key 'profile'" in capsys.readouterr().err


class TestPreset:
    def test_unknown_name_is_usage_error(self):
        with pytest.raises(SystemExit) as err:
            main(["preset", "fig9"])
        assert err.value.code == 1

    def test_preset_csv(self, tmp_path):
        out = tmp_path / "fig2.csv"
        code = main(["--quiet", "preset", "fig2", "--out", str(out)])
        assert code == 0
        assert out.read_text().startswith(TRAJECTORY_CSV_HEADER)

    def test_streamed_output_is_that_of_integrate_then_emit(self, tmp_path, capsys, fig2_run, fig4_run):
        # run and preset stream their rows and keep only the steady window;
        # the bytes, the summary and the stats stay those of the whole trajectory.
        csv = io.StringIO()
        emit_trajectory_csv(fig2_run.traj, csv)
        summary = io.StringIO()
        emit_summary_json(fig4_run.steady, summary, fig4_run.traj.stats)
        out = tmp_path / "fig2.csv"
        assert main(["--quiet", "preset", "fig2"]) == 0
        assert main(["--quiet", "preset", "fig2", "--out", str(out)]) == 0
        assert capsys.readouterr().out == csv.getvalue() == out.read_text()
        assert main(["--quiet", "--format", "json", "preset", "fig4"]) == 0
        assert capsys.readouterr().out == summary.getvalue()


class TestBoundedGrids:
    def test_oversized_sample_grid_is_usage_error(self, tmp_path, capsys):
        cfg = write(tmp_path, "run.cfg", "[integration]\nsample_interval = 1e-9\n")
        assert main(["run", "--config", cfg]) == 1
        assert "sample grid" in capsys.readouterr().err

    def test_oversized_sweep_axis_is_usage_error(self, tmp_path, capsys):
        cfg = write(tmp_path, "sweep.cfg", "[sweep]\nparameter = theta\nstart = 0\nstop = 1\npoints = 1000000000000\n")
        assert main(["sweep", "--config", cfg]) == 1
        assert "points" in capsys.readouterr().err

    def test_too_stiff_decay_is_physics_error(self, tmp_path, capsys):
        # Rejected before stepping: the lane would step implicitly, but the
        # exact tail from the end of the pulses to t = 80 could lose about
        # 4e-10 to rounding, more than atol = 1e-10.
        cfg = write(tmp_path, "stiff.cfg", "[decay]\ngamma01 = 100000\n")
        start = time.perf_counter()
        assert main(["--format", "json", "run", "--config", cfg]) == 2
        assert time.perf_counter() - start < 2.0
        assert "too stiff" in capsys.readouterr().err

    @pytest.mark.filterwarnings("error")
    def test_overflowing_decay_rates_are_physics_error_without_warnings(self, tmp_path, capsys):
        # Finite rates whose L0 overflows are rejected as too stiff; drives
        # that overflow in the set-up or in the steps fail there.  Each run
        # ends in one physics failure line, and numpy's overflow and
        # invalid-value warnings stay inside the run's error scope.  Huge
        # but finite rates reach the closed-form spectral radius, which
        # scales each block first, and fail on the tail's rounding.
        tail = "decay rates too stiff: the exact tail from t=31.3262 to t=80 could lose {} to rounding, more than atol = 1e-10"
        for name, text, message in (
            ("decay", "[decay]\ngamma01 = 1e308\ngamma02 = 1e308\n", "too stiff"),
            ("gamma01", "[decay]\ngamma01 = 1e100\n", tail.format("4.02e+85")),
            ("gamma03", "[decay]\ngamma03 = 1e150\n", tail.format("4.02e+135")),
            ("gamma01_gamma02", "[decay]\ngamma01 = 1e300\ngamma02 = 1e300\n",
             "decay rates too stiff: L0 times the window from t=-16 to t=80 is not finite"),
            ("gamma_coll", "[decay]\ngamma_coll = 1e200\n", tail.format("2.01e+185")),
            ("tau", "[drive]\ntau = 1e-300\n", "window too long"),
            ("tau_underflow", "[drive]\ntau = 5e-324\n", "window too long"),
            ("g02", "[drive]\ng02 = 1e300\n", "step size underflow"),
            ("chi1", "[chirp]\nenabled = true\nchi1 = 1e300\n", "step size underflow"),
            ("g01", "[drive]\ng01 = 1e200\n", "step size underflow"),
        ):
            cfg = write(tmp_path, f"{name}.cfg", text)
            assert main(["--quiet", "--format", "json", "run", "--config", cfg]) == 2, name
            err = capsys.readouterr().err
            assert len(err.splitlines()) == 1 and err.startswith("victrap: physics failure:"), err
            assert message in err, err

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("interval, message", [
        ("1", "minimum eigenvalue -1.760e+00 below -1.0e-07 at t=-14"),
        ("0.5", "minimum eigenvalue -3.356e-04 below -1.0e-07 at t=-14.5"),
    ], ids=["interval_1", "interval_0.5"])
    def test_overflowing_purity_is_physics_error(self, tmp_path, capsys, interval, message):
        # rtol = 1e300 lets gamma01 = 30 step past its stability edge: a block
        # that fails the Cholesky certificate holds a |rho21| whose square
        # overflows a float, and its exact diagnostics take inf for the purity.
        cfg = write(tmp_path, "unstable.cfg", UNSTABLE_CFG.format(interval=interval))
        assert main(["--quiet", "--format", "json", "run", "--config", cfg]) == 2
        assert capsys.readouterr().err == f"victrap: physics failure: {message}\n"

    def test_chirp_off_ignores_an_underflowing_ramp(self, tmp_path, capsys):
        # With the chirp off the amplitudes are 0, so the ramp plays no part:
        # even a subnormal one gives the default run's bytes.
        outputs = []
        for name, text in (("ramp", "[chirp]\nramp = 5e-324\n"), ("empty", "")):
            cfg = write(tmp_path, f"{name}.cfg", text)
            assert main(["--quiet", "--format", "json", "run", "--config", cfg]) == 0, name
            outputs.append(capsys.readouterr().out)
        assert outputs[0] == outputs[1]


UNSTABLE_CFG = """\
[decay]
gamma01 = 30

[integration]
rtol = 1e300
sample_interval = {interval}
"""

STIFF_RUN_CFG = """\
[decay]
gamma01 = 100.0
gamma02 = 40.0

[chirp]
enabled = true

[integration]
t_start = -12.0
t_end = 30.0
sample_interval = 0.05
"""


class TestInterpolatedSamples:
    def test_interpolated_sample_below_pos_tol_is_physics_error(self, tmp_path, capsys):
        # The steps do not land on the 0.05 grid, so almost every sample is
        # read off the continuous extension (here the Radau IIA collocation
        # polynomial), and all go through the same positivity check.
        out = tmp_path / "stiff.json"
        cfg = write(tmp_path, "stiff.cfg", STIFF_RUN_CFG)
        assert main(["--quiet", "--format", "json", "run", "--config", cfg, "--out", str(out)]) == 0
        dip = -json.loads(out.read_text())["min_eigenvalue_seen"]
        assert dip > 0.0
        tight = write(tmp_path, "tight.cfg", STIFF_RUN_CFG + f"pos_tol = {dip / 2!r}\n")
        assert main(["--quiet", "--format", "json", "run", "--config", tight]) == 2
        message = capsys.readouterr().err
        match = re.search(r"minimum eigenvalue \S+ below -\S+ at t=(\S+)$", message.strip())
        assert match, message
        grid = {f"{t:g}" for t in sample_times(parse_config(STIFF_RUN_CFG))}
        assert match.group(1) in grid

    def test_diagnostic_columns_are_recomputable(self):
        traj = integrate(parse_config(STIFF_RUN_CFG))
        recomputed = packed_diagnostics(traj.columns[:, 1:17])
        assert recomputed.tobytes() == traj.columns[:, 17:].tobytes()


class TestSweep:
    def test_sweep_csv(self, tmp_path, capsys):
        cfg = write(tmp_path, "sweep.cfg", QUIET_SWEEP_CFG)
        out = tmp_path / "table.csv"
        code = main(["sweep", "--config", cfg, "--out", str(out)])
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "theta,p_doublet,purity,abs_rho21,converged"
        assert len(lines) == 3
        assert lines[1].endswith("true")

    def test_sweep_json_and_threads(self, tmp_path):
        cfg = write(tmp_path, "sweep.cfg", QUIET_SWEEP_CFG)
        out = tmp_path / "table.json"
        code = main(["--format", "json", "sweep", "--config", cfg, "--threads", "2", "--out", str(out)])
        assert code == 0
        payload = json.loads(out.read_text())
        assert len(payload["rows"]) == 2

    def test_points_whose_window_holds_one_sample_are_flagged(self, tmp_path):
        cfg = write(tmp_path, "coarse.cfg", "[integration]\nsample_interval = 30\n"
                                            "[sweep]\nparameter = theta\nvalues = 0.0, 0.8\n")
        out = tmp_path / "table.json"
        assert main(["--quiet", "--format", "json", "sweep", "--config", cfg, "--out", str(out)]) == 2
        rows = json.loads(out.read_text())["rows"]
        assert len(rows) == 2
        assert all("holds one sample" in row["error"] and not row["converged"] for row in rows)

    @pytest.mark.filterwarnings("error")
    def test_points_with_an_overflowing_purity_are_flagged_with_their_solo_errors(self, tmp_path, capsys):
        # Both points step past their stability edge (see
        # test_overflowing_purity_is_physics_error): gamma01 = 30's first
        # block holds a |rho21| whose square overflows.  Each row is flagged
        # with the message of its solo run; no row is lost.
        base = UNSTABLE_CFG.format(interval="1").split("[integration]")[1]
        cfg = write(tmp_path, "sweep.cfg", f"[integration]{base}\n[sweep]\nparameter = gamma01\nvalues = 5.8, 30\n")
        out = tmp_path / "table.json"
        assert main(["--quiet", "--format", "json", "sweep", "--config", cfg, "--out", str(out)]) == 2
        assert capsys.readouterr().err == ""
        rows = json.loads(out.read_text())["rows"]
        assert [row["gamma01"] for row in rows] == [5.8, 30.0]
        for row in rows:
            solo = write(tmp_path, "solo.cfg", f"[decay]\ngamma01 = {row['gamma01']!r}\n\n[integration]{base}")
            assert main(["--quiet", "--format", "json", "run", "--config", solo]) == 2
            assert capsys.readouterr().err == f"victrap: physics failure: {row['error']}\n"
            assert not row["converged"] and row["p_doublet"] is None

    def test_axes_naming_one_parameter_are_a_config_error(self, tmp_path, capsys):
        cfg = write(tmp_path, "sweep.cfg", "[sweep]\nparameter = theta\nvalues = 0.1\n"
                                           "parameter2 = theta\nvalues2 = 0.2\n")
        assert main(["--quiet", "sweep", "--config", cfg]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("victrap: error: invalid sweep: both sweep axes name 'theta'")

    @pytest.mark.parametrize("threads", ["0", "-3"])
    def test_threads_below_one_is_a_usage_error(self, tmp_path, capsys, threads):
        cfg = write(tmp_path, "sweep.cfg", QUIET_SWEEP_CFG)
        with pytest.raises(SystemExit) as exc:
            main(["--quiet", "sweep", "--threads", threads, "--config", cfg])
        assert exc.value.code == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("usage: victrap sweep")
        assert f"argument --threads: expected an integer N >= 1, got '{threads}'" in captured.err

    @pytest.mark.parametrize("threads", ["1", "2"])
    def test_threads_of_one_or_more_run(self, tmp_path, capsys, threads):
        cfg = write(tmp_path, "sweep.cfg", QUIET_SWEEP_CFG)
        assert main(["--quiet", "sweep", "--threads", threads, "--config", cfg]) == 0
        assert len(capsys.readouterr().out.splitlines()) == 3

    def test_scenario_config_is_usage_error(self, tmp_path):
        cfg = write(tmp_path, "run.cfg", SHORT_RUN_CFG)
        assert main(["sweep", "--config", cfg]) == 1

    def test_output_section_respected(self, tmp_path):
        out = tmp_path / "from_config.csv"
        cfg = write(
            tmp_path, "sweep.cfg", QUIET_SWEEP_CFG + f"\n[output]\npath = {out}\n"
        )
        code = main(["--quiet", "sweep", "--config", cfg])
        assert code == 0
        assert out.exists()


class TestOutputPath:
    """A path that cannot take the output is refused before any stepping, and nothing is created."""

    @pytest.fixture(autouse=True)
    def no_work(self, monkeypatch, tmp_path):
        def fail(*args, **kwargs):
            raise AssertionError("stepped before checking the output path")

        monkeypatch.setattr(cli, "sweep", fail)
        monkeypatch.setattr(cli, "stream_trajectory", fail)
        monkeypatch.chdir(tmp_path)

    def refused(self, capsys, argv, message):
        before = sorted(Path(".").rglob("*"))
        assert main(["--quiet", *argv]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"victrap: error: {message}\n"
        assert sorted(Path(".").rglob("*")) == before

    def test_missing_directory(self, capsys):
        self.refused(capsys, ["preset", "fig6", "--out", "missing/x.csv"],
                     "output path 'missing/x.csv': no writable directory 'missing'")
        cfg = write(Path("."), "run.cfg", SHORT_RUN_CFG)
        self.refused(capsys, ["run", "--config", cfg, "--out", "missing/x.csv"],
                     "output path 'missing/x.csv': no writable directory 'missing'")

    def test_directory_as_out(self, capsys):
        Path("results").mkdir()
        for out in ("results", "results/"):
            self.refused(capsys, ["preset", "fig2", "--out", out],
                         f"output path {out!r} is a directory or has no file name")

    def test_missing_directory_in_output_section(self, capsys):
        cfg = write(Path("."), "sweep.cfg", QUIET_SWEEP_CFG + "\n[output]\npath = missing/x.csv\n")
        self.refused(capsys, ["sweep", "--config", cfg],
                     "output path 'missing/x.csv': no writable directory 'missing'")
        cfg = write(Path("."), "empty.cfg", QUIET_SWEEP_CFG + "\n[output]\npath =\n")
        self.refused(capsys, ["sweep", "--config", cfg], "output path '' is a directory or has no file name")


class TestValidate:
    def test_validate_passes(self, capsys):
        code = main(["validate"])
        assert code == 0
        err = capsys.readouterr().err
        assert "PASS" in err
        assert "FAIL" not in err

    def test_validate_quiet(self, capsys):
        code = main(["--quiet", "validate"])
        assert code == 0
        assert capsys.readouterr().err == ""


TWO_AXIS_SWEEP_CFG = """\
[chirp]
enabled = true

[integration]
sample_interval = 0.5

[sweep]
parameter = theta
values = 0.0, 0.1, 0.8, 1.5
parameter2 = chi1
values2 = 0.15, 0.45
"""


class TestSweepProgress:
    def test_progress_per_chunk_on_stderr_only(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(experiments, "MAX_LANES", 3)
        cfg = write(tmp_path, "sweep.cfg", TWO_AXIS_SWEEP_CFG)
        assert main(["sweep", "--config", cfg]) == 0
        loud = capsys.readouterr()
        assert main(["--quiet", "sweep", "--config", cfg]) == 0
        quiet = capsys.readouterr()
        assert loud.out == quiet.out
        assert quiet.err == ""
        progress = [line for line in loud.err.splitlines() if line.startswith("sweep: ")]
        assert len(progress) == 3
        assert re.fullmatch(r"sweep: 8/8 points, 0 failed, 2 not converged, \d+\.\d\d s", progress[-1])
        assert progress[0].startswith("sweep: 3/8 points, ")


ROOT = Path(__file__).resolve().parents[1]


def run_python(*args):
    """A fresh interpreter that imports victrap from this checkout's sources."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, (str(ROOT / "src"), os.environ.get("PYTHONPATH")))))
    return subprocess.run([sys.executable, *args], capture_output=True, env=env, timeout=120)


class TestEntryPoint:
    @pytest.mark.parametrize("argv, config, expected", [
        (["--quiet", "preset", "fig2"], None, 0),
        (["--quiet", "--format", "json", "preset", "fig4"], None, 0),
        (["--quiet", "run", "--config"], "[chirp]\nprofile = constant\n", 1),  # unknown key
        (["--quiet", "run", "--config"], "[integration]\nsample_interval = 30\n", 2),  # one-sample window
    ])
    def test_module_entry_matches_main(self, tmp_path, capsys, argv, config, expected):
        if config is not None:
            argv = [*argv, write(tmp_path, "job.cfg", config)]
        assert main(argv) == expected
        out = capsys.readouterr().out.encode()
        child = run_python("-m", "victrap.cli", *argv)
        assert (child.returncode, child.stdout) == (expected, out)

    def test_main_leaves_the_callers_heap_unfrozen(self, capsys):
        frozen = gc.get_freeze_count()
        assert main(["--quiet", "--format", "json", "preset", "fig4"]) == 0
        assert gc.get_freeze_count() == frozen

    @pytest.mark.parametrize("start", [
        "from victrap.cli import run; sys.exit(run())",
        "import runpy; runpy.run_module('victrap.cli', run_name='__main__')",  # python -m victrap.cli
    ])
    def test_process_entry_freezes_the_import_time_heap(self, start):
        code = ("import atexit, gc, sys\n"
                "print(gc.get_freeze_count())\n"
                "atexit.register(lambda: print(gc.get_freeze_count()))\n"
                "sys.argv = ['victrap', '--quiet', 'validate']\n" + start)
        child = run_python("-c", code)
        assert child.returncode == 0, child.stderr
        before, after = map(int, child.stdout.split())
        assert before == 0 and after > 0

    def test_json_loads_only_for_json_output(self, tmp_path):
        out = tmp_path / "fig2.csv"
        for code in (
            "import sys, victrap.cli; print('json' in sys.modules)",
            "import sys; from victrap.cli import main; "
            f"assert main(['--quiet', 'preset', 'fig2', '--out', {str(out)!r}]) == 0; print('json' in sys.modules)",
        ):
            child = run_python("-c", code)
            assert (child.returncode, child.stdout) == (0, b"False\n"), child.stderr
        assert out.stat().st_size > 0

    def test_console_script_is_the_process_entry(self):
        assert 'victrap = "victrap.cli:run"' in (ROOT / "pyproject.toml").read_text(encoding="utf-8")
