import json
import re
import time

import pytest

from victrap import TRAJECTORY_CSV_HEADER, experiments, integrate, parse_config
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
        # Finite rates whose L0 overflows: rejected as too stiff, silently.
        cfg = write(tmp_path, "huge.cfg", "[decay]\ngamma01 = 1e308\ngamma02 = 1e308\n")
        assert main(["--format", "json", "run", "--config", cfg]) == 2
        assert "too stiff" in capsys.readouterr().err


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
