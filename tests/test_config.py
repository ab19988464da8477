import re
from dataclasses import replace
from pathlib import Path

import pytest

from victrap import (
    CHIRP_BASELINE,
    ConfigError,
    DriveConfig,
    Scenario,
    SweepAxis,
    SweepSpec,
    ground_state,
    parse_config,
    parse_config_full,
    preset,
    serialize_config,
)


class TestDefaults:
    def test_empty_config_is_baseline(self):
        sc = parse_config("")
        assert isinstance(sc, Scenario)
        assert sc.params.gamma01 == 5.8
        assert sc.params.gamma02 == 2.2
        assert sc.params.gamma03 == 0.1
        assert sc.params.theta == 0.0
        assert sc.drive.chi1 == 0.0 and sc.drive.chi2 == 0.0  # chirp off
        assert sc == preset("fig2")

    def test_empty_output_options(self):
        _, out = parse_config_full("")
        assert out.format == "csv"
        assert out.path is None


class TestReadmeReferenceConfig:
    def test_reference_block_parses_as_written(self):
        # The ini block under "Config format" lists every key with its
        # default; passed unchanged, it is the fig2 baseline swept over theta.
        readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
        (block,) = re.findall(r"```ini\n(.*?)```", readme, flags=re.DOTALL)
        spec, out = parse_config_full(block)
        assert isinstance(spec, SweepSpec)
        assert spec.base == preset("fig2")
        (axis,) = spec.axes
        assert axis.parameter == "theta" and len(axis.values) == 64
        assert (out.format, out.path) == ("csv", "out.csv")


class TestParsing:
    def test_single_value(self):
        sc = parse_config("[decay]\ngamma01 = 7.5\n")
        assert sc.params.gamma01 == 7.5
        assert sc.params.gamma02 == 2.2  # untouched default

    def test_chirp_section(self):
        sc = parse_config("[chirp]\nenabled = true\nchi1 = 0.4\nramp = 1.0\n")
        assert sc.drive.chi1 == 0.4
        assert sc.drive.chi2 == 0.2  # the baseline amplitude
        assert sc.drive.chirp_ramp == 1.0
        assert sc.drive == DriveConfig(chi1=0.4, chi2=0.2, chirp_ramp=1.0)

    def test_chirp_switch(self):
        # [chirp] enabled switches the amplitudes below it: off, or no
        # enabled key, is chi = 0 whatever they say; on without amplitudes
        # is the baseline.
        for text in ("", "[chirp]\nenabled = false\nchi1 = 0.3\nchi2 = 0.2\n", "[chirp]\nchi1 = 0.3\n",
                     "[chirp]\nenabled = off\n"):
            drive = parse_config(text).drive
            assert (drive.chi1, drive.chi2) == (0.0, 0.0), text
        for text in ("[chirp]\nenabled = true\n", "[chirp]\nenabled = on\n"):
            drive = parse_config(text).drive
            assert (drive.chi1, drive.chi2) == CHIRP_BASELINE, text
        drive = parse_config("[chirp]\nenabled = yes\nchi1 = 0.5\nchi2 = 0\n").drive
        assert (drive.chi1, drive.chi2) == (0.5, 0.0)

    def test_profile_key_is_rejected(self):
        # The detuning has one formula; a constant offset is a static delta.
        for profile in ("tanh", "constant"):
            with pytest.raises(ConfigError, match="unknown key 'profile' in \\[chirp\\]"):
                parse_config(f"[chirp]\nenabled = on\nprofile = {profile}\n")

    def test_initial_state_names(self):
        sc = parse_config("[integration]\ninitial_state = ground\n")
        assert sc.initial_state == ground_state()

    def test_bad_initial_state(self):
        with pytest.raises(ConfigError, match="initial_state"):
            parse_config("[integration]\ninitial_state = excited\n")

    def test_theta_range_error_names_constraint(self):
        with pytest.raises(ConfigError, match="theta"):
            parse_config("[decay]\ntheta = -0.1\n")

    def test_wide_theta_override(self):
        # allow_wide_theta is not a key: theta has one range, [0, pi/2].
        with pytest.raises(ConfigError, match="unknown key 'allow_wide_theta' in \\[decay\\]"):
            parse_config("[decay]\ntheta = 2.0\nallow_wide_theta = yes\n")

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError, match="gama01"):
            parse_config("[decay]\ngama01 = 5.8\n")

    def test_unknown_section_rejected(self):
        with pytest.raises(ConfigError, match="pulse"):
            parse_config("[pulse]\ng01 = 1.0\n")

    def test_non_numeric_value_rejected(self):
        with pytest.raises(ConfigError, match="tau"):
            parse_config("[drive]\ntau = wide\n")

    def test_bad_boolean_rejected(self):
        with pytest.raises(ConfigError, match="enabled"):
            parse_config("[chirp]\nenabled = maybe\n")

    def test_syntax_error_reports_line(self):
        with pytest.raises(ConfigError, match="line"):
            parse_config("[decay]\ngamma01\n")

    def test_duplicate_key_rejected(self):
        with pytest.raises(ConfigError):
            parse_config("[decay]\ngamma01 = 1\ngamma01 = 2\n")


class TestSweepConfigs:
    def test_range_axis(self):
        text = "[sweep]\nparameter = theta\nstart = 0.0\nstop = 1.5\npoints = 4\n"
        spec = parse_config(text)
        assert isinstance(spec, SweepSpec)
        assert spec.parameters == ("theta",)
        assert spec.axes[0].values == (0.0, 0.5, 1.0, 1.5)

    def test_values_axis(self):
        spec = parse_config("[sweep]\nparameter = g02\nvalues = 0.1, 0.2, 0.5\n")
        assert spec.axes[0].values == (0.1, 0.2, 0.5)

    def test_two_axes(self):
        text = (
            "[sweep]\n"
            "parameter = theta\nvalues = 0.0, 0.4\n"
            "parameter2 = g02\nstart2 = 0.1\nstop2 = 0.3\npoints2 = 3\n"
        )
        spec = parse_config(text)
        assert spec.parameters == ("theta", "g02")
        assert len(spec.grid()) == 6

    def test_values_and_range_conflict(self):
        text = "[sweep]\nparameter = theta\nvalues = 0.1\nstart = 0\nstop = 1\npoints = 2\n"
        with pytest.raises(ConfigError, match="not both"):
            parse_config(text)

    def test_missing_parameter_name(self):
        with pytest.raises(ConfigError, match="parameter"):
            parse_config("[sweep]\nstart = 0\nstop = 1\npoints = 2\n")

    def test_unknown_sweep_parameter(self):
        with pytest.raises(ConfigError, match="bogus"):
            parse_config("[sweep]\nparameter = bogus\nvalues = 1\n")

    def test_incomplete_range(self):
        with pytest.raises(ConfigError, match="points"):
            parse_config("[sweep]\nparameter = theta\nstart = 0\nstop = 1\n")


class TestOutputSection:
    def test_format_json(self):
        _, out = parse_config_full("[output]\nformat = json\npath = results.json\n")
        assert out.format == "json"
        assert out.path == "results.json"

    def test_bad_format(self):
        with pytest.raises(ConfigError, match="format"):
            parse_config("[output]\nformat = xml\n")


class TestRoundTrip:
    def test_spec_example_key(self):
        sc = parse_config("[decay]\ngamma01 = 5.8\n")
        assert parse_config(serialize_config(sc)) == sc

    def test_default_scenario(self):
        sc = Scenario()
        assert parse_config(serialize_config(sc)) == sc

    def test_awkward_floats(self):
        sc = parse_config(
            "[decay]\ngamma01 = 0.30000000000000004\ntheta = 1.2246467991473532e-16\n"
            "[integration]\nrtol = 3e-9\n"
        )
        assert parse_config(serialize_config(sc)) == sc

    def test_chirped_scenario(self):
        sc = preset("fig4")
        assert parse_config(serialize_config(sc)) == sc

    def test_chirp_off_scenario(self):
        sc = preset("fig2")
        text = serialize_config(sc)
        assert "[chirp]\nenabled = false\nchi1 = 0.0\nchi2 = 0.0\n" in text
        assert parse_config(text) == sc

    def test_chirp_with_one_zero_amplitude(self):
        sc = replace(Scenario(), drive=DriveConfig(chi1=0.3, chi2=0.0))
        text = serialize_config(sc)
        assert "[chirp]\nenabled = true\nchi1 = 0.3\nchi2 = 0.0\n" in text
        assert parse_config(text) == sc

    def test_sweep_spec(self):
        spec = preset("fig6")
        again = parse_config(serialize_config(spec))
        assert again == spec

    def test_two_axis_sweep(self):
        spec = SweepSpec(
            base=replace(Scenario(), t_end=30.0),
            axes=(
                SweepAxis(parameter="theta", values=(0.0, 0.7853981633974483)),
                SweepAxis(parameter="chi1", values=(0.1, 0.2, 0.3)),
            ),
        )
        assert parse_config(serialize_config(spec)) == spec
