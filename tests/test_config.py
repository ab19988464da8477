import re
from dataclasses import fields, replace
from pathlib import Path

import pytest

from victrap import (
    CHIRP_BASELINE,
    ConfigError,
    DriveConfig,
    Scenario,
    SweepAxis,
    SweepSpec,
    SystemParams,
    ground_state,
    parse_config,
    parse_config_full,
    preset,
)
from victrap.config import _FIELDS


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


# Every scenario key at its default value, one section after another.
DEFAULT_TEXT = """\
[decay]
gamma01 = 5.8
gamma02 = 2.2
gamma03 = 0.1
gamma_coll = 0.0
theta = 0.0

[drive]
g01 = 0.9
g02 = 0.3
tau = 4.0
t0 = 10.0
delta1 = 0.0
delta2 = 0.0
t_origin = 0.0

[chirp]
enabled = false
chi1 = 0.0
chi2 = 0.0
ramp = 2.0

[integration]
t_start = -16.0
t_end = 80.0
sample_interval = 0.05
rtol = 1e-08
atol = 1e-10
trace_tol = 1e-06
pos_tol = 1e-07
initial_state = metastable
"""


class TestRoundTrip:
    """Config text written by hand for a known scenario or sweep parses back to exactly that object."""

    def test_spec_example_key(self):
        assert parse_config("[decay]\ngamma01 = 5.8\n") == Scenario()

    def test_default_scenario(self):
        assert parse_config(DEFAULT_TEXT) == Scenario()

    def test_awkward_floats(self):
        sc = parse_config(
            "[decay]\ngamma01 = 0.30000000000000004\ntheta = 1.2246467991473532e-16\n"
            "[integration]\nrtol = 3e-9\n"
        )
        assert sc == Scenario(params=SystemParams(gamma01=0.1 + 0.2, theta=1.2246467991473532e-16), rtol=3e-9)

    def test_chirped_scenario(self):
        text = DEFAULT_TEXT.replace("enabled = false\nchi1 = 0.0\nchi2 = 0.0\n",
                                    "enabled = true\nchi1 = 0.3\nchi2 = 0.2\n")
        assert parse_config(text) == preset("fig4")

    def test_chirp_off_scenario(self):
        assert "[chirp]\nenabled = false\nchi1 = 0.0\nchi2 = 0.0\n" in DEFAULT_TEXT
        assert parse_config(DEFAULT_TEXT) == preset("fig2")

    def test_chirp_with_one_zero_amplitude(self):
        sc = parse_config("[chirp]\nenabled = true\nchi1 = 0.3\nchi2 = 0.0\n")
        assert sc.drive.chi2 == 0.0
        assert sc == replace(Scenario(), drive=DriveConfig(chi1=0.3, chi2=0.0))

    def test_sweep_spec(self):
        text = ("[chirp]\nenabled = true\n"
                "[sweep]\nparameter = theta\nstart = 0.0\nstop = 1.5707963267948966\npoints = 64\n")
        assert parse_config(text) == preset("fig6")

    def test_two_axis_sweep(self):
        text = (
            "[integration]\nt_end = 30.0\n"
            "[sweep]\nparameter = theta\nvalues = 0.0, 0.7853981633974483\n"
            "parameter2 = chi1\nvalues2 = 0.1, 0.2, 0.3\n"
        )
        spec = SweepSpec(
            base=replace(Scenario(), t_end=30.0),
            axes=(
                SweepAxis(parameter="theta", values=(0.0, 0.7853981633974483)),
                SweepAxis(parameter="chi1", values=(0.1, 0.2, 0.3)),
            ),
        )
        assert parse_config(text) == spec

    def test_every_field_has_a_config_key_that_sets_it(self):
        # _FIELDS is the parser's key table; [chirp] enabled is a switch, not a field.
        owners = {"params": SystemParams, "drive": DriveConfig, "scenario": Scenario}
        declared = sorted((owner, f.name) for owner, cls in owners.items() for f in fields(cls) if f.name not in owners)
        keyed = sorted((owner, field) for owner, keys in _FIELDS.values()
                       for field in keys.values() if field != "enabled")
        assert keyed == declared
        # And back: each key sets its field and nothing else.
        for section, (owner, keys) in _FIELDS.items():
            prefix = f"[{section}]\n" + ("enabled = true\n" if section == "chirp" else "")
            base = parse_config(prefix)
            for key, field in keys.items():
                if field == "enabled":
                    continue
                if field == "initial_state":
                    raw, value = "ground", ground_state()
                else:
                    value = 1.5 * getattr(base if owner == "scenario" else getattr(base, owner), field) or 0.25
                    raw = repr(value)
                if owner == "scenario":
                    expected = replace(base, **{field: value})
                else:
                    expected = replace(base, **{owner: replace(getattr(base, owner), **{field: value})})
                assert parse_config(prefix + f"{key} = {raw}\n") == expected, key
