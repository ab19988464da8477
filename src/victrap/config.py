"""Config-file parsing and serialization.

The format is flat INI: ``key = value`` lines under ``[section]`` headers.
Sections are [decay], [drive], [chirp], [integration], [sweep], [output];
every key is optional and unknown keys or sections are errors.  An empty
config yields the baseline scenario (the fig2 preset).  ``[chirp] enabled``
is the file's switch for the amplitudes below it: off (the default) sets
chi1 = chi2 = 0, on takes the given amplitudes or ``CHIRP_BASELINE``.  A
config containing a [sweep] section describes a parameter sweep instead of
a single run.
"""

from __future__ import annotations

import configparser
import io
import math
from dataclasses import dataclass

from .errors import ConfigError, InvalidParameterError
from .experiments import SweepAxis, SweepSpec
from .model import (
    CHIRP_BASELINE,
    DensityMatrix,
    DriveConfig,
    Scenario,
    SystemParams,
    ground_state,
    initial_metastable,
    maximally_mixed,
)

__all__ = ["OutputOptions", "parse_config", "parse_config_full", "serialize_config"]

_INITIAL_STATES = {
    "metastable": initial_metastable,
    "ground": ground_state,
    "maximally_mixed": maximally_mixed,
}

# Scenario keys per section: the object a section sets ("params", "drive"
# or "scenario") and the field behind each key; [chirp] enabled sets no
# field but switches the amplitudes.  Parsing and serialization both read
# this table, in this order.
_FIELDS: dict[str, tuple[str, dict[str, str]]] = {
    "decay": ("params", {key: key for key in ("gamma01", "gamma02", "gamma03", "gamma_coll", "theta")}),
    "drive": ("drive", {"g01": "g01", "g02": "g02", "tau": "tau", "t0": "t0", "delta1": "static_delta1",
                        "delta2": "static_delta2", "t_origin": "t_origin"}),
    "chirp": ("drive", {"enabled": "enabled", "chi1": "chi1", "chi2": "chi2", "ramp": "chirp_ramp"}),
    "integration": ("scenario", {key: key for key in ("t_start", "t_end", "sample_interval", "rtol", "atol",
                                                      "trace_tol", "pos_tol", "initial_state")}),
}

_SCHEMA: dict[str, tuple[str, ...]] = {
    **{section: tuple(keys) for section, (_, keys) in _FIELDS.items()},
    "sweep": (
        "parameter", "start", "stop", "points", "values",
        "parameter2", "start2", "stop2", "points2", "values2",
    ),
    "output": ("format", "path"),
}


@dataclass(frozen=True)
class OutputOptions:
    """Output preferences carried by the [output] section."""

    format: str = "csv"
    path: str | None = None


def _fail(section: str, key: str, message: str):
    raise ConfigError(f"[{section}] {key}: {message}")


def _as_float(section: str, key: str, raw: str) -> float:
    try:
        value = float(raw)
    except ValueError:
        _fail(section, key, f"expected a number, got {raw!r}")
    if not math.isfinite(value):
        _fail(section, key, f"expected a finite number, got {raw!r}")
    return value


def _as_int(section: str, key: str, raw: str) -> int:
    try:
        return int(raw)
    except ValueError:
        _fail(section, key, f"expected an integer, got {raw!r}")


def _as_bool(section: str, key: str, raw: str) -> bool:
    state = configparser.ConfigParser.BOOLEAN_STATES.get(raw.strip().lower())
    if state is None:
        _fail(section, key, f"expected true/false, got {raw!r}")
    return state


def _as_float_list(section: str, key: str, raw: str) -> tuple[float, ...]:
    items = [item.strip() for item in raw.split(",") if item.strip()]
    if not items:
        _fail(section, key, "expected a comma-separated list of numbers")
    return tuple(_as_float(section, key, item) for item in items)


def _read_sections(text: str) -> dict[str, dict[str, str]]:
    parser = configparser.ConfigParser(interpolation=None)
    try:
        parser.read_string(text)
    except configparser.Error as exc:
        raise ConfigError(f"config parse error: {exc}") from exc
    sections: dict[str, dict[str, str]] = {}
    for section in parser.sections():
        if section not in _SCHEMA:
            raise ConfigError(
                f"unknown section [{section}]; known sections: "
                + ", ".join(f"[{name}]" for name in _SCHEMA)
            )
        known = _SCHEMA[section]
        values: dict[str, str] = {}
        for key, raw in parser.items(section):
            if key not in known:
                raise ConfigError(
                    f"unknown key {key!r} in [{section}]; known keys: " + ", ".join(known)
                )
            values[key] = raw
        sections[section] = values
    return sections


def _parse_value(section: str, key: str, field: str, raw: str):
    """Convert one raw value to the type of the field it sets."""
    if field == "enabled":
        return _as_bool(section, key, raw)
    name = raw.strip().lower()
    if field == "initial_state":
        if name not in _INITIAL_STATES:
            _fail(section, key, f"expected one of {sorted(_INITIAL_STATES)}, got {name!r}")
        return _INITIAL_STATES[name]()
    return _as_float(section, key, raw)


def _build_scenario(sections: dict[str, dict[str, str]]) -> Scenario:
    kwargs: dict[str, dict] = {"params": {}, "drive": {}, "scenario": {}}
    for section, (owner, fields) in _FIELDS.items():
        for key, raw in sections.get(section, {}).items():
            kwargs[owner][fields[key]] = _parse_value(section, key, fields[key], raw)
    drive = kwargs["drive"]
    enabled = drive.pop("enabled", False)
    for name, baseline in zip(("chi1", "chi2"), CHIRP_BASELINE):
        drive[name] = drive.get(name, baseline) if enabled else 0.0
    try:
        return Scenario(params=SystemParams(**kwargs["params"]), drive=DriveConfig(**drive),
                        **kwargs["scenario"])
    except InvalidParameterError as exc:
        raise ConfigError(f"invalid configuration: {exc}") from exc


def _build_axis(section: dict[str, str], suffix: str) -> SweepAxis | None:
    keys = {
        base: section[base + suffix]
        for base in ("parameter", "start", "stop", "points", "values")
        if base + suffix in section
    }
    if not keys:
        return None
    if "parameter" not in keys:
        raise ConfigError(f"[sweep] parameter{suffix} is required when other axis keys are set")
    parameter = keys["parameter"].strip()
    has_values = "values" in keys
    has_range = any(k in keys for k in ("start", "stop", "points"))
    if has_values and has_range:
        raise ConfigError(
            f"[sweep] give either values{suffix} or start{suffix}/stop{suffix}/points{suffix}, not both"
        )
    try:
        if has_values:
            return SweepAxis(parameter=parameter,
                             values=_as_float_list("sweep", "values" + suffix, keys["values"]))
        for needed in ("start", "stop", "points"):
            if needed not in keys:
                raise ConfigError(f"[sweep] {needed + suffix} is required for a range axis")
        return SweepAxis.linspace(
            parameter,
            _as_float("sweep", "start" + suffix, keys["start"]),
            _as_float("sweep", "stop" + suffix, keys["stop"]),
            _as_int("sweep", "points" + suffix, keys["points"]),
        )
    except InvalidParameterError as exc:
        raise ConfigError(f"invalid sweep axis: {exc}") from exc


def parse_config(text: str) -> Scenario | SweepSpec:
    """Parse config text into a fully validated Scenario or SweepSpec."""
    job, _ = parse_config_full(text)
    return job


def parse_config_full(text: str) -> tuple[Scenario | SweepSpec, OutputOptions]:
    """Like :func:`parse_config` but also returns the [output] preferences."""
    sections = _read_sections(text)
    scenario = _build_scenario(sections)

    output_raw = sections.get("output", {})
    fmt = output_raw.get("format", "csv").strip().lower()
    if fmt not in ("csv", "json"):
        _fail("output", "format", f"expected csv or json, got {fmt!r}")
    output = OutputOptions(format=fmt, path=output_raw.get("path"))

    if "sweep" in sections:
        axis1 = _build_axis(sections["sweep"], "")
        axis2 = _build_axis(sections["sweep"], "2")
        if axis1 is None:
            raise ConfigError("[sweep] section present but no axis defined (set 'parameter')")
        axes = (axis1,) if axis2 is None else (axis1, axis2)
        try:
            return SweepSpec(base=scenario, axes=axes), output
        except InvalidParameterError as exc:
            raise ConfigError(f"invalid sweep: {exc}") from exc
    return scenario, output


def _format_value(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, DensityMatrix):
        for name, factory in _INITIAL_STATES.items():
            if value == factory():
                return name
        raise ConfigError(
            "initial state is not one of the named states "
            f"({', '.join(_INITIAL_STATES)}) and cannot be serialized"
        )
    return repr(value)


def serialize_config(job: Scenario | SweepSpec) -> str:
    """Render a Scenario or SweepSpec as config text; inverse of parse_config."""
    scenario = job.base if isinstance(job, SweepSpec) else job
    owners = {"params": scenario.params, "drive": scenario.drive, "scenario": scenario}
    chirped = scenario.drive.chi1 != 0 or scenario.drive.chi2 != 0
    out = io.StringIO()
    for section, (owner, fields) in _FIELDS.items():
        out.write(f"\n[{section}]\n" if out.tell() else f"[{section}]\n")
        for key, field in fields.items():
            value = chirped if field == "enabled" else getattr(owners[owner], field)
            out.write(f"{key} = {_format_value(value)}\n")
    if isinstance(job, SweepSpec):
        out.write("\n[sweep]\n")
        for axis, suffix in zip(job.axes, ("", "2")):
            out.write(f"parameter{suffix} = {axis.parameter}\n")
            out.write(f"values{suffix} = {', '.join(repr(v) for v in axis.values)}\n")
    return out.getvalue()
