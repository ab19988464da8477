"""The names and shapes the benchmark harness reads from victrap.

The harness in bench/ resolves victrap's public functions by dotted name
and reports a metric as null when a name is missing, so a rename or a
deletion would not fail a test there.  These tests read the harness as
text (without importing it) and check that everything it names exists.
"""

import ast
import importlib
import re
from dataclasses import replace
from pathlib import Path

import pytest

from victrap import DensityMatrix, OutputOptions, Scenario, integrate, parse_config_full, preset
from victrap.experiments import SweepAxis, SweepSpec, sweep

BENCH = Path(__file__).resolve().parent.parent / "bench"
LAYERS = (BENCH / "layers.py").read_text(encoding="utf-8")
CHECKS = (BENCH / "checks.py").read_text(encoding="utf-8")
SESSION = (BENCH / "session.py").read_text(encoding="utf-8")


def api_names() -> list[str]:
    """Every ``api["module.attr"]`` literal, and the emitters picked through ``emit_name``."""
    names = re.findall(r'api\["([\w.]+)"\]', LAYERS)
    for line in re.findall(r"emit_name = (.*)", LAYERS):
        names += re.findall(r'"(output\.\w+)"', line)
    return sorted(set(names))


def imported_names() -> list[tuple[str, str]]:
    """(module, name) for every ``from victrap[.module] import ...`` in checks.py."""
    pairs = []
    for module, names in re.findall(r"from (victrap(?:\.\w+)?) import ([\w, ]+)", CHECKS):
        pairs += [(module, name.strip()) for name in names.split(",")]
    return pairs


def setup_imports() -> list[tuple[str, str | None]]:
    """(module, name) for every victrap import in ``session.SETUP_CODE``; name is None for ``import module``."""
    (code,) = [ast.literal_eval(node.value) for node in ast.parse(SESSION).body
               if isinstance(node, ast.Assign) and [getattr(t, "id", None) for t in node.targets] == ["SETUP_CODE"]]
    pairs = []
    for node in ast.walk(ast.parse(code)):
        if isinstance(node, ast.Import):
            pairs += [(alias.name, None) for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            pairs += [(node.module, alias.name) for alias in node.names]
    return [(module, name) for module, name in pairs if module.split(".")[0] == "victrap"]


def state_row_fields() -> list[str]:
    """The ``record.<field>[.<part>]`` reads of ``checks._state_row``."""
    body = re.search(r"def _state_row\(record\).*?\n\n\n", CHECKS, re.S).group(0)
    return sorted(set(re.findall(r"record\.(\w+(?:\.\w+)?)", body)))


def test_harness_text_was_found():
    # Guards the regular expressions: an empty list would pass vacuously.
    assert len(api_names()) >= 15
    assert {"output.emit_trajectory_csv", "output.emit_summary_json"} <= set(api_names())
    assert len(imported_names()) >= 5
    assert len(state_row_fields()) == 17


@pytest.mark.parametrize("dotted", api_names())
def test_api_name_resolves(dotted):
    module, _, attr = dotted.rpartition(".")
    assert getattr(importlib.import_module(f"victrap.{module}"), attr, None) is not None


@pytest.mark.parametrize("module, name", imported_names())
def test_checks_import_resolves(module, name):
    assert hasattr(importlib.import_module(module), name)


@pytest.fixture(scope="module")
def short_fig2():
    return integrate(replace(preset("fig2"), t_end=-10.0))


def test_sample_view(short_fig2):
    sample = short_fig2.samples[len(short_fig2.samples) // 2]
    assert type(sample.time) is float
    assert isinstance(sample.state, DensityMatrix)
    for field in state_row_fields():
        value = sample.record
        for part in field.split("."):
            value = getattr(value, part)
        assert type(value) is float, field


def test_setup_probe_names_were_found():
    assert ("victrap.cli", None) in setup_imports()
    assert ("victrap.config", "parse_config_full") in setup_imports()


@pytest.mark.parametrize("module, name", setup_imports())
def test_setup_probe_import_resolves(module, name):
    imported = importlib.import_module(module)
    assert name is None or hasattr(imported, name)


def test_parse_config_full_returns_the_job_then_its_output_options():
    # cli_pass unpacks ``job, _ = parse(config_text)`` for both workload kinds.
    assert len(re.findall(r"job, _ = parse\(config_text\)", LAYERS)) == 2
    for text, kind in (("", Scenario), ("[sweep]\nparameter = theta\nvalues = 0.0\n", SweepSpec)):
        job, options = parse_config_full(text)
        assert type(job) is kind
        assert type(options) is OutputOptions


def test_sweep_accepts_max_workers():
    spec = SweepSpec(base=preset("fig4"), axes=(SweepAxis("theta", (0.0, 0.8)),))
    assert sweep(spec, max_workers=2).rows == sweep(spec, max_workers=1).rows
