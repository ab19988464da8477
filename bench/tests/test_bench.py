"""Tests of the benchmark itself: run with ``python3 -m pytest bench/tests``."""

from __future__ import annotations

import contextlib
import io
import re
import sys
from pathlib import Path

import numpy as np
import pytest

import checks
import child
import layers
import refkernel
import workloads
from refkernel import REF_NOMINAL_S, speed_adjusted
from session import Session
from victrap.cli import main as cli_main

BENCH_SRC = Path(__file__).resolve().parents[2] / "src"


# --- speed adjustment ---------------------------------------------------------

def test_speed_adjusted_is_identity_at_nominal_speed():
    assert speed_adjusted(1.25, REF_NOMINAL_S, REF_NOMINAL_S) == 1.25


def test_speed_adjusted_scales_by_mean_bracket():
    # Kernel twice as slow before and four times after: mean factor 3.
    assert speed_adjusted(3.0, 2 * REF_NOMINAL_S, 4 * REF_NOMINAL_S) == pytest.approx(1.0, rel=1e-15)


def test_speed_chains_brackets(monkeypatch):
    times = iter([REF_NOMINAL_S, 2 * REF_NOMINAL_S, 4 * REF_NOMINAL_S])
    monkeypatch.setattr(refkernel, "ref_seconds", lambda: next(times))
    speed = refkernel.Speed()
    assert speed.adjust(1.5) == pytest.approx(1.0)   # mean of 1x and 2x
    assert speed.adjust(3.0) == pytest.approx(1.0)   # mean of 2x and 4x: the last bracket is reused
    assert speed.ref_median() == 2 * REF_NOMINAL_S


# --- child processes -----------------------------------------------------------

def test_child_peak_rss_excludes_the_harness(tmp_path):
    ballast = np.ones(6_000_000)  # 48 MB resident in this process
    launcher = child.Launcher()
    try:
        run = launcher.run([sys.executable, "-c", "pass"], child.child_env(BENCH_SRC),
                           tmp_path / "out", tmp_path / "err")
    finally:
        launcher.close()
    assert run.exit_code == 0
    assert run.maxrss_kb < 32 * 1024 < ballast.nbytes // 1024
    assert launcher.proc.returncode == 0


# --- output checks ------------------------------------------------------------

def _cli_output(workload, tmp_path):
    config = tmp_path / f"{workload.name}.ini"
    config.write_text(workload.config)
    out = tmp_path / f"{workload.name}.out"
    argv = [a.format(config=str(config), out=str(out)) for a in workload.argv]
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        code = cli_main(argv)
    data = out.read_bytes() if workload.writes_file else stdout.getvalue().encode()
    return data, code


@pytest.fixture(scope="module", params=sorted(workloads.WORKLOADS))
def valid(request, tmp_path_factory):
    workload = workloads.make(request.param, 0)
    data, code = _cli_output(workload, tmp_path_factory.mktemp(request.param))
    return workload, data, code, checks.compute_reference(workload.kind, workload.config)


def _flip_first_significant_digit(text: str) -> str:
    match = re.search(r"[1-9]", text)
    digit = match.group()
    return text[: match.start()] + ("1" if digit == "9" else str(int(digit) + 1)) + text[match.end():]


def _corrupt(kind: str, how: str, data: bytes, code: int) -> tuple[bytes, int]:
    text = data.decode()
    lines = text.split("\n")
    if kind == "summary_json":
        if how == "flipped_digit":
            i = next(i for i, line in enumerate(lines) if '"p_doublet"' in line)
            key, value = lines[i].split(":")
            lines[i] = key + ":" + _flip_first_significant_digit(value)
        elif how == "wrong_header":
            text = text.replace('"rho11"', '"rho_11"')
            return text.encode(), code
        elif how == "wrong_converged":
            text = text.replace('"converged": true', '"converged": false')
            return text.encode(), code
        elif how == "missing_row":
            lines = [line for line in lines if '"rho22"' not in line]
        return "\n".join(lines).encode(), code
    if how == "flipped_digit":
        column = lines[0].split(",").index("rho33" if kind == "trajectory_csv" else "p_doublet")
        fields = lines[10 if kind == "trajectory_csv" else 1].split(",")
        fields[column] = _flip_first_significant_digit(fields[column])
        lines[10 if kind == "trajectory_csv" else 1] = ",".join(fields)
    elif how == "wrong_header":
        lines[0] = lines[0].replace("rho11" if kind == "trajectory_csv" else "purity", "rho12")
    elif how == "wrong_converged":
        if kind == "trajectory_csv":
            # A run reports its converged flag through the exit code.
            return data, checks.EXIT_PHYSICS if code == checks.EXIT_OK else checks.EXIT_OK
        lines[1] = lines[1].replace("true", "false")
    elif how == "missing_row":
        del lines[5]
    return "\n".join(lines).encode(), code


def test_valid_output_passes(valid):
    workload, data, code, ref = valid
    assert checks.CHECKS[workload.kind](data, code, ref) == []


@pytest.mark.parametrize("how", ["flipped_digit", "wrong_header", "wrong_converged", "missing_row"])
def test_check_rejects_corruption(valid, how):
    workload, data, code, ref = valid
    bad, bad_code = _corrupt(workload.kind, how, data, code)
    assert (bad, bad_code) != (data, code)
    assert checks.CHECKS[workload.kind](bad, bad_code, ref)


# --- per-layer metrics -------------------------------------------------------

def test_missing_function_is_reported_missing():
    api = layers.Api(hidden=frozenset({"liouvillian.make_packed_rhs"}))
    with pytest.raises(layers.Missing):
        api["liouvillian.make_packed_rhs"]
    with pytest.raises(layers.Missing):
        layers.Api()["integrator.no_such_function"]
    assert callable(api["integrator.integrate"])


def test_missing_layer_function_yields_null(tmp_path):
    session = Session(workloads.make("stiff_json", 0), BENCH_SRC, tmp_path / "out")
    api = layers.Api(hidden=frozenset({"liouvillian.make_packed_rhs", "model.validate_physicality"}))
    try:
        metrics = layers.run_trace(session, 0.0, tmp_path / "spans.jsonl", api)
    finally:
        session.close()
    assert set(metrics) == {name for name, _ in layers.PER_LAYER}
    for name in ("liouvillian.rhs_us", "liouvillian.rhs_share", "integrator.step_overhead_us",
                 "model.physicality_us"):
        assert metrics[name] is None, name
    for name in ("drive.eval_us", "observables.record_us", "integrator.integrate_s",
                 "liouvillian.rhs_calls", "output.bytes", "trace.overhead_frac"):
        assert metrics[name] is not None, name
    assert session.failed == 0
    assert (tmp_path / "spans.jsonl").read_text().count("\n") >= 8


# --- exact counters ------------------------------------------------------------

@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_exact_counters_repeat_bit_for_bit(name):
    workload = workloads.make(name, 3)
    api = layers.Api()
    first = layers.exact_counts(api, workload.kind, workload.config)
    second = layers.exact_counts(api, workload.kind, workload.config)
    assert first == second
    assert all(isinstance(v, int) and v > 0 for k, v in first.items() if k != "steps_rejected")
