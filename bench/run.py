#!/usr/bin/env python3
"""Benchmark of the victrap command line, end to end and layer by layer.

Run from the root of a checkout; victrap is run from the checkout's ``src``:

    python3 bench/run.py --workload trajectory_csv --seed 0 --seconds 25 --trace 0
    python3 bench/run.py --workload stiff_json --seed 0 --seconds 25 --trace 1
    python3 bench/run.py --workload all --seed 0 --seconds 25    # every end-to-end metric
    python3 bench/run.py --counts 0-9                            # exact counters per seed

``--trace 0`` times the CLI in fresh interpreters and prints the end-to-end
metrics; ``--trace 1`` runs the traced in-process pass and prints the
per-layer metrics.  The last line of stdout is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The harness and all
its children run pinned to one vCPU, and every timing is speed-adjusted with
the reference kernel in refkernel.py; NOISE.md says why.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import sys
import time
from pathlib import Path

import child

# BLAS pools are sized when numpy is first imported, so hold them to one
# thread before the imports below bring numpy in.
os.environ.update({name: "1" for name in child.BLAS_THREAD_VARS})

import layers  # noqa: E402
import workloads  # noqa: E402
from refkernel import REF_NOMINAL_S, Speed  # noqa: E402
from session import Session  # noqa: E402

BENCH = Path(__file__).resolve().parent
SRC = BENCH.parent / "src"
SCRATCH = BENCH / "out"

END_TO_END = (
    ("wall_s", "s"),
    ("setup_s", "s"),
    ("points_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
)

MIN_INVOCATIONS = 5   # timed CLI invocations per run, even past --seconds


def measure(session: Session, seconds: float) -> dict:
    """End-to-end metrics of one workload: CLI invocations timed from the harness.

    Each CLI invocation is followed by one set-up child, so that both
    samples spread over the whole run and meet the same speed states.
    """
    session.invoke()  # untimed warm-up: fills the bytecode caches a user's second run would find
    speed = Speed()
    walls, raw, setup, rss = [], [], [], []
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline or len(walls) < MIN_INVOCATIONS:
        run = session.invoke()
        raw.append(run.raw_s)
        walls.append(speed.adjust(run.raw_s))
        rss.append(run.maxrss_kb)
        setup.append(speed.adjust(session.setup().raw_s))
    wall = statistics.median(walls)
    print(json.dumps({"workload": session.workload.name, "invocations": len(walls),
                      "machine.ref_s": speed.ref_median(), "ref_nominal_s": REF_NOMINAL_S,
                      "machine.raw_wall_s": statistics.median(raw)}), file=sys.stderr)
    return {
        "wall_s": wall,
        "setup_s": statistics.median(setup),
        "points_per_s": session.workload.points / wall,
        "peak_rss_mb": statistics.median(rss) / 1024.0,
    }


def machine_record(cpu: int) -> dict:
    import numpy

    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    model = next((line.split(":", 1)[1].strip() for line in Path("/proc/cpuinfo").read_text().splitlines()
                  if line.startswith("model name")), platform.processor())
    return {
        "nproc": os.cpu_count(),
        "cpu_model": model,
        "pinned_cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": {key: blas.get(key) for key in ("name", "version")},
        "blas_threads": {name: os.environ.get(name) for name in child.BLAS_THREAD_VARS},
    }


def result_line(attempted: int, failed: int, metrics: dict, units: dict) -> dict:
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics.get(name), "unit": unit} for name, unit in units.items()},
    }


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> tuple[int, int, dict]:
    session = Session(workloads.make(name, seed), SRC, SCRATCH)
    try:
        if trace:
            metrics = layers.run_trace(session, seconds, SCRATCH / f"spans-{name}-seed{seed}.jsonl")
        else:
            metrics = measure(session, seconds)
    finally:
        session.close()
    for problem in session.problems:
        print(f"[{name}] FAILED: {problem}", file=sys.stderr)
    return session.attempted, session.failed, metrics


def counts(seeds: list[int]) -> dict:
    """Exact counters of every workload for each seed (untimed, in-process)."""
    api = layers.Api()
    table = {}
    for name in workloads.WORKLOADS:
        table[name] = {}
        for seed in seeds:
            w = workloads.make(name, seed)
            table[name][str(seed)] = layers.exact_counts(api, w.kind, w.config)
    return table


def _seed_range(text: str) -> list[int]:
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=tuple(workloads.WORKLOADS) + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--counts", metavar="SEEDS", help="print exact counters for a seed range like 0-9")
    args = parser.parse_args(argv)
    if args.workload is None and args.counts is None:
        parser.error("give --workload or --counts")

    if not (SRC / "victrap" / "cli.py").is_file():
        print(f"error: no victrap sources at {SRC}; run from the root of a victrap checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    cpu = child.pin_one_cpu()
    print(json.dumps({"machine": machine_record(cpu)}), file=sys.stderr)

    if args.counts is not None:
        print(json.dumps(counts(_seed_range(args.counts)), indent=1, sort_keys=True))
        return 0

    units = dict(layers.PER_LAYER if args.trace else END_TO_END)
    if args.workload != "all":
        attempted, failed, metrics = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
        print(json.dumps(result_line(attempted, failed, metrics, units)))
        return 0

    attempted = failed = 0
    merged, merged_units = {}, {}
    for name in workloads.WORKLOADS:
        a, f, metrics = run_workload(name, args.seed, args.seconds, bool(args.trace))
        attempted, failed = attempted + a, failed + f
        for metric, unit in units.items():
            merged[f"{name}.{metric}"] = metrics.get(metric)
            merged_units[f"{name}.{metric}"] = unit
    print(json.dumps(result_line(attempted, failed, merged, merged_units)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
