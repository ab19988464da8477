"""Seeded workload definitions: config text and CLI arguments for each workload.

victrap receives only the generated config text.  Seed 0 gives the nominal
inputs; any other seed scales a few physical parameters by factors drawn
from narrow ranges, which keeps the sample and grid-point counts fixed and
the step counts within a few percent of seed 0 (see counts.json).
"""

from __future__ import annotations

import random
from dataclasses import dataclass

_PERTURB = 0.02  # relative half-width of the per-seed parameter jitter


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str            # "trajectory_csv" | "summary_json" | "sweep_csv"
    config: str          # INI text handed to victrap
    argv: tuple          # CLI arguments; "{config}" and "{out}" are filled in per run
    points: int          # grid points solved by one invocation
    writes_file: bool    # output goes to --out (True) or stdout (False)


def _jitter(rng: random.Random | None, value: float) -> float:
    if rng is None:
        return value
    return value * rng.uniform(1.0 - _PERTURB, 1.0 + _PERTURB)


def _drive(rng):
    return (
        "[drive]\n"
        f"g01 = {_jitter(rng, 0.9)!r}\n"
        f"g02 = {_jitter(rng, 0.3)!r}\n"
    )


def trajectory_csv(seed: int) -> Workload:
    rng = random.Random(seed) if seed else None
    config = (
        "[decay]\n"
        f"gamma01 = {_jitter(rng, 5.8)!r}\n"
        f"gamma02 = {_jitter(rng, 2.2)!r}\n"
        + _drive(rng)
        + "[chirp]\nenabled = true\n"
        f"chi1 = {_jitter(rng, 0.3)!r}\n"
        f"chi2 = {_jitter(rng, 0.2)!r}\n"
        "[integration]\nsample_interval = 0.03\n"
    )
    return Workload("trajectory_csv", "trajectory_csv", config,
                    ("--quiet", "run", "--config", "{config}", "--out", "{out}"), 1, True)


def stiff_json(seed: int) -> Workload:
    rng = random.Random(seed) if seed else None
    config = (
        "[decay]\n"
        f"gamma01 = {_jitter(rng, 100.0)!r}\n"
        f"gamma02 = {_jitter(rng, 40.0)!r}\n"
        + _drive(rng)
        + "[chirp]\nenabled = true\n"
        f"chi1 = {_jitter(rng, 0.3)!r}\n"
        f"chi2 = {_jitter(rng, 0.2)!r}\n"
        "[integration]\nsample_interval = 1.0\n"
    )
    return Workload("stiff_json", "summary_json", config,
                    ("--quiet", "--format", "json", "run", "--config", "{config}"), 1, False)


def sweep_2d(seed: int) -> Workload:
    rng = random.Random(seed) if seed else None
    config = (
        "[decay]\n"
        f"gamma01 = {_jitter(rng, 5.8)!r}\n"
        f"gamma02 = {_jitter(rng, 2.2)!r}\n"
        + _drive(rng)
        + "[chirp]\nenabled = true\n"
        f"chi2 = {_jitter(rng, 0.2)!r}\n"
        "[integration]\nsample_interval = 0.5\n"
        "[sweep]\n"
        "parameter = theta\nvalues = 0.0, 0.1, 0.8, 1.5\n"
        "parameter2 = chi1\nvalues2 = 0.15, 0.45\n"
    )
    return Workload("sweep_2d", "sweep_csv", config,
                    ("--quiet", "sweep", "--threads", "1", "--config", "{config}"), 8, False)


WORKLOADS = {
    "trajectory_csv": trajectory_csv,
    "stiff_json": stiff_json,
    "sweep_2d": sweep_2d,
}


def make(name: str, seed: int) -> Workload:
    return WORKLOADS[name](seed)
