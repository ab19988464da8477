"""Preset scenarios and parameter sweeps.

The presets bundle the baseline parameter set (decay rates 5.8, 2.2, 0.1;
pulse amplitudes 0.9, 0.3; width 4; delay 10; resonant drives) into the
scenarios behind each scripted experiment:

* ``fig2`` / ``fig3``: maximum interference (theta=0), no chirp - population
  transfer and the residual optical coherences of the same run.
* ``fig4`` / ``fig5``: the same drive with tanh-chirped detunings
  (chi1=0.3, chi2=0.2) - coherence decoupling and the surviving doublet
  coherence.
* ``fig6``: a 64-point sweep of the dipole angle theta over [0, pi/2] on
  top of the chirped scenario, probing block purity at steady state.
"""

from __future__ import annotations

import math
from collections.abc import Callable, Sequence
from dataclasses import dataclass, replace

from .errors import InvalidParameterError, SimulationError
from .integrator import SteadySummary, steady_states
from .model import CHIRP_BASELINE, DriveConfig, Scenario

__all__ = [
    "PRESET_NAMES",
    "SWEEPABLE_PARAMETERS",
    "MAX_AXIS_POINTS",
    "MAX_GRID_POINTS",
    "MAX_LANES",
    "SweepAxis",
    "SweepSpec",
    "SweepRow",
    "SweepTable",
    "preset",
    "sweep",
    "apply_parameter",
]

PRESET_NAMES = ("fig2", "fig3", "fig4", "fig5", "fig6")

# Scenario fields addressable by a sweep axis or config key.
_PARAM_FIELDS = ("gamma01", "gamma02", "gamma03", "gamma_coll", "theta")
_DRIVE_FIELDS = ("g01", "g02", "tau", "t0", "chi1", "chi2", "static_delta1", "static_delta2", "t_origin")
SWEEPABLE_PARAMETERS = _PARAM_FIELDS + _DRIVE_FIELDS

THETA_GRID_POINTS = 64

# Caps on sweep grids, checked before any axis tuple is built; fig6 uses 64
# points on one axis.
MAX_AXIS_POINTS = 1024
MAX_GRID_POINTS = 4096

# Sweep points stepped together as lanes of one lockstep run; a larger grid
# runs in chunks of this many points.
MAX_LANES = 64


@dataclass(frozen=True)
class SweepAxis:
    parameter: str
    values: tuple[float, ...]

    def __post_init__(self):
        if self.parameter not in SWEEPABLE_PARAMETERS:
            raise InvalidParameterError(
                f"unknown sweep parameter {self.parameter!r}; "
                f"choose one of {', '.join(SWEEPABLE_PARAMETERS)}"
            )
        if len(self.values) == 0:
            raise InvalidParameterError(f"sweep axis {self.parameter!r} has no grid points")
        if len(self.values) > MAX_AXIS_POINTS:
            raise InvalidParameterError(
                f"sweep axis {self.parameter!r} has {len(self.values)} points; the cap is {MAX_AXIS_POINTS}"
            )
        if not all(math.isfinite(v) for v in self.values):
            raise InvalidParameterError(f"sweep axis {self.parameter!r} has non-finite grid points")

    @classmethod
    def linspace(cls, parameter: str, start: float, stop: float, points: int) -> "SweepAxis":
        if not 1 <= points <= MAX_AXIS_POINTS:
            raise InvalidParameterError(f"sweep needs 1 to {MAX_AXIS_POINTS} points per axis, got {points}")
        if points == 1:
            values = (start,)
        else:
            step = (stop - start) / (points - 1)
            values = tuple(start + k * step for k in range(points - 1)) + (stop,)
        return cls(parameter=parameter, values=values)


@dataclass(frozen=True)
class SweepSpec:
    base: Scenario
    axes: tuple[SweepAxis, ...]

    def __post_init__(self):
        if not 1 <= len(self.axes) <= 2:
            raise InvalidParameterError(f"sweeps take one or two axes, got {len(self.axes)}")
        total = math.prod(len(axis.values) for axis in self.axes)
        if total > MAX_GRID_POINTS:
            raise InvalidParameterError(f"sweep grid has {total} points; the cap is {MAX_GRID_POINTS}")

    @property
    def parameters(self) -> tuple[str, ...]:
        return tuple(axis.parameter for axis in self.axes)

    def grid(self) -> list[tuple[float, ...]]:
        """Grid points in row order (last axis fastest)."""
        if len(self.axes) == 1:
            return [(v,) for v in self.axes[0].values]
        return [(u, v) for u in self.axes[0].values for v in self.axes[1].values]


@dataclass(frozen=True)
class SweepRow:
    values: tuple[float, ...]
    doublet_population: float
    doublet_purity: float
    abs_coherence_21: float
    converged: bool
    error: str | None = None


@dataclass(frozen=True)
class SweepTable:
    parameters: tuple[str, ...]
    rows: tuple[SweepRow, ...]


def apply_parameter(scenario: Scenario, name: str, value: float) -> Scenario:
    """Return a copy of the scenario with one named parameter replaced."""
    if name in _PARAM_FIELDS:
        return replace(scenario, params=replace(scenario.params, **{name: value}))
    if name in _DRIVE_FIELDS:
        return replace(scenario, drive=replace(scenario.drive, **{name: value}))
    raise InvalidParameterError(f"unknown parameter {name!r}")


def preset(name: str) -> Scenario | SweepSpec:
    """Scenario (fig2-fig5) or sweep spec (fig6) behind each scripted experiment."""
    base = Scenario()
    if name in ("fig2", "fig3"):
        return base
    chi1, chi2 = CHIRP_BASELINE
    chirped = replace(base, drive=DriveConfig(chi1=chi1, chi2=chi2))
    if name in ("fig4", "fig5"):
        return chirped
    if name == "fig6":
        axis = SweepAxis.linspace("theta", 0.0, math.pi / 2.0, THETA_GRID_POINTS)
        return SweepSpec(base=chirped, axes=(axis,))
    raise InvalidParameterError(
        f"unknown preset {name!r}; choose one of {', '.join(PRESET_NAMES)}"
    )


def _point_scenario(spec: SweepSpec, values: tuple[float, ...]) -> Scenario:
    scenario = spec.base
    for name, value in zip(spec.parameters, values):
        scenario = apply_parameter(scenario, name, value)
    return scenario


def _row(values: tuple[float, ...], outcome: SteadySummary | SimulationError) -> SweepRow:
    if isinstance(outcome, SimulationError):
        # Per-point failures degrade to flagged rows so a sweep never loses
        # completed work.
        return SweepRow(
            values=values,
            doublet_population=math.nan,
            doublet_purity=math.nan,
            abs_coherence_21=math.nan,
            converged=False,
            error=str(outcome),
        )
    return SweepRow(
        values=values,
        doublet_population=outcome.doublet_population,
        doublet_purity=outcome.doublet_purity,
        abs_coherence_21=outcome.abs_coherence_21,
        converged=outcome.converged,
    )


def _run_chunk(spec: SweepSpec, points: list[tuple[float, ...]]) -> list[SweepRow]:
    """The rows of one lockstep run over ``points``.

    A point whose scenario fails to build, or that fails to integrate or
    to summarise, becomes a flagged row; the other lanes go on.
    """
    outcomes: dict[int, SteadySummary | SimulationError] = {}
    scenarios = {}
    for i, values in enumerate(points):
        try:
            scenarios[i] = _point_scenario(spec, values)
        except SimulationError as exc:
            outcomes[i] = exc
    outcomes.update(zip(scenarios, steady_states(list(scenarios.values()))))
    return [_row(values, outcomes[i]) for i, values in enumerate(points)]


def sweep(
    spec: SweepSpec,
    max_workers: int = 1,
    progress: Callable[[Sequence[SweepRow], int], None] | None = None,
) -> SweepTable:
    """Run every grid point and collect steady-state values, in grid order.

    The points run as lanes of one lockstep stepper (the explicit and the
    implicit lanes as two groups), in chunks of at most MAX_LANES: each iteration advances every active lane
    by one attempted step, and each lane keeps its own time, step size and
    accept/reject decision, so row i is bit for bit what
    ``detect_steady_state(integrate(point))`` gives, whatever the chunk.  A
    lane keeps only the rows of its trailing steady window.  ``progress``,
    if given, is called after each chunk with the rows so far and the grid
    size.
    ``max_workers`` is accepted for compatibility and ignored.
    """
    del max_workers
    grid = spec.grid()
    rows: list[SweepRow] = []
    for start in range(0, len(grid), MAX_LANES):
        rows += _run_chunk(spec, grid[start:start + MAX_LANES])
        if progress is not None:
            progress(rows, len(grid))
    return SweepTable(parameters=spec.parameters, rows=tuple(rows))
