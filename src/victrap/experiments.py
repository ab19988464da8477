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
from dataclasses import dataclass, replace

from .errors import InvalidParameterError, SimulationError
from .integrator import (
    DEFAULT_STEADY_TOL,
    DEFAULT_STEADY_WINDOW,
    Trajectory,
    detect_steady_state,
    integrate,
)
from .model import DriveConfig, Scenario, SystemParams

__all__ = [
    "PRESET_NAMES",
    "SWEEPABLE_PARAMETERS",
    "MAX_AXIS_POINTS",
    "MAX_GRID_POINTS",
    "SweepAxis",
    "SweepSpec",
    "SweepRow",
    "SweepTable",
    "preset",
    "sweep",
    "run_with_steady",
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
    base = Scenario(
        params=SystemParams(),
        drive=DriveConfig(chirp_enabled=False),
    )
    if name in ("fig2", "fig3"):
        return base
    chirped = replace(base, drive=replace(base.drive, chirp_enabled=True))
    if name in ("fig4", "fig5"):
        return chirped
    if name == "fig6":
        axis = SweepAxis.linspace("theta", 0.0, math.pi / 2.0, THETA_GRID_POINTS)
        return SweepSpec(base=chirped, axes=(axis,))
    raise InvalidParameterError(
        f"unknown preset {name!r}; choose one of {', '.join(PRESET_NAMES)}"
    )


def run_with_steady(
    scenario: Scenario,
    window: float = DEFAULT_STEADY_WINDOW,
    tol: float = DEFAULT_STEADY_TOL,
) -> Trajectory:
    """Integrate and attach the steady-state summary."""
    traj = integrate(scenario)
    return traj.with_steady(detect_steady_state(traj, window, tol))


def _run_point(spec: SweepSpec, values: tuple[float, ...], window: float, tol: float) -> SweepRow:
    try:
        scenario = spec.base
        for name, value in zip(spec.parameters, values):
            scenario = apply_parameter(scenario, name, value)
        traj = run_with_steady(scenario, window, tol)
        steady = traj.steady
        return SweepRow(
            values=values,
            doublet_population=steady.doublet_population,
            doublet_purity=steady.doublet_purity,
            abs_coherence_21=steady.abs_coherence_21,
            converged=steady.converged,
        )
    except SimulationError as exc:
        # Per-point failures degrade to flagged rows so a sweep never loses
        # completed work.
        return SweepRow(
            values=values,
            doublet_population=math.nan,
            doublet_purity=math.nan,
            abs_coherence_21=math.nan,
            converged=False,
            error=str(exc),
        )


def sweep(
    spec: SweepSpec,
    max_workers: int = 1,
    window: float = DEFAULT_STEADY_WINDOW,
    tol: float = DEFAULT_STEADY_TOL,
) -> SweepTable:
    """Run every grid point and collect steady-state values, in grid order.

    Points run serially: they are pure-Python-bound, so threads only add
    contention for the interpreter lock.  ``max_workers`` is accepted for
    compatibility and ignored.
    """
    del max_workers
    rows = [_run_point(spec, v, window, tol) for v in spec.grid()]
    return SweepTable(parameters=spec.parameters, rows=tuple(rows))
