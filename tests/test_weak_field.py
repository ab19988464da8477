"""Weak-field limit of the trapping: first-order perturbation theory against the integrated master equation.

With theta = 0 the doublet has a dark superposition that does not decay.
Pulse 1 alone, weak, lifts population from |0> into the doublet; the bright
part decays back and the dark part stays.  To first order in g01 the
population left in the doublet is

    p1 + p2 = pi g01^2 tau^2 (sqrt(gamma01) - sqrt(gamma02))^2 / (gamma01 + gamma02),

the squared pulse area, (g01 tau sqrt(pi))^2, times the weight of the dark
superposition in the doublet state that pulse 1 couples |0> to.  The next
order is smaller by a factor of order g01^2.

The limit holds at any decay rates, so it checks both steppers: the
baseline rates step with Dormand-Prince, and rates two to three orders of
magnitude larger with Radau IIA.  It checks sweeps too, whose lanes keep
only their steady windows.
"""

import math

import pytest

from victrap import (
    DriveConfig, Scenario, SweepAxis, SweepSpec, SystemParams, detect_steady_state, ground_state, integrate,
    integrator, sweep,
)

# Relative error over g01^2: 2.78 at g01 = 1e-2 and 2.80 at 1e-3; the bound
# leaves a margin of 25% over the larger.
C = 3.5

# Decay rates that step with Radau IIA, (gamma01, gamma02), and the bound on
# their relative error over g01^2.  Measured at g01 = 1e-2 and 1e-3: 1.62
# and 1.64 at (1e3, 400), 7.12 and 7.14 at (1e4, 1e3); each bound leaves a
# margin of 25% over the larger.
STIFF = [
    pytest.param((1e3, 400.0), 2.05, id="1e3-400"),
    pytest.param((1e4, 1e3), 8.9, id="1e4-1e3"),
]


def weak_pulse(g01: float, rates: tuple[float, float] = (5.8, 2.2)) -> Scenario:
    """A weak pulse 1 from |0>, theta = 0, no pulse 2 and no chirp."""
    gamma01, gamma02 = rates
    return Scenario(params=SystemParams(gamma01=gamma01, gamma02=gamma02, theta=0.0),
                    drive=DriveConfig(g01=g01, g02=0.0), initial_state=ground_state())


def first_order(scenario: Scenario) -> float:
    """The first-order trapped population p1 + p2 of a ``weak_pulse`` scenario."""
    params, drive = scenario.params, scenario.drive
    dark = (math.sqrt(params.gamma01) - math.sqrt(params.gamma02)) ** 2 / (params.gamma01 + params.gamma02)
    return math.pi * drive.g01 ** 2 * drive.tau ** 2 * dark


def trapped(g01: float, rates: tuple[float, float] = (5.8, 2.2),
            stepper: type = integrator._DopriLanes) -> tuple[float, float]:
    """The final p1 + p2 of ``weak_pulse(g01, rates)``, and its first-order value.

    Asserts that the run steps with ``stepper``.
    """
    scenario = weak_pulse(g01, rates)
    assert integrator._Lane(scenario, integrator.sample_times(scenario)).stepper is stepper
    final = integrate(scenario).samples[-1].record
    return final.p1 + final.p2, first_order(scenario)


def relative_errors(rates: tuple[float, float] = (5.8, 2.2), stepper: type = integrator._DopriLanes) -> list[float]:
    """The relative errors of the first-order value at g01 = 1e-2 and 1e-3."""
    return [abs(measured / predicted - 1.0) for measured, predicted in
            (trapped(g01, rates, stepper) for g01 in (1e-2, 1e-3))]


@pytest.mark.parametrize("g01", [1e-2, 1e-3])
def test_trapped_population_is_first_order_perturbation_theory(g01):
    measured, predicted = trapped(g01)
    assert abs(measured - predicted) <= C * g01 ** 2 * predicted


def test_relative_error_shrinks_with_the_square_of_the_field():
    # A tenth of the field gives a hundredth of the relative error (99x here).
    errors = relative_errors()
    assert errors[0] >= 50.0 * errors[1]


@pytest.mark.parametrize("g01", [1e-2, 1e-3])
@pytest.mark.parametrize("rates, bound", STIFF)
def test_radau_lanes_trap_the_first_order_population(g01, rates, bound):
    measured, predicted = trapped(g01, rates, integrator._RadauLanes)
    assert abs(measured - predicted) <= bound * g01 ** 2 * predicted


@pytest.mark.parametrize("rates, bound", STIFF)
def test_radau_lanes_error_shrinks_with_the_square_of_the_field(rates, bound):
    # 99x at both rate pairs here.
    errors = relative_errors(rates, integrator._RadauLanes)
    assert errors[0] >= 50.0 * errors[1]


@pytest.mark.parametrize("rates, bound", [pytest.param((5.8, 2.2), C, id="5.8-2.2"), *STIFF])
def test_sweep_rows_trap_the_first_order_population_in_the_dark_state(rates, bound):
    # Both amplitudes run as lanes of one sweep.  Each row is its solo run's
    # bits and within the first-order bound.  The trapped population sits in
    # the dark state alone, so the doublet block is rank one and its purity
    # is p_doublet^2 (to 3.3e-16 relative here).
    spec = SweepSpec(base=weak_pulse(1e-2, rates), axes=(SweepAxis("g01", (1e-2, 1e-3)),))
    for row in sweep(spec).rows:
        scenario = weak_pulse(row.values[0], rates)
        solo = detect_steady_state(integrate(scenario))
        assert repr(tuple(row)) == repr((row.values, solo.doublet_population, solo.doublet_purity,
                                         solo.abs_coherence_21, solo.converged, None))
        predicted, g01 = first_order(scenario), scenario.drive.g01
        assert abs(row.doublet_population - predicted) <= bound * g01 ** 2 * predicted
        assert abs(row.doublet_purity - row.doublet_population ** 2) <= 1e-12 * row.doublet_population ** 2
