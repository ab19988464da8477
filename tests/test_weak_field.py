"""Weak-field limit of the trapping: first-order perturbation theory against the integrated master equation.

With theta = 0 the doublet has a dark superposition that does not decay.
Pulse 1 alone, weak, lifts population from |0> into the doublet; the bright
part decays back and the dark part stays.  To first order in g01 the
population left in the doublet is

    p1 + p2 = pi g01^2 tau^2 (sqrt(gamma01) - sqrt(gamma02))^2 / (gamma01 + gamma02),

the squared pulse area, (g01 tau sqrt(pi))^2, times the weight of the dark
superposition in the doublet state that pulse 1 couples |0> to.  The next
order is smaller by a factor of order g01^2.
"""

import math

import pytest

from victrap import DriveConfig, Scenario, SystemParams, ground_state, integrate

# Relative error over g01^2: 2.78 at g01 = 1e-2 and 2.80 at 1e-3; the bound
# leaves a margin of 25% over the larger.
C = 3.5


def trapped(g01: float) -> tuple[float, float]:
    """The final p1 + p2 of a weak pulse 1 from |0>, theta = 0, no pulse 2 and no chirp, and its first-order value."""
    scenario = Scenario(params=SystemParams(theta=0.0), drive=DriveConfig(g01=g01, g02=0.0),
                        initial_state=ground_state())
    final = integrate(scenario).samples[-1].record
    params, tau = scenario.params, scenario.drive.tau
    dark = (math.sqrt(params.gamma01) - math.sqrt(params.gamma02)) ** 2 / (params.gamma01 + params.gamma02)
    return final.p1 + final.p2, math.pi * g01 ** 2 * tau ** 2 * dark


@pytest.mark.parametrize("g01", [1e-2, 1e-3])
def test_trapped_population_is_first_order_perturbation_theory(g01):
    measured, predicted = trapped(g01)
    assert abs(measured - predicted) <= C * g01 ** 2 * predicted


def test_relative_error_shrinks_with_the_square_of_the_field():
    # A tenth of the field gives a hundredth of the relative error (99x here).
    errors = [abs(measured / predicted - 1.0) for measured, predicted in map(trapped, (1e-2, 1e-3))]
    assert errors[0] >= 50.0 * errors[1]
