"""Strong field against exact answers: coincident pulses without decay, and the dark state at θ = 0.

Coincident pulses (t0 = 0) without decay, chirp or static detuning give
H(t) = f(t)·H0, with f the common Gaussian envelope and

    H0 = -g01 (|1><0| + |2><0| + h.c.) - g02 (|3><0| + h.c.).

H at different times commutes, so the state is ρ(t) = U ρ0 U† with
U = exp(-i A(t) H0) and A(t) the envelope's integral from t_start,
τ·√π/2·(erf((t - c)/τ) - erf((t_start - c)/τ)).  H0 couples |0> to the
bright vector (g01, g01, g02)/Ω, Ω = √(2 g01² + g02²), so the run rotates
through an angle of Ω τ √π over the pulse: many Rabi cycles at strong field.
The oracle is written here from that operator statement, not from the
package's generator.

At θ = 0 the doublet's two decay channels interfere fully, and only its
dark superposition, ∝ (√γ02, -√γ01), is undamped.  A converged doublet
block is then that state alone, at any field: purity = p² and
|ρ21| = p·√(γ01γ02)/(γ01 + γ02), with p = p1 + p2.
"""

import math
from dataclasses import replace

import numpy as np
import pytest

from victrap import DriveConfig, Scenario, SystemParams, detect_steady_state, integrate, integrator, preset

# (g01, g02) and the bound on the largest error over every row and all 16
# reals.  Measured: 3.96e-9, 4.07e-8 and 7.45e-8 (pulse areas 9.3, 33 and
# 106 rad); each bound leaves a margin of about 50% over its measurement.
COINCIDENT = [
    pytest.param((0.9, 0.3), 6e-9, id="0.9-0.3"),
    pytest.param((3.0, 2.0), 6e-8, id="3-2"),
    pytest.param((10.0, 5.0), 1.1e-7, id="10-5"),
]

# Packed coherences after the four populations: (re, im) of rho_ij, i > j.
LOWER = [(1, 0), (2, 0), (2, 1), (3, 0), (3, 1), (3, 2)]


def exact_states(scenario: Scenario, times: np.ndarray) -> np.ndarray:
    """The 16 packed reals of U ρ0 U† at each time, for coincident pulses without decay."""
    drive = scenario.drive
    h0 = np.zeros((4, 4))
    h0[[1, 2], 0] = h0[0, [1, 2]] = -drive.g01
    h0[3, 0] = h0[0, 3] = -drive.g02
    w, v = np.linalg.eigh(h0)
    start = math.erf((scenario.t_start - drive.center1) / drive.tau)
    areas = np.array([drive.tau * math.sqrt(math.pi) / 2 * (math.erf((t - drive.center1) / drive.tau) - start)
                      for t in times])
    u = (v * np.exp(-1j * areas[:, None, None] * w)) @ v.T
    rho = u @ scenario.initial_state.matrix @ u.conj().transpose(0, 2, 1)
    coherences = np.stack([rho[:, i, j] for i, j in LOWER], axis=1)
    return np.concatenate((np.diagonal(rho, axis1=1, axis2=2).real, coherences.view(float)), axis=1)


@pytest.mark.parametrize("fields, bound", COINCIDENT)
def test_coincident_pulses_without_decay_rotate_the_state_exactly(fields, bound):
    g01, g02 = fields
    scenario = Scenario(params=SystemParams(gamma01=0.0, gamma02=0.0, gamma03=0.0),
                        drive=DriveConfig(g01=g01, g02=g02, t0=0.0))
    assert integrator._Lane(scenario, integrator.sample_times(scenario)).stepper is integrator._DopriLanes
    traj = integrate(scenario)
    error = np.abs(traj.columns[:, integrator._STATE] - exact_states(scenario, traj.times)).max()
    assert error <= bound


def summary_bits(summary) -> str:
    """The summary's fields as exact reprs, but its record, whose eigenvalue a sweep lane may leave NaN."""
    return repr(summary._replace(state=summary.state.matrix.tobytes(), record=None))


def test_converged_doublet_at_full_interference_is_the_dark_state_alone():
    # fig6's chirped base at θ = 0, with g02 = g01/3, as lanes of one
    # lockstep run.  Measured: both relations within 1.4e-16; the bound
    # leaves a margin of 7x.  Each lane's summary is its solo run's bits.
    base = preset("fig6").base
    params = base.params
    scenarios = [replace(base, params=replace(params, theta=0.0), drive=replace(base.drive, g01=g01, g02=g01 / 3))
                 for g01 in (0.9, 3.0, 10.0)]
    dark = math.sqrt(params.gamma01 * params.gamma02) / (params.gamma01 + params.gamma02)
    for scenario, outcome in zip(scenarios, integrator.steady_states(scenarios)):
        assert summary_bits(outcome) == summary_bits(detect_steady_state(integrate(scenario)))
        p = outcome.doublet_population
        assert outcome.converged
        assert abs(outcome.doublet_purity - p * p) <= 1e-15
        assert abs(outcome.abs_coherence_21 - p * dark) <= 1e-15
