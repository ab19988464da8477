import time
from types import SimpleNamespace

import numpy as np
import pytest

from victrap import DensityMatrix, detect_steady_state, integrate, integrate_fixed_step, preset, sweep


def random_density_matrix(rng: np.random.Generator) -> DensityMatrix:
    """Random physical state: positive, unit trace, generically full rank."""
    m = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    rho = m @ m.conj().T
    return DensityMatrix(rho / np.trace(rho).real)


def random_hermitian(rng: np.random.Generator) -> DensityMatrix:
    """Random Hermitian matrix, not necessarily positive or unit trace."""
    m = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    return DensityMatrix((m + m.conj().T) / 2.0)


@pytest.fixture(scope="session")
def fig2_run():
    scenario = preset("fig2")
    start = time.perf_counter()
    traj = integrate(scenario)
    elapsed = time.perf_counter() - start
    steady = detect_steady_state(traj)
    return SimpleNamespace(scenario=scenario, traj=traj, steady=steady, elapsed=elapsed)


@pytest.fixture(scope="session")
def fig4_run():
    scenario = preset("fig4")
    start = time.perf_counter()
    traj = integrate(scenario)
    elapsed = time.perf_counter() - start
    steady = detect_steady_state(traj)
    return SimpleNamespace(scenario=scenario, traj=traj, steady=steady, elapsed=elapsed)


@pytest.fixture(scope="session")
def fig6_result():
    spec = preset("fig6")
    start = time.perf_counter()
    table = sweep(spec)
    elapsed = time.perf_counter() - start
    return SimpleNamespace(spec=spec, table=table, elapsed=elapsed)


@pytest.fixture(scope="session")
def fig2_fixed_run(fig2_run):
    return integrate_fixed_step(fig2_run.scenario, 1e-3)
