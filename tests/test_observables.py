import math
import sys

import numpy as np
import pytest

from victrap import (
    DensityMatrix,
    DriveConfig,
    InvalidParameterError,
    Scenario,
    SystemParams,
    bright_state_overlap,
    dark_state_overlap,
    dark_state_vector,
    doublet_purity,
    initial_metastable,
    integrate,
    maximally_mixed,
    populations,
)
from victrap import observables
from victrap.liouvillian import pack_state
from victrap.observables import observable_record, packed_purity

from conftest import random_density_matrix

PARAMS = SystemParams()


def brute_force_block_purity(rho: DensityMatrix) -> float:
    block = rho.matrix[1:3, 1:3]
    return float(np.trace(block @ block).real)


class TestPopulationsAndCoherence:
    def test_metastable(self):
        assert populations(initial_metastable()) == (0.0, 0.0, 0.0, 1.0)

    def test_maximally_mixed(self):
        assert populations(maximally_mixed()) == (0.25, 0.25, 0.25, 0.25)

    def test_sum_equals_trace(self):
        rng = np.random.default_rng(30)
        rho = random_density_matrix(rng)
        assert sum(populations(rho)) == pytest.approx(np.trace(rho.matrix).real, abs=1e-12)

    def test_diagonal_state_has_no_coherence(self):
        m = maximally_mixed().matrix
        for i in range(4):
            for j in range(4):
                if i != j:
                    assert m[i, j] == 0.0

    def test_conjugate_symmetry(self):
        rng = np.random.default_rng(31)
        m = random_density_matrix(rng).matrix
        for i in range(4):
            for j in range(4):
                if i != j:
                    assert m[i, j] == m[j, i].conjugate()


class TestDoubletPurity:
    def test_empty_block(self):
        assert doublet_purity(initial_metastable()) == 0.0

    def test_fully_occupied_dark_state(self):
        v = dark_state_vector(PARAMS)
        rho = DensityMatrix(np.outer(v, v.conj()))
        assert doublet_purity(rho) == pytest.approx(1.0, abs=1e-14)

    def test_matches_brute_force(self):
        rng = np.random.default_rng(32)
        for _ in range(200):
            rho = random_density_matrix(rng)
            assert doublet_purity(rho) == pytest.approx(
                brute_force_block_purity(rho), abs=1e-14
            )

    def test_bounded_by_block_weight_squared(self):
        rng = np.random.default_rng(33)
        for _ in range(100):
            rho = random_density_matrix(rng)
            _, p1, p2, _ = populations(rho)
            assert doublet_purity(rho) <= (p1 + p2) ** 2 + 1e-12

    def test_rank_one_block_saturates_bound(self):
        v = np.zeros(4, dtype=complex)
        v[1] = 0.6
        v[2] = 0.8j
        m = 0.5 * np.outer(v, v.conj())
        m[0, 0] = 0.5
        rho = DensityMatrix(m)
        _, p1, p2, _ = populations(rho)
        assert doublet_purity(rho) == pytest.approx((p1 + p2) ** 2, abs=1e-14)

    def test_squared_coherence_past_the_float_range_is_inf(self):
        # Python's float power raises OverflowError past the largest |rho21|
        # whose square is finite, sqrt(max float); both purities take inf
        # there, keep every other bit, and stay equal to each other.
        largest = math.sqrt(sys.float_info.max)
        beyond = math.nextafter(largest, math.inf)
        assert math.isfinite(largest ** 2)
        with pytest.raises(OverflowError):
            beyond ** 2
        assert observables._square(largest) == largest ** 2
        assert observables._square(beyond) == math.inf
        for value, expected in ((0.5 * largest, 0.5 + 2.0 * (0.5 * largest) ** 2), (largest, math.inf),
                                (beyond, math.inf)):
            m = np.diag([0.0, 0.5, 0.5, 0.0]).astype(complex)
            m[2, 1] = m[1, 2] = value
            rho = DensityMatrix(m)
            assert doublet_purity(rho) == expected
            # numpy warns where 2 |rho21|^2 overflows, at ``largest``; Python's float product does not.
            with np.errstate(over="ignore"):
                assert packed_purity(pack_state(rho)[None]).tolist() == [expected]


class TestDarkBrightDecomposition:
    def test_dark_state_overlap_is_one(self):
        v = dark_state_vector(PARAMS)
        rho = DensityMatrix(np.outer(v, v.conj()))
        assert dark_state_overlap(rho, PARAMS) == pytest.approx(1.0, abs=1e-14)
        assert bright_state_overlap(rho, PARAMS) == pytest.approx(0.0, abs=1e-14)

    def test_bright_state_is_orthogonal(self):
        total = PARAMS.gamma01 + PARAMS.gamma02
        v = np.zeros(4, dtype=complex)
        v[1] = math.sqrt(PARAMS.gamma01 / total)
        v[2] = math.sqrt(PARAMS.gamma02 / total)
        rho = DensityMatrix(np.outer(v, v.conj()))
        assert dark_state_overlap(rho, PARAMS) == pytest.approx(0.0, abs=1e-14)
        assert bright_state_overlap(rho, PARAMS) == pytest.approx(1.0, abs=1e-14)

    def test_overlaps_partition_block_weight(self):
        rng = np.random.default_rng(34)
        for _ in range(100):
            rho = random_density_matrix(rng)
            _, p1, p2, _ = populations(rho)
            partition = dark_state_overlap(rho, PARAMS) + bright_state_overlap(rho, PARAMS)
            assert partition == pytest.approx(p1 + p2, abs=1e-12)

    def test_zero_rates_rejected(self):
        with pytest.raises(InvalidParameterError):
            dark_state_vector(SystemParams(gamma01=0.0, gamma02=0.0))

    def test_dark_overlap_conserved_without_fields(self):
        # Half dark, half bright in the doublet: the dark part must persist
        # while the bright part decays monotonically.
        vd = dark_state_vector(PARAMS)
        total = PARAMS.gamma01 + PARAMS.gamma02
        vb = np.zeros(4, dtype=complex)
        vb[1] = math.sqrt(PARAMS.gamma01 / total)
        vb[2] = math.sqrt(PARAMS.gamma02 / total)
        rho0 = 0.5 * np.outer(vd, vd.conj()) + 0.5 * np.outer(vb, vb.conj())
        sc = Scenario(
            params=PARAMS,
            drive=DriveConfig(g01=0.0, g02=0.0),
            initial_state=DensityMatrix(rho0),
            t_start=0.0,
            t_end=2.0,
            sample_interval=0.02,
        )
        traj = integrate(sc)
        darks = [dark_state_overlap(s.state, PARAMS) for s in traj.samples]
        brights = [bright_state_overlap(s.state, PARAMS) for s in traj.samples]
        assert max(abs(d - 0.5) for d in darks) < 1e-7
        assert all(b2 <= b1 + 1e-12 for b1, b2 in zip(brights, brights[1:]))
        assert brights[-1] < 1e-6

    def test_fig2_steady_population_is_all_dark(self, fig2_run):
        steady = fig2_run.steady
        overlap = dark_state_overlap(steady.state, PARAMS)
        assert overlap == pytest.approx(steady.doublet_population, abs=1e-3)


@pytest.mark.parametrize("run", ["fig2_run", "fig4_run"])
class TestDarkStateInvariant:
    """At theta = 0, |A> is an eigenvector of the decay generator with rate 0,
    so once the pulses are off (the detunings shift |1> and |2> alike) its
    population is conserved and the surviving doublet block is p_A |A><A|.
    These are exact statements of the algebra, so the tolerances sit at
    rounding level, far below the integrator's error control."""

    def test_dark_population_constant_after_pulses(self, run, request):
        result = request.getfixturevalue(run)
        off = result.scenario.drive.pulses_off_after()
        tail = [s for s in result.traj.samples if s.time >= off]
        assert len(tail) > 1000
        darks = [dark_state_overlap(s.state, PARAMS) for s in tail]
        assert max(darks) - min(darks) <= 1e-12

    def test_steady_block_is_the_dark_projector(self, run, request):
        steady = request.getfixturevalue(run).steady
        p_dark = dark_state_overlap(steady.state, PARAMS)
        assert abs(steady.doublet_purity - p_dark ** 2) <= 1e-12


class TestObservableRecord:
    def test_fields_consistent(self):
        rng = np.random.default_rng(35)
        rho = random_density_matrix(rng)
        rec = observable_record(1.5, rho)
        assert rec.time == 1.5
        assert rec.doublet_population == rec.p1 + rec.p2
        assert rec.c21 == rho.matrix[2, 1]
        assert rec.doublet_purity == pytest.approx(doublet_purity(rho), abs=1e-15)
        assert rec.trace_error < 1e-12
        for value in (rec.p0, rec.p1, rec.p2, rec.p3, rec.doublet_purity):
            assert math.isfinite(value)
