"""The column store of a trajectory against the scalar observable API."""

import io
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from victrap import (
    TRAJECTORY_CSV_HEADER,
    DensityMatrix,
    InsufficientDataError,
    IntegrationError,
    PhysicalityError,
    Scenario,
    emit_trajectory_csv,
    integrate,
    integrate_fixed_step,
    preset,
)
from victrap import integrator, observables
from victrap.integrator import TRAJECTORY_COLUMNS
from victrap.liouvillian import pack_state, unpack_state
from victrap.observables import observable_record, packed_diagnostics, packed_verdict

BLOCK = 64


def scalar_records(traj):
    """Each row's record as the per-sample scalar path computes it."""
    sc = traj.scenario
    return [
        observable_record(row[0], DensityMatrix(unpack_state(row[1:17])), sc.trace_tol, sc.pos_tol)
        for row in traj.columns
    ]


def record_fields(r):
    """A record's values in trajectory-CSV column order."""
    return [
        r.time, r.p0, r.p1, r.p2, r.p3,
        r.c10.real, r.c10.imag, r.c20.real, r.c20.imag, r.c21.real, r.c21.imag,
        r.c30.real, r.c30.imag, r.c31.real, r.c31.imag, r.c32.real, r.c32.imag,
        r.doublet_purity, r.trace_error, r.min_eigenvalue,
    ]


@pytest.fixture(params=["adaptive", "fixed_step"])
def run(request, fig2_run):
    return fig2_run.traj if request.param == "adaptive" else request.getfixturevalue("fig2_fixed_run")


class TestColumnsMatchScalarPath:
    def test_rows_equal_scalar_records(self, run):
        records = scalar_records(run)
        assert run.columns.shape == (len(records), len(TRAJECTORY_COLUMNS))
        for row, sample, rec in zip(run.columns.tolist(), run.samples, records):
            assert row == record_fields(rec)
            assert sample.record == rec
            assert sample.time == rec.time

    def test_trace_error_and_purity_match_the_matrix_formulas(self, run):
        # Independent of the packed kernels: the trace by np.trace of the
        # unpacked matrix, and the purity in Python floats.
        for row in run.columns:
            m = unpack_state(row[1:17])
            p1, p2 = float(m[1, 1].real), float(m[2, 2].real)
            assert row[-2] == abs(np.trace(m).real - 1.0)
            assert row[-3] == p1 * p1 + p2 * p2 + 2.0 * abs(complex(m[2, 1])) ** 2

    def test_stats_are_the_scalar_extremes(self, run):
        records = scalar_records(run)
        assert run.stats.max_trace_error == max(r.trace_error for r in records)
        assert run.stats.min_eigenvalue == min(r.min_eigenvalue for r in records)

    def test_csv_equals_per_field_formatting(self, run):
        lines = [TRAJECTORY_CSV_HEADER]
        lines += [",".join(repr(float(v)) for v in record_fields(r)) for r in scalar_records(run)]
        sink = io.StringIO()
        emit_trajectory_csv(run, sink)
        assert sink.getvalue() == "\n".join(lines) + "\n"


class TestSampleView:
    def test_views_of_the_rows(self, fig2_run):
        traj = fig2_run.traj
        assert len(traj.samples) == len(traj.columns)
        assert [s.time for s in traj.samples[-3:]] == traj.times[-3:].tolist()
        assert traj.samples[-1].record == traj.samples[len(traj.samples) - 1].record
        assert traj.samples[-1].state == traj.samples[len(traj.samples) - 1].state
        assert np.array_equal(traj.column("rho33"), traj.columns[:, 4])

    def test_columns_are_read_only(self, fig2_run):
        with pytest.raises(ValueError):
            fig2_run.traj.columns[0, 0] = 1.0


@pytest.mark.parametrize("bad", [(62, 66), (66,)], ids=["before_boundary", "after_boundary"])
def test_step_rows_straddling_a_block_boundary(fig2_run, bad):
    # One step's rows 60..69 straddle the 64-row boundary.  They are written
    # up to the boundary and checked before any later row is written, so
    # the first bad row is the error, with its own time, and recording
    # stops at the same point as row-by-row recording.
    traj = fig2_run.traj
    times, samples = traj.times[:70].tolist(), traj.columns[:70, :17].copy()
    samples[list(bad), 1] += 1e-3  # rho00 off by 1e-3 breaks the trace

    def record(chunks):
        recorder = integrator._SampleRecorder(fig2_run.scenario, len(times))
        for start, stop in chunks:
            recorder.record(samples[start:stop])
        recorder.check()
        assert isinstance(recorder.error, PhysicalityError)
        return str(recorder.error), recorder.written

    blockwise = record([(0, 60), (60, 70)])
    assert blockwise == record([(i, i + 1) for i in range(70)])
    assert blockwise[0].endswith(f"at t={times[bad[0]]:g}")
    assert blockwise[1] == (BLOCK if bad[0] < BLOCK else 70)


def states_with_min_eig(min_eigs, seed=0):
    """Packed unit-trace states, each with the given smallest eigenvalue, in a random basis."""
    rng = np.random.default_rng(seed)
    states = []
    for lowest in min_eigs:
        q, _ = np.linalg.qr(rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4)))
        spectrum = np.array((lowest, *(rng.dirichlet((1.0, 1.0, 1.0)) * (1.0 - lowest))))
        rho = (q * spectrum) @ q.conj().T
        states.append(pack_state(DensityMatrix(rho)))
    return np.array(states)


@pytest.mark.parametrize("pos_tol", [1e-7, 1e-12], ids=["default", "smallest_served"])
@pytest.mark.parametrize("edge", [-(1 + 1e-6), -(1 - 1e-6), -0.5, 0.0], ids=["below", "just_above", "half", "zero"])
def test_dropped_rows_get_the_eigenvalue_verdict(monkeypatch, pos_tol, edge):
    # Every row, dropped or kept, is checked by a Cholesky factorisation of
    # rho + (pos_tol/2) I (observables.packed_verdict), one call per 64-row
    # block.  It certifies lambda_min > -pos_tol with a margin of pos_tol/2,
    # at least 50 times its rounding bound of about 8e-15 ||rho|| for
    # pos_tol >= 1e-12; a block it cannot certify falls back to
    # packed_diagnostics.  Row 20 sits at edge * pos_tol, row 40 below
    # -pos_tol: the first bad row, its time and the message are those the
    # exact diagnostics give, wherever a sweep lane's window starts.
    lowest = np.full(64, 0.01)
    lowest[20], lowest[40] = edge * pos_tol, -(1 + 1e-6) * pos_tol
    states = states_with_min_eig(lowest)
    samples = np.column_stack((0.5 * np.arange(64), states))
    exact = packed_diagnostics(states)
    assert exact[20, 2] == pytest.approx(edge * pos_tol, rel=1e-9, abs=1e-15)
    verdict = packed_verdict(states, pos_tol)
    assert np.array_equal(verdict[:, 1], exact[:, 1])
    assert np.array_equal(verdict[:, 2] < -pos_tol, exact[:, 2] < -pos_tol)
    outcomes, calls = [], []

    def counted(states, tol):
        calls.append(len(states))
        return packed_verdict(states, tol)

    monkeypatch.setattr(integrator, "packed_verdict", counted)
    # Every row kept (a trajectory), a window starting between the two bad
    # rows, every row dropped.
    for keep_from in (0, 30, 64):
        recorder = integrator._SampleRecorder(Scenario(pos_tol=pos_tol), 64, keep_from)
        recorder.record(samples)
        recorder.check()
        assert isinstance(recorder.error, PhysicalityError)
        outcomes.append((str(recorder.error), recorder.written))
    assert outcomes[0] == outcomes[1] == outcomes[2]
    assert calls == [64, 64, 64]  # one call per recorder, however its rows split at keep_from
    # At pos_tol = 1e-12, 1e-6 of it is below the rounding of the minimum
    # eigenvalue (a few eps): row 20 "below" or "just above" may then read on
    # either side of -pos_tol; all paths say the same.
    first = int(np.argmax(exact[:, 2] < -pos_tol))
    near = pos_tol == 1e-12 and edge in (-(1 + 1e-6), -(1 - 1e-6))
    assert first in ({20, 40} if near else {20} if edge < -1 else {40})
    assert outcomes[0][0] == f"minimum eigenvalue {exact[first, 2]:.3e} below -{pos_tol:.1e} at t={0.5 * first:g}"


def test_verdict_certifies_physical_blocks_without_eigenvalues():
    # A block whose smallest eigenvalues lie at -pos_tol/4 or above factors:
    # its purity and minimum-eigenvalue columns are left out (NaN).  Below
    # the smallest pos_tol served, the verdict is packed_diagnostics itself.
    states = states_with_min_eig(np.linspace(-2.5e-8, 0.2, 64))
    verdict = packed_verdict(states, 1e-7)
    assert np.isnan(verdict[:, [0, 2]]).all()
    assert np.array_equal(verdict[:, 1], packed_diagnostics(states)[:, 1])
    assert np.array_equal(packed_verdict(states, 1e-13), packed_diagnostics(states))


@st.composite
def states_near_the_margin(draw):
    """A pos_tol and 1-3 packed unit-trace states whose smallest eigenvalues lie within 3 pos_tol of -pos_tol/2."""
    pos_tol = draw(st.sampled_from((1e-12, 1e-9, 1e-7)))
    entries = st.floats(-1.0, 1.0, allow_nan=False)
    states = []
    for _ in range(draw(st.integers(1, 3))):
        z = np.array(draw(st.lists(entries, min_size=32, max_size=32))).view(complex).reshape(4, 4)
        q, r = np.linalg.qr(z + 2.0 * np.eye(4))  # the shift keeps z + 2 I far from singular
        lowest = (draw(st.floats(-3.0, 3.0)) - 0.5) * pos_tol
        weights = np.array(draw(st.lists(st.floats(0.01, 1.0), min_size=3, max_size=3)))
        spectrum = np.array((lowest, *(weights / weights.sum() * (1.0 - lowest))))
        states.append(pack_state(DensityMatrix((q * spectrum) @ q.conj().T)))
    return pos_tol, np.array(states)


@settings(derandomize=True, max_examples=300, deadline=None)
@given(case=states_near_the_margin())
def test_cholesky_certificate_property(case):
    # The gathered embedding is [[Re, -Im], [Im, Re]] of the unpacked
    # matrices exactly (signed zeros aside); a certificate implies that
    # packed_diagnostics finds no minimum eigenvalue below -pos_tol; and the
    # verdict agrees with packed_diagnostics' on every row.
    pos_tol, states = case
    rho = unpack_state(states)
    embedding = np.block([[rho.real, -rho.imag], [rho.imag, rho.real]])
    assert np.array_equal(observables._real_embedding(states), embedding)
    exact = packed_diagnostics(states)
    verdict = packed_verdict(states, pos_tol)
    if np.isnan(verdict[:, 2]).all():
        assert (exact[:, 2] >= -pos_tol).all()
    else:
        assert np.array_equal(verdict, exact)
    assert np.array_equal(verdict[:, 2] < -pos_tol, exact[:, 2] < -pos_tol)


def first_in_block(values, limit, above):
    """First index past ``limit`` (or below -limit) with a later one in its 64-row block, else None."""
    bad = np.flatnonzero(values > limit if above else values < -limit)
    if len(bad) > 1 and bad[0] % BLOCK != BLOCK - 1 and bad[1] // BLOCK == bad[0] // BLOCK:
        return int(bad[0])
    return None


@pytest.mark.parametrize("tol_name, column, above, message", [
    ("pos_tol", "min_eig", False, "minimum eigenvalue {value:.3e} below -{tol:.1e} at t={t:g}"),
    ("trace_tol", "trace_error", True, "trace error {value:.3e} exceeds {tol:.1e} at t={t:g}"),
], ids=["positivity", "trace"])
def test_block_check_reports_first_bad_sample(fig2_run, tol_name, column, above, message):
    # A tiny tolerance whose first violation is not the last row of its
    # block and is followed by another violation in the same block.
    traj = fig2_run.traj
    values = traj.column(column)
    for tol in (1e-18, 1e-17, 3e-17, 1e-16, 3e-16, 1e-15):
        index = first_in_block(values, tol, above)
        if index is not None:
            break
    else:
        pytest.fail(f"no tolerance gives two {column} violations in one block")
    with pytest.raises(PhysicalityError) as info:
        integrate(replace(fig2_run.scenario, **{tol_name: tol}))
    assert str(info.value) == message.format(value=values[index], tol=tol, t=traj.times[index])


@pytest.mark.parametrize("propagate, reach, drive_values", [
    (integrate, 0.4, "drive_coefficients"),
    (lambda sc: integrate_fixed_step(sc, 0.05), 0.1, "drive_generators"),
], ids=["adaptive", "fixed_step"])
def test_bad_sample_reported_before_a_later_stepping_failure(monkeypatch, propagate, reach, drive_values):
    # The drive turns NaN shortly after a bad sample, in the same block: the
    # stepper fails there, and the pending bad sample is reported.  The
    # cutoff lies ``reach`` past the bad sample, beyond the step that
    # computes it: an adaptive step is at most tau/10 = 0.4 long, and the
    # fixed-step run steps sample by sample (its cutoff stays two samples on).
    # ``drive_values`` is the integrator's source of drive values at the
    # stage times: coefficients for the lane stepper, generators for RK4.
    # The bad sample breaks a tiny trace_tol: the fixed-step rows have no
    # minimum eigenvalue below 0 for a tiny pos_tol to catch.
    scenario = replace(preset("fig2"), t_end=-16.0 + 0.05 * 3 * BLOCK)
    good = propagate(scenario)
    values = good.column("trace_error")
    room = math.ceil(reach / scenario.sample_interval) + 1
    for tol in (1e-18, 1e-17, 3e-17, 1e-16):
        index = first_in_block(values, tol, above=True)
        if index is not None and index % BLOCK < BLOCK - room:
            break
    else:
        pytest.fail("no tolerance leaves room for the failure inside the block")
    cutoff = good.times[index] + reach + 0.01
    real = getattr(integrator, drive_values)

    def broken(ts, *args, **kwargs):
        values = real(ts, *args, **kwargs)
        values[np.atleast_1d(ts) > cutoff] = np.nan
        return values

    monkeypatch.setattr(integrator, drive_values, broken)
    with pytest.raises(IntegrationError):
        propagate(scenario)
    with pytest.raises(PhysicalityError, match=f"at t={good.times[index]:g}$"):
        propagate(replace(scenario, trace_tol=tol))


@pytest.mark.parametrize("bad_before", [False, True], ids=["after_good_rows", "after_a_bad_row"])
def test_non_finite_row_is_an_integration_error_unless_a_bad_row_comes_first(fig2_run, bad_before):
    # Row 30 is NaN.  The rows before it are checked as usual: after good
    # rows the NaN row is the error, at its own time; after a row that
    # breaks the trace, that row stays the error.  No diagnostics are
    # computed for the NaN row, which would not converge.
    traj = fig2_run.traj
    samples = traj.columns[:40, :17].copy()
    samples[30, 5] = np.nan
    if bad_before:
        samples[20, 1] += 1e-3
    recorder = integrator._SampleRecorder(fig2_run.scenario, len(samples))
    recorder.record(samples)
    recorder.check()
    if bad_before:
        assert isinstance(recorder.error, PhysicalityError)
        assert str(recorder.error).endswith(f"at t={traj.times[20]:g}")
    else:
        assert isinstance(recorder.error, IntegrationError)
        assert str(recorder.error) == f"non-finite state at t={traj.times[30]:g}"


@pytest.mark.parametrize("keep_from", [0, 64, 100], ids=["all_kept", "block_dropped", "all_dropped"])
@pytest.mark.parametrize("nan_row", [0, 64], ids=["first_row", "block_start"])
def test_non_finite_block_start_in_a_sweep_lane_is_an_integration_error(fig2_run, keep_from, nan_row):
    # A NaN in the first row of a block leaves no row of it to check: the
    # error is the non-finite state, as for a trajectory, whichever rows a
    # sweep lane keeps.
    traj = fig2_run.traj
    samples = traj.columns[:100, :17].copy()
    samples[nan_row, 5] = np.nan
    recorder = integrator._SampleRecorder(fig2_run.scenario, len(samples), keep_from)
    recorder.record(samples)
    recorder.fail("not reached")
    assert isinstance(recorder.error, IntegrationError)
    assert str(recorder.error) == f"non-finite state at t={traj.times[nan_row]:g}"
    assert recorder.written == min(nan_row + BLOCK, len(samples))  # nothing after the NaN row's block


class TestStreamedRows:
    """``stream_trajectory`` hands ``integrate``'s rows to a sink as they are checked and holds only its window."""

    def stream(self, scenario):
        batches = []
        steady, stats = integrator.stream_trajectory(scenario, lambda rows: batches.append(rows.copy()))
        return batches, steady, stats

    def test_rows_summary_and_stats_are_those_of_integrate(self, fig2_run):
        batches, steady, stats = self.stream(fig2_run.scenario)
        assert all(len(batch) >= integrator._FINISH_ROWS for batch in batches[:-1])
        assert np.concatenate(batches).tobytes() == fig2_run.traj.columns.tobytes()
        assert stats == fig2_run.traj.stats
        assert steady._replace(state=None) == fig2_run.steady._replace(state=None)
        assert pack_state(steady.state).tobytes() == pack_state(fig2_run.steady.state).tobytes()

    def test_no_more_jacobi_calls_than_integrate(self, monkeypatch, fig2_run):
        # The kernel costs about 0.5 ms a call however few rows it gets, so
        # rows leave the recorder at least _FINISH_ROWS at a time.
        calls = []
        kernel = observables.packed_min_eigenvalues

        def counted(states):
            calls.append(len(states))
            return kernel(states)

        monkeypatch.setattr(observables, "packed_min_eigenvalues", counted)
        integrate(fig2_run.scenario)
        by_integrate = len(calls)
        self.stream(fig2_run.scenario)
        assert len(calls) - by_integrate == by_integrate == math.ceil(len(fig2_run.traj.columns) / 256)

    def test_window_error_comes_after_the_rows(self):
        # The window holds one sample: every row still reaches the sink.
        scenario = replace(preset("fig2"), sample_interval=30.0)
        batches, steady, stats = self.stream(scenario)
        assert isinstance(steady, InsufficientDataError)
        assert str(steady).startswith("window 5 holds one sample")
        traj = integrate(scenario)
        assert np.concatenate(batches).tobytes() == traj.columns.tobytes()
        assert stats == traj.stats

    def test_recorder_holds_the_window_and_one_batch(self, monkeypatch):
        scenario = replace(preset("fig2"), sample_interval=0.0048)
        grid = integrator.sample_times(scenario)
        window = len(grid) - int(np.searchsorted(grid, integrator._steady_window(scenario, grid)))
        held = []

        class Recorder(integrator._SampleRecorder):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                held.append(len(self.rows))

            def record(self, samples):
                super().record(samples)
                held.append(self.written - self.base)

        monkeypatch.setattr(integrator, "_SampleRecorder", Recorder)
        rows = []
        steady, _ = integrator.stream_trajectory(scenario, lambda batch: rows.append(len(batch)))
        assert len(grid) >= 20_000 and sum(rows) == len(grid)
        assert steady.converged
        assert max(held) <= window + integrator._FINISH_ROWS + integrator._BLOCK < len(grid) / 10
