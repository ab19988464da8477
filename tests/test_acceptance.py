"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest -s tests/test_acceptance.py`` to see the line per
criterion; the shared fig2/fig4 runs and the 64-point sweep live in session
fixtures, so the whole suite costs roughly one sweep plus one slow
fixed-step integration.
"""

import math

import numpy as np

from victrap import (
    DensityMatrix,
    DriveConfig,
    Scenario,
    SystemParams,
    initial_metastable,
    integrate,
    master_rhs,
)
from victrap.observables import dark_state_vector


def report(criterion: str, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"{criterion}: {detail}"


def test_criterion_1_fig2_trapping(fig2_run):
    steady = fig2_run.steady
    trapped = steady.doublet_population
    ok = 0.35 <= trapped <= 0.60 and steady.converged and fig2_run.elapsed < 5.0
    report(
        "1 fig2 trapping",
        ok,
        f"steady p1+p2={trapped:.4f} in [0.35, 0.60], converged={steady.converged}, "
        f"runtime={fig2_run.elapsed:.2f}s < 5s",
    )


def test_criterion_2_fig3_residual_coherence(fig2_run):
    pulses_off = fig2_run.scenario.drive.pulses_off_after()
    peak = 0.0
    for sample in fig2_run.traj.samples:
        if sample.time <= pulses_off:
            r = sample.record
            peak = max(peak, abs(r.c10), abs(r.c20), abs(r.c31), abs(r.c32))
    ok = peak > 1e-3
    report(
        "2 fig3 residual coherence",
        ok,
        f"max ground/metastable coherence during pulses={peak:.3e} > 1e-3",
    )


def test_criterion_3_fig4_decoupling(fig4_run):
    r = fig4_run.steady.record
    values = {
        "rho10": abs(r.c10),
        "rho20": abs(r.c20),
        "rho31": abs(r.c31),
        "rho32": abs(r.c32),
    }
    worst = max(values.values())
    ok = worst < 1e-3
    report(
        "3 fig4 decoupling",
        ok,
        "steady " + ", ".join(f"|{k}|={v:.2e}" for k, v in values.items()) + " all < 1e-3",
    )


def test_criterion_4_fig5_vic_coherence(fig4_run):
    value = fig4_run.steady.abs_coherence_21
    ok = value > 0.05
    report("4 fig5 vic coherence", ok, f"steady |rho21|={value:.4f} > 0.05")


def test_criterion_5_fig6_purity_curve(fig6_result):
    rows = fig6_result.table.rows
    thetas = [row.values[0] for row in rows]
    purities = [row.doublet_purity for row in rows]
    max_at_zero = purities[0] == max(purities) and thetas[0] == 0.0
    tail = [p for t, p in zip(thetas, purities) if t >= 0.35]
    tail_ok = all(p < 1e-3 for p in tail)
    ok = max_at_zero and tail_ok and fig6_result.elapsed < 120.0
    report(
        "5 fig6 purity curve",
        ok,
        f"64 points, purity(0)={purities[0]:.4f} is max={max_at_zero}, "
        f"max purity for theta>=0.35 is {max(tail):.2e} < 1e-3, "
        f"runtime={fig6_result.elapsed:.1f}s < 120s",
    )


def test_criterion_6_dark_state_invariance():
    params = SystemParams()
    quiet = DriveConfig(g01=0.0, g02=0.0)
    v = dark_state_vector(params)
    rho = DensityMatrix(np.outer(v, v.conj()))
    flat = float(np.max(np.abs(master_rhs(0.0, rho, params, quiet))))
    tilted = float(
        np.max(np.abs(master_rhs(0.0, rho, SystemParams(theta=0.3), quiet)))
    )
    ok = flat < 1e-12 and tilted >= 1e-12
    report(
        "6 dark-state invariance",
        ok,
        f"max|rhs| at theta=0 is {flat:.2e} < 1e-12; at theta=0.3 it is {tilted:.2e}",
    )


def test_criterion_7_conservation_suite(fig2_run, fig4_run, fig6_result):
    worst_trace = 0.0
    worst_defect = 0.0
    worst_eig = math.inf
    for run in (fig2_run, fig4_run):
        for sample in run.traj.samples:
            worst_trace = max(worst_trace, sample.record.trace_error)
            worst_eig = min(worst_eig, sample.record.min_eigenvalue)
            m = sample.state.matrix
            worst_defect = max(worst_defect, float(np.max(np.abs(m - m.conj().T))))
    sweep_clean = all(row.error is None for row in fig6_result.table.rows)
    ok = worst_trace <= 1e-6 and worst_defect == 0.0 and worst_eig >= -1e-7 and sweep_clean
    report(
        "7 conservation suite",
        ok,
        f"max trace error={worst_trace:.2e} <= 1e-6, hermiticity defect={worst_defect}, "
        f"min eigenvalue={worst_eig:.2e} >= -1e-7, sweep points error-free={sweep_clean}",
    )


def test_criterion_8_analytic_decay_oracle():
    scenario = Scenario(
        params=SystemParams(),
        drive=DriveConfig(g01=0.0, g02=0.0),
        initial_state=initial_metastable(),
        t_start=0.0,
        t_end=60.0,
    )
    traj = integrate(scenario)
    worst = max(
        abs(s.record.p3 - math.exp(-scenario.params.gamma03 * s.time))
        for s in traj.samples
    )
    ok = worst <= 1e-6
    report("8 analytic decay oracle", ok, f"max |rho33 - exp(-0.1 t)|={worst:.2e} <= 1e-6")


def _record_values(record):
    return (
        record.p0, record.p1, record.p2, record.p3,
        record.c10.real, record.c10.imag,
        record.c20.real, record.c20.imag,
        record.c21.real, record.c21.imag,
        record.c30.real, record.c30.imag,
        record.c31.real, record.c31.imag,
        record.c32.real, record.c32.imag,
        record.doublet_purity,
    )


def test_criterion_9_integrator_cross_check(fig2_run, fig2_fixed_run):
    worst = 0.0
    assert len(fig2_run.traj.samples) == len(fig2_fixed_run.samples)
    for a, b in zip(fig2_run.traj.samples, fig2_fixed_run.samples):
        for x, y in zip(_record_values(a.record), _record_values(b.record)):
            worst = max(worst, abs(x - y))
    ok = worst <= 1e-5
    report(
        "9 integrator cross-check",
        ok,
        f"adaptive vs fixed-step (dt=1e-3) max observable difference={worst:.2e} <= 1e-5",
    )


def test_criterion_10_no_vic_decay(fig6_result):
    last = fig6_result.table.rows[-1]
    ok = last.values[0] == math.pi / 2 and last.doublet_population < 0.01
    report(
        "10 no-VIC decay",
        ok,
        f"theta=pi/2 steady p1+p2={last.doublet_population:.2e} < 0.01",
    )
