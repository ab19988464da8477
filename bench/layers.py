"""Traced in-process run: the per-layer metrics of one workload.

The run calls victrap's public functions in the order the CLI calls them and
records a span around each call from here; victrap's namespaces are never
patched.  Exact counters come from the program's own statistics; per-call
costs come from replaying the hot leaf functions on the run's recorded
``(t, y)`` samples.  A public function that no longer exists turns the
metrics that need it into null instead of stopping the run.

Every time below is speed-adjusted like the end-to-end timings (see
refkernel.py), except ``machine.raw_wall_s``.
"""

from __future__ import annotations

import importlib
import io
import json
import statistics
import time
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass
from pathlib import Path

from refkernel import Speed
from session import Session

PER_LAYER = (
    ("cli.python_start_s", "s"),
    ("cli.numpy_import_s", "s"),
    ("cli.victrap_import_s", "s"),
    ("config.parse_ms", "ms"),
    ("drive.eval_us", "us"),
    ("liouvillian.rhs_us", "us"),
    ("liouvillian.rhs_calls", "count"),
    ("liouvillian.rhs_share", "fraction"),
    ("integrator.integrate_s", "s"),
    ("integrator.steps_accepted", "count"),
    ("integrator.steps_rejected", "count"),
    ("integrator.accept_ratio", "fraction"),
    ("integrator.step_overhead_us", "us"),
    ("integrator.samples", "count"),
    ("integrator.steady_ms", "ms"),
    ("observables.record_us", "us"),
    ("observables.record_share", "fraction"),
    ("model.physicality_us", "us"),
    ("experiments.points", "count"),
    ("experiments.flagged_points", "count"),
    ("experiments.point_ms_p50", "ms"),
    ("experiments.sweep_s", "s"),
    ("experiments.overhead_frac", "fraction"),
    ("output.bytes", "bytes"),
    ("output.emit_ms", "ms"),
    ("output.mb_per_s", "MB/s"),
    ("machine.ref_s", "s"),
    ("machine.raw_wall_s", "s"),
    ("trace.overhead_frac", "fraction"),
    ("trace.unaccounted_frac", "fraction"),
)

IMPORT_REPS = 5      # children per import-timing probe
CLI_REPS = 3         # CLI invocations beside the traced run
REPLAY_ROUNDS = 3    # timed rounds per replayed leaf function
REPLAY_MIN_CALLS = 2000


class Missing(Exception):
    """A public victrap function a metric needs does not exist."""


class Api:
    """Resolves victrap's public functions by dotted name, e.g. ``"integrator.integrate"``.

    ``hidden`` names are treated as absent, which lets a test check the
    null path without touching victrap.
    """

    def __init__(self, hidden: frozenset[str] = frozenset()):
        self.hidden = hidden

    def __getitem__(self, dotted: str):
        module, _, attr = dotted.rpartition(".")
        if dotted in self.hidden:
            raise Missing(dotted)
        try:
            obj = getattr(importlib.import_module(f"victrap.{module}"), attr, None)
        except ImportError:
            obj = None
        if obj is None:
            raise Missing(dotted)
        return obj


@dataclass(frozen=True)
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    run: int

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Tracer:
    """Keeps spans in memory; ``write`` saves them as JSON lines at the end."""

    def __init__(self) -> None:
        self.spans: list[Span | None] = []
        self._open: list[int] = []
        self.run = 0

    @contextmanager
    def span(self, name: str):
        index = len(self.spans)
        parent = self._open[-1] if self._open else None
        self.spans.append(None)
        self._open.append(index)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._open.pop()
            self.spans[index] = Span(name, start, end, parent, self.run)

    def of_run(self, run: int) -> list[Span]:
        return [s for s in self.spans if s is not None and s.run == run]

    def total(self, name: str, run: int) -> float:
        return sum(s.seconds for s in self.of_run(run) if s.name == name)

    def all(self, name: str, run: int) -> list[float]:
        return [s.seconds for s in self.of_run(run) if s.name == name]

    def unaccounted_frac(self, run: int) -> float:
        """Share of the run's root span that none of its direct child spans covers."""
        root = next(i for i, s in enumerate(self.spans) if s is not None and s.run == run and s.parent is None)
        covered = sum(s.seconds for s in self.of_run(run) if s.parent == root)
        return 1.0 - covered / self.spans[root].seconds

    def write(self, path: Path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for i, s in enumerate(self.spans):
                if s is not None:
                    handle.write(json.dumps({"id": i, "name": s.name, "start": s.start, "end": s.end,
                                             "parent": s.parent, "run": s.run}) + "\n")


class _Untraced:
    run = 0

    def span(self, name: str):
        return nullcontext()


@dataclass
class Pass:
    """What one pass of the CLI's call sequence produced."""

    output: str
    job: object
    trajectories: list
    table: object = None


def cli_pass(api: Api, kind: str, config_text: str, tracer) -> Pass:
    """The calls the CLI makes for this workload, in its order, with a span around each."""
    parse = api["config.parse_config_full"]
    span = tracer.span
    sink = io.StringIO()
    if kind == "sweep_csv":
        sweep, emit = api["experiments.sweep"], api["output.emit_sweep_csv"]
        with span("cli.sweep"):
            with span("config.parse_config_full"):
                job, _ = parse(config_text)
            with span("experiments.sweep"):
                table = sweep(job, max_workers=1)
            with span("output.emit_sweep_csv"):
                emit(table, sink)
        return Pass(sink.getvalue(), job, [], table)
    integrate, steady = api["integrator.integrate"], api["integrator.detect_steady_state"]
    emit_name = "output.emit_trajectory_csv" if kind == "trajectory_csv" else "output.emit_summary_json"
    emit = api[emit_name]
    with span("cli.run"):
        with span("config.parse_config_full"):
            job, _ = parse(config_text)
        with span("integrator.integrate"):
            traj = integrate(job)
        with span("integrator.detect_steady_state"):
            traj = traj.with_steady(steady(traj))
        with span(emit_name):
            if kind == "trajectory_csv":
                emit(traj, sink)
            else:
                emit(traj.steady, sink, traj.stats)
    return Pass(sink.getvalue(), job, [traj])


def sweep_points(api: Api, spec, tracer) -> tuple[list, list, list]:
    """Each sweep grid point on its own, as the sweep runs it, with spans per point.

    Returns the scenario, trajectory and steady-state summary of every point.
    """
    apply_parameter = api["experiments.apply_parameter"]
    integrate, steady = api["integrator.integrate"], api["integrator.detect_steady_state"]
    scenarios, trajectories, steadies = [], [], []
    for point in spec.grid():
        scenario = spec.base
        for name, value in zip(spec.parameters, point):
            scenario = apply_parameter(scenario, name, value)
        with tracer.span("experiments.point"):
            with tracer.span("integrator.integrate"):
                traj = integrate(scenario)
            with tracer.span("integrator.detect_steady_state"):
                summary = steady(traj)
        scenarios.append(scenario)
        trajectories.append(traj)
        steadies.append(summary)
    return scenarios, trajectories, steadies


def _row_bits(values) -> tuple:
    return tuple(repr(v) for v in values)


def rows_match(table_a, table_b) -> bool:
    """Sweep rows equal bit for bit (repr keeps every digit and NaN)."""
    def key(row):
        return _row_bits(row.values) + _row_bits((row.doublet_population, row.doublet_purity,
                                                  row.abs_coherence_21, row.converged, row.error))
    return [key(r) for r in table_a.rows] == [key(r) for r in table_b.rows]


def exact_counts(api: Api, kind: str, config_text: str) -> dict:
    """Deterministic counters of one untimed pass: steps, RHS evaluations, samples, points, bytes."""
    result = cli_pass(api, kind, config_text, _Untraced())
    trajectories = result.trajectories
    if result.table is not None:
        _, trajectories, _ = sweep_points(api, result.job, _Untraced())
    return {
        "steps_accepted": sum(t.stats.steps_accepted for t in trajectories),
        "steps_rejected": sum(t.stats.steps_rejected for t in trajectories),
        "rhs_evaluations": sum(t.stats.rhs_evaluations for t in trajectories),
        "samples": sum(len(t.samples) for t in trajectories),
        "points": len(result.table.rows) if result.table is not None else 1,
        "bytes": len(result.output.encode("utf-8")),
    }


def _replay_us(speed: Speed, call, inputs: list) -> float:
    """Median speed-adjusted microseconds per call over a few rounds of ``call(*args)``."""
    reps = max(1, -(-REPLAY_MIN_CALLS // len(inputs)))
    per_call = []
    for _ in range(REPLAY_ROUNDS):
        start = time.perf_counter()
        for _ in range(reps):
            for args in inputs:
                call(*args)
        per_call.append(speed.adjust(time.perf_counter() - start) / (reps * len(inputs)))
    return statistics.median(per_call) * 1e6


def _leaf_costs(api: Api, speed: Speed, runs: list, metrics: dict) -> None:
    """Replay the hot leaf functions on the recorded samples of ``runs`` (scenario, trajectory)."""
    def layer(names, compute):
        try:
            values = compute()
        except Missing:
            return
        metrics.update(zip(names, values))

    def recorded():
        pack = api["liouvillian.pack_state"]
        return [(scenario, s.time, pack(s.state), s.state) for scenario, traj in runs for s in traj.samples]

    def drive():
        drive_sample = api["drive.drive_sample"]
        return (_replay_us(speed, drive_sample, [(s.time, sc.drive) for sc, traj in runs for s in traj.samples]),)

    def rhs():
        make = api["liouvillian.make_packed_rhs"]
        samples = recorded()
        fns = {id(sc): make(sc.params, sc.drive) for sc, _ in runs}
        return (_replay_us(speed, lambda sc, t, y: fns[id(sc)](t, y), [(sc, t, y) for sc, t, y, _ in samples]),)

    def record():
        record_fn, density, unpack = (api["observables.observable_record"], api["model.DensityMatrix"],
                                      api["liouvillian.unpack_state"])
        inputs = [(t, y, sc.trace_tol, sc.pos_tol) for sc, t, y, _ in recorded()]
        return (_replay_us(speed, lambda t, y, tt, pt: record_fn(t, density(unpack(y)), tt, pt), inputs),)

    def physicality():
        validate = api["model.validate_physicality"]
        inputs = [(state, sc.trace_tol, sc.pos_tol) for sc, _, _, state in recorded()]
        return (_replay_us(speed, validate, inputs),)

    layer(("drive.eval_us",), drive)
    layer(("liouvillian.rhs_us",), rhs)
    layer(("observables.record_us",), record)
    layer(("model.physicality_us",), physicality)


def _import_times(session: Session, speed: Speed, metrics: dict) -> None:
    """Start-up split measured from outside: bare interpreter, + numpy, + victrap.cli."""
    probes = {"start": "pass", "numpy": "import numpy", "victrap": "import victrap.cli"}
    times = {key: [] for key in probes}
    for _ in range(IMPORT_REPS):
        for key, code in probes.items():
            run = session.python(code)
            times[key].append(speed.adjust(run.raw_s) if run.exit_code == 0 else None)
    med = {k: statistics.median(v) if None not in v else None for k, v in times.items()}
    metrics["cli.python_start_s"] = med["start"]
    if med["numpy"] is not None and med["start"] is not None:
        metrics["cli.numpy_import_s"] = med["numpy"] - med["start"]
    if med["victrap"] is not None and med["numpy"] is not None:
        metrics["cli.victrap_import_s"] = med["victrap"] - med["numpy"]


def run_trace(session: Session, seconds: float, spans_path: Path, api: Api | None = None) -> dict:
    """Per-layer metrics for the session's workload; returns {name: value or None}.

    The start-up probes, the CLI invocations and the in-process passes
    share one budget of ``seconds``; at least two passes always run.
    """
    api = api or Api()
    workload = session.workload
    metrics: dict = {name: None for name, _ in PER_LAYER}
    deadline = time.perf_counter() + seconds
    speed = Speed()

    _import_times(session, speed, metrics)
    cli_raw = []
    for _ in range(CLI_REPS):
        cli_raw.append(session.invoke().raw_s)
        speed.adjust(cli_raw[-1])
    metrics["machine.raw_wall_s"] = statistics.median(cli_raw)

    tracer = Tracer()
    try:
        traced, untraced, factors, last = [], [], [], None
        while time.perf_counter() < deadline or len(traced) < 2:
            start = time.perf_counter()
            cli_pass(api, workload.kind, workload.config, _Untraced())
            untraced.append(speed.adjust(time.perf_counter() - start))
            start = time.perf_counter()
            last = cli_pass(api, workload.kind, workload.config, tracer)
            raw = time.perf_counter() - start
            traced.append(speed.adjust(raw))
            factors.append(traced[-1] / raw)
            session.tally([] if last.output.encode("utf-8") == session.first_output
                          else ["traced output bytes differ from the CLI output"])
            tracer.run += 1
    except Missing:
        last = None
    if last is not None:
        _pipeline_metrics(api, session, speed, tracer, last, traced, untraced, factors, metrics)
    metrics["machine.ref_s"] = speed.ref_median()
    spans_path.parent.mkdir(parents=True, exist_ok=True)
    tracer.write(spans_path)
    return metrics


def _pipeline_metrics(api, session, speed, tracer, last, traced, untraced, factors, metrics) -> None:
    workload = session.workload
    runs = range(tracer.run)

    def med_span(name):
        return statistics.median(tracer.total(name, r) * factors[r] for r in runs)

    metrics["trace.overhead_frac"] = statistics.median(traced) / statistics.median(untraced) - 1.0
    metrics["trace.unaccounted_frac"] = statistics.median(tracer.unaccounted_frac(r) for r in runs)
    metrics["config.parse_ms"] = med_span("config.parse_config_full") * 1e3
    emit_name = next(s.name for s in tracer.of_run(0) if s.name.startswith("output."))
    emit_s = med_span(emit_name)
    n_bytes = len(last.output.encode("utf-8"))
    metrics["output.bytes"] = n_bytes
    metrics["output.emit_ms"] = emit_s * 1e3
    metrics["output.mb_per_s"] = n_bytes / 1e6 / emit_s

    if last.table is not None:
        # Points one by one, timed like the sweep runs them, then the
        # determinism guard: the threaded sweep must give the same bits.
        point_tracer = Tracer()
        start = time.perf_counter()
        scenarios, trajectories, steadies = sweep_points(api, last.job, point_tracer)
        raw = time.perf_counter() - start
        factor = speed.adjust(raw) / raw
        durations = sorted(point_tracer.all("experiments.point", 0))
        sweep_s = med_span("experiments.sweep")
        integrate_s = point_tracer.total("integrator.integrate", 0) * factor
        steady_each = [d * factor for d in point_tracer.all("integrator.detect_steady_state", 0)]
        metrics["experiments.points"] = len(last.table.rows)
        metrics["experiments.flagged_points"] = sum(1 for r in last.table.rows if not r.converged)
        metrics["experiments.point_ms_p50"] = statistics.median(durations) * factor * 1e3
        metrics["experiments.sweep_s"] = sweep_s
        metrics["experiments.overhead_frac"] = 1.0 - sum(durations) * factor / sweep_s
        same_points = all(
            (repr(s.doublet_population), repr(s.doublet_purity), s.converged)
            == (repr(r.doublet_population), repr(r.doublet_purity), r.converged)
            for s, r in zip(steadies, last.table.rows)
        )
        threaded = api["experiments.sweep"](last.job, max_workers=2)
        serial = api["experiments.sweep"](last.job, max_workers=1)
        session.tally([] if same_points and rows_match(threaded, serial) and rows_match(serial, last.table)
                      else ["sweep rows depend on max_workers or differ from the per-point runs"])
        replay_runs = list(zip(scenarios, trajectories))
    else:
        for name in ("experiments.points", "experiments.flagged_points"):
            metrics[name] = 0
        for name in ("experiments.point_ms_p50", "experiments.sweep_s", "experiments.overhead_frac"):
            metrics[name] = 0.0
        trajectories = last.trajectories
        integrate_s = med_span("integrator.integrate")
        steady_each = [tracer.total("integrator.detect_steady_state", r) * factors[r] for r in runs]
        replay_runs = [(last.job, trajectories[0])]

    accepted = sum(t.stats.steps_accepted for t in trajectories)
    rejected = sum(t.stats.steps_rejected for t in trajectories)
    rhs_calls = sum(t.stats.rhs_evaluations for t in trajectories)
    samples = sum(len(t.samples) for t in trajectories)
    metrics.update({
        "integrator.integrate_s": integrate_s,
        "integrator.steps_accepted": accepted,
        "integrator.steps_rejected": rejected,
        "integrator.accept_ratio": accepted / (accepted + rejected),
        "integrator.samples": samples,
        "integrator.steady_ms": statistics.median(steady_each) * 1e3,
        "liouvillian.rhs_calls": rhs_calls,
    })

    _leaf_costs(api, speed, replay_runs, metrics)
    rhs_us, record_us = metrics["liouvillian.rhs_us"], metrics["observables.record_us"]
    if rhs_us is not None:
        metrics["liouvillian.rhs_share"] = rhs_calls * rhs_us * 1e-6 / integrate_s
    if record_us is not None:
        metrics["observables.record_share"] = samples * record_us * 1e-6 / integrate_s
    if rhs_us is not None and record_us is not None:
        metrics["integrator.step_overhead_us"] = (
            (integrate_s - rhs_calls * rhs_us * 1e-6 - samples * record_us * 1e-6)
            / (accepted + rejected) * 1e6
        )
