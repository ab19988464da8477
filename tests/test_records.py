"""The result records: their fields, immutability and value semantics, and which public types are dataclasses."""

import copy
import dataclasses
import inspect

import pytest

import victrap
from victrap import (
    DriveConfig,
    DriveSample,
    IntegrationStats,
    ObservableRecord,
    OutputOptions,
    PhysicalityReport,
    SteadySummary,
    SweepRow,
    SweepTable,
    TrajectorySample,
    drive_sample,
    ground_state,
    validate_physicality,
)
from victrap.observables import observable_record

RECORD_FIELDS = {
    PhysicalityReport: ("trace_error", "min_eigenvalue", "trace_ok", "positive_ok"),
    ObservableRecord: (
        "time", "p0", "p1", "p2", "p3", "c10", "c20", "c21", "c30", "c31", "c32",
        "doublet_purity", "trace_error", "min_eigenvalue",
    ),
    DriveSample: ("g1", "g2", "delta1", "delta2"),
    TrajectorySample: ("time", "state", "record"),
    IntegrationStats: ("steps_accepted", "steps_rejected", "rhs_evaluations", "max_trace_error", "min_eigenvalue"),
    SteadySummary: (
        "converged", "time", "state", "record", "doublet_population", "doublet_purity",
        "abs_coherence_21", "max_delta",
    ),
    SweepRow: ("values", "doublet_population", "doublet_purity", "abs_coherence_21", "converged", "error"),
    SweepTable: ("parameters", "rows"),
    OutputOptions: ("format", "path"),
}
DEFAULTS = {SweepRow: {"error": None}, OutputOptions: {"format": "csv", "path": None}}
DATACLASSES = {"SystemParams", "DriveConfig", "Scenario", "SweepAxis", "SweepSpec", "Trajectory"}


@pytest.fixture(scope="module")
def records(fig2_run):
    row = SweepRow(values=(0.1, 0.3), doublet_population=0.25, doublet_purity=0.5,
                   abs_coherence_21=0.125, converged=True)
    return [
        validate_physicality(ground_state()),
        observable_record(0.0, ground_state()),
        drive_sample(0.0, DriveConfig()),
        fig2_run.traj.samples[-1],
        fig2_run.traj.stats,
        fig2_run.steady,
        row,
        SweepTable(parameters=("theta", "chi1"), rows=(row,)),
        OutputOptions(format="json", path="out.json"),
    ]


@pytest.mark.parametrize("cls", RECORD_FIELDS, ids=lambda cls: cls.__name__)
def test_fields_keep_their_names_order_and_defaults(cls):
    parameters = inspect.signature(cls).parameters.values()
    assert tuple(p.name for p in parameters) == RECORD_FIELDS[cls]
    defaults = {p.name: p.default for p in parameters if p.default is not inspect.Parameter.empty}
    assert defaults == DEFAULTS.get(cls, {})


def test_observable_record_fields_follow_the_trajectory_columns(fig2_run):
    """The integrator fills the record by position, so each field must hold the column of its name."""
    assert ObservableRecord._fields == RECORD_FIELDS[ObservableRecord]
    traj = fig2_run.traj
    record = traj.samples[-1].record
    for name in ObservableRecord._fields:
        if name.startswith("c"):
            pair = "rho" + name[1:]
            expected = complex(traj.column("re_" + pair)[-1], traj.column("im_" + pair)[-1])
        else:
            column = {"time": "t", "min_eigenvalue": "min_eig"}.get(name, name)
            if name.startswith("p"):
                column = "rho" + name[1] * 2
            expected = traj.column(column)[-1]
        assert getattr(record, name) == expected, name


def test_records_are_immutable(records):
    for record in records:
        name = type(record).__name__
        field = RECORD_FIELDS[type(record)][0]
        with pytest.raises(AttributeError):
            setattr(record, field, getattr(record, field))
        assert type(record).__doc__, name


def test_equal_records_compare_and_hash_equal(records):
    for record in records:
        twin = type(record)(**{name: copy.deepcopy(getattr(record, name)) for name in RECORD_FIELDS[type(record)]})
        assert twin is not record
        assert twin == record and not twin != record, type(record).__name__
        assert hash(twin) == hash(record), type(record).__name__
        assert repr(twin) == repr(record)
        assert repr(record).startswith(type(record).__name__ + "(" + RECORD_FIELDS[type(record)][0] + "=")


def test_exactly_the_validating_types_are_dataclasses():
    public = {name: getattr(victrap, name) for name in victrap.__all__}
    assert {name for name, obj in public.items() if inspect.isclass(obj) and dataclasses.is_dataclass(obj)} == DATACLASSES
