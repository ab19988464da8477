"""Four-level master-equation simulator: population trapping in an excited
doublet through interference of its spontaneous-emission channels, driven by
a delayed Gaussian pulse pair with optional tanh-chirped detunings."""

from .drive import DriveSample, drive_sample
from .errors import (
    ConfigError,
    ContractViolationError,
    InsufficientDataError,
    IntegrationError,
    InvalidParameterError,
    PhysicalityError,
    SimulationError,
)
from .experiments import (
    PRESET_NAMES,
    SweepAxis,
    SweepRow,
    SweepSpec,
    SweepTable,
    preset,
    sweep,
)
from .integrator import (
    TRAJECTORY_COLUMNS,
    IntegrationStats,
    SteadySummary,
    Trajectory,
    TrajectorySample,
    detect_steady_state,
    integrate,
    integrate_fixed_step,
)
from .liouvillian import coherent_only, dissipator_only, master_rhs
from .model import (
    CHIRP_BASELINE,
    DensityMatrix,
    DriveConfig,
    ObservableRecord,
    PhysicalityReport,
    Scenario,
    SystemParams,
    coherence_decay_rate,
    cross_damping,
    ground_state,
    initial_metastable,
    maximally_mixed,
    validate_physicality,
)
from .observables import (
    bright_state_overlap,
    dark_state_overlap,
    dark_state_vector,
    doublet_purity,
    populations,
)
from .config import OutputOptions, parse_config, parse_config_full
from .output import (
    TRAJECTORY_CSV_HEADER,
    emit_summary_json,
    emit_sweep_csv,
    emit_sweep_json,
    emit_trajectory_csv,
)

__version__ = "0.1.0"

__all__ = [
    "CHIRP_BASELINE",
    "ConfigError",
    "ContractViolationError",
    "DensityMatrix",
    "DriveConfig",
    "DriveSample",
    "InsufficientDataError",
    "IntegrationError",
    "IntegrationStats",
    "InvalidParameterError",
    "ObservableRecord",
    "OutputOptions",
    "PRESET_NAMES",
    "PhysicalityError",
    "PhysicalityReport",
    "Scenario",
    "SimulationError",
    "SteadySummary",
    "SweepAxis",
    "SweepRow",
    "SweepSpec",
    "SweepTable",
    "TRAJECTORY_COLUMNS",
    "TRAJECTORY_CSV_HEADER",
    "Trajectory",
    "TrajectorySample",
    "SystemParams",
    "bright_state_overlap",
    "coherence_decay_rate",
    "coherent_only",
    "cross_damping",
    "dark_state_overlap",
    "dark_state_vector",
    "detect_steady_state",
    "dissipator_only",
    "doublet_purity",
    "drive_sample",
    "emit_summary_json",
    "emit_sweep_csv",
    "emit_sweep_json",
    "emit_trajectory_csv",
    "ground_state",
    "initial_metastable",
    "integrate",
    "integrate_fixed_step",
    "master_rhs",
    "maximally_mixed",
    "parse_config",
    "parse_config_full",
    "populations",
    "preset",
    "sweep",
    "validate_physicality",
    "__version__",
]
