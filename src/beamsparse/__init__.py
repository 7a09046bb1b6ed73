"""Joint transmit-beampattern matching and sparse antenna selection.

The package synthesizes complex element weights for a uniform linear array
by minimizing a template-matching error regularized with the Shannon
entropy of the element-power distribution, which drives the solution toward
few active elements. The nonconvex problem is solved by consensus splitting
with closed-form block updates and a per-iteration tangent bound of the
entropy term.
"""

from .admm import (
    AdmmState,
    SolverParams,
    Trace,
    converged,
    data_fit_gram,
    initial_state,
    solve,
    solve_weight_system,
    update_alpha,
    update_v,
)
from .arrays import (
    AngleGrid,
    ArrayGeometry,
    SteeringSet,
    beampattern,
    build_steering_set,
    project_unit_sphere,
)
from .config import ExperimentConfig, config_to_dict, load_config, parse_config, serialize_config
from .entropy import POWER_FLOOR, entropy, entropy_gradient, majorizer_diag, majorizer_value
from .errors import (
    BeamsparseError,
    ConfigurationError,
    ContractError,
    DegenerateInputError,
    DivergenceError,
    NumericalError,
)
from .metrics import cardinality, matching_error_db, peak_sidelobe_db
from .runner import RunReport, run_experiment, write_outputs
from .templates import DesiredPattern, MainlobeSpec, build_template

__version__ = "0.1.0"

__all__ = [
    "AdmmState",
    "AngleGrid",
    "ArrayGeometry",
    "BeamsparseError",
    "ConfigurationError",
    "ContractError",
    "DegenerateInputError",
    "DesiredPattern",
    "DivergenceError",
    "ExperimentConfig",
    "MainlobeSpec",
    "NumericalError",
    "POWER_FLOOR",
    "RunReport",
    "SolverParams",
    "SteeringSet",
    "Trace",
    "beampattern",
    "build_steering_set",
    "build_template",
    "cardinality",
    "config_to_dict",
    "converged",
    "data_fit_gram",
    "entropy",
    "entropy_gradient",
    "initial_state",
    "load_config",
    "majorizer_diag",
    "majorizer_value",
    "matching_error_db",
    "parse_config",
    "peak_sidelobe_db",
    "project_unit_sphere",
    "run_experiment",
    "serialize_config",
    "solve",
    "solve_weight_system",
    "update_alpha",
    "update_v",
    "write_outputs",
]
