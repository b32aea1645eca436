"""Two-cell coordinated-multipoint downlink simulator with superposed and
orthogonal access, rate-guaranteed power allocation, and Monte-Carlo sweeps."""

from .allocation import EQUAL_RECEIVED, EQUAL_TRANSMIT
from .channel import RadioParams, dbm_to_mw
from .config import (
    PRESETS,
    ExperimentConfig,
    config_from_dict,
    config_to_dict,
    emit_defaults,
    parse_config,
)
from .errors import (
    ConditionViolation,
    ConfigError,
    DomainError,
    ParseError,
    SweepError,
    ValidationError,
)
from .harness import SweepResult, SweepRow, run_sweep, sweep_values
from .scenarios import PlacementSpec
from .schemes import (
    CS_NOMA,
    CS_OMA,
    DPS_NOMA,
    JT_NOMA,
    JT_OMA,
    validate_jt_conditions,
)

__version__ = "0.1.0"

__all__ = [
    "ConditionViolation", "ConfigError", "DomainError",
    "EQUAL_RECEIVED", "EQUAL_TRANSMIT", "ExperimentConfig",
    "PRESETS", "ParseError", "PlacementSpec",
    "RadioParams",
    "SweepError", "SweepResult", "SweepRow",
    "ValidationError", "config_from_dict", "config_to_dict",
    "dbm_to_mw", "emit_defaults", "parse_config", "run_sweep",
    "sweep_values", "validate_jt_conditions",
    "CS_NOMA", "CS_OMA", "DPS_NOMA", "JT_NOMA", "JT_OMA",
]
