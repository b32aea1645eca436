"""Two-cell coordinated-multipoint downlink simulator with superposed and
orthogonal access, rate-guaranteed power allocation, and Monte-Carlo sweeps."""

from .allocation import EQUAL_RECEIVED, EQUAL_TRANSMIT
from .channel import RadioParams
from .config import (
    PRESETS,
    ExperimentConfig,
    config_from_dict,
    config_to_dict,
    parse_config,
)
from .errors import ConfigError, SweepError
from .harness import SweepResult, SweepRow, run_sweep
from .scenarios import CS_NOMA, CS_OMA, DPS_NOMA, JT_NOMA, JT_OMA

__version__ = "0.1.0"

__all__ = [
    "ConfigError",
    "EQUAL_RECEIVED", "EQUAL_TRANSMIT", "ExperimentConfig",
    "PRESETS",
    "RadioParams",
    "SweepError", "SweepResult", "SweepRow",
    "config_from_dict", "config_to_dict",
    "parse_config", "run_sweep",
    "CS_NOMA", "CS_OMA", "DPS_NOMA", "JT_NOMA", "JT_OMA",
]
