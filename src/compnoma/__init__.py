"""Two-cell coordinated-multipoint downlink simulator with superposed and
orthogonal access, rate-guaranteed power allocation, and Monte-Carlo sweeps."""

from .allocation import (
    EQUAL_RECEIVED,
    EQUAL_TRANSMIT,
    AllocationProblem,
    OracleResult,
    allocate_jt,
    allocate_single_cell,
    brute_force_oracle,
)
from .channel import (
    ChannelRealization,
    RadioParams,
    normalized_gain,
)
from .config import (
    PRESETS,
    ExperimentConfig,
    config_from_dict,
    config_to_dict,
    emit_defaults,
    parse_config,
)
from .core import (
    Band,
    NomaCluster,
    PowerAllocation,
    comp_user_rate_jt,
    noncomp_user_rate,
    sic_feasible,
    sum_rate_single_cell,
    user_rate_single_cell,
)
from .errors import (
    ConditionViolation,
    ConfigError,
    DomainError,
    ParseError,
    SweepError,
    ValidationError,
)
from .harness import SweepResult, SweepRow, run_sweep, substream, sweep_values
from .scenarios import REFERENCE_RADIO, PlacementSpec
from .schemes import (
    CS_NOMA,
    CS_OMA,
    DPS_NOMA,
    JT_NOMA,
    JT_OMA,
    dps_select_cell,
    reject_cb,
    validate_jt_conditions,
)
from .units import dbm_to_mw

__version__ = "0.1.0"

__all__ = [
    "AllocationProblem", "Band", "ChannelRealization",
    "ConditionViolation", "ConfigError", "DomainError",
    "EQUAL_RECEIVED", "EQUAL_TRANSMIT", "ExperimentConfig",
    "NomaCluster", "OracleResult",
    "PRESETS", "ParseError", "PlacementSpec", "PowerAllocation",
    "REFERENCE_RADIO", "RadioParams",
    "SweepError", "SweepResult", "SweepRow",
    "ValidationError", "allocate_jt", "allocate_single_cell",
    "brute_force_oracle",
    "comp_user_rate_jt", "config_from_dict", "config_to_dict",
    "dbm_to_mw", "dps_select_cell",
    "emit_defaults", "noncomp_user_rate",
    "normalized_gain", "parse_config", "reject_cb", "run_sweep",
    "sic_feasible", "substream",
    "sum_rate_single_cell", "sweep_values", "user_rate_single_cell",
    "validate_jt_conditions", "CS_NOMA", "CS_OMA", "DPS_NOMA", "JT_NOMA",
    "JT_OMA",
]
