"""Experiment configuration: JSON schema, validation, defaults, presets.

The dataclasses are the schema.  A JSON section's keys are the fields of the
dataclass it builds (``ExperimentConfig`` at the root, ``RadioParams`` under
``radio``, ``PlacementSpec`` under ``placement``; the sweep grid's
``sweep_*`` fields are nested under ``sweep``), each value must have its
field's type, numbers finite, and absent keys take the field's default.
Ranges are the dataclasses' own checks.  Power-like radio fields accept
either a linear milliwatt key or a dBm convenience key (exactly one of the
pair).  Unknown keys anywhere are rejected by name so typos cannot silently
fall back to defaults, and every sweep point's geometry is built once when
an ``ExperimentConfig`` is made, so every config that exists can run.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, fields, is_dataclass
from functools import partial

from .allocation import EQUAL_RECEIVED, EQUAL_TRANSMIT
from .channel import REFERENCE_NOISE_DENSITY_DBM_HZ, REFERENCE_TX_POWER_DBM, RadioParams, dbm_to_mw
from .errors import ConfigError, DomainError, ParseError, ValidationError
from .harness import sweep_values
from .scenarios import PlacementSpec, SweepPoint
from .schemes import CS_NOMA, CS_OMA, DPS_NOMA, JT_NOMA, JT_OMA

ALLOWED_SCHEMES = {
    1: (JT_NOMA, DPS_NOMA, JT_OMA),
    2: (JT_NOMA, CS_NOMA, DPS_NOMA, JT_OMA, CS_OMA),
    3: (JT_NOMA, DPS_NOMA, JT_OMA),
}
DEFAULT_SCHEMES = {
    1: (JT_NOMA, JT_OMA),
    2: (JT_NOMA, CS_NOMA, JT_OMA),
    3: (JT_NOMA, JT_OMA),
}
_REJECTED_SCHEMES = ("CB", "CB-NOMA")
CHOICES = {
    "decode_case": ("case1", "case2", "both"),
    "interference_mode": ("negligible", "full"),
    "jt_split": (EQUAL_RECEIVED, EQUAL_TRANSMIT),
}
# dBm spelling of each power-like radio field: (the field, its reference value in dBm)
_DBM = {
    "tx_power_dbm": ("tx_power_mw", REFERENCE_TX_POWER_DBM),
    "noise_density_dbm_hz": ("noise_density_mw_hz", REFERENCE_NOISE_DENSITY_DBM_HZ),
}


@dataclass(frozen=True)
class ExperimentConfig:
    scenario_id: int
    schemes: tuple[str, ...]
    sweep_start: float = 50.0
    sweep_stop: float = 400.0
    sweep_step: float = 50.0
    trials: int = 50_000
    seed: int = 2026
    decode_case: str = "case1"
    interference_mode: str = "negligible"
    jt_split: str = EQUAL_TRANSMIT
    radio: RadioParams = RadioParams()
    placement: PlacementSpec = PlacementSpec()
    output_path: str | None = None

    def __post_init__(self) -> None:
        scenario = self.scenario_id
        if scenario not in ALLOWED_SCHEMES:
            raise ValidationError(f"scenario_id must be 1, 2 or 3, got {scenario!r}")
        if not self.schemes:
            raise ValidationError("schemes must be a non-empty list")
        for s in self.schemes:
            if s in _REJECTED_SCHEMES:
                raise ConfigError(
                    "coordinated beamforming rejected: single-antenna cells have no spatial "
                    "degrees of freedom to null a co-scheduled superposed user"
                )
            if s not in ALLOWED_SCHEMES[scenario]:
                raise ValidationError(
                    f"scheme {s!r} not available in scenario {scenario}; "
                    f"choose from {ALLOWED_SCHEMES[scenario]}"
                )
        if len(set(self.schemes)) != len(self.schemes):
            raise ValidationError("duplicate scheme in schemes list")
        if self.trials < 1:
            raise ValidationError("trials must be positive")
        if not 0 <= self.seed < 2**64:
            raise ValidationError(f"seed must be in [0, 2**64), got {self.seed}")
        for key, choices in CHOICES.items():
            if getattr(self, key) not in choices:
                raise ValidationError(f"{key} must be one of {choices}, got {getattr(self, key)!r}")
        if self.decode_case != "case1" and scenario != 3:
            raise ValidationError(f"decode_case {self.decode_case!r} applies to scenario 3 only")
        for value in _ranged("sweep", sweep_values, self.sweep_start, self.sweep_stop, self.sweep_step):
            _ranged(f"sweep value {value:g}", SweepPoint, scenario, value, self.radio, self.placement)


def _ranged(where: str, make, *args, **kwargs):
    """make(*args, **kwargs), with a range error it raises re-raised as a
    ValidationError that names where."""
    try:
        return make(*args, **kwargs)
    except (DomainError, OverflowError) as e:
        raise ValidationError(f"{where}: {e}") from e


def _number(v) -> bool:
    return isinstance(v, (int, float)) and not isinstance(v, bool) and -math.inf < v < math.inf


# what a JSON value must be, by the annotation of the field it sets
_KINDS = {
    "int": ("an integer", lambda v: isinstance(v, int) and not isinstance(v, bool)),
    "float": ("a finite number", _number),
    "str": ("a string", lambda v: isinstance(v, str)),
    "str | None": ("a string", lambda v: v is None or isinstance(v, str)),
    "tuple[str, ...]": (
        "a list of strings", lambda v: isinstance(v, (list, tuple)) and all(isinstance(s, str) for s in v)
    ),
    "object": ("an object", lambda v: isinstance(v, dict)),
}


def _schema(cls) -> dict:
    """JSON key -> annotation of each field of cls; a nested dataclass is an object."""
    return {f.name: "object" if is_dataclass(f.default) else f.type for f in fields(cls)}


_CONFIG = _schema(ExperimentConfig)
_SWEEP = {key[len("sweep_"):]: _CONFIG.pop(key) for key in list(_CONFIG) if key.startswith("sweep_")}
_CONFIG["sweep"] = "object"
_RADIO = {**_schema(RadioParams), **dict.fromkeys(_DBM, "float")}
_PLACEMENT = _schema(PlacementSpec)


def _read(d: dict, where: str, schema: dict) -> dict:
    """A copy of JSON object d, each of whose keys is in schema and each of
    whose values is of that key's kind."""
    for key, value in d.items():
        if key not in schema:
            raise ValidationError(f"unknown key {key!r} in {where}")
        what, ok = _KINDS[schema[key]]
        if not ok(value):
            raise ValidationError(f"{where}.{key} must be {what}, got {value!r}")
    return dict(d)


def config_from_dict(data: dict) -> ExperimentConfig:
    if not isinstance(data, dict):
        raise ValidationError("config root must be an object")
    d = _read(data, "config", _CONFIG)
    scenario = d.pop("scenario_id", None)
    schemes = tuple(s.upper() for s in d.pop("schemes", DEFAULT_SCHEMES.get(scenario, ())))
    for key, value in _read(d.pop("sweep", {}), "sweep", _SWEEP).items():
        d[f"sweep_{key}"] = float(value)
    radio = _read(d.pop("radio", {}), "radio", _RADIO)
    for alias, (key, _) in _DBM.items():
        if alias in radio:
            if key in radio:
                raise ValidationError(f"radio: give {key} or {alias}, not both")
            radio[key] = _ranged(f"radio.{alias}", dbm_to_mw, radio.pop(alias))
    placement = _read(d.pop("placement", {}), "placement", _PLACEMENT)
    return ExperimentConfig(
        scenario,
        schemes,
        radio=_ranged("radio", RadioParams, **radio),
        placement=_ranged("placement", PlacementSpec, **placement),
        **d,
    )


def parse_config(path: str) -> ExperimentConfig:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as e:
        raise ParseError(f"cannot read config {path}: {e}") from e
    try:
        data = json.loads(text)
    except json.JSONDecodeError as e:
        raise ParseError(f"{path}:{e.lineno}:{e.colno}: {e.msg}") from e
    return config_from_dict(data)


def config_to_dict(config: ExperimentConfig) -> dict:
    """Canonical dict form; feeding it back through config_from_dict yields an
    equal config (linear radio keys round-trip exactly).  Unset optionals are
    omitted rather than written as null: the schema has no null values."""
    out = {}
    for key, value in asdict(config).items():
        if key.startswith("sweep_"):
            out.setdefault("sweep", {})[key[len("sweep_"):]] = value
        elif value is not None:
            out[key] = value
    out["schemes"] = list(config.schemes)
    return out


def emit_defaults(scenario_id: int = 1) -> dict:
    """Writable starting-point config with the dBm convenience keys."""
    out = config_to_dict(ExperimentConfig(scenario_id, DEFAULT_SCHEMES[scenario_id]))
    for alias, (key, dbm) in _DBM.items():
        del out["radio"][key]
        out["radio"][alias] = dbm
    return {**out, "output_path": None}


PRESETS = {
    "fig4": partial(ExperimentConfig, 1, DEFAULT_SCHEMES[1]),
    "fig5": partial(ExperimentConfig, 2, DEFAULT_SCHEMES[2]),
    "fig6": partial(ExperimentConfig, 3, DEFAULT_SCHEMES[3], decode_case="both"),
}
