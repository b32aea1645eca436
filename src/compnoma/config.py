"""Experiment configuration: JSON schema, validation, defaults, presets.

The dataclasses are the schema, and constructing one checks it, however it is
built.  Each field must be of its annotation's kind (``errors.KINDS``): a bool
is never a number, an int stands for a float, numbers are finite, ``radio``
is a ``RadioParams``, and ``schemes`` is a tuple (a list in JSON).
``ExperimentConfig`` raises ``ValidationError`` naming the key path
(``sweep.step``); ``RadioParams`` raises ``DomainError`` naming the field,
which the reader re-raises as ``radio.bandwidth_hz``.  JSON sections hold
only their dataclass's fields (``sweep_*`` nest under ``sweep``).  The
reader converts, each only on a value of its JSON kind, a scheme list to an
upper-cased tuple, a dBm key to its milliwatt field and a sweep number to a
float; a dBm key is no field, so the reader itself rejects one that is not a
finite number, by its name.  Every sweep point is built at construction, so
any config can run.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, fields
from functools import partial

from . import scenarios
from .allocation import EQUAL_TRANSMIT
from .channel import RadioParams, dbm_to_mw
from .errors import KINDS, ConfigError, DomainError, ParseError, ValidationError, check_kinds, finite_number
from .harness import sweep_values
from .scenarios import CS_NOMA, CS_OMA, DISC, DPS_NOMA, JT_NOMA, JT_OMA, SweepPoint

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
# scenarios' choices, and "both" decode cases: one series per case
CHOICES = {**scenarios.CHOICES, "decode_case": scenarios.CHOICES["decode_case"] + ("both",)}
# dBm spelling of each power-like radio field
_DBM = {"tx_power_dbm": "tx_power_mw", "noise_density_dbm_hz": "noise_density_mw_hz"}


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
    edge_region_law: str = DISC
    radio: RadioParams = RadioParams()

    def __post_init__(self) -> None:
        check_kinds(self, ValidationError, lambda key: key.replace("sweep_", "sweep."))
        scenario = self.scenario_id
        if scenario not in ALLOWED_SCHEMES:
            raise ValidationError(f"scenario_id must be 1, 2 or 3, got {scenario!r}")
        if not self.schemes:
            raise ValidationError("schemes must not be empty")
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
        for value in _ranged("sweep: ", sweep_values, self.sweep_start, self.sweep_stop, self.sweep_step):
            _ranged(f"sweep value {value:g}: ", SweepPoint, scenario, value, self.radio, self.edge_region_law)


def _ranged(where: str, make, *args, **kwargs):
    """make(*args, **kwargs), a range error it raises re-raised as a ValidationError after where."""
    try:
        return make(*args, **kwargs)
    except DomainError as e:
        raise ValidationError(f"{where}{e}") from e


_SWEEP = ("start", "stop", "step")
_CONFIG = {f.name for f in fields(ExperimentConfig)} - {f"sweep_{key}" for key in _SWEEP} | {"sweep"}


def _read(d, where: str, keys) -> dict:
    """A copy of JSON object d, each of whose keys is in keys."""
    if not isinstance(d, dict):
        raise ValidationError(f"{where} must be an object")
    for key in d:
        if key not in keys:
            raise ValidationError(f"unknown key {key!r} in {where}")
    return dict(d)


def config_from_dict(data: dict) -> ExperimentConfig:
    d = _read(data, "config root", _CONFIG)
    scenario = d.pop("scenario_id", None)
    schemes = d.pop("schemes", DEFAULT_SCHEMES.get(scenario, ()) if isinstance(scenario, int) else ())
    if isinstance(schemes, list) and all(isinstance(s, str) for s in schemes):
        schemes = tuple(s.upper() for s in schemes)
    for key, value in _read(d.pop("sweep", {}), "sweep", _SWEEP).items():
        d[f"sweep_{key}"] = float(value) if finite_number(value) else value
    radio = _read(d.pop("radio", {}), "radio", {f.name for f in fields(RadioParams)} | set(_DBM))
    for alias, key in _DBM.items():
        if alias in radio:
            if key in radio:
                raise ValidationError(f"radio: give {key} or {alias}, not both")
            value = radio.pop(alias)
            if not finite_number(value):
                raise ValidationError(f"radio.{alias} must be {KINDS['float'][0]}, got {value!r}")
            radio[key] = _ranged(f"radio.{alias}: ", dbm_to_mw, value)
    return ExperimentConfig(scenario, schemes, radio=_ranged("radio.", RadioParams, **radio), **d)


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
    equal config (linear radio keys round-trip exactly)."""
    out = {}
    for key, value in asdict(config).items():
        if key.startswith("sweep_"):
            out.setdefault("sweep", {})[key[len("sweep_"):]] = value
        else:
            out[key] = value
    out["schemes"] = list(config.schemes)
    return out


PRESETS = {
    "fig4": partial(ExperimentConfig, 1, DEFAULT_SCHEMES[1]),
    "fig5": partial(ExperimentConfig, 2, DEFAULT_SCHEMES[2]),
    "fig6": partial(ExperimentConfig, 3, DEFAULT_SCHEMES[3], decode_case="both"),
}
