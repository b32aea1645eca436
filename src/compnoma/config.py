"""Experiment configuration: JSON schema, validation, defaults, presets.

The dataclasses are the schema, and constructing one checks it, however it is
built.  Each field must be of its annotation's kind (``errors.KINDS``): a bool
is never a number, an int stands for a float, numbers are finite, ``radio``
is a ``RadioParams``, and ``schemes`` is a tuple (a list in JSON).
Every rejection is a ``ConfigError``: ``ExperimentConfig`` names the key
(``trials``), ``RadioParams`` names the field, which the reader re-raises
as ``radio.sic_tolerance``, and ``parse_config`` names the file.  JSON
sections hold only their dataclass's fields, each key once, so every key
names one field.  The reader converts a list of scheme names to a tuple of
the names as written.  Every run sweeps ``scenarios.SWEEP_M``, and each of
its points is built at construction, so any config can run.  No setting
picks JT-NOMA's decode case: scenario 3 always reports both
(``scenarios.decode_cases``).  So each preset, named for the paper figure
it reproduces, is its scenario's defaults.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, fields
from functools import partial

from .allocation import EQUAL_TRANSMIT
from .channel import RadioParams
from .errors import ConfigError, check_kinds
from .scenarios import CHOICES, CS_NOMA, CS_OMA, DPS_NOMA, JT_NOMA, JT_OMA, SWEEP_M, SweepPoint

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


@dataclass(frozen=True)
class ExperimentConfig:
    scenario_id: int
    schemes: tuple[str, ...]
    trials: int = 50_000
    seed: int = 2026
    interference_mode: str = "negligible"
    jt_split: str = EQUAL_TRANSMIT
    radio: RadioParams = RadioParams()

    def __post_init__(self) -> None:
        check_kinds(self)
        scenario = self.scenario_id
        if scenario not in ALLOWED_SCHEMES:
            raise ConfigError(f"scenario_id must be 1, 2 or 3, got {scenario!r}")
        if not self.schemes:
            raise ConfigError("schemes must not be empty")
        for s in self.schemes:
            if s in _REJECTED_SCHEMES:
                raise ConfigError(
                    "coordinated beamforming rejected: single-antenna cells have no spatial "
                    "degrees of freedom to null a co-scheduled superposed user"
                )
            if s not in ALLOWED_SCHEMES[scenario]:
                raise ConfigError(
                    f"scheme {s!r} not available in scenario {scenario}; "
                    f"choose from {ALLOWED_SCHEMES[scenario]}"
                )
        if len(set(self.schemes)) != len(self.schemes):
            raise ConfigError("duplicate scheme in schemes list")
        if self.trials < 1:
            raise ConfigError("trials must be positive")
        if not 0 <= self.seed < 2**64:
            raise ConfigError(f"seed must be in [0, 2**64), got {self.seed}")
        for key, choices in CHOICES.items():
            if getattr(self, key) not in choices:
                raise ConfigError(f"{key} must be one of {choices}, got {getattr(self, key)!r}")
        for value in SWEEP_M:
            _ranged(f"sweep value {value:g}: ", SweepPoint, scenario, value, self.radio)


def _ranged(where: str, make, *args, **kwargs):
    """make(*args, **kwargs), a ConfigError it raises re-raised with where before its message."""
    try:
        return make(*args, **kwargs)
    except ConfigError as e:
        raise ConfigError(f"{where}{e}") from e


_CONFIG = {f.name for f in fields(ExperimentConfig)}


def _read(d, where: str, keys) -> dict:
    """A copy of JSON object d, each of whose keys is in keys."""
    if not isinstance(d, dict):
        raise ConfigError(f"{where} must be an object")
    for key in d:
        if key not in keys:
            raise ConfigError(f"unknown key {key!r} in {where}")
    return dict(d)


def config_from_dict(data: dict) -> ExperimentConfig:
    d = _read(data, "config root", _CONFIG)
    scenario = d.pop("scenario_id", None)
    schemes = d.pop("schemes", DEFAULT_SCHEMES.get(scenario, ()) if isinstance(scenario, int) else ())
    if isinstance(schemes, list) and all(isinstance(s, str) for s in schemes):
        schemes = tuple(schemes)
    radio = _read(d.pop("radio", {}), "radio", {f.name for f in fields(RadioParams)})
    return ExperimentConfig(scenario, schemes, radio=_ranged("radio.", RadioParams, **radio), **d)


def parse_config(path: str) -> ExperimentConfig:
    def unique(pairs: list) -> dict:  # json.loads alone keeps the last of duplicate keys
        d = {}
        for key, value in pairs:
            if key in d:
                raise ConfigError(f"{path}: duplicate key {key!r}")
            d[key] = value
        return d

    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as e:
        raise ConfigError(f"cannot read config {path}: {e}") from e
    try:
        data = json.loads(text, object_pairs_hook=unique)
    except json.JSONDecodeError as e:
        raise ConfigError(f"{path}:{e.lineno}:{e.colno}: {e.msg}") from e
    except RecursionError as e:  # the decoder recurses once per nested array or object
        raise ConfigError(f"{path}: nested too deeply to parse") from e
    return config_from_dict(data)


def config_to_dict(config: ExperimentConfig) -> dict:
    """Canonical dict form; feeding it back through config_from_dict yields an
    equal config (radio keys, in mW, round-trip exactly)."""
    return {**asdict(config), "schemes": list(config.schemes)}


PRESETS = {
    "fig4": partial(ExperimentConfig, 1, DEFAULT_SCHEMES[1]),
    "fig5": partial(ExperimentConfig, 2, DEFAULT_SCHEMES[2]),
    "fig6": partial(ExperimentConfig, 3, DEFAULT_SCHEMES[3]),
}
