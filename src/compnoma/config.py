"""Experiment configuration: JSON schema, validation, defaults, presets.

Configs are plain JSON.  Power-like radio fields accept either a linear
milliwatt key or a dBm convenience key (exactly one of the pair).  Unknown
keys anywhere are rejected by name so typos cannot silently fall back to
defaults.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace

from .allocation import EQUAL_RECEIVED, EQUAL_TRANSMIT
from .channel import RadioParams
from .errors import ConfigError, ParseError, ValidationError
from .scenarios import REFERENCE_RADIO, DISC, RING, PlacementSpec
from .schemes import CS_NOMA, CS_OMA, DPS_NOMA, JT_NOMA, JT_OMA
from .units import dbm_to_mw

DEFAULT_SEED = 2026
DEFAULT_TRIALS = 50_000

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
_DEFAULT_SWEEP = (50.0, 400.0, 50.0)
_CASES = ("case1", "case2", "both")
_MODES = ("negligible", "full")
_SPLITS = (EQUAL_RECEIVED, EQUAL_TRANSMIT)
_ONE_TAIL = {
    "edge_region_radius_m": "the sweep sets it",
    "secondary_distance_m": "each cell has one single-cell user",
}
# placement fields each scenario rejects, and why
UNUSED_PLACEMENT = {1: {"primary_distance_m": "the sweep sets it"}, 2: _ONE_TAIL, 3: _ONE_TAIL}


@dataclass(frozen=True)
class ExperimentConfig:
    scenario_id: int
    schemes: tuple[str, ...]
    sweep_start: float
    sweep_stop: float
    sweep_step: float
    trials: int = DEFAULT_TRIALS
    seed: int = DEFAULT_SEED
    decode_case: str = "case1"
    interference_mode: str = "negligible"
    jt_split: str = EQUAL_TRANSMIT
    radio: RadioParams = REFERENCE_RADIO
    placement: PlacementSpec = PlacementSpec()
    output_path: str | None = None


def _reject_unknown(d: dict, known: tuple[str, ...], where: str) -> None:
    for key in d:
        if key not in known:
            raise ValidationError(f"unknown key {key!r} in {where}")


def _num(d: dict, key: str, where: str, default=None, integer=False, positive=False):
    if key not in d:
        return default
    v = d[key]
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        raise ValidationError(f"{where}.{key} must be a number")
    if integer and not isinstance(v, int):
        raise ValidationError(f"{where}.{key} must be an integer")
    if positive and v <= 0:
        raise ValidationError(f"{where}.{key} must be positive")
    return v


def _choice(d: dict, key: str, where: str, choices: tuple[str, ...], default: str):
    v = d.get(key, default)
    if v not in choices:
        raise ValidationError(f"{where}.{key} must be one of {choices}, got {v!r}")
    return v


def _power_field(d: dict, linear_key: str, dbm_key: str, where: str, default_mw: float) -> float:
    if linear_key in d and dbm_key in d:
        raise ValidationError(f"{where}: give {linear_key} or {dbm_key}, not both")
    if linear_key in d:
        return _num(d, linear_key, where, positive=True)
    if dbm_key in d:
        return dbm_to_mw(_num(d, dbm_key, where))
    return default_mw


def _radio_from_dict(d: dict) -> RadioParams:
    _reject_unknown(
        d,
        (
            "tx_power_mw", "tx_power_dbm",
            "noise_density_mw_hz", "noise_density_dbm_hz",
            "bandwidth_hz", "pathloss_exponent", "sic_tolerance",
        ),
        "radio",
    )
    tol = _num(d, "sic_tolerance", "radio", default=REFERENCE_RADIO.sic_tolerance)
    if tol < 0:
        raise ValidationError("radio.sic_tolerance cannot be negative")
    return RadioParams(
        tx_power_mw=_power_field(d, "tx_power_mw", "tx_power_dbm", "radio", REFERENCE_RADIO.tx_power_mw),
        noise_density_mw_hz=_power_field(
            d, "noise_density_mw_hz", "noise_density_dbm_hz", "radio", REFERENCE_RADIO.noise_density_mw_hz
        ),
        bandwidth_hz=_num(d, "bandwidth_hz", "radio", default=REFERENCE_RADIO.bandwidth_hz, positive=True),
        pathloss_exponent=_num(
            d, "pathloss_exponent", "radio", default=REFERENCE_RADIO.pathloss_exponent, positive=True
        ),
        sic_tolerance=tol,
    )


def _placement_from_dict(d: dict) -> PlacementSpec:
    _reject_unknown(
        d,
        (
            "inter_site_m", "coverage_m", "edge_region_radius_m",
            "edge_region_law", "primary_distance_m", "secondary_distance_m",
        ),
        "placement",
    )
    return PlacementSpec(
        inter_site_m=_num(d, "inter_site_m", "placement", default=1000.0, positive=True),
        coverage_m=_num(d, "coverage_m", "placement", default=400.0, positive=True),
        edge_region_radius_m=_num(d, "edge_region_radius_m", "placement", default=None, positive=True),
        edge_region_law=_choice(d, "edge_region_law", "placement", (DISC, RING), DISC),
        primary_distance_m=_num(d, "primary_distance_m", "placement", default=None, positive=True),
        secondary_distance_m=_num(d, "secondary_distance_m", "placement", default=300.0, positive=True),
    )


def config_from_dict(data: dict) -> ExperimentConfig:
    if not isinstance(data, dict):
        raise ValidationError("config root must be an object")
    _reject_unknown(
        data,
        (
            "scenario_id", "schemes", "sweep", "trials", "seed", "decode_case",
            "interference_mode", "jt_split", "radio", "placement", "output_path",
        ),
        "config",
    )
    scenario = _num(data, "scenario_id", "config", integer=True)
    if scenario not in (1, 2, 3):
        raise ValidationError(f"scenario_id must be 1, 2 or 3, got {scenario!r}")

    schemes = data.get("schemes", list(DEFAULT_SCHEMES[scenario]))
    if not isinstance(schemes, (list, tuple)) or not schemes:
        raise ValidationError("schemes must be a non-empty list")
    normalized = tuple(str(s).upper() for s in schemes)
    for s in normalized:
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
    if len(set(normalized)) != len(normalized):
        raise ValidationError("duplicate scheme in schemes list")

    sweep = data.get("sweep", {})
    if not isinstance(sweep, dict):
        raise ValidationError("sweep must be an object with start/stop/step")
    _reject_unknown(sweep, ("start", "stop", "step"), "sweep")
    start = _num(sweep, "start", "sweep", default=_DEFAULT_SWEEP[0], positive=True)
    stop = _num(sweep, "stop", "sweep", default=_DEFAULT_SWEEP[1], positive=True)
    step = _num(sweep, "step", "sweep", default=_DEFAULT_SWEEP[2], positive=True)
    if stop < start:
        raise ValidationError("sweep.stop must not be below sweep.start")

    trials = _num(data, "trials", "config", default=DEFAULT_TRIALS, integer=True, positive=True)
    seed = _num(data, "seed", "config", default=DEFAULT_SEED, integer=True)
    case = _choice(data, "decode_case", "config", _CASES, "case1")
    if case == "both" and scenario != 3:
        raise ValidationError("decode_case 'both' applies to scenario 3 only")
    mode = _choice(data, "interference_mode", "config", _MODES, "negligible")
    split = _choice(data, "jt_split", "config", _SPLITS, EQUAL_TRANSMIT)

    radio_d = data.get("radio", {})
    if not isinstance(radio_d, dict):
        raise ValidationError("radio must be an object")
    placement_d = data.get("placement", {})
    if not isinstance(placement_d, dict):
        raise ValidationError("placement must be an object")
    for key, why in UNUSED_PLACEMENT[scenario].items():
        if key in placement_d:
            raise ValidationError(f"placement.{key} does not apply to scenario {scenario}: {why}")

    out = data.get("output_path")
    if out is not None and not isinstance(out, str):
        raise ValidationError("output_path must be a string")

    return ExperimentConfig(
        scenario_id=scenario,
        schemes=normalized,
        sweep_start=float(start),
        sweep_stop=float(stop),
        sweep_step=float(step),
        trials=trials,
        seed=seed,
        decode_case=case,
        interference_mode=mode,
        jt_split=split,
        radio=_radio_from_dict(radio_d),
        placement=_placement_from_dict(placement_d),
        output_path=out,
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
    placement = {
        "inter_site_m": config.placement.inter_site_m,
        "coverage_m": config.placement.coverage_m,
        "edge_region_radius_m": config.placement.edge_region_radius_m,
        "edge_region_law": config.placement.edge_region_law,
        "primary_distance_m": config.placement.primary_distance_m,
        "secondary_distance_m": config.placement.secondary_distance_m,
    }
    if config.scenario_id != 1:  # one single-cell user per cell: the field does not apply
        del placement["secondary_distance_m"]
    out = {
        "scenario_id": config.scenario_id,
        "schemes": list(config.schemes),
        "sweep": {
            "start": config.sweep_start,
            "stop": config.sweep_stop,
            "step": config.sweep_step,
        },
        "trials": config.trials,
        "seed": config.seed,
        "decode_case": config.decode_case,
        "interference_mode": config.interference_mode,
        "jt_split": config.jt_split,
        "radio": {
            "tx_power_mw": config.radio.tx_power_mw,
            "noise_density_mw_hz": config.radio.noise_density_mw_hz,
            "bandwidth_hz": config.radio.bandwidth_hz,
            "pathloss_exponent": config.radio.pathloss_exponent,
            "sic_tolerance": config.radio.sic_tolerance,
        },
        "placement": {k: v for k, v in placement.items() if v is not None},
        "output_path": config.output_path,
    }
    if out["output_path"] is None:
        del out["output_path"]
    return out


def emit_defaults(scenario_id: int = 1) -> dict:
    """Writable starting-point config with the dBm convenience keys."""
    return {
        "scenario_id": scenario_id,
        "schemes": list(DEFAULT_SCHEMES[scenario_id]),
        "sweep": {"start": 50.0, "stop": 400.0, "step": 50.0},
        "trials": DEFAULT_TRIALS,
        "seed": DEFAULT_SEED,
        "decode_case": "case1",
        "interference_mode": "negligible",
        "jt_split": EQUAL_TRANSMIT,
        "radio": {
            "tx_power_dbm": 43.0,
            "noise_density_dbm_hz": -139.0,
            "bandwidth_hz": 8.64e6,
            "pathloss_exponent": 4.0,
            "sic_tolerance": 100.0,
        },
        "placement": {
            "inter_site_m": 1000.0,
            "coverage_m": 400.0,
            "edge_region_law": DISC,
            **({"secondary_distance_m": 300.0} if scenario_id == 1 else {}),
        },
        "output_path": None,
    }


def _figure_radio() -> RadioParams:
    # the reproduction sweeps run with the decodability margin disabled:
    # at these geometries any positive received-power margin of 100 (20 dB
    # over noise) is unreachable and every trial would fall back
    return replace(REFERENCE_RADIO, sic_tolerance=0.0)


def preset_fig4() -> ExperimentConfig:
    return ExperimentConfig(
        scenario_id=1,
        schemes=DEFAULT_SCHEMES[1],
        sweep_start=50.0,
        sweep_stop=400.0,
        sweep_step=50.0,
        radio=_figure_radio(),
    )


def preset_fig5() -> ExperimentConfig:
    return ExperimentConfig(
        scenario_id=2,
        schemes=DEFAULT_SCHEMES[2],
        sweep_start=50.0,
        sweep_stop=400.0,
        sweep_step=50.0,
        radio=_figure_radio(),
    )


def preset_fig6() -> ExperimentConfig:
    return ExperimentConfig(
        scenario_id=3,
        schemes=DEFAULT_SCHEMES[3],
        sweep_start=50.0,
        sweep_stop=400.0,
        sweep_step=50.0,
        decode_case="both",
        radio=_figure_radio(),
    )


PRESETS = {"fig4": preset_fig4, "fig5": preset_fig5, "fig6": preset_fig6}
