"""Config schema, CSV rendering, and command-line entry behavior."""

import json
import logging
import math
import os
import re
import subprocess
import sys
from dataclasses import fields, replace
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from compnoma import (
    PRESETS,
    ConfigError,
    ExperimentConfig,
    RadioParams,
    SweepError,
    SweepResult,
    SweepRow,
    config_from_dict,
    config_to_dict,
    parse_config,
    run_sweep,
)
from compnoma.channel import distance_term
from compnoma.cli import CSV_HEADER, build_parser, emit_csv, format_csv, main, _resolve_config
from compnoma.config import CHOICES
from compnoma.scenarios import SweepPoint, draw_block, evaluate, orthogonal_rates


def rows_result(*rows) -> SweepResult:
    return SweepResult(tuple(rows))


def row(sweep, scheme, mean=1.0, ci=0.1, infeas=0.0, trials=10):
    return SweepRow(
        sweep_value=sweep,
        scheme=scheme,
        mean_se_bps_hz=mean,
        ci95=ci,
        infeasible_frac=infeas,
        trials=trials,
    )


# --- config schema ------------------------------------------------------------


def test_defaults_round_trip_exactly():
    for name, preset in PRESETS.items():
        assert config_from_dict(config_to_dict(preset())) == preset(), name


def test_readme_json_example_is_a_valid_config():
    # the README's example spells out the fig5 preset, scenario 2's defaults
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    block = re.search(r"^## JSON configuration\n\n```json\n(.*?)^```", readme, re.M | re.S)
    assert block, "README.md has no JSON configuration block"
    assert config_from_dict(json.loads(block.group(1))) == PRESETS["fig5"]()


def test_readme_library_example_runs(capsys):
    # README's Python block, run as written: a JT-NOMA row per fig5 sweep
    # point, one trial's SE and verdict, then the kernel's two powers
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    block = re.search(r"^## Library entry points\n\n```python\n(.*?)^```", readme, re.M | re.S)
    assert block, "README.md has no Library entry points block"
    exec(compile(block.group(1), "README.md", "exec"), {"__name__": "readme_example"})
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 8 + 2, lines
    powers, reason = lines[-1].rsplit(" ", 1)
    assert json.loads(powers) == pytest.approx([0.586, 0.414], abs=5e-4)
    assert reason == "0"


def test_schema_rejections():
    with pytest.raises(ConfigError) as err:
        config_from_dict({})
    assert "scenario_id" in str(err.value)
    with pytest.raises(ConfigError) as err:
        config_from_dict({"scenario_id": 1, "sweep_start": 50})
    assert "sweep_start" in str(err.value)
    with pytest.raises(ConfigError):
        config_from_dict({"scenario_id": 4})
    with pytest.raises(ConfigError):
        config_from_dict({"scenario_id": 1, "trials": 0})
    with pytest.raises(ConfigError):
        config_from_dict({"scenario_id": 1, "trials": 10.5})
    with pytest.raises(ConfigError):
        config_from_dict({"scenario_id": 1, "schemes": []})
    # a scheme has one name, in the case scenarios define and sidecars write
    with pytest.raises(ConfigError, match="^scheme 'jt-noma' not available in scenario 1"):
        config_from_dict({"scenario_id": 1, "schemes": ["JT-NOMA", "jt-noma"]})
    for rejected in (
        {"schemes": ["CS-NOMA"]},
        {"schemes": ["CS-OMA"]},
        {"schemes": ["TDMA"]},
        {"interference_mode": "sometimes"},
        {"jt_split": "thirds"},
        {"edge_region_law": "disc"},  # every edge user is drawn uniformly in the disc
        {"edge_region_law": "ring"},
        {"decode_case": "caseX"},
        {"seed": -1},
        {"seed": 2**64},
        {"output_path": "run.csv"},  # the CSV path is the --out flag, not part of the experiment
    ):
        with pytest.raises(ConfigError):
            config_from_dict({"scenario_id": 1, **rejected})
    for seed in (0, 2**64 - 1):
        assert config_from_dict({"scenario_id": 1, "seed": seed}).seed == seed
    with pytest.raises(ConfigError):
        config_from_dict({"scenario_id": 1, "radio": {"sic_tolerance": -1}})
    # json.loads accepts NaN and Infinity; the schema does not
    for section, key, text in (("radio", "sic_tolerance", "NaN"), ("radio", "tx_power_mw", "Infinity")):
        with pytest.raises(ConfigError) as err:
            config_from_dict(json.loads(f'{{"scenario_id": 1, "{section}": {{"{key}": {text}}}}}'))
        assert f"{section}.{key}" in str(err.value)


@pytest.mark.parametrize(
    "path, value",
    [
        ("trials", 20.0), ("seed", 3.5), ("trials", True), ("scenario_id", True),
        ("interference_mode", 3), ("radio", None), ("jt_split", None),
        ("schemes", "JT-OMA"), ("radio.noise_density_mw_hz", True),
        ("schemes", ["JT-OMA"]), ("radio.tx_power_mw", "43"),
    ],
)
def test_config_built_in_code_rejects_what_the_json_reader_rejects(path, value):
    """A value not of its field's kind is rejected however the config is
    built, naming its key: by ExperimentConfig (or RadioParams, for a key
    path in radio), by dataclasses.replace and by the JSON reader.  A list of
    schemes is JSON's spelling, so only code must give a tuple."""
    section, _, key = path.rpartition(".")
    fig4 = PRESETS["fig4"]()
    if section == "radio":
        with pytest.raises(ConfigError, match=key):
            RadioParams(**{key: value})
        with pytest.raises(ConfigError, match=key):
            replace(fig4.radio, **{key: value})
    else:
        field = path.replace(".", "_")
        with pytest.raises(ConfigError, match=re.escape(path)):
            ExperimentConfig(**{"scenario_id": 1, "schemes": ("JT-NOMA", "JT-OMA"), field: value})
        with pytest.raises(ConfigError, match=re.escape(path)):
            replace(fig4, **{field: value})
    if isinstance(value, list):
        return
    data = config_to_dict(fig4)
    (data[section] if section else data)[key] = value
    with pytest.raises(ConfigError, match=re.escape(path)):
        config_from_dict(data)


SCALAR = st.one_of(st.booleans(), st.integers(), st.floats(), st.text(max_size=8), st.none())
JUNK = SCALAR | st.lists(SCALAR, max_size=3) | st.lists(SCALAR, max_size=3).map(tuple)


def _number(lo, hi):
    return st.floats(lo, hi) | st.integers(math.ceil(lo), math.floor(hi))


# per field, values that mostly make a usable config (ints where floats are annotated included)
PLAUSIBLE = {
    "tx_power_mw": _number(1.0, 1e5),
    "noise_density_mw_hz": st.floats(1e-18, 1e-12),
    "sic_tolerance": _number(0.0, 10.0),
    "scenario_id": st.integers(1, 3),
    "schemes": st.lists(st.sampled_from(["JT-NOMA", "DPS-NOMA", "JT-OMA"]), min_size=1, max_size=3, unique=True)
    .map(tuple),
    "trials": st.integers(1, 10**6),
    "seed": st.integers(0, 2**64 - 1),
    **{key: st.sampled_from(choices) for key, choices in CHOICES.items()},
}


def test_every_config_is_rejected_by_a_config_error_or_round_trips():
    """Draw each field of RadioParams and ExperimentConfig from its
    plausible values or, for up to two fields, from bools, ints, floats (nan
    and inf included), strings, None, lists and tuples.  Building either
    raises ConfigError, never another error, or the config hashes and its
    dict and JSON forms read back as an equal config."""
    built = []

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def check(data):
        junk = data.draw(st.sets(st.sampled_from([*PLAUSIBLE, "radio"]), max_size=2), label="junk")

        def draw(cls, **given):
            values = {**PLAUSIBLE, **given}
            return {
                f.name: data.draw(JUNK if f.name in junk else values[f.name], label=f.name) for f in fields(cls)
            }

        try:
            radio = RadioParams(**draw(RadioParams))
        except ConfigError:
            return
        try:
            config = ExperimentConfig(**draw(ExperimentConfig, radio=st.just(radio)))
        except ConfigError:
            return
        hash(config)
        for form in (config_to_dict(config), json.loads(json.dumps(config_to_dict(config)))):
            assert config_from_dict(form) == config
        built.append(config)

    check()
    assert len(built) >= 10, len(built)  # not vacuous: 32-82 of 300 over 20 seeds


def parent_format_sidecar() -> str:
    """The fig5 sidecar with the radio keys it held while the radio still had
    a band and a path-loss exponent: every radio field, those two included,
    keys sorted."""
    d = config_to_dict(PRESETS["fig5"]())
    d["radio"].update(bandwidth_hz=8640000.0, pathloss_exponent=4.0)
    return json.dumps(d, indent=2, sort_keys=True)


# each config's JSON and its error message
UNUSABLE = {
    "non-finite tolerance": (
        '{"scenario_id": 1, "radio": {"sic_tolerance": NaN}}',
        "radio.sic_tolerance must be a finite number, exact as a float, got nan",
    ),
    "non-finite noise density": (
        '{"scenario_id": 1, "radio": {"noise_density_mw_hz": Infinity}}',
        "radio.noise_density_mw_hz must be a finite number, exact as a float, got inf",
    ),
    "an output path": (
        '{"scenario_id": 1, "output_path": "run.csv"}',
        "unknown key 'output_path' in config root",
    ),
    # scenario 3 always reports both decode cases, so no config picks one
    "a decode case": (
        '{"scenario_id": 3, "decode_case": "case2"}',
        "unknown key 'decode_case' in config root",
    ),
    # every edge user is drawn uniformly in the disc, so no config picks a
    # placement law; a sidecar written before the law went holds the key
    "an edge-region law": (
        '{"scenario_id": 2, "edge_region_law": "ring"}',
        "unknown key 'edge_region_law' in config root",
    ),
    "a sidecar with an edge-region law": (
        json.dumps({**config_to_dict(PRESETS["fig5"]()), "edge_region_law": "disc"}),
        "unknown key 'edge_region_law' in config root",
    ),
    # the band and the path-loss law are fixed, so no config sets them; a
    # sidecar written before they went holds both keys
    "a sidecar with a band and a path-loss exponent": (
        parent_format_sidecar(),
        "unknown key 'bandwidth_hz' in radio",
    ),
    "a path-loss exponent": (
        '{"scenario_id": 1, "radio": {"pathloss_exponent": 4.0}}',
        "unknown key 'pathloss_exponent' in radio",
    ),
    # the two sites and their coverage are fixed, so no placement section exists
    "a placement section": (
        '{"scenario_id": 1, "placement": {"inter_site_m": 500}}',
        "unknown key 'placement' in config root",
    ),
    # every run sweeps scenarios.SWEEP_M, so no config sets a grid; a sidecar
    # written before the grid became fixed holds this section
    "a sweep section": (
        '{"scenario_id": 1, "sweep": {"start": 50.0, "stop": 400.0, "step": 50.0}}',
        "unknown key 'sweep' in config root",
    ),
    # sidecars that swept the single-cell user past coverage or, 1e-20 being
    # below half an ULP of 500, onto its own site are still refused before
    # any sweep runs, now for their sweep section; SweepPoint itself still
    # rejects both distances (test_every_library_rejection_is_a_config_error)
    "single-cell user outside coverage": (
        '{"scenario_id": 1, "sweep": {"start": 401, "stop": 401, "step": 1}}',
        "unknown key 'sweep' in config root",
    ),
    "single-cell user on its site": (
        '{"scenario_id": 1, "sweep": {"start": 1e-20, "stop": 1e-20, "step": 1}}',
        "unknown key 'sweep' in config root",
    ),
    # the noise power, 8.64e-314 mW, is positive and finite, but the 50 m
    # user's gain times the transmit power overflows to inf
    "a radio that overflows a gain": (
        '{"scenario_id": 1, "trials": 2, "schemes": ["JT-OMA"], "radio": {"noise_density_mw_hz": 1e-320}}',
        "sweep value 50: 2 x tx_power_mw x the largest fading (36.74) x d^-4 (1.6e-07) over the noise power"
        " (8.64e-314 mW) overflows to inf",
    ),
    # radio powers are given in mW only, so a dBm key names no field
    "a dBm power": (
        '{"scenario_id": 1, "radio": {"tx_power_dbm": 43.0}}',
        "unknown key 'tx_power_dbm' in radio",
    ),
    "a dBm noise density": (
        '{"scenario_id": 1, "radio": {"noise_density_dbm_hz": -139.0}}',
        "unknown key 'noise_density_dbm_hz' in radio",
    ),
}


def test_unusable_geometry_is_rejected_without_the_parser():
    # every point of the grid is built with the config's radio, under which
    # the 50 m single-cell user's gain overflows
    with pytest.raises(ConfigError, match="^sweep value 50: 2 x tx_power_mw x the largest fading"):
        ExperimentConfig(1, ("JT-NOMA", "JT-OMA"), radio=RadioParams(noise_density_mw_hz=1e-320))


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_non_finite_numbers_are_rejected_without_the_parser(bad):
    # the parser rejects non-finite JSON numbers itself; objects built in
    # code are held to finite values by their own range checks
    for key in ("tx_power_mw", "noise_density_mw_hz", "sic_tolerance"):
        with pytest.raises(ConfigError, match=key):
            RadioParams(**{key: bad})
    with pytest.raises(ConfigError):
        SweepPoint(2, bad, RadioParams())


def test_every_library_rejection_is_a_config_error(tmp_path):
    # what the command line rejects with exit 1, a library caller catches as
    # one class, with the message the command line would print
    radio = RadioParams()
    point = SweepPoint(2, 150.0, radio)
    g = draw_block(14, [(point, 0, [0])])
    missing = str(tmp_path / "nope.json")
    for call, message in (
        (lambda: RadioParams(noise_density_mw_hz=0), "noise_density_mw_hz must be positive, got 0"),
        (lambda: SweepPoint(1, 500.0, radio), "single-cell user distance 500.0 exceeds coverage 400.0"),
        # 1e-20 is below half an ULP of 500, so the user sits on its own site
        (lambda: SweepPoint(1, 1e-20, radio), "user at (-500.0, 0.0) is on top of a cell at (-500.0, 0.0)"),
        # the 250 m single-cell users' gains overflow
        (lambda: SweepPoint(2, 400.0, RadioParams(noise_density_mw_hz=1e-320)),
         "2 x tx_power_mw x the largest fading (36.74) x d^-4 (2.56e-10) over the noise power (8.64e-314 mW)"
         " overflows to inf"),
        (lambda: SweepPoint(4, 100.0, radio), "unknown scenario 4"),
        (lambda: distance_term((0.0, 0.0), (1e-100, 0.0)), "user at (0.0, 0.0) is on top of a cell at (1e-100, 0.0)"),
        (lambda: parse_config(missing),
         f"cannot read config {missing}: [Errno 2] No such file or directory: {missing!r}"),
        (lambda: evaluate(point.layout, g, orthogonal_rates(point.layout, g), "JT-NOMA", "negligible", "thirds",
                          "case1"), "unknown jt_split 'thirds'"),
    ):
        with pytest.raises(ConfigError) as err:
            call()
        assert str(err.value) == message


@pytest.mark.parametrize("value", [1e302], ids=["overflows"])
def test_noise_power_must_be_positive_and_finite(value, tmp_path, capsys):
    # the density is finite, but the noise power, density times the band,
    # is inf: the sweep would then divide gains by it.  A positive density
    # cannot underflow it, the band being more than 1
    fields = {"noise_density_mw_hz": value}
    with pytest.raises(ConfigError, match="noise_density_mw_hz \\* BANDWIDTH_HZ"):
        RadioParams(**fields)
    with pytest.raises(ConfigError, match="^radio.noise_density_mw_hz \\* BANDWIDTH_HZ must be"):
        config_from_dict({"scenario_id": 2, "radio": fields})
    path = tmp_path / "c.json"
    path.write_text(json.dumps({"scenario_id": 2, "radio": fields}))
    assert main(["--config", str(path), "--trials", "1", "--quiet"]) == 1
    err = capsys.readouterr().err
    assert err == "error: radio.noise_density_mw_hz * BANDWIDTH_HZ must be a finite noise power, got inf\n", err


@pytest.mark.parametrize("text, message", UNUSABLE.values(), ids=UNUSABLE.keys())
def test_unusable_configs_are_rejected_when_parsed(text, message, tmp_path, capsys, monkeypatch):
    # each is rejected with a message that says what is wrong, by the reader
    # and by the command line, before any sweep runs, never left to escape
    # as a traceback
    swept = []
    monkeypatch.setattr("compnoma.cli.run_sweep", lambda *a, **k: swept.append(a))
    with pytest.raises(ConfigError) as err:
        config_from_dict(json.loads(text))
    assert str(err.value) == message
    path = tmp_path / "c.json"
    path.write_text(text)
    assert main(["--config", str(path), "--trials", "1", "--quiet"]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert swept == []


def test_fixed_scenario_distances_are_unknown_placement_keys():
    # the sites' distance and coverage, and the edge-region radius and
    # single-cell distances that the sweep does not set, are fixed, so no
    # config can set them
    for scenario in (1, 2, 3):
        for key in ("inter_site_m", "coverage_m", "edge_region_radius_m", "primary_distance_m",
                    "secondary_distance_m"):
            with pytest.raises(ConfigError) as err:
                config_from_dict({"scenario_id": scenario, key: 150.0})
            assert str(err.value) == f"unknown key {key!r} in config root"


def test_decode_case_applies_to_scenario_3_only(tmp_path, capsys):
    # scenario 3 reports JT-NOMA once per decode case, through the CLI as
    # through run_sweep; scenarios 1-2 report one JT-NOMA series; no config
    # of any scenario picks a case
    for preset, scenario, jt in (("fig4", 1, ["JT-NOMA"]), ("fig5", 2, ["JT-NOMA"]),
                                 ("fig6", 3, ["JT-NOMA-case1", "JT-NOMA-case2"])):
        for case in ("case1", "case2", "both"):
            with pytest.raises(ConfigError, match="^unknown key 'decode_case' in config root$"):
                config_from_dict({"scenario_id": scenario, "decode_case": case})
        config = replace(PRESETS[preset](), schemes=("JT-NOMA", "JT-OMA"), trials=1)
        assert sorted({row.scheme for row in run_sweep(config).rows}) == [*jt, "JT-OMA"]
        path = tmp_path / f"{preset}.json"
        path.write_text(json.dumps({"scenario_id": scenario, "schemes": ["JT-NOMA"]}))
        assert main(["--config", str(path), "--trials", "1", "--quiet"]) == 0
        assert sorted({line.split(",")[1] for line in capsys.readouterr().out.splitlines()[1:]}) == jt


def test_beamforming_is_rejected_with_reason():
    with pytest.raises(ConfigError) as err:
        config_from_dict({"scenario_id": 2, "schemes": ["CB"]})
    assert "beamforming" in str(err.value)
    assert "single-antenna" in str(err.value)
    with pytest.raises(ConfigError):
        config_from_dict({"scenario_id": 2, "schemes": ["CB-NOMA"]})


def test_config_root_must_be_an_object(tmp_path, capsys):
    with pytest.raises(ConfigError, match="^config root must be an object$"):
        config_from_dict([1])
    path = tmp_path / "list.json"
    path.write_text("[1]\n")
    assert main(["--config", str(path)]) == 1
    assert capsys.readouterr().err.startswith("error:")


def test_parse_config_errors(tmp_path):
    missing = tmp_path / "nope.json"
    with pytest.raises(ConfigError):
        parse_config(str(missing))
    bad = tmp_path / "bad.json"
    bad.write_text('{"scenario_id": 1,,}\n')
    with pytest.raises(ConfigError) as err:
        parse_config(str(bad))
    assert str(bad) in str(err.value)
    assert ":1:" in str(err.value)
    good = tmp_path / "good.json"
    good.write_text(json.dumps({"scenario_id": 2, "trials": 5}))
    config = parse_config(str(good))
    assert config.scenario_id == 2
    assert config.trials == 5
    assert config.schemes == ("JT-NOMA", "CS-NOMA", "JT-OMA")


def test_a_config_file_that_is_not_utf8_is_rejected(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_bytes(b'\xff{"scenario_id": 1}\n')
    message = f"cannot read config {path}: 'utf-8' codec can't decode byte 0xff in position 0: invalid start byte"
    with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
        parse_config(str(path))
    assert main(["--config", str(path), "--quiet"]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"


def test_a_config_nested_too_deeply_is_rejected(tmp_path, capsys):
    # json.loads recurses once per nesting level and raises RecursionError
    path = tmp_path / "deep.json"
    path.write_text("[" * 100_000 + "]" * 100_000)
    message = f"{path}: nested too deeply to parse"
    with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
        parse_config(str(path))
    assert main(["--config", str(path), "--quiet"]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"


@pytest.mark.parametrize(
    "text, key",
    [
        ('{"scenario_id": 2, "trials": 1, "scenario_id": 1}', "scenario_id"),
        ('{"scenario_id": 2, "radio": {"tx_power_mw": 1000.0}, "radio": {"sic_tolerance": 0.0}}', "radio"),
        ('{"scenario_id": 2, "radio": {"sic_tolerance": 1.0, "sic_tolerance": 0.0}}', "sic_tolerance"),
    ],
    ids=["root key", "radio section", "radio field"],
)
def test_a_duplicate_key_is_rejected(text, key, tmp_path, capsys):
    # json.loads alone keeps the last value of a duplicate key and drops the
    # others unseen; a config file holds each key of an object once
    path = tmp_path / "dup.json"
    path.write_text(text)
    message = f"{path}: duplicate key {key!r}"
    with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
        parse_config(str(path))
    assert main(["--config", str(path), "--trials", "1", "--quiet"]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"


# --- CSV rendering ------------------------------------------------------------


def test_format_csv_sorts_and_formats():
    result = rows_result(
        row(100.0, "JT-OMA", mean=4.123456789123, ci=0.25),
        row(50.0, "JT-NOMA", mean=5.0),
        row(50.0, "CS-NOMA", mean=3.0, infeas=0.125),
        row(100.0, "JT-NOMA", mean=6.0),
    )
    text = format_csv(result)
    lines = text.splitlines()
    assert lines[0] == CSV_HEADER
    assert lines[1].startswith("50,CS-NOMA,3,")
    assert lines[2].startswith("50,JT-NOMA,5,")
    assert lines[3].startswith("100,JT-NOMA,6,")
    assert lines[4] == "100,JT-OMA,4.12345679,0.25,0,10"
    assert text.endswith("\n")


def test_format_csv_refuses_non_finite():
    result = rows_result(row(50.0, "JT-NOMA", mean=math.nan))
    with pytest.raises(ValueError) as err:
        format_csv(result)
    assert "mean_se_bps_hz" in str(err.value)
    assert "JT-NOMA" in str(err.value)
    with pytest.raises(ValueError):
        format_csv(rows_result(row(50.0, "JT-NOMA", ci=math.inf)))


def test_emit_csv_targets(tmp_path, capsys):
    result = rows_result(row(50.0, "JT-NOMA"))
    path = tmp_path / "out.csv"
    emit_csv(result, str(path))
    assert path.read_text().startswith(CSV_HEADER)
    for target in (None, ""):  # stdout
        emit_csv(result, target)
        assert capsys.readouterr().out == path.read_text()


# --- command line -------------------------------------------------------------


def test_case_and_scenario_flags_are_rejected(capsys, monkeypatch):
    # a run starts from a preset or a config file, which states what is
    # modeled: no flag picks a decode case, a scenario (which only a
    # preset's name would restate), the schemes, the interference model or
    # the power split.  A stub sweep keeps an accepted flag from running a
    # full preset
    monkeypatch.setattr("compnoma.cli.run_sweep", lambda *a, **k: SweepResult(()))
    for argv in (["fig6", "--case", "2"], ["fig6", "--case", "both"], ["fig5", "--scenario", "1"],
                 ["fig6", "--interference", "full"], ["fig6", "--split", "equal_received"],
                 ["fig5", "--scheme", "JT-OMA"]):
        assert main(argv) == 1, argv
        assert capsys.readouterr().err == f"error: unrecognized arguments: {' '.join(argv[1:])}\n"
    # without a preset, the flag's value is read as one, and refused
    for argv in (["--scenario", "3"], ["--case", "2", "--trials", "1"]):
        assert main(argv) == 1, argv
        assert capsys.readouterr().err.startswith("error: argument preset: invalid choice"), argv


def test_every_preset_is_its_scenarios_defaults():
    parser = build_parser()
    for name, scenario in (("fig4", 1), ("fig5", 2), ("fig6", 3)):
        config = config_from_dict({"scenario_id": scenario})
        assert PRESETS[name]() == config
        assert _resolve_config(parser.parse_args([name])) == config
    assert sorted(PRESETS) == ["fig4", "fig5", "fig6"]


def test_main_exit_codes(tmp_path, capsys, monkeypatch):
    assert main(["--help"]) == 0
    capsys.readouterr()
    assert main([]) == 1
    assert "error:" in capsys.readouterr().err
    assert main(["fig4", "--config", "x.json"]) == 1
    capsys.readouterr()
    assert main(["fig7"]) == 1
    capsys.readouterr()
    for workers in ("0", "-2", "two"):
        assert main(["fig4", "--workers", workers]) == 1
        assert "--workers" in capsys.readouterr().err
    # parser-level rejections must use the same clean error line, no traceback
    assert main(["fig4", "--seed", "-1"]) == 1
    assert capsys.readouterr().err.startswith("error:")
    assert main(["fig4", "--no-such-flag"]) == 1
    assert capsys.readouterr().err.startswith("error:")
    cb = tmp_path / "cb.json"
    cb.write_text(json.dumps({"scenario_id": 2, "schemes": ["CB"]}))
    assert main(["--config", str(cb)]) == 1
    assert "beamforming" in capsys.readouterr().err
    # a failure once the sweep has started is a runtime failure
    def fail(*args, **kwargs):
        raise SweepError("worker died")

    monkeypatch.setattr("compnoma.cli.run_sweep", fail)
    assert main(["fig4", "--trials", "1", "--quiet"]) == 2
    assert "SweepError: worker died" in capsys.readouterr().err


@pytest.mark.parametrize(
    "where",
    ["missing directory", "a directory", "a sidecar directory", "a dangling symlink", "a dangling sidecar symlink",
     "a symlink loop"],
)
def test_an_unwritable_out_path_is_rejected_before_the_sweep(where, tmp_path, capsys, monkeypatch):
    # the sweep's result would be thrown away, so the path and its sidecar's
    # are checked first, a symlink where it leads: no sweep runs, and
    # nothing is created or truncated
    swept = []
    monkeypatch.setattr("compnoma.cli.run_sweep", lambda *a, **k: swept.append(a))
    out = {"missing directory": tmp_path / "nodir" / "x.csv", "a directory": tmp_path}.get(where, tmp_path / "x.csv")
    bad = tmp_path / "x.csv.config.json" if "sidecar" in where else out
    if where == "a sidecar directory":
        bad.mkdir()
    if "dangling" in where:
        bad.symlink_to(tmp_path / "missing" / "target")
    if where == "a symlink loop":
        bad.symlink_to(bad)
    message = f"--out {out}: {bad} is not a file path in an existing directory"
    before = sorted(tmp_path.rglob("*"))
    assert main(["fig5", "--trials", "200", "--quiet", "--out", str(out)]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert swept == []
    assert sorted(tmp_path.rglob("*")) == before


def test_out_through_a_symlink_writes_where_it_leads(tmp_path, capsys):
    # a symlink into an existing directory passes the --out check, and the
    # CSV is written through it
    (tmp_path / "real").mkdir()
    out = tmp_path / "x.csv"
    out.symlink_to(tmp_path / "real" / "y.csv")
    assert main(["fig4", "--trials", "1", "--quiet", "--out", str(out)]) == 0
    assert (tmp_path / "real" / "y.csv").read_text().startswith(CSV_HEADER)
    assert (tmp_path / "x.csv.config.json").is_file()
    capsys.readouterr()


def test_main_writes_csv_and_sidecar(tmp_path, capsys):
    out = tmp_path / "run.csv"
    argv = [
        "fig4", "--trials", "2", "--seed", "7", "--quiet",
        "--out", str(out),
    ]
    assert main(argv) == 0
    first = out.read_text()
    assert first.startswith(CSV_HEADER)
    assert len(first.splitlines()) == 1 + 8 * 2  # 8 sweep points, 2 series
    sidecar = json.loads((tmp_path / "run.csv.config.json").read_text())
    assert sidecar["scenario_id"] == 1
    assert sidecar["trials"] == 2
    assert sidecar["seed"] == 7
    # reruns reproduce the file byte for byte
    assert main(argv) == 0
    assert out.read_text() == first
    capsys.readouterr()


@pytest.mark.parametrize("preset", sorted(PRESETS))
def test_a_preset_sidecar_is_the_preset_and_reruns_to_stdout(preset, tmp_path, capsys):
    # the sidecar holds the experiment, not where its CSV went, so it reads
    # back as the preset, and a rerun without --out leaves that CSV alone
    out = tmp_path / f"{preset}.csv"
    assert main([preset, "--trials", "2", "--quiet", "--out", str(out)]) == 0
    sidecar = f"{out}.config.json"
    with open(sidecar, encoding="utf-8") as fh:
        assert config_from_dict(json.load(fh)) == replace(PRESETS[preset](), trials=2)
    os.utime(out, ns=(0, 0))  # a rewrite shows even where the clock ticks coarsely
    capsys.readouterr()
    assert main(["--config", sidecar, "--quiet"]) == 0
    assert capsys.readouterr().out.encode() == out.read_bytes()
    assert out.stat().st_mtime_ns == 0


def test_main_streams_to_stdout(capsys):
    assert main(["fig4", "--trials", "1", "--quiet"]) == 0
    captured = capsys.readouterr()
    assert captured.out.startswith(CSV_HEADER)
    # an empty --out also means stdout
    assert main(["fig4", "--trials", "1", "--quiet", "--out", ""]) == 0
    assert capsys.readouterr().out == captured.out


def test_quiet_is_read_on_every_call(caplog, capsys):
    # logging is already configured here (pytest's handlers sit on the root
    # logger), as in a host application, so main must set the level itself
    argv = ["fig5", "--trials", "1"]

    def resolved():
        return [
            r for r in caplog.records
            if r.name == "compnoma" and r.levelno == logging.INFO and r.getMessage().startswith("resolved config")
        ]

    assert main([*argv, "--quiet"]) == 0
    assert resolved() == []
    assert main(argv) == 0
    assert len(resolved()) == 1
    caplog.clear()
    assert main([*argv, "--quiet"]) == 0
    assert resolved() == []
    capsys.readouterr()


def test_series_that_always_fall_back_are_reported_on_stderr(tmp_path):
    # one WARNING line per (sweep point, series) whose infeasible_frac is 1,
    # shown under --quiet too; a preset run has none, so --quiet leaves
    # stderr empty
    src = str(Path(__file__).parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}

    def run_cli(*argv):
        done = subprocess.run(
            [sys.executable, "-m", "compnoma.cli", *argv, "--quiet"],
            env=env, capture_output=True, text=True, check=True,
        )
        return done.stdout, done.stderr

    harsh = tmp_path / "harsh.json"
    harsh.write_text(json.dumps({"scenario_id": 2, "trials": 5, "radio": {"sic_tolerance": 100.0}}))
    out, err = run_cli("--config", str(harsh))
    always_infeasible = {
        (sweep, scheme) for sweep, scheme, *_, infeas, _ in (line.split(",") for line in out.splitlines()[1:])
        if infeas == "1"
    }
    assert len(always_infeasible) == 8 * 2  # JT-NOMA and CS-NOMA at every point
    reported = re.findall(
        r"^WARNING compnoma: sweep_m=(\S+) (\S+): infeasible in all 5 trials; its row is the fallback's rates",
        err, re.M,
    )
    assert len(reported) == len(err.splitlines())
    assert sorted(reported) == sorted(always_infeasible)
    _, err = run_cli("fig4", "--trials", "20", "--seed", "3")
    assert err == ""
