"""Config schema, CSV rendering, and command-line entry behavior."""

import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from compnoma import (
    PRESETS,
    ConfigError,
    DomainError,
    ExperimentConfig,
    ParseError,
    PlacementSpec,
    RadioParams,
    SweepResult,
    SweepRow,
    ValidationError,
    config_from_dict,
    config_to_dict,
    emit_defaults,
    parse_config,
    sweep_values,
)
from compnoma.cli import CSV_HEADER, build_parser, emit_csv, format_csv, main, _resolve_config
from compnoma.config import CHOICES
from compnoma.scenarios import SweepPoint


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
    for scenario in (1, 2, 3):
        config = config_from_dict(emit_defaults(scenario))
        again = config_from_dict(config_to_dict(config))
        assert again == config
    for name, preset in PRESETS.items():
        assert config_from_dict(config_to_dict(preset())) == preset(), name


def test_readme_json_example_is_a_valid_config():
    # the README's example spells out scenario 2's defaults
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    block = re.search(r"^## JSON configuration\n\n```json\n(.*?)^```", readme, re.M | re.S)
    assert block, "README.md has no JSON configuration block"
    assert config_from_dict(json.loads(block.group(1))) == config_from_dict(emit_defaults(2))


def test_dbm_and_linear_power_keys_agree():
    linear = config_from_dict(
        {"scenario_id": 1, "radio": {"tx_power_mw": 19952.62314968879}}
    )
    dbm = config_from_dict({"scenario_id": 1, "radio": {"tx_power_dbm": 43.0}})
    assert linear.radio.tx_power_mw == pytest.approx(dbm.radio.tx_power_mw, rel=1e-12)
    with pytest.raises(ValidationError) as err:
        config_from_dict(
            {"scenario_id": 1, "radio": {"tx_power_mw": 1.0, "tx_power_dbm": 0.0}}
        )
    assert "not both" in str(err.value)


def test_schema_rejections():
    with pytest.raises(ValidationError) as err:
        config_from_dict({})
    assert "scenario_id" in str(err.value)
    with pytest.raises(ValidationError) as err:
        config_from_dict({"scenario_id": 1, "sweep_start": 50})
    assert "sweep_start" in str(err.value)
    with pytest.raises(ValidationError):
        config_from_dict({"scenario_id": 4})
    with pytest.raises(ValidationError):
        config_from_dict({"scenario_id": 1, "trials": 0})
    with pytest.raises(ValidationError):
        config_from_dict({"scenario_id": 1, "trials": 10.5})
    with pytest.raises(ValidationError):
        config_from_dict({"scenario_id": 1, "schemes": []})
    with pytest.raises(ValidationError):
        config_from_dict({"scenario_id": 1, "schemes": ["JT-NOMA", "jt-noma"]})
    for rejected in (
        {"schemes": ["CS-NOMA"]},
        {"schemes": ["CS-OMA"]},
        {"schemes": ["TDMA"]},
        {"interference_mode": "sometimes"},
        {"jt_split": "thirds"},
        {"decode_case": "caseX"},
        {"seed": -1},
        {"seed": 2**64},
    ):
        with pytest.raises(ValidationError):
            config_from_dict({"scenario_id": 1, **rejected})
    for seed in (0, 2**64 - 1):
        assert config_from_dict({"scenario_id": 1, "seed": seed}).seed == seed
    with pytest.raises(ValidationError):
        config_from_dict({"scenario_id": 2, "decode_case": "both"})
    with pytest.raises(ValidationError):
        config_from_dict({"scenario_id": 1, "sweep": {"start": 300, "stop": 100}})
    with pytest.raises(ValidationError):
        config_from_dict({"scenario_id": 1, "radio": {"sic_tolerance": -1}})
    with pytest.raises(ValidationError):
        config_from_dict({"scenario_id": 1, "placement": {"coverage_m": -5}})
    # json.loads accepts NaN and Infinity; the schema does not
    for section, key, text in (("radio", "sic_tolerance", "NaN"), ("sweep", "start", "NaN"),
                               ("radio", "bandwidth_hz", "Infinity")):
        with pytest.raises(ValidationError) as err:
            config_from_dict(json.loads(f'{{"scenario_id": 1, "{section}": {{"{key}": {text}}}}}'))
        assert f"{section}.{key}" in str(err.value)
    config_from_dict({"scenario_id": 3, "decode_case": "both"})


UNUSABLE = {
    "non-finite tolerance": '{"scenario_id": 1, "radio": {"sic_tolerance": NaN}}',
    "non-finite sweep start": '{"scenario_id": 1, "sweep": {"start": NaN}}',
    "non-finite bandwidth": '{"scenario_id": 1, "radio": {"bandwidth_hz": Infinity}}',
    "coverage reaches the midpoint": '{"scenario_id": 1, "placement": {"inter_site_m": 500}}',
    "single-cell user outside coverage": '{"scenario_id": 2, "placement": {"coverage_m": 240}}',
    "sweep leaves coverage": '{"scenario_id": 1, "sweep": {"stop": 500}}',
}


def test_unusable_geometry_is_rejected_without_the_parser():
    with pytest.raises(ValidationError) as err:
        ExperimentConfig(1, ("JT-NOMA", "JT-OMA"), sweep_stop=500.0)
    assert "sweep value 450" in str(err.value)


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_non_finite_numbers_are_rejected_without_the_parser(bad):
    # the parser rejects non-finite JSON numbers itself; objects built in
    # code are held to finite values by their own range checks
    for key in ("tx_power_mw", "noise_density_mw_hz", "bandwidth_hz", "pathloss_exponent", "sic_tolerance"):
        with pytest.raises(DomainError, match=key):
            RadioParams(**{key: bad})
    for key in ("inter_site_m", "coverage_m"):
        with pytest.raises(DomainError):
            PlacementSpec(**{key: bad})
    with pytest.raises(DomainError):
        SweepPoint(2, bad, RadioParams(), None)
    for grid in ((bad, 400.0, 50.0), (50.0, bad, 50.0), (50.0, 400.0, bad)):
        with pytest.raises(DomainError):
            sweep_values(*grid)
        with pytest.raises(ValidationError):
            ExperimentConfig(2, ("JT-NOMA",), *grid)


@pytest.mark.parametrize("text", UNUSABLE.values(), ids=UNUSABLE.keys())
def test_unusable_configs_are_rejected_when_parsed(text, tmp_path, capsys):
    # each used to run (to exit 0 or 2) or to escape as a DomainError traceback
    with pytest.raises(ValidationError):
        config_from_dict(json.loads(text))
    path = tmp_path / "c.json"
    path.write_text(text)
    assert main(["--config", str(path), "--trials", "1", "--quiet"]) == 1
    assert capsys.readouterr().err.startswith("error:")


def test_fixed_scenario_distances_are_unknown_placement_keys():
    # the edge-region radius and single-cell distances that the sweep does
    # not set are fixed per scenario, so no config can set them
    for scenario in (1, 2, 3):
        for key in ("edge_region_radius_m", "primary_distance_m", "secondary_distance_m"):
            with pytest.raises(ValidationError) as err:
                config_from_dict({"scenario_id": scenario, "placement": {key: 150.0}})
            assert f"unknown key {key!r} in placement" in str(err.value)


def test_decode_case_applies_to_scenario_3_only(capsys):
    for scenario in (1, 2):
        for case in ("case2", "both"):
            with pytest.raises(ValidationError) as err:
                config_from_dict({"scenario_id": scenario, "decode_case": case})
            assert f"decode_case {case!r} applies to scenario 3 only" in str(err.value)
    assert main(["--scenario", "2", "--case", "2"]) == 1
    assert "scenario 3 only" in capsys.readouterr().err


def test_beamforming_is_rejected_with_reason():
    with pytest.raises(ConfigError) as err:
        config_from_dict({"scenario_id": 2, "schemes": ["cb"]})
    assert "beamforming" in str(err.value)
    assert "single-antenna" in str(err.value)
    with pytest.raises(ConfigError):
        config_from_dict({"scenario_id": 2, "schemes": ["CB-NOMA"]})


def test_parse_config_errors(tmp_path):
    missing = tmp_path / "nope.json"
    with pytest.raises(ParseError):
        parse_config(str(missing))
    bad = tmp_path / "bad.json"
    bad.write_text('{"scenario_id": 1,,}\n')
    with pytest.raises(ParseError) as err:
        parse_config(str(bad))
    assert str(bad) in str(err.value)
    assert ":1:" in str(err.value)
    good = tmp_path / "good.json"
    good.write_text(json.dumps({"scenario_id": 2, "trials": 5}))
    config = parse_config(str(good))
    assert config.scenario_id == 2
    assert config.trials == 5
    assert config.schemes == ("JT-NOMA", "CS-NOMA", "JT-OMA")


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


def test_case_flag_aliases():
    parser = build_parser()
    for flag, expected in (("1", "case1"), ("2", "case2"), ("case2", "case2"), ("both", "both")):
        args = parser.parse_args(["--scenario", "3", "--case", flag, "--trials", "1"])
        assert _resolve_config(args).decode_case == expected
    # every value the config accepts is a choice of its flag
    flags = {"decode_case": "--case", "interference_mode": "--interference", "jt_split": "--split"}
    for key, flag in flags.items():
        for value in CHOICES[key]:
            args = parser.parse_args(["--scenario", "3", flag, value])
            assert getattr(_resolve_config(args), key) == value


def test_scheme_flag_accepts_commas_and_repeats():
    parser = build_parser()
    args = parser.parse_args(
        ["--scenario", "2", "--scheme", "jt-noma,cs-noma", "--scheme", "JT-OMA"]
    )
    assert _resolve_config(args).schemes == ("JT-NOMA", "CS-NOMA", "JT-OMA")


def test_scenario_override_drops_preset_schemes():
    parser = build_parser()
    args = parser.parse_args(["fig5", "--scenario", "1"])
    config = _resolve_config(args)
    assert config.scenario_id == 1
    assert config.schemes == ("JT-NOMA", "JT-OMA")


def test_scenario_override_drops_values_the_new_scenario_rejects(capsys):
    parser = build_parser()
    # fig6 carries decode_case "both" (scenario 3 only), which a change to
    # scenario 1 or 2 drops; fig4 carries nothing scenario-specific
    for argv, scenario in ((["fig4", "--scenario", "2"], 2), (["fig4", "--scenario", "3"], 3),
                           (["fig6", "--scenario", "2"], 2), (["fig6", "--scenario", "1"], 1)):
        config = _resolve_config(parser.parse_args(argv))
        assert config.scenario_id == scenario
        assert config.decode_case == "case1"
        assert main(argv + ["--trials", "1", "--quiet"]) == 0, argv
    capsys.readouterr()
    # values the new scenario accepts are kept, and explicit flags still apply
    config = _resolve_config(parser.parse_args(["fig6", "--scenario", "3"]))
    assert config.decode_case == "both"
    assert main(["fig6", "--scenario", "2", "--case", "both"]) == 1
    assert "scenario 3 only" in capsys.readouterr().err


def test_main_exit_codes(tmp_path, capsys):
    assert main(["--help"]) == 0
    capsys.readouterr()
    assert main([]) == 1
    assert "error:" in capsys.readouterr().err
    assert main(["fig4", "--config", "x.json"]) == 1
    capsys.readouterr()
    assert main(["--scenario", "5"]) == 1
    capsys.readouterr()
    for workers in ("0", "-2", "two"):
        assert main(["--scenario", "1", "--workers", workers]) == 1
        assert "--workers" in capsys.readouterr().err
    # parser-level rejections must use the same clean error line, no traceback
    assert main(["--scenario", "2", "--case", "3"]) == 1
    assert capsys.readouterr().err.startswith("error:")
    for argv in (["--split", "thirds"], ["--interference", "sometimes"], ["--seed", "-1"]):
        assert main(["--scenario", "1", *argv]) == 1, argv
        assert capsys.readouterr().err.startswith("error:")
    assert main(["--scenario", "1", "--no-such-flag"]) == 1
    assert capsys.readouterr().err.startswith("error:")
    assert main(["--scenario", "2", "--scheme", "CB"]) == 1
    assert "beamforming" in capsys.readouterr().err
    out = tmp_path / "missing-dir" / "o.csv"
    code = main(
        ["--scenario", "1", "--trials", "1", "--quiet",
         "--out", str(out)]
    )
    assert code == 2


def test_main_writes_csv_and_sidecar(tmp_path, capsys):
    out = tmp_path / "run.csv"
    argv = [
        "--scenario", "1", "--trials", "2", "--seed", "7", "--quiet",
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


def test_main_streams_to_stdout(capsys):
    assert main(["--scenario", "1", "--trials", "1", "--quiet"]) == 0
    captured = capsys.readouterr()
    assert captured.out.startswith(CSV_HEADER)
    # an empty --out also means stdout
    assert main(["--scenario", "1", "--trials", "1", "--quiet", "--out", ""]) == 0
    assert capsys.readouterr().out == captured.out


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
