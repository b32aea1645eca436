"""Capture the golden files that tests/test_golden.py compares against.

    PYTHONPATH=src python3 tests/golden/make_golden.py

Writes one sweep CSV per entry of SWEEPS and one per-trial record file per
entry of TRIAL_CONFIGS.  Run it only at a commit whose output is known to be
right: the test requires the CSVs byte for byte and every per-trial verdict.
"""

from __future__ import annotations

import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent

GOLDEN_TRIALS = 200  # per sweep point of every golden CSV
GOLDEN_SEED = 11

ALL_SCHEMES = {
    1: ["JT-NOMA", "DPS-NOMA", "JT-OMA"],
    2: ["JT-NOMA", "CS-NOMA", "DPS-NOMA", "JT-OMA", "CS-OMA"],
    3: ["JT-NOMA", "DPS-NOMA", "JT-OMA"],
}
_PRESET_OF = {1: "fig4", 2: "fig5", 3: "fig6"}

# name -> (preset, overrides); each CSV sweeps the preset's 8 points
SWEEPS = {
    "fig4": ("fig4", {}),
    "fig5": ("fig5", {}),
    "fig6": ("fig6", {}),
    "s1-dps": ("fig4", {"schemes": ALL_SCHEMES[1]}),
    "s1-full-received": (
        "fig4",
        {"schemes": ALL_SCHEMES[1], "interference_mode": "full", "jt_split": "equal_received"},
    ),
    "s1-reference-tolerance": ("fig4", {"schemes": ALL_SCHEMES[1], "radio": {"sic_tolerance": 100.0}}),
    "s2-all-full": ("fig5", {"schemes": ALL_SCHEMES[2], "interference_mode": "full"}),
    "s2-all-received": ("fig5", {"schemes": ALL_SCHEMES[2], "jt_split": "equal_received"}),
    "s3-dps": ("fig6", {"schemes": ALL_SCHEMES[3]}),
    # both decode cases, as every scenario-3 sweep; "case2" names the series
    # it was first captured with, whose rows are its JT-NOMA-case2 rows
    "s3-full-received-case2": (
        "fig6",
        {"schemes": ALL_SCHEMES[3], "interference_mode": "full", "jt_split": "equal_received"},
    ),
}

# per-trial records: every scenario under both interference modes and both
# splits, plus one positive decodability tolerance; trials 0..99 of the points
# at sweep indices 0, 3 and 7 (50, 200 and 400 m)
TRIAL_POINTS = (0, 3, 7)
TRIALS_PER_POINT = 100
TRIAL_CONFIGS = {
    f"s{s}-{mode}-{split}": (_PRESET_OF[s], {
        "schemes": ALL_SCHEMES[s], "interference_mode": mode, "jt_split": split,
    })
    for s in (1, 2, 3)
    for mode in ("negligible", "full")
    for split in ("equal_transmit", "equal_received")
}
TRIAL_CONFIGS["s2-tolerance-1"] = ("fig5", {"schemes": ALL_SCHEMES[2], "radio": {"sic_tolerance": 1.0}})


def golden_config(preset: str, overrides: dict, trials: int = GOLDEN_TRIALS):
    from compnoma.config import PRESETS, config_from_dict, config_to_dict

    data = config_to_dict(PRESETS[preset]())
    for key, value in overrides.items():
        data[key] = {**data[key], **value} if isinstance(value, dict) else value
    return config_from_dict({**data, "trials": trials, "seed": GOLDEN_SEED})


def sweep_csv(name: str) -> str:
    from compnoma import run_sweep
    from compnoma.cli import format_csv

    return format_csv(run_sweep(golden_config(*SWEEPS[name])))


def trial_labels(name: str) -> list[str]:
    from compnoma.harness import scheme_rows

    config = golden_config(*TRIAL_CONFIGS[name], trials=TRIALS_PER_POINT)
    return [label for label, _, _ in scheme_rows(config)]


def trial_rows(name: str):
    """(sweep index, trial, ((se, feasible) per series)) for every recorded
    trial, from the code under test."""
    from compnoma.harness import run_chunk

    config = golden_config(*TRIAL_CONFIGS[name], trials=TRIALS_PER_POINT)
    for s_i in TRIAL_POINTS:
        # flat trials of point s_i: s_i * trials .. (s_i + 1) * trials - 1
        se, feasible = run_chunk(config, s_i * TRIALS_PER_POINT, (s_i + 1) * TRIALS_PER_POINT)
        for t in range(TRIALS_PER_POINT):
            yield s_i, t, tuple((float(v), bool(f)) for v, f in zip(se[t], feasible[t]))


def trial_records(name: str) -> str:
    """One line per (point, trial): sweep index, trial index, then per series
    the spectral efficiency (repr) and the feasible flag."""
    lines = ["sweep_index trial " + " ".join(trial_labels(name))]
    for s_i, t, series in trial_rows(name):
        cells = [f"{se!r} {int(f)}" for se, f in series]
        lines.append(f"{s_i} {t} " + " ".join(cells))
    return "\n".join(lines) + "\n"


def read_trial_records(name: str):
    """Parse a record file back into trial_rows' shape and its series labels."""
    lines = (HERE / f"trials-{name}.txt").read_text(encoding="utf-8").splitlines()
    labels = lines[0].split()[2:]
    rows = []
    for line in lines[1:]:
        fields = line.split()
        series = tuple((float(fields[i]), fields[i + 1] == "1") for i in range(2, len(fields), 2))
        rows.append((int(fields[0]), int(fields[1]), series))
    return labels, rows


def main() -> int:
    for name in SWEEPS:
        path = HERE / f"{name}.csv"
        path.write_text(sweep_csv(name), encoding="utf-8")
        print(f"wrote {path}")
    for name in TRIAL_CONFIGS:
        path = HERE / f"trials-{name}.txt"
        path.write_text(trial_records(name), encoding="utf-8")
        print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
