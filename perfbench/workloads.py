"""Benchmark workloads and the check applied to every CSV they produce.

This module imports nothing from compnoma, so the orchestrator can load it
without paying the package's import cost.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from pathlib import Path

GOLDEN_DIR = Path(__file__).resolve().parent / "golden"

DEV_SEED = 7  # used while developing a change
HELD_OUT_SEED = 1703  # kept for confirming a claim
GOLDEN_SEEDS = tuple(range(1, 11)) + (HELD_OUT_SEED,)

CSV_HEADER = "sweep_m,scheme,mean_se_bps_hz,ci95,infeasible_frac,trials"
# every workload sweeps the figure presets' 50..400 m grid
SWEEP_POINTS = tuple(str(50 * i) for i in range(1, 9))


@dataclass(frozen=True)
class Workload:
    name: str
    preset: str
    trials: int  # per sweep point
    series: tuple[str, ...]  # CSV scheme labels, in CSV order
    overrides: dict = field(default_factory=dict)
    # also sweep on a process pool: untimed and byte-checked against the
    # serial CSV with --trace 0, timed against the serial sweeps with --trace 1
    pool: bool = False

    @property
    def trials_per_sweep(self) -> int:
        return self.trials * len(SWEEP_POINTS)


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="fig5",
            preset="fig5",
            trials=60,
            series=("CS-NOMA", "JT-NOMA", "JT-OMA"),
        ),
        Workload(
            name="oma-baselines",
            preset="fig5",
            trials=250,
            series=("CS-OMA", "JT-OMA"),
            overrides={"schemes": ["JT-OMA", "CS-OMA"]},
        ),
        Workload(
            name="fig6-full",
            preset="fig6",
            trials=75,
            series=("DPS-NOMA", "JT-NOMA-case1", "JT-NOMA-case2", "JT-OMA"),
            overrides={
                "schemes": ["JT-NOMA", "DPS-NOMA", "JT-OMA"],
                "interference_mode": "full",
                "jt_split": "equal_received",
            },
            pool=True,
        ),
    )
}


def golden_path(workload: Workload, seed: int) -> Path:
    return GOLDEN_DIR / workload.name / f"seed{seed}.csv"


def load_golden(workload: Workload, seed: int) -> str | None:
    """Golden CSV text captured for this seed, or None if none was shipped."""
    try:
        return golden_path(workload, seed).read_text(encoding="utf-8")
    except FileNotFoundError:
        return None


def _lines_by_key(csv_text: str) -> dict[tuple[str, str], str]:
    rows: dict[tuple[str, str], str] = {}
    for line in csv_text.splitlines()[1:]:
        fields = line.split(",")
        rows[(fields[0], fields[1] if len(fields) > 1 else "")] = line
    return rows


def _row_ok(line: str | None, trials: int, violations: int) -> bool:
    if line is None or violations != 0:
        return False
    fields = line.split(",")
    if len(fields) != 6 or fields[5] != str(trials):
        return False
    try:
        return all(math.isfinite(float(v)) for v in fields[2:5])
    except ValueError:
        return False


def check_sweep(
    workload: Workload,
    csv_text: str | None,
    violations: dict[tuple[str, str], int],
    golden: str | None = None,
    reference: str | None = None,
) -> tuple[int, int]:
    """(attempted, failed) over the (sweep point, series) rows of one sweep.

    A row fails if the sweep raised (``csv_text`` is None), if it is missing
    or non-finite, if it reports guarantee violations, or if its CSV line
    differs from the golden CSV or from a reference CSV of the same run.
    Unexpected extra rows count as attempted and failed.
    """
    keys = [(p, s) for p in SWEEP_POINTS for s in workload.series]
    if csv_text is None or csv_text.splitlines()[:1] != [CSV_HEADER]:
        return len(keys), len(keys)
    got = _lines_by_key(csv_text)
    expected = [_lines_by_key(t) for t in (golden, reference) if t is not None]
    failed = 0
    for key in keys:
        line = got.get(key)
        ok = _row_ok(line, workload.trials, violations.get(key, 0))
        if ok and any(e.get(key) != line for e in expected):
            ok = False
        failed += not ok
    extra = len(set(got) - set(keys))
    return len(keys) + extra, failed + extra
