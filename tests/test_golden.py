"""Output guard: sweep CSVs byte for byte and per-trial verdicts, against
files captured by tests/golden/make_golden.py."""

import pytest

from golden.make_golden import (
    HERE,
    SWEEPS,
    TRIAL_CONFIGS,
    read_trial_records,
    sweep_csv,
    trial_labels,
    trial_rows,
)


@pytest.mark.parametrize("name", sorted(SWEEPS))
def test_sweep_csv_is_byte_identical(name):
    golden = (HERE / f"{name}.csv").read_text(encoding="utf-8")
    assert sweep_csv(name) == golden


@pytest.mark.parametrize("name", sorted(TRIAL_CONFIGS))
def test_trial_verdicts_and_efficiency_match(name):
    labels, recorded = read_trial_records(name)
    assert trial_labels(name) == labels
    got = list(trial_rows(name))
    assert [(s, t) for s, t, _ in got] == [(s, t) for s, t, _ in recorded]
    for (s_i, t, series), (_, _, expected) in zip(got, recorded):
        for label, (se, feasible, met), (se0, feasible0, met0) in zip(labels, series, expected):
            where = f"{name} sweep_index={s_i} trial={t} series={label}"
            assert (feasible, met) == (feasible0, met0), f"verdict flipped at {where}"
            assert se == pytest.approx(se0, rel=1e-12, abs=0.0), where
