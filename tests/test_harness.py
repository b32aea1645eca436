"""Sweep driver: trial seeds, grids, series labels, reductions, worker parity."""

import math
import random
import re
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from compnoma import (
    PRESETS,
    ExperimentConfig,
    SweepError,
    config_from_dict,
    run_sweep,
)
from compnoma.cli import format_csv
from compnoma import harness, scenarios
from compnoma.harness import run_chunk, scheme_rows, sweep_values

from reference import trial_seed


def small_config(**overrides) -> ExperimentConfig:
    base = dict(
        scenario_id=1,
        schemes=("JT-NOMA", "JT-OMA"),
        sweep_start=100.0,
        sweep_stop=300.0,
        sweep_step=100.0,
        trials=40,
        seed=2026,
        radio=PRESETS["fig4"]().radio,
    )
    base.update(overrides)
    return ExperimentConfig(**base)


def trial_rng(s, w, t) -> random.Random:
    return random.Random(trial_seed(s, w, t))


def test_substream_is_deterministic_and_distinct():
    a = trial_rng(2026, 0, 1).random()
    assert trial_rng(2026, 0, 1).random() == a
    draws = {
        (s, w, t): trial_rng(s, w, t).random()
        for s in (1, 2026)
        for w in (0, 3)
        for t in (0, 1, 99)
    }
    assert len(set(draws.values())) == len(draws)
    # the draw masks each index to 64 bits, and a trial's rows do not depend
    # on the other trials of the call (test_channel pins every link of a
    # draw to a generator seeded with trial_seed)
    mask = (1 << 64) - 1
    point = scenarios.SweepPoint(1, 200.0, PRESETS["fig4"]().radio, None)
    for s, w, t in ((0, 0, 0), (2026, 3, 99), (-1, 2**64 + 5, 2**63)):
        masked = [point.draw(s & mask, w & mask, [u & mask]).tolist()[0] for u in (t - 1, t)]
        assert point.draw(s, w, [t - 1, t]).tolist() == masked


def test_sweep_values_grid():
    assert sweep_values(50.0, 400.0, 50.0) == (
        50.0, 100.0, 150.0, 200.0, 250.0, 300.0, 350.0, 400.0
    )
    # drift-prone decimal steps still land on the closed endpoint
    pts = sweep_values(0.1, 0.3, 0.1)
    assert len(pts) == 3
    assert pts[-1] == pytest.approx(0.3, rel=1e-12)
    assert sweep_values(5.0, 5.0, 2.0) == (5.0,)
    # an off-grid stop is never passed
    assert sweep_values(50.0, 430.0, 50.0)[-1] == 400.0
    with pytest.raises(ValueError):
        sweep_values(1.0, 2.0, 0.0)
    with pytest.raises(ValueError):
        sweep_values(2.0, 1.0, 0.5)


def test_sweep_values_clamp_drift_past_stop():
    # 1.3 + 3987 * 0.1 is 400.00000000000006: the last value is clamped to
    # stop, so a grid that ends at the coverage radius is accepted
    assert 1.3 + 3987 * 0.1 > 400.0
    config = config_from_dict({"scenario_id": 1, "sweep": {"start": 1.3, "stop": 400.0, "step": 0.1}})
    values = sweep_values(config.sweep_start, config.sweep_stop, config.sweep_step)
    assert len(values) == 3988 and values[-1] == 400.0
    assert max(values[:-1]) < 400.0


def test_scheme_rows_split_decode_cases():
    fig6 = PRESETS["fig6"]()
    rows = scheme_rows(fig6)
    assert rows == (
        ("JT-NOMA-case1", "JT-NOMA", "case1"),
        ("JT-NOMA-case2", "JT-NOMA", "case2"),
        ("JT-OMA", "JT-OMA", "case1"),
    )
    plain = config_from_dict({"scenario_id": 2})
    assert scheme_rows(plain) == (
        ("JT-NOMA", "JT-NOMA", "case1"),
        ("CS-NOMA", "CS-NOMA", "case1"),
        ("JT-OMA", "JT-OMA", "case1"),
    )


def test_single_trial_matches_direct_evaluation():
    config = small_config(trials=1, sweep_start=200.0, sweep_stop=200.0)
    result = run_sweep(config)
    point = scenarios.SweepPoint(1, 200.0, config.radio, config.placement)
    gains = point.draw(config.seed, 0, [0])
    base = scenarios.orthogonal_rates(point.layout, gains)
    direct = {}
    for scheme in config.schemes:
        out, feasible, _, _ = scenarios.evaluate(
            point.layout, gains, base, scheme, config.interference_mode, config.jt_split,
            config.decode_case,
        )
        direct[scheme] = (math.fsum(out[0].tolist()) / config.radio.bandwidth_hz, bool(feasible[0]))
    assert len(result.rows) == 2
    for row in result.rows:
        assert row.trials == 1
        assert row.ci95 == 0.0
        assert row.mean_se_bps_hz == direct[row.scheme][0]
        assert row.infeasible_frac == (0.0 if direct[row.scheme][1] else 1.0)


def test_worker_count_does_not_change_output():
    config = small_config(trials=48)
    serial = run_sweep(config, workers=1)
    parallel = run_sweep(config, workers=4)
    assert format_csv(serial) == format_csv(parallel)
    assert serial.rows == parallel.rows


def test_pool_starts_no_more_workers_than_ranges(monkeypatch):
    import concurrent.futures

    started = []

    class Recording(concurrent.futures.ProcessPoolExecutor):
        def __init__(self, max_workers=None, **kwargs):
            started.append(max_workers)
            super().__init__(max_workers=max_workers, **kwargs)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", Recording)
    config = small_config(trials=1, sweep_stop=200.0)  # 2 trials, so 2 one-trial ranges
    parallel = run_sweep(config, workers=6)
    assert started == [2]
    assert format_csv(parallel) == format_csv(run_sweep(config, workers=1))


def test_mean_is_exact_sum_over_trials():
    config = small_config(trials=32, sweep_stop=100.0)
    result = run_sweep(config)
    se, _, _ = run_chunk(config, 0, 32)
    for r_i, row in enumerate(result.rows):
        ses = se[:, r_i].tolist()
        assert row.mean_se_bps_hz == math.fsum(ses) / 32


def test_ci_shrinks_with_sqrt_of_trials():
    base = small_config(schemes=("JT-OMA",), sweep_stop=100.0)
    ci = {}
    for trials in (400, 800):
        result = run_sweep(replace(base, trials=trials))
        ci[trials] = result.rows[0].ci95
    assert ci[800] / ci[400] == pytest.approx(1.0 / math.sqrt(2.0), rel=0.10)


def test_series_accessors_and_counts():
    config = small_config()
    result = run_sweep(config)
    assert result.schemes == ("JT-NOMA", "JT-OMA")
    assert len(result.rows) == 6
    for scheme in result.schemes:
        series = result.series(scheme)
        assert [r.sweep_value for r in series] == [100.0, 200.0, 300.0]
        for row in series:
            assert row.trials == 40
            assert 0.0 <= row.infeasible_frac <= 1.0
            assert row.guarantee_violations == 0


def test_reference_tolerance_is_all_infeasible_at_sweep_geometry():
    config = config_from_dict(
        {
            "scenario_id": 1,
            "trials": 10,
            "sweep": {"start": 100.0, "stop": 100.0, "step": 50.0},
        }
    )
    assert config.radio.sic_tolerance == 100.0
    result = run_sweep(config)
    jt = result.series("JT-NOMA")[0]
    assert jt.infeasible_frac == 1.0
    # fallback rates are the orthogonal baseline, so means still exist
    assert jt.mean_se_bps_hz > 0.0


@settings(max_examples=200, deadline=None)
@given(st.lists(st.floats(-1e150, 1e150), min_size=1, max_size=40))
def test_reduce_point_mean_and_ci_are_the_literal_formulas(ses):
    n = len(ses)
    mean = math.fsum(ses) / n
    ci = 1.96 * math.sqrt(math.fsum((x - mean) ** 2 for x in ses) / (n - 1) / n) if n > 1 else 0.0
    # _reduce gets a column of the (trials, series) SE array: a strided view
    column = np.column_stack([ses, np.zeros(n)])[:, 0]
    for given_ses in (ses, column):
        row = harness._reduce_point(1.0, "x", given_ses, 0, 0)
        assert (row.mean_se_bps_hz.hex(), row.ci95.hex()) == (mean.hex(), ci.hex())


FIG6_FULL = {
    "schemes": ("JT-NOMA", "DPS-NOMA", "JT-OMA"),
    "interference_mode": "full",
    "jt_split": "equal_received",
}


@pytest.mark.parametrize("preset, overrides", [("fig5", {}), ("fig6", FIG6_FULL)], ids=("fig5", "fig6-full"))
def test_chunk_se_is_the_exact_sum_of_each_evaluated_row(preset, overrides):
    # run_chunk sums the baseline's rows once per block and reuses those sums
    # for the rows that are bit copies of them (infeasible NOMA trials, and
    # JT-OMA); every other row is summed on its own
    config = replace(PRESETS[preset](), trials=200, seed=9, **overrides)
    se, feasible, _ = run_chunk(config, 0, 3 * config.trials)  # one block over points 0-2
    values = sweep_values(config.sweep_start, config.sweep_stop, config.sweep_step)
    points = [scenarios.SweepPoint(config.scenario_id, v, config.radio, config.placement) for v in values[:3]]
    gains = np.concatenate([p.draw(config.seed, i, range(config.trials)) for i, p in enumerate(points)])
    base = scenarios.orthogonal_rates(points[0].layout, gains)
    mixed = []
    for r_i, (label, scheme, case) in enumerate(scheme_rows(config)):
        out, ok, _, _ = scenarios.evaluate(
            points[0].layout, gains, base, scheme, config.interference_mode, config.jt_split, case
        )
        want = np.array([math.fsum(row) for row in out.tolist()]) / config.radio.bandwidth_hz
        assert se[:, r_i].tobytes() == want.tobytes(), label
        assert feasible[:, r_i].tolist() == ok.tolist(), label
        if scheme.endswith("NOMA"):
            assert ok.any(), label
            mixed += [label] * (not ok.all())
    # both kinds of row are checked: fig5's JT-NOMA is feasible in every
    # trial, but its CS-NOMA and all of fig6-full's NOMA series fall back in some
    assert mixed == (["CS-NOMA"] if preset == "fig5" else ["JT-NOMA-case1", "JT-NOMA-case2", "DPS-NOMA"])


def test_block_placement_does_not_change_results(monkeypatch):
    # 150 trials per point: with any of these block sizes, blocks start and
    # end inside points and mix trials of neighbouring points, whose DPS-NOMA
    # cell choices and JT-NOMA decode cases each block solves in one call
    config = config_from_dict(
        {
            "scenario_id": 3,
            "schemes": ["JT-NOMA", "DPS-NOMA", "JT-OMA"],
            "decode_case": "both",
            "interference_mode": "full",
            "jt_split": "equal_received",
            "trials": 150,
            "seed": 77,
            "radio": {"sic_tolerance": 0.0},
        }
    )
    total = 150 * 8

    def outputs():
        # every row, with the guarantee violations the CSV leaves out
        return run_sweep(config).rows, run_chunk(config, 0, total)

    rows, arrays = outputs()
    assert harness._BLOCK == 1024
    assert any(row.infeasible_frac > 0.0 for row in rows)
    for block in (7, 512, 4096):
        monkeypatch.setattr(harness, "_BLOCK", block)
        got_rows, got_arrays = outputs()
        assert got_rows == rows, block
        for got, want in zip(got_arrays, arrays):
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes(), block


@pytest.mark.parametrize("workers", (1, 2))
def test_failures_name_seed_point_trials_and_series(monkeypatch, workers):
    # a kernel failure names the block's first and last (sweep index, trial)
    # and the series label, also when it is raised in a pool worker
    def broken(*args, **kwargs):
        raise FloatingPointError("injected")

    monkeypatch.setattr(scenarios, "_jt_noma", broken)
    config = small_config(trials=40)
    with pytest.raises(SweepError) as err:
        run_sweep(config, workers=workers)
    # serially one block spans all three points; a pool worker gets a shorter range
    last = "sweep_index=2 trial=39" if workers == 1 else r"sweep_index=\d+ trial=\d+"
    assert re.fullmatch(
        rf"seed=2026 from sweep_index=0 trial=0 to {last} series=JT-NOMA: FloatingPointError: injected",
        str(err.value),
    )

    # a failure while drawing a trial names that trial: here reseeding the
    # generator with its seed fails
    monkeypatch.undo()

    class Flaky(random.Random):
        def seed(self, a=None, version=2):
            if a == trial_seed(2026, 1, 7):
                raise ValueError("bad stream")
            super().seed(a, version)

    monkeypatch.setattr(scenarios, "_random", SimpleNamespace(Random=Flaky))
    with pytest.raises(SweepError) as err:
        run_sweep(small_config(trials=40), workers=workers)
    assert str(err.value) == "seed=2026 sweep_index=1 trial=7: ValueError: bad stream"

    # ... and here its placement: with one try per edge user, point 0's 50 m
    # edge region never meets coverage, and point 1's 120 m region first does
    # at trial 7 under seed 2028, in the middle of the block's draw
    monkeypatch.undo()
    monkeypatch.setattr(scenarios, "_MAX_PLACEMENT_DRAWS", 1)
    config = small_config(scenario_id=2, sweep_start=50.0, sweep_stop=190.0, sweep_step=70.0, seed=2028)
    with pytest.raises(SweepError) as err:
        run_sweep(config, workers=workers)
    assert str(err.value) == (
        "seed=2028 sweep_index=1 trial=7: DomainError: edge-user placement rejected too often;"
        " region outside coverage is empty"
    )
