"""Sweep driver: trial seeds, grids, series labels, reductions, worker parity."""

import math
import os
import random
import re
import tracemalloc
from dataclasses import replace
from pathlib import Path
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
from compnoma.allocation import FEASIBLE, seq_sum
from compnoma.channel import BANDWIDTH_HZ
from compnoma.cli import format_csv
from compnoma.config import ALLOWED_SCHEMES
from compnoma import allocation, harness, scenarios
from compnoma.harness import run_chunk, scheme_rows
from compnoma.scenarios import SWEEP_M, draw_block

from reference import trial_seed


def small_config(**overrides) -> ExperimentConfig:
    base = dict(
        scenario_id=1,
        schemes=("JT-NOMA", "JT-OMA"),
        trials=40,
        seed=2026,
    )
    base.update(overrides)
    return ExperimentConfig(**base)


def trial_rng(s, w, t) -> random.Random:
    return random.Random(trial_seed(s, w, t))


def test_trial_seeds_are_deterministic_distinct_and_masked_to_64_bits():
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
    point = scenarios.SweepPoint(1, 200.0, PRESETS["fig4"]().radio)
    for s, w, t in ((0, 0, 0), (2026, 3, 99), (-1, 2**64 + 5, 2**63)):
        masked = [draw_block(s & mask, [(point, w & mask, [u & mask])]).tolist()[0] for u in (t - 1, t)]
        assert draw_block(s, [(point, w, [t - 1, t])]).tolist() == masked


def test_sweep_grid_is_the_papers_50_to_400_m():
    # every run sweeps the grid of the paper's Figs. 4-6, bit for bit, and
    # the CSV prints its values as the golden files key their rows
    assert [v.hex() for v in SWEEP_M] == [
        "0x1.9000000000000p+5", "0x1.9000000000000p+6", "0x1.2c00000000000p+7", "0x1.9000000000000p+7",
        "0x1.f400000000000p+7", "0x1.2c00000000000p+8", "0x1.5e00000000000p+8", "0x1.9000000000000p+8",
    ]
    assert SWEEP_M == (50.0, 100.0, 150.0, 200.0, 250.0, 300.0, 350.0, 400.0)
    golden = (Path(__file__).parent / "golden" / "fig5.csv").read_text(encoding="utf-8")
    keys = dict.fromkeys(line.split(",")[0] for line in golden.splitlines()[1:])
    assert [f"{v:{harness.CSV_NUMBER}}" for v in SWEEP_M] == list(keys)


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
    # the cases are the scenario's, wherever JT-NOMA sits in the list
    assert [scenarios.decode_cases(i) for i in (1, 2, 3)] == [("case1",), ("case1",), ("case1", "case2")]
    listed = replace(fig6, schemes=("DPS-NOMA", "JT-NOMA"))
    assert [label for label, _, _ in scheme_rows(listed)] == ["DPS-NOMA", "JT-NOMA-case1", "JT-NOMA-case2"]


def test_single_trial_matches_direct_evaluation():
    config = small_config(trials=1)
    result = run_sweep(config)
    direct = {}
    for s_i, value in enumerate(SWEEP_M):
        point = scenarios.SweepPoint(1, value, config.radio)
        gains = draw_block(config.seed, [(point, s_i, [0])])
        base = scenarios.orthogonal_rates(point.layout, gains)
        for label, scheme, case in scheme_rows(config):
            out, reason = scenarios.evaluate(
                point.layout, gains, base, scheme, config.interference_mode, config.jt_split, case
            )
            direct[value, label] = (seq_sum(out[0].tolist()) / BANDWIDTH_HZ, reason[0] == FEASIBLE)
    assert len(result.rows) == len(direct) == 2 * 8
    for row in result.rows:
        assert row.trials == 1
        assert row.ci95 == 0.0
        se, feasible = direct[row.sweep_value, row.scheme]
        assert row.mean_se_bps_hz == se
        assert row.infeasible_frac == (0.0 if feasible else 1.0)


def test_worker_count_does_not_change_output():
    config = small_config(trials=48)
    serial = run_sweep(config, workers=1)
    parallel = run_sweep(config, workers=4)
    assert format_csv(serial) == format_csv(parallel)
    assert serial.rows == parallel.rows


def test_pool_starts_no_more_workers_than_ranges(monkeypatch):
    import concurrent.futures

    monkeypatch.setattr(os, "cpu_count", lambda: 8)
    started = []

    class Recording(concurrent.futures.ProcessPoolExecutor):
        def __init__(self, max_workers=None, **kwargs):
            started.append(max_workers)
            super().__init__(max_workers=max_workers, **kwargs)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", Recording)
    config = small_config(trials=1)  # 8 trials over 6 workers: 4 two-trial ranges
    parallel = run_sweep(config, workers=6)
    assert started == [4]
    assert format_csv(parallel) == format_csv(run_sweep(config, workers=1))


@pytest.mark.parametrize("cpus, processes", ((3, 3), (None, 1)))
def test_pool_starts_no_more_workers_than_cpus(monkeypatch, cpus, processes):
    # the stand-in records the pool size asked for but starts at most 2
    # processes, so a run_sweep that asks for one per range starts no more
    import concurrent.futures

    asked, ranges = [], []

    class Capped(concurrent.futures.ProcessPoolExecutor):
        def __init__(self, max_workers=None, **kwargs):
            asked.append(max_workers)
            super().__init__(max_workers=min(max_workers, 2), **kwargs)

        def submit(self, fn, *args):
            ranges.append(args[1:])
            return super().submit(fn, *args)

    monkeypatch.setattr(os, "cpu_count", lambda: cpus)
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", Capped)
    config = small_config(trials=3)  # 24 trials, cut by the 64 workers asked for, not by the CPUs
    parallel = run_sweep(config, workers=64)
    assert asked == [processes]
    assert ranges == [(t, t + 1) for t in range(24)]
    assert format_csv(parallel) == format_csv(run_sweep(config, workers=1))


def handed_out_ranges(monkeypatch, config, workers):
    """The (start, stop) ranges run_sweep hands out: run_chunk's arguments
    on a serial run, the pool's submit arguments otherwise."""
    import concurrent.futures

    ranges = []
    if workers == 1:
        real = harness.run_chunk

        def spy(config, start, stop):
            ranges.append((start, stop))
            return real(config, start, stop)

        monkeypatch.setattr(harness, "run_chunk", spy)
    else:

        class Recording(concurrent.futures.ProcessPoolExecutor):
            def submit(self, fn, *args):
                ranges.append(args[1:])
                return super().submit(fn, *args)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", Recording)
    run_sweep(config, workers=workers)
    return ranges


@pytest.mark.parametrize(
    "make, workers, block, expected",
    [
        (lambda: small_config(trials=15), 1, None, [(0, 120)]),
        (lambda: small_config(trials=150), 1, None, [(0, 1024), (1024, 1200)]),
        (lambda: small_config(trials=15), 1, 64, [(0, 64), (64, 120)]),
        # the benchmark's pool sweep: fig6-full, 75 trials per point, 2 workers
        (lambda: replace(PRESETS["fig6"](), trials=75, **FIG6_FULL), 2, None, [(0, 300), (300, 600)]),
        (lambda: small_config(trials=19), 4, None, [(0, 38), (38, 76), (76, 114), (114, 152)]),
        (lambda: small_config(trials=75), 2, 64, [(lo, min(lo + 64, 600)) for lo in range(0, 600, 64)]),
    ],
    ids=(
        "serial-one-range", "serial-block-binds", "serial-small-block",
        "pool-fig6-full", "pool-share-binds", "pool-block-binds",
    ),
)
def test_sweep_is_cut_into_blocks_of_at_most_a_workers_share(monkeypatch, make, workers, block, expected):
    # serial or pooled, each range handed out is one kernel block of at most
    # _BLOCK trials and at most a worker's share, and the ranges tile the
    # flat trial sequence in order with no more ranges than that needs
    config = make()
    if block is not None:
        monkeypatch.setattr(harness, "_BLOCK", block)
    ranges = handed_out_ranges(monkeypatch, config, workers)
    total = config.trials * len(SWEEP_M)
    share = -(-total // workers)
    assert ranges[0][0] == 0 and ranges[-1][1] == total
    assert all(hi == lo for (_, hi), (lo, _) in zip(ranges, ranges[1:]))
    assert all(0 < hi - lo <= min(harness._BLOCK, share) for lo, hi in ranges)
    assert len(ranges) == -(-total // min(harness._BLOCK, share))
    assert ranges == expected


def test_mean_is_exact_sum_over_trials():
    config = small_config(trials=32)
    result = run_sweep(config)
    se, _ = run_chunk(config, 0, 32 * 8)
    for i, row in enumerate(result.rows):
        s_i, r_i = divmod(i, 2)
        ses = se[32 * s_i:32 * (s_i + 1), r_i].tolist()
        assert row.mean_se_bps_hz == math.fsum(ses) / 32


def test_ci_shrinks_with_sqrt_of_trials():
    # JT-OMA at 100 m, sweep index 1, reduced as run_sweep reduces a point
    base = small_config(schemes=("JT-OMA",))
    ci = {}
    for trials in (400, 800):
        se, _ = run_chunk(replace(base, trials=trials), trials, 2 * trials)
        ci[trials] = harness._reduce_point(100.0, "JT-OMA", se[:, 0], 0).ci95
    assert ci[800] / ci[400] == pytest.approx(1.0 / math.sqrt(2.0), rel=0.10)


def test_series_accessors_and_counts():
    config = small_config()
    result = run_sweep(config)
    schemes = tuple(dict.fromkeys(r.scheme for r in result.rows))
    assert schemes == ("JT-NOMA", "JT-OMA")
    assert len(result.rows) == 16
    for scheme in schemes:
        series = result.series(scheme)
        assert [r.sweep_value for r in series] == list(SWEEP_M)
        for row in series:
            assert row.trials == 40
            assert 0.0 <= row.infeasible_frac <= 1.0


def test_reference_tolerance_is_all_infeasible_at_sweep_geometry():
    config = config_from_dict({"scenario_id": 1, "trials": 10, "radio": {"sic_tolerance": 100.0}})
    assert config.radio.sic_tolerance == 100.0
    se, feasible = run_chunk(config, 10, 20)  # the 100 m point, sweep index 1
    assert scheme_rows(config)[0][0] == "JT-NOMA"
    assert not feasible[:, 0].any()
    # fallback rates are the orthogonal baseline, so means still exist
    assert math.fsum(se[:, 0].tolist()) / 10 > 0.0


@pytest.mark.parametrize("scenario", (1, 2, 3))
def test_default_config_is_not_degenerate(scenario):
    # a run without a preset uses the reference radio, so its superposed
    # series are the scheme's own rates: none falls back to the baseline in
    # every trial of a point, and JT-NOMA, under each decode case, beats
    # JT-OMA at every point
    config = config_from_dict({"scenario_id": scenario, "trials": 300, "seed": 3})
    result = run_sweep(config)
    for row in result.rows:
        assert "NOMA" not in row.scheme or row.infeasible_frac < 1.0, row
    jt_labels = [label for label, scheme, _ in scheme_rows(config) if scheme == "JT-NOMA"]
    assert len(jt_labels) == (2 if scenario == 3 else 1)
    for label in jt_labels:
        for jt, oma in zip(result.series(label), result.series("JT-OMA"), strict=True):
            assert jt.mean_se_bps_hz > oma.mean_se_bps_hz, (jt, oma)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.floats(-1e150, 1e150), min_size=1, max_size=40))
def test_reduce_point_mean_and_ci_are_the_literal_formulas(ses):
    n = len(ses)
    mean = math.fsum(ses) / n
    ci = 1.96 * math.sqrt(math.fsum((x - mean) ** 2 for x in ses) / (n - 1) / n) if n > 1 else 0.0
    # _reduce gets a column of the (trials, series) SE array: a strided view,
    # which _reduce_point sums through a memoryview, as the list would be summed
    column = np.column_stack([ses, np.zeros(n)])[:, 0]
    for given_ses in (ses, column):
        row = harness._reduce_point(1.0, "x", given_ses, 0)
        assert (row.mean_se_bps_hz.hex(), row.ci95.hex()) == (mean.hex(), ci.hex())


@settings(max_examples=300, deadline=None)
@given(st.sampled_from([1e-310, 1e-160, 1e-3, 1.0, 1e100]), st.lists(st.floats(-1.0, 1.0), min_size=2, max_size=40))
def test_reduce_point_ci_squares_each_deviation_with_libm_pow(scale, units):
    # numpy's float_power calls libm pow per element, so ci95 is the literal
    # pow(d, 2.0) formula bit for bit, for deviations of either sign whose
    # squares are subnormal or underflow (scale 1e-310, 1e-160), ordinary,
    # or near 1e200; d * d differs from pow(d, 2.0) on some inputs
    ses = [u * scale for u in units]
    n = len(ses)
    mean = math.fsum(ses) / n
    ci = 1.96 * math.sqrt(math.fsum(pow(x - mean, 2.0) for x in ses) / (n - 1) / n)
    assert harness._reduce_point(1.0, "x", ses, 0).ci95.hex() == ci.hex()


def test_block_traced_peak_is_a_small_multiple_of_its_gain_array():
    # one 1,024-trial oma-baselines block (scenario 2, JT-OMA and CS-OMA)
    # peaks at 5.1x its gain array's bytes under tracemalloc; block-sized
    # lists of Python objects (the draw's words, fading inputs or edge terms,
    # or per-row floats for the sums) take it past the 8x bound, to 11.7x
    config = small_config(scenario_id=2, schemes=("JT-OMA", "CS-OMA"), trials=1024)
    run_chunk(config, 0, 1024)  # the first call fills lazy caches outside the trace
    gains = draw_block(config.seed, [(scenarios.SweepPoint(2, 100.0, config.radio), 1, range(1024))])
    tracemalloc.start()
    try:
        run_chunk(config, 1024, 2048)  # point 1's trials: the block of gains
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * gains.nbytes, peak / gains.nbytes


FIG6_FULL = {
    "schemes": ("JT-NOMA", "DPS-NOMA", "JT-OMA"),
    "interference_mode": "full",
    "jt_split": "equal_received",
}


@pytest.mark.parametrize("preset, overrides", [("fig5", {}), ("fig6", FIG6_FULL)], ids=("fig5", "fig6-full"))
def test_chunk_se_is_the_seq_sum_of_each_evaluated_row(preset, overrides):
    # every series' trial is its evaluated row, the baseline's bits where
    # the trial is infeasible and for JT-OMA, summed left to right in user
    # order as one scalar seq_sum of the listed row would sum it
    config = replace(PRESETS[preset](), trials=200, seed=9, **overrides)
    se, feasible = run_chunk(config, 0, 3 * config.trials)  # one block over points 0-2
    points = [scenarios.SweepPoint(config.scenario_id, v, config.radio) for v in SWEEP_M[:3]]
    gains = draw_block(config.seed, [(p, i, range(config.trials)) for i, p in enumerate(points)])
    base = scenarios.orthogonal_rates(points[0].layout, gains)
    mixed = []
    for r_i, (label, scheme, case) in enumerate(scheme_rows(config)):
        out, reason = scenarios.evaluate(
            points[0].layout, gains, base, scheme, config.interference_mode, config.jt_split, case
        )
        ok = reason == FEASIBLE
        want = np.array([seq_sum(row) for row in out.tolist()]) / BANDWIDTH_HZ
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
    # cell choices each block solves in one call
    config = config_from_dict(
        {
            "scenario_id": 3,
            "schemes": ["JT-NOMA", "DPS-NOMA", "JT-OMA"],
            "interference_mode": "full",
            "jt_split": "equal_received",
            "trials": 150,
            "seed": 77,
        }
    )
    total = 150 * 8

    # every row, unrounded, and every per-trial array
    rows, arrays = run_sweep(config).rows, run_chunk(config, 0, total)
    assert harness._BLOCK == 1024
    assert any(row.infeasible_frac > 0.0 for row in rows)
    for block in (7, 512, 4096):
        monkeypatch.setattr(harness, "_BLOCK", block)
        assert run_sweep(config).rows == rows, block
        cuts = [run_chunk(config, lo, min(lo + block, total)) for lo in range(0, total, block)]
        for got, want in zip(map(np.concatenate, zip(*cuts)), arrays):
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes(), block


def scaling_configs(scenario, trials):
    """Every series of the scenario (scenario 3 with both decode cases) under
    both interference modes, both splits and sic_tolerance 0 and 1, seed 5."""
    for mode in ("negligible", "full"):
        for split in ("equal_transmit", "equal_received"):
            for tolerance in (0.0, 1.0):
                yield config_from_dict(
                    {
                        "scenario_id": scenario,
                        "schemes": list(ALLOWED_SCHEMES[scenario]),
                        "interference_mode": mode,
                        "jt_split": split,
                        "trials": trials,
                        "seed": 5,
                        "radio": {"sic_tolerance": tolerance},
                    }
                )


def scaled(config, k):
    """config with the transmit power and the noise density both times k."""
    radio = config.radio
    return replace(
        config,
        radio=replace(radio, tx_power_mw=radio.tx_power_mw * k, noise_density_mw_hz=radio.noise_density_mw_hz * k),
    )


@pytest.mark.parametrize("scenario", (1, 2, 3))
def test_power_and_noise_scaled_together_change_no_bit(scenario):
    # gains are divided by the noise density and every power is a multiple of
    # the transmit power, so scaling both by a power of two scales every power
    # and gain exactly: every noise-normalized SNR, and so every rate and
    # verdict, is the same double
    verdicts = set()
    for config in scaling_configs(scenario, 100):
        for lo in (100, 700):  # the 100 m and 400 m points
            se, feasible = run_chunk(config, lo, lo + 100)
            verdicts.update(feasible.ravel().tolist())
            where = (lo, config.interference_mode, config.jt_split, config.radio.sic_tolerance)
            for k in (4.0, 0.25):
                got = run_chunk(scaled(config, k), lo, lo + 100)
                assert got[0].tobytes() == se.tobytes(), (*where, k)
                assert got[1].tobytes() == feasible.tobytes(), (*where, k)
    assert verdicts == {True, False}


@pytest.mark.parametrize("scenario", (1, 2, 3))
def test_power_and_noise_scaled_by_other_factors_keep_every_verdict(scenario):
    # scaling both by 10 or 1/3 is not exact in binary, so each scaled gain
    # and power is rounded afresh and SE bits may move, by rounding only:
    # no verdict may flip (seed, sizes and bound fixed before the first run)
    trials, rel_bound = 200, 1e-11
    verdicts, moved = set(), False
    for config in scaling_configs(scenario, trials):
        total = len(SWEEP_M) * trials
        labels = [label for label, _, _ in scheme_rows(config)]
        se, feasible = run_chunk(config, 0, total)
        verdicts.update(feasible.ravel().tolist())
        for k in (10.0, 1.0 / 3.0):
            got_se, got_feasible = run_chunk(scaled(config, k), 0, total)
            moved |= got_se.tobytes() != se.tobytes()
            where = (
                f"scenario {scenario}, {config.interference_mode}, {config.jt_split},"
                f" sic_tolerance {config.radio.sic_tolerance}, x{k:.4g}"
            )
            for what, bad in (
                ("verdict flips", got_feasible != feasible),
                ("SE moves past the bound", ~(np.abs(got_se - se) <= rel_bound * np.abs(se))),
            ):
                for flat, r_i in np.argwhere(bad)[:1]:
                    pytest.fail(
                        f"{where}: {what} at sweep_index={flat // trials} trial={flat % trials}"
                        f" series={labels[r_i]}: {float(se[flat, r_i])!r} -> {float(got_se[flat, r_i])!r}"
                    )
    assert verdicts == {True, False}
    assert moved


@pytest.mark.parametrize("split", ("equal_transmit", "equal_received"))
def test_scenario_3_jt_noma_does_not_depend_on_interference_mode(split):
    # cell 2 has no single-cell user in scenario 3: once the shared signals
    # are cancelled none of its power is left to interfere, so JT-NOMA's rows
    # are the same under both interference modes; DPS-NOMA's cells serve
    # separate clusters, which do interfere
    results = [
        run_sweep(
            config_from_dict(
                {
                    "scenario_id": 3,
                    "schemes": ["JT-NOMA", "DPS-NOMA", "JT-OMA"],
                    "interference_mode": mode,
                    "jt_split": split,
                    "trials": 500,
                    "seed": 5,
                }
            )
        )
        for mode in ("negligible", "full")
    ]
    negligible, full = (r.series for r in results)
    for label in ("JT-NOMA-case1", "JT-NOMA-case2"):
        assert full(label) == negligible(label), label
    assert full("DPS-NOMA") != negligible("DPS-NOMA")


def test_audit_slack_decides_presence_not_size(monkeypatch):
    # minimum-power sizing puts every non-head's rate at its guarantee and
    # rounding puts about half of them just below it, so the audit needs a
    # slack; it must decide whether such a verdict passes, not by how much,
    # so every verdict is the same at a slack of 1e-12 and of 1e-6.  At 0,
    # rounding alone fails trials, which shows the patch reaches the audit
    for preset in ("fig4", "fig5", "fig6"):
        config = replace(PRESETS[preset](), trials=500, seed=77)
        labels = [label for label, _, _ in scheme_rows(config)]
        verdicts = {}
        for slack in (1e-12, 1e-6, 0.0):
            monkeypatch.setattr(allocation, "REL_SLACK", slack)
            verdicts[slack] = run_chunk(config, 0, 8 * config.trials)[1]
        flips = [
            f"{preset} sweep_index={k // config.trials} trial={k % config.trials} series={labels[s]}"
            for k, s in np.argwhere(verdicts[1e-12] != verdicts[1e-6])
        ]
        assert not flips, flips[:10]
        assert (verdicts[0.0] != verdicts[1e-12]).any(), preset


@pytest.mark.parametrize("workers", (1, 2))
def test_failures_name_seed_point_trials_and_series(monkeypatch, workers):
    # a kernel failure, or one in the draw's steps after its loop over the
    # trials, names the block's first and last (sweep index, trial) and the
    # one series label, also when it is raised in a pool worker; with both
    # decode cases, JT-NOMA's first series fails first
    def broken(*args, **kwargs):
        raise FloatingPointError("injected")

    config = small_config(trials=40)
    both = small_config(trials=40, scenario_id=3)
    # serially one block spans all eight points; a pool worker gets a shorter range
    last = "sweep_index=7 trial=39" if workers == 1 else r"sweep_index=\d+ trial=\d+"
    for conf, name, label in (
        (config, "_jt_noma", "JT-NOMA"), (config, "gain_array", "draw"), (both, "_jt_noma", "JT-NOMA-case1"),
    ):
        monkeypatch.setattr(scenarios, name, broken)
        with pytest.raises(SweepError) as err:
            run_sweep(conf, workers=workers)
        assert re.fullmatch(
            rf"seed=2026 from sweep_index=0 trial=0 to {last} series={label}: FloatingPointError: injected",
            str(err.value),
        ), (name, label)
        monkeypatch.undo()

    # a failure while drawing a trial names that trial: here reseeding the
    # generator with its seed fails
    class Flaky(random.Random):
        def seed(self, a=None, version=2):
            if a == trial_seed(2026, 1, 7):
                raise ValueError("bad stream")
            super().seed(a, version)

    monkeypatch.setattr(scenarios, "_random", SimpleNamespace(Random=Flaky))
    with pytest.raises(SweepError) as err:
        run_sweep(small_config(trials=40), workers=workers)
    assert str(err.value) == "seed=2026 sweep_index=1 trial=7: ValueError: bad stream"
