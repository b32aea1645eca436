"""Acceptance gate: the eight release criteria, one test per criterion.

The three sweep presets run once each at full scale (50,000 trials per point,
single worker) in module fixtures; criteria share those results.  Each test
prints a one-line verdict so a -s run reads as a checklist.
"""

import math
import random
import time
from dataclasses import replace

import numpy as np
import pytest

from compnoma import EQUAL_TRANSMIT, PRESETS, harness, run_sweep
from compnoma.allocation import FEASIBLE, solve_jt
from compnoma.channel import RadioParams, gain_array
from compnoma.cli import format_csv
from compnoma.allocation import rates

from conftest import jt_order_mutants, one, oracle_agreement, random_problem, solve_one
from reference import ConditionViolation, guaranteed_users, validate_jt_conditions


def _timed_preset(name):
    """(config, result, seconds, guarantee checks) of a full-scale preset run.

    Every evaluate call of the run is checked as it returns: in each feasible
    trial of a NOMA series, every user that reference.guaranteed_users names
    from the gains alone must get its orthogonal rate (relative tolerance
    1e-9).  The checks map each scheme to [feasible trials, guaranteed
    (trial, user) entries, entries paid less]."""
    config = PRESETS[name]()
    assert config.trials == 50_000
    checks = {}
    real = harness.evaluate

    def checked(lay, g, base, scheme, mode, split, case):
        out, reason = real(lay, g, base, scheme, mode, split, case)
        if scheme.endswith("NOMA"):
            feasible = reason == FEASIBLE
            owed = guaranteed_users(lay.comp, lay.tails, g, scheme) & feasible[:, None]
            short = owed & (out < base * (1.0 - 1e-9))
            tally = checks.setdefault(scheme, [0, 0, 0])
            for i, count in enumerate((feasible, owed, short)):
                tally[i] += int(count.sum())
        return out, reason

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(harness, "evaluate", checked)
        t0 = time.monotonic()
        result = run_sweep(config, workers=1)
        return config, result, time.monotonic() - t0, checks


@pytest.fixture(scope="module")
def fig4_run():
    return _timed_preset("fig4")


@pytest.fixture(scope="module")
def fig5_run():
    return _timed_preset("fig5")


@pytest.fixture(scope="module")
def fig6_run():
    return _timed_preset("fig6")


def _means(result, scheme):
    return [r.mean_se_bps_hz for r in result.series(scheme)]


def _spearman(xs, ys):
    def ranks(vals):
        order = sorted(range(len(vals)), key=lambda i: vals[i])
        r = [0.0] * len(vals)
        for rank, i in enumerate(order):
            r[i] = float(rank)
        return r

    rx, ry = ranks(xs), ranks(ys)
    n = len(xs)
    d2 = sum((a - b) ** 2 for a, b in zip(rx, ry))
    return 1.0 - 6.0 * d2 / (n * (n * n - 1))


def test_criterion_1_oracle_equivalence():
    rng = random.Random(1001)
    t0 = time.monotonic()
    for t in range(1000):
        problem = random_problem(rng, p_tol=(0.0 if t % 2 == 0 else 100.0))
        ok, detail = oracle_agreement(problem, grid_points=1000)
        assert ok, f"instance {t}: {detail}"
    elapsed = time.monotonic() - t0
    assert elapsed < 120.0, f"oracle sweep took {elapsed:.1f}s"
    print(f"criterion 1 PASS: 1000 instances agree within 0.1% in {elapsed:.1f}s")


def test_criterion_2_non_head_guarantees(fig4_run, fig5_run, fig6_run):
    # the presets' evaluate calls were checked as they ran (_timed_preset)
    trials = entries = 0
    for config, _, _, checks in (fig4_run, fig5_run, fig6_run):
        noma = {s for s in config.schemes if s.endswith("NOMA")}
        assert set(checks) == noma, (config.schemes, sorted(checks))
        for scheme, (feasible, owed, short) in checks.items():
            assert feasible > 0 and owed > 0, (config.scenario_id, scheme)
            assert short == 0, f"scenario {config.scenario_id} {scheme}: {short} guaranteed users paid less"
            trials, entries = trials + feasible, entries + owed
    print(
        f"criterion 2 PASS: every guaranteed user paid its orthogonal rate in "
        f"{trials} feasible trial-series ({entries} guarantees)"
    )


def test_criterion_3_scenario_1_ordering(fig4_run):
    _, result, elapsed, _ = fig4_run
    noma = _means(result, "JT-NOMA")
    oma = _means(result, "JT-OMA")
    sweeps = [r.sweep_value for r in result.series("JT-NOMA")]
    assert len(noma) == 8
    for s, a, b in zip(sweeps, noma, oma):
        assert a > b, f"superposed mean not above orthogonal at {s} m"
    rho = _spearman(sweeps, noma)
    assert rho < -0.9, f"Spearman rho {rho:.3f}"
    per_point = elapsed / len(sweeps)
    assert per_point < 120.0, f"{per_point:.1f}s per sweep point"
    assert elapsed < 1200.0, f"{elapsed:.1f}s total"
    print(
        f"criterion 3 PASS: superposed > orthogonal at all 8 points, "
        f"rho={rho:.3f}, {per_point:.1f}s/point, {elapsed:.1f}s total"
    )


def test_criterion_4_scenario_2_ordering(fig5_run):
    _, result, _, _ = fig5_run
    jt = _means(result, "JT-NOMA")
    cs = _means(result, "CS-NOMA")
    oma = _means(result, "JT-OMA")
    sweeps = [r.sweep_value for r in result.series("JT-NOMA")]
    for s, a, b, c in zip(sweeps, jt, cs, oma):
        assert a > b > c, f"ordering broken at {s} m: jt={a} cs={b} oma={c}"
    print(
        "criterion 4 PASS: joint > coordinated-scheduling > orthogonal "
        f"at all {len(sweeps)} points"
    )


def test_criterion_5_scenario_3_cases(fig4_run, fig6_run):
    _, fig4_result, _, _ = fig4_run
    _, result, _, _ = fig6_run
    case1 = _means(result, "JT-NOMA-case1")
    case2 = _means(result, "JT-NOMA-case2")
    assert len(case1) == len(case2) == 8
    gaps = []
    for s, a, b in zip([r.sweep_value for r in result.series("JT-NOMA-case1")], case1, case2):
        assert a >= b, f"case-1 mean below case-2 at {s} m"
        gaps.append((a - b) / b)
    noma = _means(fig4_result, "JT-NOMA")
    oma = _means(fig4_result, "JT-OMA")
    reference_gap = min((a - b) / b for a, b in zip(noma, oma))
    assert max(gaps) < reference_gap, (
        f"case gap {max(gaps):.4f} not below scenario-1 gap {reference_gap:.4f}"
    )
    print(
        f"criterion 5 PASS: case-1 >= case-2 everywhere; max case gap "
        f"{max(gaps) * 100:.2f}% < scenario-1 gap {reference_gap * 100:.2f}%"
    )


def test_criterion_6_decode_order_mutants():
    rng = random.Random(1006)
    mutants = jt_order_mutants(rng, 200)
    assert len(mutants) == 200
    detected = 0
    for clusters, comp, which in mutants:
        try:
            validate_jt_conditions(clusters, comp)
        except ConditionViolation as err:
            if err.which == which:
                detected += 1
    assert detected == 200
    print("criterion 6 PASS: 200/200 mutated decode orders rejected with the right code")


def test_criterion_7_worker_invariance(fig4_run):
    config, serial_result, _, _ = fig4_run
    reference = format_csv(serial_result)
    for workers in (4, 16):
        result = run_sweep(config, workers=workers)
        assert format_csv(result) == reference, f"workers={workers} changed the CSV"
    # the chunking logic is scheme-independent; cross-check the other presets
    # at reduced scale under the extreme worker counts
    for name in ("fig5", "fig6"):
        small = replace(PRESETS[name](), trials=2000)
        csvs = {w: format_csv(run_sweep(small, workers=w)) for w in (1, 4, 16)}
        assert csvs[1] == csvs[4] == csvs[16], f"{name} varies with worker count"
    print("criterion 7 PASS: byte-identical CSV under 1, 4 and 16 workers")


def test_criterion_8_numerical_hygiene(fig4_run, fig5_run, fig6_run):
    # the joint solve with an empty shared prefix reduces to the single-cell
    # solver per cell, on one cell and on two: powers bit for bit when
    # feasible, verdicts always
    rng = random.Random(1008)
    for _ in range(100):
        p_tol = rng.choice((0.0, 100.0))
        problems = [random_problem(rng, p_tol=p_tol) for _ in range(2)]
        for cells in (problems[:1], problems):
            pw, reason, _, _, _ = solve_jt(
                [[]] * len(cells),
                [[one(g) for g in c.gains] for c in cells],
                [[one(r) for r in [*c.guarantees, 0.0]] for c in cells],
                None,
                [c.budget for c in cells],
                p_tol,
                1.0,
                EQUAL_TRANSMIT,
            )
            direct = [solve_one(*c) for c in cells]
            assert (reason[0] == FEASIBLE) == all(d[1] == FEASIBLE for d in direct)
            if reason[0] == FEASIBLE:
                assert [[float(p[0]) for p in cell_pw] for cell_pw in pw] == [d[0] for d in direct]

    # a faded-out link carries exactly zero rate
    g = gain_array(np.zeros(1), 220.0 ** -4.0, RadioParams())
    assert g.tolist() == [0.0]
    assert rates(8.64e6, RadioParams().tx_power_mw * g, 1.0).tolist() == [0.0]

    # every preset statistic is finite and serializable
    for _, result, _, _ in (fig4_run, fig5_run, fig6_run):
        for row in result.rows:
            assert math.isfinite(row.mean_se_bps_hz)
            assert math.isfinite(row.ci95)
            assert 0.0 <= row.infeasible_frac <= 1.0
        format_csv(result)
    print(
        "criterion 8 PASS: empty-prefix joint solve reduces exactly to the "
        "single-cell solver, zero-fading rate 0, "
        "all preset outputs finite"
    )
