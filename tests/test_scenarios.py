"""Sweep-point geometry, orthogonal baselines, and the scheme dispatcher."""

import math
import random
import re
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from compnoma import (
    EQUAL_RECEIVED,
    EQUAL_TRANSMIT,
    ConfigError,
    DomainError,
    RadioParams,
)
from compnoma import harness, scenarios
from compnoma.allocation import FEASIBLE, REL_SLACK, SIC_GAP
from compnoma.config import ALLOWED_SCHEMES, PRESETS, config_from_dict
from compnoma.harness import run_chunk, scheme_rows, sweep_values
from compnoma.scenarios import (
    DISC,
    RING,
    SweepPoint,
    _draw_trials,
    _edge_order,
    draw_block,
    evaluate,
    orthogonal_rates,
)

from conftest import COVERAGE_M, SITES, draw_edge_position, solve_one
from reference import (
    Band,
    ChannelRealization,
    NomaCluster,
    PowerAllocation,
    dps_select_cell,
    edge_radius_cdf,
    guaranteed_users,
    lens_area,
    noncomp_user_rate,
    sic_feasible,
    user_rate_single_cell,
    validate_jt_conditions,
)
from golden.make_golden import TRIAL_CONFIGS, TRIAL_POINTS, TRIALS_PER_POINT, golden_config

# unit band and unit gains make rate identities exact by hand
UNIT_RADIO = RadioParams(
    tx_power_mw=3.0,
    noise_density_mw_hz=1.0,
    bandwidth_hz=1.0,
    pathloss_exponent=4.0,
    sic_tolerance=0.0,
)


def all_ones_gains(point: SweepPoint) -> np.ndarray:
    """One trial's (1, cells, users) gain array with every link at 1."""
    return np.ones((1, 2, len(point.layout.user_ids)))


def by_user(point: SweepPoint, row: np.ndarray) -> dict:
    return dict(zip(point.layout.user_ids, row.tolist()))


def edge_positions(point: SweepPoint, rng) -> list:
    """The jointly served users' positions, drawn as draw_block does."""
    radius, law = point.edge_region
    return [draw_edge_position(rng, radius, law) for _ in point.layout.comp]


def run(point, g, scheme, interference_mode="negligible", case="case1"):
    """evaluate on a block under one decode case: (rates, baseline,
    feasible, reason)."""
    base = orthogonal_rates(point.layout, g)
    out, reason = evaluate(point.layout, g, base, scheme, interference_mode, EQUAL_TRANSMIT, case)
    return out, base, reason == FEASIBLE, reason


def test_scenario_1_shape():
    point = SweepPoint(1, 350.0, RadioParams(), DISC)
    lay = point.layout
    assert lay.user_ids == (1, 11, 12, 21, 22)
    assert [lay.user_ids[c] for c in lay.comp] == [1]
    assert [[lay.user_ids[c] for c in tail] for tail in lay.tails] == [[11, 12], [21, 22]]
    # single-cell users at x = -850, -800, 850 and 800, sites at -500 and 500
    distances = {11: (350.0, 1350.0), 12: (300.0, 1300.0), 21: (1350.0, 350.0), 22: (1300.0, 300.0)}
    for uid, (d1, d2) in distances.items():
        assert point.terms[:, lay.user_ids.index(uid)].tolist() == [d1 ** -4.0, d2 ** -4.0]
    assert point.terms[:, lay.comp].tolist() == [[0.0], [0.0]]
    assert point.edge_region == (200.0, DISC)
    # edge user: inside the midpoint disc, outside both coverage discs
    [(x, y)] = edge_positions(point, random.Random(5))
    assert math.hypot(x, y) <= 200.0
    for cx, cy in SITES:
        assert math.hypot(x - cx, y - cy) > 400.0


def test_scenario_2_and_3_shapes():
    rng = random.Random(6)
    s2 = SweepPoint(2, 120.0, RadioParams(), DISC)
    assert s2.layout.user_ids == (1, 2, 11, 21)
    assert s2.layout.comp == (0, 1)
    assert s2.layout.tails == ((2,), (3,))
    assert s2.terms[:, 2].tolist() == [250.0 ** -4.0, 1250.0 ** -4.0]
    assert s2.terms[:, 3].tolist() == [1250.0 ** -4.0, 250.0 ** -4.0]
    s3 = SweepPoint(3, 120.0, RadioParams(), DISC)
    assert s3.layout.user_ids == (1, 2, 11)
    assert s3.layout.tails == ((2,), ())
    for point in (s2, s3):
        assert point.edge_region[0] == 120.0
        for x, y in edge_positions(point, rng):
            assert math.hypot(x, y) <= 120.0


@pytest.mark.parametrize("preset", ("fig4", "fig5", "fig6"))
def test_every_point_of_a_grid_shares_one_layout(preset):
    # run_chunk evaluates a block that crosses points with its last point's
    # Layout, and draw_block forms every segment's gains with the first
    # segment's radio: both need every point of a config to have an equal
    # Layout, its radio included
    radio = RadioParams(tx_power_mw=5e3, bandwidth_hz=2e6, pathloss_exponent=3.5, sic_tolerance=1.0)
    for law in (DISC, RING):
        config = replace(PRESETS[preset](), radio=radio, edge_region_law=law)
        values = sweep_values(config.sweep_start, config.sweep_stop, config.sweep_step)
        layouts = {SweepPoint(config.scenario_id, v, config.radio, config.edge_region_law).layout for v in values}
        assert len(values) == 8 and len(layouts) == 1, (law, layouts)
        assert layouts.pop().radio == radio


def test_edge_region_laws():
    rng = random.Random(7)
    for sweep in (50.0, 175.0, 400.0):
        point = SweepPoint(2, sweep, RadioParams(), DISC)
        for x, y in edge_positions(point, rng):
            assert math.hypot(x, y) <= sweep + 1e-9
    for sweep in (50.0, 300.0):
        point = SweepPoint(2, sweep, RadioParams(), RING)
        for x, y in edge_positions(point, rng):
            assert math.hypot(x, y) == pytest.approx(sweep, rel=1e-12)
            for cx, cy in SITES:
                assert math.hypot(x - cx, y - cy) > 400.0


def ks_distance(samples, cdf) -> float:
    """Kolmogorov-Smirnov distance between samples and a continuous law."""
    x = np.sort(samples)
    n = len(x)
    f = np.array([cdf(v) for v in x.tolist()])
    return float(max((np.arange(1, n + 1) / n - f).max(), (f - np.arange(n) / n).max()))


def test_edge_placement_follows_the_closed_form_laws():
    # The admissible region is the midpoint disc minus two lenses, so the
    # disc law's radius has the closed-form F of reference.edge_radius_cdf;
    # on the ring, cos(theta) < c excludes a site's coverage disc, so
    # arccos|cos theta| is uniform on [arccos min(1, c), pi/2].  Seed, sample
    # size and radii were fixed before the first run; 1.95 / sqrt(n) is about
    # the 0.1% critical value.  The reference draw is SweepPoint.draw's, bit
    # for bit (test_channel).
    n, h, rho = 20_000, SITES[1][0], COVERAGE_M
    limit = 1.95 / math.sqrt(n)
    rng = random.Random(1703)
    for radius in (80.0, 200.0, 300.0, 400.0):  # 80 m lies inside h - rho: no rejection
        r = [math.hypot(*draw_edge_position(rng, radius, DISC)) for _ in range(n)]
        d = ks_distance(r, lambda x: edge_radius_cdf(x, radius, rho, h))
        assert d < limit, ("disc", radius, d)
    for radius in (50.0, 200.0, 300.0, 400.0):
        lo = math.acos(min(1.0, (radius ** 2 + h * h - rho * rho) / (2.0 * radius * h)))
        x = [draw_edge_position(rng, radius, RING)[0] for _ in range(n)]
        phi = [math.acos(min(1.0, abs(v) / radius)) for v in x]
        d = ks_distance(phi, lambda a: (a - lo) / (math.pi / 2.0 - lo))
        assert d < limit, ("ring", radius, d)


def test_edge_angle_given_radius_is_uniform_on_the_disc_law():
    # A point at radius r and angle theta lies outside both coverage discs
    # exactly where |cos theta| < c(r) = min(1, (r^2 + h^2 - rho^2) / (2 r h)),
    # and the disc law draws theta uniformly and independently of r, so
    # given r, u = arccos(|x| / r) is uniform on [arccos c(r), pi/2], and v
    # below is Uniform(0, 1) whatever r's law.
    # Each radius draws from its own generator seeded 1703; seed, sample size
    # and limit were fixed before the first run, as in the test above.
    n, h, rho = 20_000, SITES[1][0], COVERAGE_M
    limit = 1.95 / math.sqrt(n)
    for radius in (80.0, 200.0, 300.0, 400.0):
        rng, v = random.Random(1703), []
        for _ in range(n):
            x, y = draw_edge_position(rng, radius, DISC)
            r = math.hypot(x, y)
            lo = math.acos(min(1.0, (r * r + h * h - rho * rho) / (2.0 * r * h)))
            v.append((math.acos(min(1.0, abs(x) / r)) - lo) / (math.pi / 2.0 - lo))
        d = ks_distance(v, lambda a: min(max(a, 0.0), 1.0))
        assert d < limit, (radius, d)


def test_every_edge_region_admits_a_fixed_share_of_draws():
    # draw_block redraws an edge user, with no bound on the tries, until it
    # lands outside both coverage discs.  That ends because at the fixed
    # geometry every edge-region radius admits at least 0.409 of the ring
    # law's draws (the least, 1 - 2 arccos(0.6) / pi, at 300 m) and 0.470 of
    # the disc law's (its midpoint disc minus two lenses; the least near
    # 489 m).  Both bounds were fixed before the first run.
    h, rho = SITES[1][0], COVERAGE_M
    for radius in [10.0 ** (k / 20.0) for k in range(-40, 121)] + [300.0, 489.1]:
        c = (radius ** 2 + h * h - rho * rho) / (2.0 * radius * h)
        ring = 1.0 - 2.0 * math.acos(min(1.0, c)) / math.pi
        disc = 1.0 - 2.0 * lens_area(radius, rho, h) / (math.pi * radius ** 2)
        assert ring >= 0.409, (radius, ring)
        assert disc >= 0.470, (radius, disc)


@settings(max_examples=200, deadline=None)
@given(st.sampled_from([2, 3]), st.sampled_from([DISC, RING]), st.floats(-3.0, 6.0), st.integers(0, 2**64 - 1))
def test_edge_placement_ends_beyond_coverage_at_any_radius(scenario, law, exponent, seed):
    # edge-region radii log-uniform on [1e-3, 1e6] m: the draw ends, and
    # every edge user's distance terms are those of a point beyond both
    # coverage discs
    point = SweepPoint(scenario, 10.0 ** exponent, RadioParams(), law)
    _, terms = _draw_trials(seed, [(point, 0, range(8))])
    edge = terms[:, :, list(point.layout.comp)]
    assert (edge > 0.0).all()
    assert (edge <= COVERAGE_M ** -point.layout.radio.pathloss_exponent).all()


def test_builder_validation():
    with pytest.raises(ConfigError):
        SweepPoint(4, 100.0, RadioParams(), DISC)
    with pytest.raises(DomainError):
        SweepPoint(1, 0.0, RadioParams(), DISC)
    with pytest.raises(DomainError):
        SweepPoint(1, -5.0, RadioParams(), DISC)
    # swept single-cell distance is capped by the coverage radius, inclusive
    SweepPoint(1, 400.0, RadioParams(), DISC)
    with pytest.raises(DomainError, match="^single-cell user distance 400.0001 exceeds coverage 400.0$"):
        SweepPoint(1, 400.0001, RadioParams(), DISC)
    with pytest.raises(DomainError, match="^edge_region_law must be 'disc' or 'ring', got 'square'$"):
        SweepPoint(2, 300.0, RadioParams(), "square")
    with pytest.raises(DomainError):
        SweepPoint(2, 300.0, RadioParams(), "Ring")


def test_oma_identities_scenario_1():
    point = SweepPoint(1, 350.0, UNIT_RADIO, DISC)
    rates = by_user(point, orthogonal_rates(point.layout, all_ones_gains(point))[0])
    # each cell serves three users on thirds of the band at SNR 3
    for uid in (11, 12, 21, 22):
        assert rates[uid] == pytest.approx(2.0 / 3.0, rel=1e-12)
        assert rates[uid] == pytest.approx(0.66667, abs=5e-6)
    # the jointly served user sums both cells' power on the aligned third
    assert rates[1] == pytest.approx(math.log2(7.0) / 3.0, rel=1e-12)
    assert rates[1] == pytest.approx(0.93579, abs=1e-5)


def test_oma_identities_scenario_3():
    point = SweepPoint(3, 120.0, UNIT_RADIO, DISC)
    rates = by_user(point, orthogonal_rates(point.layout, all_ones_gains(point))[0])
    # cell 1 splits into thirds, cell 2 into halves; the aligned share is a
    # third and cell 2 contributes its leftover sixth at single-cell SNR
    assert rates[11] == pytest.approx(2.0 / 3.0, rel=1e-12)
    expected_edge = math.log2(7.0) / 3.0 + (1.0 / 2.0 - 1.0 / 3.0) * math.log2(4.0)
    assert rates[1] == pytest.approx(expected_edge, rel=1e-12)
    assert rates[2] == pytest.approx(expected_edge, rel=1e-12)


def test_cs_oma_halves():
    point = SweepPoint(2, 120.0, UNIT_RADIO, DISC)
    out, _, _, _ = run(point, all_ones_gains(point), "CS-OMA")
    rates = by_user(point, out[0])
    for uid in (1, 2, 11, 21):
        assert rates[uid] == pytest.approx(0.5 * math.log2(4.0), rel=1e-12)


def test_edge_decode_order_reference_cell():
    table = {(1, 1): 0.5, (1, 2): 0.3, (2, 1): 0.2, (2, 2): 0.9}  # other links 1.0

    def order(scenario, decode_case):
        lay = SweepPoint(scenario, 120.0, RadioParams(), DISC).layout
        g = np.array([[[table.get((c, u), 1.0) for u in lay.user_ids] for c in (1, 2)]])
        return tuple(lay.user_ids[int(np.ravel(col)[0])] for col in _edge_order(lay, g, decode_case))

    assert order(3, "case1") == (1, 2)
    assert order(3, "case2") == (2, 1)
    assert order(2, "case1") == (2, 1)


def test_evaluate_rejects_an_unknown_choice():
    # the config rejects the same values (test_cli.test_schema_rejections);
    # a library caller of evaluate gets an error naming the value, not a
    # default, and a decode case is one string, never a sequence of them
    s3 = SweepPoint(3, 150.0, RadioParams(), DISC)
    g = draw_block(14, [(s3, 0, [0])])
    base = orthogonal_rates(s3.layout, g)
    good = ("JT-NOMA", "negligible", EQUAL_TRANSMIT, "case1")
    for i, value, name in (
        (0, "TDMA", "scheme 'TDMA'"),
        (1, "partial", "interference_mode 'partial'"),
        (2, "equal", "jt_split 'equal'"),
        (3, "case3", "decode_case 'case3'"),
        (3, ("case1",), "decode_case ('case1',)"),
    ):
        args = good[:i] + (value,) + good[i + 1:]
        with pytest.raises(ConfigError, match=f"^unknown {re.escape(name)}$"):
            evaluate(s3.layout, g, base, *args)
    evaluate(s3.layout, g, base, *good)


def test_infeasible_trial_falls_back_to_baseline():
    # an unreachable decodability tolerance forces every trial infeasible
    harsh = RadioParams(sic_tolerance=1e12)
    point = SweepPoint(1, 350.0, harsh, DISC)
    out, base, feasible, reason = run(point, draw_block(16, [(point, 0, [0])]), "JT-NOMA")
    assert not feasible[0]
    assert reason[0] != FEASIBLE
    assert out.tolist() == base.tolist()
    assert math.fsum(out[0].tolist()) == math.fsum(base[0].tolist())


def test_feasible_trials_meet_guarantees():
    for scenario, schemes in ALLOWED_SCHEMES.items():
        point = SweepPoint(scenario, 200.0, RadioParams(), DISC)
        lay, g = point.layout, draw_block(17, [(point, 0, range(60))])
        for scheme in [s for s in schemes if s.endswith("NOMA")]:
            owed = guaranteed_users(lay.comp, lay.tails, g, scheme)
            for case in ("case1", "case2") if scenario == 3 and scheme == "JT-NOMA" else ("case1",):
                out, base, feasible, _ = run(point, g, scheme, case=case)
                assert out[~feasible].tolist() == base[~feasible].tolist()
                assert (out >= base * (1.0 - 1e-9))[owed & feasible[:, None]].all(), (scenario, scheme, case)
                floor = 5 if scheme == "CS-NOMA" else 10
                assert feasible.sum() > floor, (scenario, scheme, case)


def test_spectral_efficiency_is_sum_over_band():
    # the sweep's per-trial spectral efficiency is the scheme's rates summed
    # over users and divided by the band; JT-OMA is the orthogonal baseline
    config = config_from_dict(
        {"scenario_id": 3, "schemes": ["JT-NOMA", "JT-OMA"], "sweep": {"start": 150, "stop": 150}}
    )
    se, _ = run_chunk(config, 0, 4)
    point = SweepPoint(3, 150.0, config.radio, config.edge_region_law)
    g = draw_block(config.seed, [(point, 0, range(4))])
    out, base, _, _ = run(point, g, "JT-NOMA")
    for t in range(4):
        assert se[t, 0] == math.fsum(out[t].tolist()) / 8.64e6
        assert se[t, 1] == math.fsum(base[t].tolist()) / 8.64e6


def test_interference_mode_full_never_exceeds_negligible():
    point = SweepPoint(2, 200.0, RadioParams(), DISC)
    g = draw_block(19, [(point, 0, range(40))])
    lower_seen = False
    for scheme in ("JT-NOMA", "DPS-NOMA", "CS-NOMA"):
        clean, _, clean_ok, _ = run(point, g, scheme, interference_mode="negligible")
        noisy, _, noisy_ok, _ = run(point, g, scheme, interference_mode="full")
        for t in range(len(g)):
            if clean_ok[t] and noisy_ok[t]:
                clean_se = math.fsum(clean[t].tolist())
                noisy_se = math.fsum(noisy[t].tolist())
                assert noisy_se <= clean_se * (1.0 + 1e-9)
                if noisy_se < clean_se * (1.0 - 1e-6):
                    lower_seen = True
    assert lower_seen


def per_cell_reference(lay, g, base, scheme, full):
    """One trial of DPS-NOMA or CS-NOMA from hand-built clusters: (rates per
    user column, feasible).  g is (cells, users) and base (users,).  Each
    cluster is sized by solve_single_cell at the band's budget and gain
    scaling, with the other cell's co-band budget as external interference in
    full mode, and scored with the reference scalar rate formulas; a cell with no
    members transmits nothing."""
    if scheme == "DPS-NOMA":
        members = {ci: list(lay.tails[ci]) for ci in (0, 1)}
        for c in lay.comp:
            members[dps_select_cell(c, g, (0, 1))].append(c)
        bands = [(1.0, members)]
    else:  # CS-NOMA: edge user b shares half band b with cell b's own user
        bands = [
            (0.5, {b: [lay.comp[b], lay.tails[b][0]], 1 - b: [lay.tails[1 - b][0]]}) for b in (0, 1)
        ]
    rates = np.zeros(len(lay.user_ids))
    feasible = True
    for band_id, (fraction, members) in enumerate(bands):
        band = Band(band_id, fraction * lay.radio.bandwidth_hz)
        budget = fraction * lay.radio.tx_power_mw
        eff = g / fraction
        table = ChannelRealization({(ci, c): eff[ci, c] for ci in (0, 1) for c in range(eff.shape[1])})
        solved = {}
        for ci, cols in members.items():
            if not cols:
                continue
            order = tuple(sorted(cols, key=lambda c: eff[ci, c]))
            cluster = NomaCluster(ci, band, order, {c: base[c] for c in order[:-1]})
            busy = [oc for oc in members if oc != ci and members[oc]]
            x = [budget * eff[busy[0], c] if full and busy else 0.0 for c in order]
            powers, reason, _ = solve_one(
                [eff[ci, c] for c in order], [base[c] for c in order[:-1]], budget, lay.radio.sic_tolerance,
                band.width_hz, x,
            )
            feasible &= reason == FEASIBLE
            solved[ci] = (cluster, PowerAllocation(dict(zip(order, powers))))
        for ci, (cluster, alloc) in solved.items():
            cross = [solved[oc] for oc in solved if oc != ci]
            for c in cluster.decode_order:
                if full:
                    rates[c] += noncomp_user_rate(cluster, alloc, table, c, "full", cross)
                else:
                    rates[c] += user_rate_single_cell(cluster, alloc, table, c)
    return rates, feasible


@pytest.mark.parametrize("mode", ["negligible", "full"])
@pytest.mark.parametrize("scenario, scheme", [(2, "CS-NOMA"), (2, "DPS-NOMA"), (3, "DPS-NOMA")])
def test_per_cell_schemes_match_scalar_clusters(scenario, scheme, mode):
    point = SweepPoint(scenario, 200.0, RadioParams(), DISC)
    g = draw_block(41, [(point, 0, range(200))])
    out, base, feasible, _ = run(point, g, scheme, interference_mode=mode)
    lay = point.layout
    if scenario == 3:
        # some trials leave cell 2 without members (both edge users join
        # cell 1), so cell 2 transmits nothing
        assert any({dps_select_cell(c, g[t], (0, 1)) for c in lay.comp} == {0} for t in range(len(g)))
    assert feasible.sum() >= 10
    for t in range(len(g)):
        expected, expected_feasible = per_cell_reference(lay, g[t], base[t], scheme, mode == "full")
        assert feasible[t] == expected_feasible, t
        if feasible[t]:
            assert out[t].tolist() == pytest.approx(expected.tolist(), rel=1e-12), t


def decodable(call, t, p_tol):
    """The reference sic_feasible per cell on trial t of a captured solve_jt
    call: the cell's decode order at its final powers, each member at the gain
    it sees (a shared member: both cells' received power per unit of this
    cell's)."""
    (raw, tails, *_), (pw, *_) = call
    q = len(raw[0])
    verdicts = []
    for ci in range(len(raw)):
        powers = [float(p[t]) for p in pw[ci]]
        received = [sum(float(pw[c][k][t] * raw[c][k][t]) for c in range(len(raw))) for k in range(q)]
        gains = [received[k] / powers[k] for k in range(q)] + [float(x[t]) for x in tails[ci]]
        order = tuple(range(len(powers)))
        alloc = PowerAllocation(dict(zip(order, powers)))
        verdicts.append(sic_feasible(NomaCluster(ci, Band(0, 1.0), order), alloc, dict(zip(order, gains)), p_tol))
    return verdicts


@pytest.fixture
def jt_calls(monkeypatch):
    """(inputs, outputs) of every JT-NOMA solve_jt call the sweep makes."""
    calls = []
    real = scenarios.solve_jt

    def spy(*args):
        result = real(*args)
        if args[0][0]:  # a shared prefix: JT-NOMA
            calls.append((args, result))
        return result

    monkeypatch.setattr(scenarios, "solve_jt", spy)
    return calls


def test_decodability_audit_forgives_rounding_only(jt_calls):
    # fig5 at sic_tolerance 1: trial 1 of sweep index 0 has a floor-sized gap
    # that misses the tolerance by rounding; the audit's slack accepts it,
    # while the scalar check stays strict
    config = golden_config(*TRIAL_CONFIGS["s2-tolerance-1"], trials=TRIALS_PER_POINT)
    p_tol = config.radio.sic_tolerance
    jt = [label for label, _, _ in scheme_rows(config)].index("JT-NOMA")
    _, feasible = run_chunk(config, 0, TRIALS_PER_POINT)
    [call] = jt_calls
    assert feasible[1, jt]
    assert not all(decodable(call, 1, p_tol))
    assert all(decodable(call, 1, p_tol * (1.0 - REL_SLACK)))
    # every decodability failure left misses the tolerance by more than the
    # slack; scenario 2 under the equal-transmit split has none left, so look
    # at the equal-received split and at scenario 3
    gaps = 0
    for preset, split in (("fig5", "equal_received"), ("fig6", "equal_transmit")):
        config = golden_config(
            preset, {"schemes": ["JT-NOMA"], "jt_split": split, "radio": {"sic_tolerance": p_tol}},
            trials=TRIALS_PER_POINT,
        )
        jt_calls.clear()
        for s_i in TRIAL_POINTS:
            run_chunk(config, s_i * TRIALS_PER_POINT, (s_i + 1) * TRIALS_PER_POINT)
        for call in jt_calls:
            for t in np.flatnonzero(call[1][1] == SIC_GAP):
                gaps += 1
                assert not all(decodable(call, t, p_tol * (1.0 - REL_SLACK))), (preset, t)
    assert gaps > 0


@pytest.mark.parametrize(
    "preset, scheme",
    [("fig5", "JT-NOMA"), ("fig5", "CS-NOMA"), ("fig6", "JT-NOMA"), ("fig6", "DPS-NOMA")],
)
def test_one_solve_per_noma_series_and_block(monkeypatch, preset, scheme):
    # DPS-NOMA's cells take every cell choice and CS-NOMA solves both half
    # bands, yet each block is one solve_jt call per series: fig6 splits
    # JT-NOMA into one series per decode case, each solved on its own
    calls = []
    real = scenarios.solve_jt

    def spy(*args):
        calls.append(len(args[1][0][0]))
        return real(*args)

    monkeypatch.setattr(scenarios, "solve_jt", spy)
    monkeypatch.setattr(harness, "_BLOCK", 64)
    overrides = {"schemes": [scheme, "JT-OMA"], "interference_mode": "full"}
    config = golden_config(preset, overrides, trials=20)
    harness.run_sweep(config)  # 160 trials: blocks of 64, 64 and 32
    if preset == "fig6" and scheme == "JT-NOMA":
        assert calls == [64, 64, 64, 64, 32, 32]  # case 1, then case 2, per block
    else:
        stacked = 2 if scheme == "CS-NOMA" else 1
        assert calls == [64 * stacked, 64 * stacked, 32 * stacked]


def test_one_draw_per_block(monkeypatch):
    # run_sweep draws each kernel block in one draw_block call, one segment
    # per point the block crosses, so a draw per point would show as more
    # calls
    calls = []
    real = scenarios.draw_block

    def spy(seed, segments):
        calls.append([(i, trials) for _, i, trials in segments])
        return real(seed, segments)

    monkeypatch.setattr(scenarios, "draw_block", spy)
    monkeypatch.setattr(harness, "draw_block", spy)
    monkeypatch.setattr(harness, "_BLOCK", 64)
    harness.run_sweep(golden_config("fig5", {}, trials=20))  # 160 trials: blocks of 64, 64 and 32
    assert calls == [
        [(0, range(20)), (1, range(20)), (2, range(20)), (3, range(4))],
        [(3, range(4, 20)), (4, range(20)), (5, range(20)), (6, range(8))],
        [(6, range(8, 20)), (7, range(20))],
    ]


@pytest.mark.parametrize(
    "scenario, scheme", [(sc, scheme) for sc, schemes in ALLOWED_SCHEMES.items() for scheme in schemes]
)
def test_evaluate_rows_are_independent(scenario, scheme):
    # a permuted block gives the permuted outputs bit for bit, under both
    # modes and splits and (scenario 3) both decode cases: what stacks
    # trials (DPS-NOMA's -1 idle column, CS-NOMA's two bands) must not let
    # one trial's row reach another's
    point = SweepPoint(scenario, 200.0, RadioParams(), DISC)
    n = 96
    g = draw_block(23, [(point, 0, range(n))])
    perm = np.random.default_rng(5).permutation(n)
    base = orthogonal_rates(point.layout, g)
    assert orthogonal_rates(point.layout, g[perm]).tobytes() == base[perm].tobytes()
    for mode in ("negligible", "full"):
        for split in (EQUAL_RECEIVED, EQUAL_TRANSMIT):
            for case in ("case1", "case2") if scenario == 3 else ("case1",):
                whole = evaluate(point.layout, g, base, scheme, mode, split, case)
                shuffled = evaluate(point.layout, g[perm], base[perm], scheme, mode, split, case)
                for a, b in zip(whole, shuffled):
                    assert a[perm].tobytes() == b.tobytes(), (mode, split, case)


@pytest.mark.parametrize("scenario, decode_case", [(1, "case1"), (2, "case1"), (3, "both")])
def test_sweep_decode_orders_pass_the_jt_conditions(jt_calls, scenario, decode_case):
    # JT-NOMA's per-cell decode orders, read back from the solve_jt call the
    # sweep makes (a position's gain names its user), pass the acceptance
    # gate's decode-order rules in every trial, under each decode case
    n = 200
    config = config_from_dict(
        {"scenario_id": scenario, "schemes": ["JT-NOMA"], "decode_case": decode_case, "trials": n,
         "sweep": {"start": 200, "stop": 200}}
    )
    run_chunk(config, 0, n)
    assert len(jt_calls) == (2 if decode_case == "both" else 1)  # one solve per decode case
    point = SweepPoint(scenario, 200.0, config.radio, config.edge_region_law)
    g, lay = draw_block(config.seed, [(point, 0, range(n))]), point.layout
    comp = [lay.user_ids[c] for c in lay.comp]
    shared = set()
    for k, ((raw, tails, *_), _) in enumerate(jt_calls):
        assert len(raw[0][0]) == n
        for i in range(n):
            clusters = []
            for ci in (0, 1):
                user_of = {float(x): u for u, x in zip(lay.user_ids, g[i, ci])}
                assert len(user_of) == len(lay.user_ids)
                order = tuple(user_of[float(x[i])] for x in [*raw[ci], *tails[ci]])
                clusters.append(NomaCluster(ci + 1, Band(0, 1.0), order))
            validate_jt_conditions(clusters, comp)
            shared.add((k, clusters[0].decode_order[: len(comp)]))
    # the read-back is not vacuous: every edge order shows up under each case
    assert len(shared) == len(jt_calls) * math.factorial(len(comp))
