"""Topology builders, orthogonal baselines, and the per-trial dispatcher."""

import math
import random
from dataclasses import replace

import pytest

from compnoma import (
    ChannelRealization,
    ConfigError,
    DomainError,
    PlacementSpec,
    RadioParams,
    ScenarioTopology,
    build_scenario,
    cs_oma_rates,
    draw_realization,
    oma_rates,
    run_trial,
)
from compnoma.scenarios import (
    CASE_EDGE_ORDER_CELL1,
    CASE_EDGE_ORDER_CELL2,
    REFERENCE_RADIO,
    RING,
    _edge_decode_order,
)
from compnoma.schemes import dps_select_cell

# unit band and unit gains make rate identities exact by hand
UNIT_RADIO = RadioParams(
    tx_power_mw=3.0,
    noise_density_mw_hz=1.0,
    bandwidth_hz=1.0,
    pathloss_exponent=4.0,
    sic_tolerance=0.0,
)


def all_ones_gains(topology: ScenarioTopology) -> ChannelRealization:
    table = {
        (c.cell_id, u.user_id): 1.0 for c in topology.cells for u in topology.users
    }
    return ChannelRealization(table)


def test_scenario_1_shape():
    rng = random.Random(5)
    topo = build_scenario(1, 350.0, rng)
    assert {u.user_id for u in topo.users} == {1, 11, 12, 21, 22}
    assert topo.comp_ids == (1,)
    assert topo.user(11).position == (-850.0, 0.0)
    assert topo.user(12).position == (-800.0, 0.0)
    assert topo.user(21).position == (850.0, 0.0)
    assert topo.user(22).position == (800.0, 0.0)
    assert topo.noncomp_in_cell(1) == (11, 12)
    assert topo.noncomp_in_cell(2) == (21, 22)
    # edge user: inside the midpoint disc, outside both coverage discs
    x, y = topo.user(1).position
    assert math.hypot(x, y) <= 200.0
    for cell in topo.cells:
        assert math.hypot(x - cell.position[0], y - cell.position[1]) > 400.0


def test_scenario_2_and_3_shapes():
    rng = random.Random(6)
    s2 = build_scenario(2, 120.0, rng)
    assert {u.user_id for u in s2.users} == {1, 2, 11, 21}
    assert s2.comp_ids == (1, 2)
    assert s2.user(11).position == (-750.0, 0.0)
    assert s2.user(21).position == (750.0, 0.0)
    s3 = build_scenario(3, 120.0, rng)
    assert {u.user_id for u in s3.users} == {1, 2, 11}
    assert s3.noncomp_in_cell(2) == ()
    for topo in (s2, s3):
        for uid in topo.comp_ids:
            x, y = topo.user(uid).position
            assert math.hypot(x, y) <= 120.0


def test_edge_region_laws():
    rng = random.Random(7)
    for sweep in (50.0, 175.0, 400.0):
        topo = build_scenario(2, sweep, rng)
        for uid in (1, 2):
            x, y = topo.user(uid).position
            assert math.hypot(x, y) <= sweep + 1e-9
    ring = PlacementSpec(edge_region_law=RING)
    for sweep in (50.0, 300.0):
        topo = build_scenario(2, sweep, rng, placement=ring)
        for uid in (1, 2):
            x, y = topo.user(uid).position
            assert math.hypot(x, y) == pytest.approx(sweep, rel=1e-12)
            for cell in topo.cells:
                assert math.hypot(x - cell.position[0], y - cell.position[1]) > 400.0


def test_builder_validation():
    rng = random.Random(8)
    with pytest.raises(ConfigError):
        build_scenario(4, 100.0, rng)
    topo = build_scenario(1, 100.0, rng)
    with pytest.raises(ConfigError):
        run_trial(topo, all_ones_gains(topo), "JT-NOMA", decode_case="caseX")
    with pytest.raises(DomainError):
        build_scenario(1, 0.0, rng)
    with pytest.raises(DomainError):
        build_scenario(1, -5.0, rng)
    # swept single-cell distance is capped by the coverage radius, inclusive
    build_scenario(1, 400.0, rng)
    with pytest.raises(DomainError):
        build_scenario(1, 400.0001, rng)
    with pytest.raises(DomainError):
        PlacementSpec(inter_site_m=700.0, coverage_m=400.0)
    with pytest.raises(DomainError):
        PlacementSpec(edge_region_law="square")


def test_oma_identities_scenario_1():
    rng = random.Random(9)
    topo = build_scenario(1, 350.0, rng, radio=UNIT_RADIO)
    rates = oma_rates(topo, all_ones_gains(topo))
    # each cell serves three users on thirds of the band at SNR 3
    for uid in (11, 12, 21, 22):
        assert rates[uid] == pytest.approx(2.0 / 3.0, rel=1e-12)
        assert rates[uid] == pytest.approx(0.66667, abs=5e-6)
    # the jointly served user sums both cells' power on the aligned third
    assert rates[1] == pytest.approx(math.log2(7.0) / 3.0, rel=1e-12)
    assert rates[1] == pytest.approx(0.93579, abs=1e-5)


def test_oma_identities_scenario_3():
    rng = random.Random(10)
    topo = build_scenario(3, 120.0, rng, radio=UNIT_RADIO)
    rates = oma_rates(topo, all_ones_gains(topo))
    # cell 1 splits into thirds, cell 2 into halves; the aligned share is a
    # third and cell 2 contributes its leftover sixth at single-cell SNR
    assert rates[11] == pytest.approx(2.0 / 3.0, rel=1e-12)
    expected_edge = math.log2(7.0) / 3.0 + (1.0 / 2.0 - 1.0 / 3.0) * math.log2(4.0)
    assert rates[1] == pytest.approx(expected_edge, rel=1e-12)
    assert rates[2] == pytest.approx(expected_edge, rel=1e-12)


def test_cs_oma_halves():
    rng = random.Random(11)
    topo = build_scenario(2, 120.0, rng, radio=UNIT_RADIO)
    rates = cs_oma_rates(topo, all_ones_gains(topo))
    for uid in (1, 2, 11, 21):
        assert rates[uid] == pytest.approx(0.5 * math.log2(4.0), rel=1e-12)


def test_edge_decode_order_reference_cell():
    table = ChannelRealization(
        {(1, 1): 0.5, (1, 2): 0.3, (2, 1): 0.2, (2, 2): 0.9, (1, 11): 1.0, (2, 11): 1.0,
         (1, 21): 1.0, (2, 21): 1.0}
    )
    rng = random.Random(12)
    s3 = build_scenario(3, 120.0, rng)
    s2 = build_scenario(2, 120.0, rng)
    assert _edge_decode_order(s3, table, CASE_EDGE_ORDER_CELL2) == (1, 2)
    assert _edge_decode_order(s3, table, CASE_EDGE_ORDER_CELL1) == (2, 1)
    assert _edge_decode_order(s2, table, CASE_EDGE_ORDER_CELL2) == (2, 1)


def test_run_trial_dispatch_errors():
    rng = random.Random(13)
    s1 = build_scenario(1, 350.0, rng)
    gains = draw_realization(s1, random.Random(14))
    with pytest.raises(ConfigError):
        run_trial(s1, gains, "CS-NOMA")
    with pytest.raises(ConfigError):
        run_trial(s1, gains, "CS-OMA")
    with pytest.raises(ConfigError):
        run_trial(s1, gains, "TDMA")
    with pytest.raises(DomainError):
        run_trial(s1, gains, "JT-NOMA", interference_mode="sometimes")


def test_infeasible_trial_falls_back_to_baseline():
    # an unreachable decodability tolerance forces every trial infeasible
    rng = random.Random(15)
    harsh = replace(REFERENCE_RADIO, sic_tolerance=1e12)
    topo = build_scenario(1, 350.0, rng, radio=harsh)
    gains = draw_realization(topo, random.Random(16))
    result = run_trial(topo, gains, "JT-NOMA")
    assert not result.feasible
    assert result.rates_bps == result.baseline_rates_bps
    assert result.spectral_efficiency == result.baseline_spectral_efficiency


def non_heads(topo, gains, scheme):
    """Scenario-2 users holding a rate guarantee this trial: every cluster
    member except the last decoded one."""
    if scheme == "JT-NOMA":
        edge = tuple(sorted(topo.comp_ids, key=lambda u: gains[(1, u)]))
        orders = [edge + topo.noncomp_in_cell(c) for c in (1, 2)]
    else:
        if scheme == "DPS-NOMA":
            members = {c: list(topo.noncomp_in_cell(c)) for c in (1, 2)}
            for u in topo.comp_ids:
                members[dps_select_cell(u, gains, (1, 2))].append(u)
        else:  # CS-NOMA: each edge user shares a half band with one cell's user
            members = {c: [u, topo.noncomp_in_cell(c)[0]] for c, u in zip((1, 2), topo.comp_ids)}
        orders = [sorted(ids, key=lambda u: gains[(c, u)]) for c, ids in members.items() if ids]
    return {u for order in orders for u in order[:-1]}


def test_feasible_trials_meet_guarantees():
    # the reference decodability margin is unreachable at sweep geometry
    # (edge-user gains around 1e-4 /mW against a 2e4 mW budget), so the
    # figure presets zero it; do the same here
    relaxed = replace(REFERENCE_RADIO, sic_tolerance=0.0)
    master = random.Random(17)
    feasible_counts = {"JT-NOMA": 0, "DPS-NOMA": 0, "CS-NOMA": 0}
    for trial in range(60):
        rng = random.Random(master.random())
        topo = build_scenario(2, 200.0, rng, radio=relaxed)
        gains = draw_realization(topo, rng)
        for scheme in feasible_counts:
            result = run_trial(topo, gains, scheme)
            if not result.feasible:
                assert result.rates_bps == result.baseline_rates_bps
                continue
            feasible_counts[scheme] += 1
            assert result.guarantees_met
            for u in non_heads(topo, gains, scheme):
                assert result.rates_bps[u] >= result.baseline_rates_bps[u] * (1.0 - 1e-9)
    for scheme, count in feasible_counts.items():
        floor = 5 if scheme == "CS-NOMA" else 10
        assert count > floor, scheme


def test_spectral_efficiency_is_sum_over_band():
    rng = random.Random(18)
    topo = build_scenario(3, 150.0, rng)
    gains = draw_realization(topo, rng)
    result = run_trial(topo, gains, "JT-NOMA")
    assert result.spectral_efficiency == math.fsum(result.rates_bps.values()) / 8.64e6
    assert result.baseline_spectral_efficiency == (
        math.fsum(result.baseline_rates_bps.values()) / 8.64e6
    )


def test_interference_mode_full_never_exceeds_negligible():
    relaxed = replace(REFERENCE_RADIO, sic_tolerance=0.0)
    master = random.Random(19)
    lower_seen = False
    for trial in range(40):
        rng = random.Random(master.random())
        topo = build_scenario(2, 200.0, rng, radio=relaxed)
        gains = draw_realization(topo, rng)
        for scheme in ("JT-NOMA", "DPS-NOMA", "CS-NOMA"):
            clean = run_trial(topo, gains, scheme, interference_mode="negligible")
            noisy = run_trial(topo, gains, scheme, interference_mode="full")
            if clean.feasible and noisy.feasible:
                assert (
                    noisy.spectral_efficiency
                    <= clean.spectral_efficiency * (1.0 + 1e-9)
                )
                if noisy.spectral_efficiency < clean.spectral_efficiency * (1.0 - 1e-6):
                    lower_seen = True
    assert lower_seen
