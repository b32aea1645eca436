"""Path loss, fading statistics, and the per-trial gain table."""

import math
import random

import numpy as np
import pytest

from compnoma import DomainError, PlacementSpec, RadioParams, SweepError, dbm_to_mw
from compnoma import scenarios
from compnoma.scenarios import DISC, RING, SweepPoint, draw_block

from conftest import draw_edge_position
from reference import ChannelRealization, normalized_gain, trial_seed


def test_reference_radio_constants():
    radio = RadioParams()
    assert radio.tx_power_mw == pytest.approx(19952.623, rel=1e-6)
    assert radio.noise_density_mw_hz == pytest.approx(1.2589254e-14, rel=1e-6)
    assert radio.noise_power_mw == pytest.approx(1.0877e-7, rel=1e-4)
    assert radio.bandwidth_hz == 8.64e6
    assert radio.pathloss_exponent == 4.0
    assert radio.sic_tolerance == 0.0


def test_gain_at_500m_unit_fading():
    g = normalized_gain(500.0, 1.0, RadioParams())
    assert g == pytest.approx(1.4709e-4, rel=1e-3)
    # full-power SNR at the cell edge
    assert RadioParams().tx_power_mw * g == pytest.approx(2.935, rel=1e-3)


def test_gain_at_300m_unit_fading():
    assert normalized_gain(300.0, 1.0, RadioParams()) == pytest.approx(1.1350e-3, rel=1e-3)


def test_zero_fading_gain_is_exactly_zero():
    assert normalized_gain(123.4, 0.0, RadioParams()) == 0.0


def test_pathloss_ratio_between_200m_and_400m():
    near = normalized_gain(200.0, 1.0, RadioParams())
    far = normalized_gain(400.0, 1.0, RadioParams())
    assert near / far == pytest.approx(16.0, rel=1e-12)


def test_gain_scales_linearly_with_fading_power():
    rng = random.Random(11)
    for _ in range(100):
        d = rng.uniform(10.0, 2000.0)
        f = rng.expovariate(1.0)
        c = rng.uniform(0.0, 5.0)
        lhs = normalized_gain(d, c * f, RadioParams())
        rhs = c * normalized_gain(d, f, RadioParams())
        assert lhs == pytest.approx(rhs, rel=1e-12, abs=0.0)


def test_gain_strictly_decreasing_in_distance():
    rng = random.Random(12)
    for _ in range(50):
        d = sorted(rng.uniform(1.0, 3000.0) for _ in range(5))
        gains = [normalized_gain(x, 1.0, RadioParams()) for x in d]
        assert all(a > b for a, b in zip(gains, gains[1:]))


def test_invalid_inputs_rejected():
    with pytest.raises(DomainError):
        normalized_gain(0.0, 1.0, RadioParams())
    with pytest.raises(DomainError):
        normalized_gain(-5.0, 1.0, RadioParams())
    with pytest.raises(DomainError):
        normalized_gain(100.0, -0.1, RadioParams())
    with pytest.raises(DomainError):
        RadioParams(tx_power_mw=0.0, noise_density_mw_hz=1.0, bandwidth_hz=1.0)
    with pytest.raises(DomainError):
        RadioParams(tx_power_mw=1.0, noise_density_mw_hz=1.0, bandwidth_hz=0.0)
    with pytest.raises(DomainError):
        RadioParams(tx_power_mw=1.0, noise_density_mw_hz=1.0, bandwidth_hz=1.0, sic_tolerance=-1.0)


def test_dbm_conversion_round_trip():
    assert dbm_to_mw(0.0) == 1.0
    assert dbm_to_mw(30.0) == pytest.approx(1000.0, rel=1e-12)
    assert dbm_to_mw(43.0) == pytest.approx(19952.62314968879, rel=1e-12)


def test_realization_covers_every_link_and_is_seed_deterministic():
    point = SweepPoint(1, 100.0, RadioParams(), None)
    table_a = point.draw(7, 0, [1])
    table_b = point.draw(7, 0, [1])
    assert table_a.tolist() == table_b.tolist()
    assert table_a.shape == (1, 2, len(point.layout.user_ids))
    assert (table_a >= 0.0).all()
    table_c = point.draw(7, 0, [2])
    assert table_c.tolist() != table_a.tolist()


def fading_of_link(seed: int, trials: int) -> np.ndarray:
    """Back out the fading factor from the gains of one fixed link (cell 1,
    user 12) over trials 0..trials-1 of one sweep point."""
    point = SweepPoint(1, 100.0, RadioParams(), None)
    col = point.layout.user_ids.index(12)
    scale = point.terms[0, col] / RadioParams().noise_power_mw
    gains = point.draw(seed, 0, range(trials))
    return gains[:, 0, col] / scale


def test_fading_sample_mean_is_unit():
    n = 50_000
    assert math.fsum(fading_of_link(3, n).tolist()) / n == pytest.approx(1.0, abs=0.02)


def test_fading_distribution_matches_unit_exponential():
    # one-sample KS statistic against 1 - exp(-x), 10^4 draws
    n = 10_000
    draws = sorted(fading_of_link(5, n).tolist())
    ks = 0.0
    for i, x in enumerate(draws):
        cdf = 1.0 - math.exp(-x)
        ks = max(ks, abs(cdf - (i + 1) / n), abs(cdf - i / n))
    assert ks < 0.02


@pytest.mark.parametrize("scenario", [1, 2, 3])
@pytest.mark.parametrize("law", [DISC, RING])
def test_sweep_draw_matches_scalar_gain_formula(scenario, law):
    # every link of a block of sweep trials, drawn in one call, bit for bit,
    # against normalized_gain on a fresh random.Random of each trial's seed
    # (reference.trial_seed): the edge users' positions first, in user-id
    # order, then one -log(1 - U) fading draw per (cell, user) link, cells
    # outer; 512 trials per block, so a transcendental that is off on a small
    # share of inputs shows
    radio = RadioParams(pathloss_exponent=3.7)
    placement = PlacementSpec(edge_region_law=law, inter_site_m=1100.0)
    sweep = (80.0, 260.0, 400.0)
    block = 512
    for seed, point_index, first in ((0, 0, 0), (11, 1, 7), (1703, 2, 123), (2**40, 1, 99_999)):
        value = sweep[point_index]
        point = SweepPoint(scenario, value, radio, placement)
        trials = range(first, first + block)
        got = point.draw(seed, point_index, trials)
        assert got.shape == (block, 2, len(point.layout.user_ids))
        for i, trial in enumerate(trials):
            users, want = reference_gains(
                scenario, law, value, radio, placement, random.Random(trial_seed(seed, point_index, trial))
            )
            assert users == list(point.layout.user_ids)
            assert got[i].tolist() == want, (seed, point_index, trial)


def block_segments(points, trials, start, stop):
    """The (point, sweep_index, trials) segments of flat trials [start, stop)
    of a sweep over points with trials per point, cut as run_chunk cuts."""
    return [
        (p, i, range(max(start - i * trials, 0), min(stop - i * trials, trials)))
        for i, p in enumerate(points)
        if i * trials < stop and start < (i + 1) * trials
    ]


@pytest.mark.parametrize("scenario", [1, 2, 3])
@pytest.mark.parametrize("law", [DISC, RING])
def test_block_draw_is_its_segments_drawn_alone(scenario, law):
    # a kernel block's one draw is its segments' one-segment draws stacked,
    # byte for byte: blocks that start and end inside a point, one-trial
    # segments at either end, and whole points between
    placement = PlacementSpec(edge_region_law=law)
    points = [SweepPoint(scenario, v, RadioParams(), placement) for v in (100.0, 200.0, 300.0, 400.0)]
    for seed, start, stop in ((0, 37, 101), (1703, 49, 151), (2**40, 99, 101), (11, 0, 200)):
        segments = block_segments(points, 50, start, stop)
        got = draw_block(seed, segments)
        want = np.concatenate([p.draw(seed, i, trials) for p, i, trials in segments])
        assert got.shape == (stop - start, 2, len(points[0].layout.user_ids))
        assert got.tobytes() == want.tobytes(), (seed, start, stop)


def test_block_draw_failures_name_the_trial_or_the_block(monkeypatch):
    # with one try per edge user, the 50 m point's disc never meets a
    # coverage disc, so the first rejection is the 400 m point's (its trial
    # 2 under seed 2037, mid-segment), named by its sweep index and trial
    points = [SweepPoint(2, v, RadioParams(), None) for v in (50.0, 400.0)]
    segments = block_segments(points, 20, 5, 40)
    seed = 2037

    def rejected(trial):
        rng = random.Random(trial_seed(seed, 1, trial))
        try:
            for _ in points[1].comp_ids:
                draw_edge_position(rng, 400.0, DISC, points[1].sites, 400.0, tries=1)
        except AssertionError:
            return True
        return False

    t = next(t for t in segments[1][2] if rejected(t))
    monkeypatch.setattr(scenarios, "_MAX_PLACEMENT_DRAWS", 1)
    with pytest.raises(SweepError) as err:
        draw_block(seed, segments)
    assert str(err.value) == (
        f"seed=2037 sweep_index=1 trial={t}: DomainError: edge-user placement rejected too often;"
        " region outside coverage is empty"
    )

    # a failure once every trial is drawn names the block's first and last
    # (sweep index, trial)
    monkeypatch.undo()

    def broken(*args):
        raise FloatingPointError("injected")

    monkeypatch.setattr(scenarios, "gain_array", broken)
    for segs, where in (
        (segments, "from sweep_index=0 trial=5 to sweep_index=1 trial=19"),
        (segments[1:], "from sweep_index=1 trial=0 to sweep_index=1 trial=19"),
        (block_segments(points, 20, 19, 21), "from sweep_index=0 trial=19 to sweep_index=1 trial=0"),
    ):
        with pytest.raises(SweepError) as err:
            draw_block(seed, segs)
        assert str(err.value) == f"seed=2037 {where}: FloatingPointError: injected"


def reference_gains(scenario, law, value, radio, placement, rng):
    """One trial's user ids and (cells, users) gains, drawn from rng link by
    link and computed with the scalar gain formula."""
    half = placement.inter_site_m / 2.0
    sites = ((-half, 0.0), (half, 0.0))
    radius = 200.0 if scenario == 1 else value
    positions = {
        u: draw_edge_position(rng, radius, law, sites, placement.coverage_m)
        for u in ((1,) if scenario == 1 else (1, 2))
    }
    distances = (value, 300.0) if scenario == 1 else (250.0,)
    for c, (x, _) in enumerate(sites[: 1 if scenario == 3 else 2], start=1):
        outward = -1.0 if x < 0.0 else 1.0
        for i, d in enumerate(distances):
            positions[10 * c + 1 + i] = (x + outward * d, 0.0)
    users = sorted(positions)
    gains = []
    for sx, sy in sites:
        row = []
        for u in users:
            x, y = positions[u]
            fading = -math.log(1.0 - rng.random())
            row.append(normalized_gain(math.hypot(x - sx, y - sy), fading, radio))
        gains.append(row)
    return users, gains


def test_realization_lookup_interface():
    table = ChannelRealization({(1, 5): 0.25})
    assert table[(1, 5)] == 0.25
    assert (1, 5) in table
    assert (2, 5) not in table
    with pytest.raises(KeyError):
        table[(2, 5)]
