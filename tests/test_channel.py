"""Path loss, fading statistics, and the per-trial gain table."""

import math
import random
from types import SimpleNamespace

import numpy as np
import pytest

from compnoma import ConfigError, RadioParams, SweepError
from compnoma import scenarios
from compnoma.channel import BANDWIDTH_HZ, PATHLOSS_EXPONENT
from compnoma.scenarios import SweepPoint, draw_block

from conftest import SITES, draw_edge_position
from reference import ChannelRealization, DomainError, normalized_gain, trial_seed


def test_reference_radio_constants():
    # 43 dBm and -139 dBm/Hz, bit for bit as a sidecar writes them
    radio = RadioParams()
    assert radio.tx_power_mw == 10.0 ** 4.3 == 19952.62314968879
    assert radio.noise_density_mw_hz == 10.0 ** -13.9 == 1.2589254117941662e-14
    assert radio.noise_power_mw == pytest.approx(1.0877e-7, rel=1e-4)
    assert BANDWIDTH_HZ == 8.64e6
    assert PATHLOSS_EXPONENT == 4.0
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
    with pytest.raises(ConfigError):
        RadioParams(tx_power_mw=0.0, noise_density_mw_hz=1.0)
    with pytest.raises(ConfigError):
        RadioParams(tx_power_mw=1.0, noise_density_mw_hz=0.0)
    with pytest.raises(ConfigError):
        RadioParams(tx_power_mw=1.0, noise_density_mw_hz=1.0, sic_tolerance=-1.0)


def test_realization_covers_every_link_and_is_seed_deterministic():
    point = SweepPoint(1, 100.0, RadioParams())
    table_a = draw_block(7, [(point, 0, [1])])
    table_b = draw_block(7, [(point, 0, [1])])
    assert table_a.tolist() == table_b.tolist()
    assert table_a.shape == (1, 2, len(point.layout.user_ids))
    assert (table_a >= 0.0).all()
    table_c = draw_block(7, [(point, 0, [2])])
    assert table_c.tolist() != table_a.tolist()


def fading_of_link(seed: int, trials: int) -> np.ndarray:
    """Back out the fading factor from the gains of one fixed link (cell 1,
    user 12) over trials 0..trials-1 of one sweep point."""
    point = SweepPoint(1, 100.0, RadioParams())
    col = point.layout.user_ids.index(12)
    scale = point.terms[0, col] / RadioParams().noise_power_mw
    gains = draw_block(seed, [(point, 0, range(trials))])
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


# the ids name the law every edge user is drawn from: uniform in the disc
@pytest.mark.parametrize("scenario", [1, 2, 3], ids="disc-{}".format)
def test_sweep_draw_matches_scalar_gain_formula(scenario):
    # every link of a block of sweep trials, drawn in one call, bit for bit,
    # against normalized_gain on a fresh random.Random of each trial's seed
    # (reference.trial_seed): the edge users' positions first, in user-id
    # order, then one -log(1 - U) fading draw per (cell, user) link, cells
    # outer; 512 trials per block, so a transcendental that is off on a small
    # share of inputs shows
    radio = RadioParams()
    sweep = (80.0, 260.0, 400.0)
    block = 512
    for seed, point_index, first in ((0, 0, 0), (11, 1, 7), (1703, 2, 123), (2**40, 1, 99_999)):
        value = sweep[point_index]
        point = SweepPoint(scenario, value, radio)
        trials = range(first, first + block)
        got = draw_block(seed, [(point, point_index, trials)])
        assert got.shape == (block, 2, len(point.layout.user_ids))
        for i, trial in enumerate(trials):
            rng = random.Random(trial_seed(seed, point_index, trial))
            users, want = reference_gains(scenario, value, radio, rng)
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


@pytest.mark.parametrize("scenario", [1, 2, 3], ids="disc-{}".format)
def test_block_draw_is_its_segments_drawn_alone(scenario):
    # a kernel block's one draw is its segments' one-segment draws stacked,
    # byte for byte: blocks that start and end inside a point, one-trial
    # segments at either end, and whole points between
    points = [SweepPoint(scenario, v, RadioParams()) for v in (100.0, 200.0, 300.0, 400.0)]
    for seed, start, stop in ((0, 37, 101), (1703, 49, 151), (2**40, 99, 101), (11, 0, 200)):
        segments = block_segments(points, 50, start, stop)
        got = draw_block(seed, segments)
        want = np.concatenate([draw_block(seed, [segment]) for segment in segments])
        assert got.shape == (stop - start, 2, len(points[0].layout.user_ids))
        assert got.tobytes() == want.tobytes(), (seed, start, stop)


def test_block_draw_failures_name_the_trial(monkeypatch):
    # a failure while drawing a trial names its sweep index and trial: here
    # reseeding the generator fails at the 400 m point's trial 12 under seed
    # 2037, mid-segment of a block that starts inside the 50 m point
    points = [SweepPoint(2, v, RadioParams()) for v in (50.0, 400.0)]
    segments = block_segments(points, 20, 5, 40)
    seed = 2037

    class Flaky(random.Random):
        def seed(self, a=None, version=2):
            if a == trial_seed(seed, 1, 12):
                raise ValueError("bad stream")
            super().seed(a, version)

    monkeypatch.setattr(scenarios, "_random", SimpleNamespace(Random=Flaky))
    with pytest.raises(SweepError) as err:
        draw_block(seed, segments)
    assert str(err.value) == "seed=2037 sweep_index=1 trial=12: ValueError: bad stream"


def reference_gains(scenario, value, radio, rng):
    """One trial's user ids and (cells, users) gains, drawn from rng link by
    link and computed with the scalar gain formula."""
    radius = 200.0 if scenario == 1 else value
    positions = {u: draw_edge_position(rng, radius) for u in ((1,) if scenario == 1 else (1, 2))}
    distances = (value, 300.0) if scenario == 1 else (250.0,)
    for c, (x, _) in enumerate(SITES[: 1 if scenario == 3 else 2], start=1):
        outward = -1.0 if x < 0.0 else 1.0
        for i, d in enumerate(distances):
            positions[10 * c + 1 + i] = (x + outward * d, 0.0)
    users = sorted(positions)
    gains = []
    for sx, sy in SITES:
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
