"""Path loss, fading statistics, and the per-trial gain table."""

import math
import random

import pytest

from compnoma import (
    ChannelRealization,
    DomainError,
    RadioParams,
    build_scenario,
    dbm_to_mw,
    draw_realization,
    normalized_gain,
    substream,
)
from compnoma.scenarios import REFERENCE_RADIO


def test_reference_radio_constants():
    assert REFERENCE_RADIO.tx_power_mw == pytest.approx(19952.623, rel=1e-6)
    assert REFERENCE_RADIO.noise_density_mw_hz == pytest.approx(1.2589254e-14, rel=1e-6)
    assert REFERENCE_RADIO.noise_power_mw == pytest.approx(1.0877e-7, rel=1e-4)
    assert REFERENCE_RADIO.bandwidth_hz == 8.64e6
    assert REFERENCE_RADIO.pathloss_exponent == 4.0


def test_gain_at_500m_unit_fading():
    g = normalized_gain(500.0, 1.0, REFERENCE_RADIO)
    assert g == pytest.approx(1.4709e-4, rel=1e-3)
    # full-power SNR at the cell edge
    assert REFERENCE_RADIO.tx_power_mw * g == pytest.approx(2.935, rel=1e-3)


def test_gain_at_300m_unit_fading():
    assert normalized_gain(300.0, 1.0, REFERENCE_RADIO) == pytest.approx(1.1350e-3, rel=1e-3)


def test_zero_fading_gain_is_exactly_zero():
    assert normalized_gain(123.4, 0.0, REFERENCE_RADIO) == 0.0


def test_pathloss_ratio_between_200m_and_400m():
    near = normalized_gain(200.0, 1.0, REFERENCE_RADIO)
    far = normalized_gain(400.0, 1.0, REFERENCE_RADIO)
    assert near / far == pytest.approx(16.0, rel=1e-12)


def test_gain_scales_linearly_with_fading_power():
    rng = random.Random(11)
    for _ in range(100):
        d = rng.uniform(10.0, 2000.0)
        f = rng.expovariate(1.0)
        c = rng.uniform(0.0, 5.0)
        lhs = normalized_gain(d, c * f, REFERENCE_RADIO)
        rhs = c * normalized_gain(d, f, REFERENCE_RADIO)
        assert lhs == pytest.approx(rhs, rel=1e-12, abs=0.0)


def test_gain_strictly_decreasing_in_distance():
    rng = random.Random(12)
    for _ in range(50):
        d = sorted(rng.uniform(1.0, 3000.0) for _ in range(5))
        gains = [normalized_gain(x, 1.0, REFERENCE_RADIO) for x in d]
        assert all(a > b for a, b in zip(gains, gains[1:]))


def test_invalid_inputs_rejected():
    with pytest.raises(DomainError):
        normalized_gain(0.0, 1.0, REFERENCE_RADIO)
    with pytest.raises(DomainError):
        normalized_gain(-5.0, 1.0, REFERENCE_RADIO)
    with pytest.raises(DomainError):
        normalized_gain(100.0, -0.1, REFERENCE_RADIO)
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
    topo = build_scenario(1, 100.0, substream(7, 0, 0))
    table_a = draw_realization(topo, substream(7, 0, 1))
    table_b = draw_realization(topo, substream(7, 0, 1))
    assert table_a.gains == table_b.gains
    for cell in topo.cells:
        for user in topo.users:
            assert (cell.cell_id, user.user_id) in table_a
            assert table_a[(cell.cell_id, user.user_id)] >= 0.0
    table_c = draw_realization(topo, substream(7, 0, 2))
    assert table_c.gains != table_a.gains


def test_fading_sample_mean_is_unit():
    # back out the fading factor from the gains of one fixed link
    topo = build_scenario(1, 100.0, substream(3, 0, 0))
    cell = topo.cells[0]
    user = topo.user(12)
    d = math.hypot(user.position[0] - cell.position[0], user.position[1] - cell.position[1])
    scale = d ** (-topo.radio.pathloss_exponent) / topo.radio.noise_power_mw
    n = 50_000
    total = 0.0
    for t in range(n):
        table = draw_realization(topo, substream(3, 0, t))
        total += table[(cell.cell_id, user.user_id)] / scale
    assert total / n == pytest.approx(1.0, abs=0.02)


def test_fading_distribution_matches_unit_exponential():
    # one-sample KS statistic against 1 - exp(-x), 10^4 draws
    topo = build_scenario(1, 100.0, substream(5, 0, 0))
    cell = topo.cells[0]
    user = topo.user(12)
    d = math.hypot(user.position[0] - cell.position[0], user.position[1] - cell.position[1])
    scale = d ** (-topo.radio.pathloss_exponent) / topo.radio.noise_power_mw
    n = 10_000
    draws = sorted(
        draw_realization(topo, substream(5, 0, t))[(cell.cell_id, user.user_id)] / scale
        for t in range(n)
    )
    ks = 0.0
    for i, x in enumerate(draws):
        cdf = 1.0 - math.exp(-x)
        ks = max(ks, abs(cdf - (i + 1) / n), abs(cdf - i / n))
    assert ks < 0.02


def test_realization_lookup_interface():
    table = ChannelRealization({(1, 5): 0.25})
    assert table[(1, 5)] == 0.25
    assert (1, 5) in table
    assert (2, 5) not in table
    with pytest.raises(KeyError):
        table[(2, 5)]
