"""The scalar reference rate formulas, SIC decodability, and the domain invariants."""

import itertools
import math
import random

import pytest

from reference import (
    Band,
    ChannelRealization,
    ConditionViolation,
    DomainError,
    NomaCluster,
    PowerAllocation,
    comp_user_rate_jt,
    noncomp_user_rate,
    sic_feasible,
    sum_rate_single_cell,
    user_rate_single_cell,
)


def two_user_cluster(width=1.0, guarantees=None):
    return NomaCluster(1, Band(0, width), (1, 2), guarantees or {1: 0.0})


def test_single_user_rate():
    cluster = NomaCluster(1, Band(0, 1.0), (1,))
    alloc = PowerAllocation({1: 1.0})
    assert user_rate_single_cell(cluster, alloc, {1: 1.0}, 1) == pytest.approx(1.0, rel=1e-12)


def test_two_user_rates_frozen():
    cluster = two_user_cluster()
    alloc = PowerAllocation({1: 0.8, 2: 0.2})
    r1 = user_rate_single_cell(cluster, alloc, {1: 1.0, 2: 10.0}, 1)
    r2 = user_rate_single_cell(cluster, alloc, {1: 1.0, 2: 10.0}, 2)
    assert r1 == pytest.approx(0.73697, abs=5e-6)
    assert r2 == pytest.approx(1.58496, abs=5e-6)  # head cancels user 1 fully


def test_rate_scales_with_band_width():
    cluster_1 = two_user_cluster(width=1.0)
    cluster_w = two_user_cluster(width=8.64e6)
    alloc = PowerAllocation({1: 0.8, 2: 0.2})
    gains = {1: 1.0, 2: 10.0}
    assert user_rate_single_cell(cluster_w, alloc, gains, 1) == pytest.approx(
        8.64e6 * user_rate_single_cell(cluster_1, alloc, gains, 1), rel=1e-12
    )


def test_unknown_user_raises_lookup():
    cluster = two_user_cluster()
    alloc = PowerAllocation({1: 0.8, 2: 0.2})
    with pytest.raises(LookupError):
        user_rate_single_cell(cluster, alloc, {1: 1.0, 2: 1.0}, 99)


def test_zero_power_and_zero_gain_rates_are_exactly_zero():
    cluster = two_user_cluster()
    alloc = PowerAllocation({1: 0.0, 2: 0.5})
    assert user_rate_single_cell(cluster, alloc, {1: 1.0, 2: 1.0}, 1) == 0.0
    alloc = PowerAllocation({1: 0.8, 2: 0.2})
    assert user_rate_single_cell(cluster, alloc, {1: 0.0, 2: 1.0}, 1) == 0.0


def test_head_rate_is_interference_free():
    rng = random.Random(21)
    for _ in range(50):
        n = rng.choice((2, 3))
        order = tuple(range(1, n + 1))
        cluster = NomaCluster(1, Band(0, 1.0), order)
        powers = {u: rng.uniform(0.01, 2.0) for u in order}
        gains = {u: rng.uniform(0.01, 20.0) for u in order}
        alloc = PowerAllocation(powers)
        head = order[-1]
        expected = math.log2(1.0 + powers[head] * gains[head])
        assert user_rate_single_cell(cluster, alloc, gains, head) == expected


def test_jt_rate_two_symmetric_cells():
    band = Band(0, 1.0)
    clusters = [NomaCluster(1, band, (7,)), NomaCluster(2, band, (7,))]
    allocs = [PowerAllocation({7: 0.5}), PowerAllocation({7: 0.5})]
    gains = ChannelRealization({(1, 7): 2.0, (2, 7): 2.0})
    assert comp_user_rate_jt(clusters, allocs, gains, 7) == pytest.approx(1.58496, abs=5e-6)


def test_jt_rate_with_later_decoded_interference():
    band = Band(0, 1.0)
    clusters = [NomaCluster(1, band, (7, 11)), NomaCluster(2, band, (7, 21))]
    allocs = [
        PowerAllocation({7: 0.5, 11: 0.5}),
        PowerAllocation({7: 0.5, 21: 0.5}),
    ]
    gains = ChannelRealization({(1, 7): 2.0, (2, 7): 2.0, (1, 11): 1.0, (2, 21): 1.0})
    # numerator 2, denominator 1 + 0.5*2 + 0.5*2 = 3
    assert comp_user_rate_jt(clusters, allocs, gains, 7) == pytest.approx(0.73697, abs=5e-6)


def test_jt_single_cell_reduction_is_bitwise():
    rng = random.Random(22)
    for _ in range(200):
        n = rng.choice((1, 2, 3))
        order = tuple(rng.sample(range(1, 10), n))
        cluster = NomaCluster(3, Band(0, rng.uniform(0.5, 9e6)), order)
        alloc = PowerAllocation({u: rng.uniform(0.0, 5.0) for u in order})
        gains = ChannelRealization({(3, u): rng.uniform(0.0, 3.0) for u in order})
        target = rng.choice(order)
        assert comp_user_rate_jt([cluster], [alloc], gains, target) == user_rate_single_cell(
            cluster, alloc, gains, target
        )


def test_jt_requires_shared_band_and_membership():
    clusters = [
        NomaCluster(1, Band(0, 1.0), (7,)),
        NomaCluster(2, Band(1, 1.0), (7,)),
    ]
    allocs = [PowerAllocation({7: 0.5})] * 2
    gains = ChannelRealization({(1, 7): 1.0, (2, 7): 1.0})
    with pytest.raises(DomainError):
        comp_user_rate_jt(clusters, allocs, gains, 7)
    clusters = [
        NomaCluster(1, Band(0, 1.0), (7,)),
        NomaCluster(2, Band(0, 1.0), (8,)),
    ]
    allocs = [PowerAllocation({7: 0.5}), PowerAllocation({8: 0.5})]
    gains = ChannelRealization({(1, 7): 1.0, (2, 8): 1.0})
    with pytest.raises(ConditionViolation):
        comp_user_rate_jt(clusters, allocs, gains, 7)


def test_noncomp_rate_negligible_and_full_modes():
    cluster = NomaCluster(1, Band(0, 1.0), (3, 4))
    alloc = PowerAllocation({3: 0.6, 4: 0.4})
    gains = ChannelRealization({(1, 4): 10.0, (1, 3): 1.0})
    assert noncomp_user_rate(cluster, alloc, gains, 4) == pytest.approx(2.32193, abs=5e-6)
    # full mode with zero cross-cell power matches negligible bitwise
    other = NomaCluster(2, Band(0, 1.0), (9,))
    other_alloc = PowerAllocation({9: 0.0})
    gains_full = ChannelRealization({(1, 4): 10.0, (1, 3): 1.0, (2, 4): 7.0})
    assert noncomp_user_rate(
        cluster, alloc, gains_full, 4, "full", [(other, other_alloc)]
    ) == noncomp_user_rate(cluster, alloc, gains_full, 4, "negligible")


def test_noncomp_rate_with_cross_interference_unity():
    cluster = NomaCluster(1, Band(0, 1.0), (3, 4))
    alloc = PowerAllocation({3: 0.6, 4: 0.4})
    other = NomaCluster(2, Band(0, 1.0), (9,))
    other_alloc = PowerAllocation({9: 0.5})
    gains = ChannelRealization({(1, 4): 10.0, (1, 3): 1.0, (2, 4): 2.0})
    # own signal 0.4*10 = 4 over 1 + 0.5*2 = 2
    rate = noncomp_user_rate(cluster, alloc, gains, 4, "full", [(other, other_alloc)])
    assert rate == pytest.approx(1.58496, abs=5e-6)


def test_noncomp_full_mode_skips_shared_members():
    # a signal present in both clusters is decoded and cancelled, not interference
    cluster = NomaCluster(1, Band(0, 1.0), (7, 4))
    alloc = PowerAllocation({7: 0.6, 4: 0.4})
    other = NomaCluster(2, Band(0, 1.0), (7, 9))
    other_alloc = PowerAllocation({7: 0.9, 9: 0.0})
    gains = ChannelRealization({(1, 4): 10.0, (2, 4): 2.0})
    rate = noncomp_user_rate(cluster, alloc, gains, 4, "full", [(other, other_alloc)])
    assert rate == math.log2(1.0 + 4.0)


def test_noncomp_rejects_unknown_mode():
    cluster = NomaCluster(1, Band(0, 1.0), (3, 4))
    alloc = PowerAllocation({3: 0.6, 4: 0.4})
    with pytest.raises(DomainError):
        noncomp_user_rate(cluster, alloc, {3: 1.0, 4: 1.0}, 4, "sometimes")


def test_sic_feasible_frozen_examples():
    cluster = two_user_cluster()
    alloc = PowerAllocation({1: 0.8, 2: 0.2})
    assert sic_feasible(cluster, alloc, {1: 200.0, 2: 200.0}, 100.0) is True
    assert sic_feasible(cluster, alloc, {1: 150.0, 2: 150.0}, 100.0) is False
    assert sic_feasible(cluster, alloc, {1: 0.5, 2: 5.0}, 0.0) is True
    # reversed hierarchy fails even at zero tolerance
    bad = PowerAllocation({1: 0.2, 2: 0.8})
    assert sic_feasible(cluster, bad, {1: 0.5, 2: 5.0}, 0.0) is False
    with pytest.raises(DomainError):
        sic_feasible(cluster, alloc, {1: 1.0, 2: 1.0}, -1.0)


def test_sic_margin_values():
    cluster = two_user_cluster()
    alloc = PowerAllocation({1: 0.8, 2: 0.2})
    # worst decoder sees (0.8 - 0.2) * 200 = 120: a margin of 20 over 100
    gains = {1: 200.0, 2: 300.0}
    assert sic_feasible(cluster, alloc, gains, 120.0 * (1.0 - 1e-12))
    assert not sic_feasible(cluster, alloc, gains, 120.0 * (1.0 + 1e-12))


def test_sic_gap_checked_at_every_decoder():
    # the later decoder has the smaller gain, so it binds
    cluster = two_user_cluster()
    alloc = PowerAllocation({1: 0.8, 2: 0.2})
    assert sic_feasible(cluster, alloc, {1: 500.0, 2: 150.0}, 100.0) is False
    assert sic_feasible(cluster, alloc, {1: 150.0, 2: 500.0}, 100.0) is False


def test_sic_monotone_in_leading_power():
    rng = random.Random(23)
    for _ in range(100):
        n = rng.choice((2, 3))
        order = tuple(range(1, n + 1))
        cluster = NomaCluster(1, Band(0, 1.0), order)
        powers = {u: rng.uniform(0.0, 1.0) for u in order}
        gains = {u: rng.uniform(0.1, 50.0) for u in order}
        p_tol = rng.choice((0.0, 1.0, 10.0))
        before = sic_feasible(cluster, PowerAllocation(powers), gains, p_tol)
        boosted = dict(powers)
        boosted[1] = powers[1] + rng.uniform(0.0, 2.0)
        after = sic_feasible(cluster, PowerAllocation(boosted), gains, p_tol)
        if before:
            assert after


def test_ascending_gain_order_maximizes_sum_rate():
    # power-by-position fixed and descending; the user-to-position assignment
    # that matches ascending gain dominates every permutation (n <= 3)
    rng = random.Random(24)
    for _ in range(60):
        n = rng.choice((2, 3))
        powers_by_pos = sorted((rng.uniform(0.05, 2.0) for _ in range(n)), reverse=True)
        gains = {u: rng.uniform(0.01, 30.0) for u in range(1, n + 1)}
        band = Band(0, 1.0)
        best = None
        results = []
        for perm in itertools.permutations(range(1, n + 1)):
            cluster = NomaCluster(1, band, perm)
            alloc = PowerAllocation({u: powers_by_pos[i] for i, u in enumerate(perm)})
            total = sum_rate_single_cell(cluster, alloc, gains)
            results.append((perm, total))
            if best is None or total > best[1]:
                best = (perm, total)
        ascending = tuple(sorted(gains, key=gains.get))
        by_perm = dict(results)
        assert by_perm[ascending] >= best[1] * (1.0 - 1e-12)


def test_domain_object_invariants():
    with pytest.raises(DomainError):
        Band(0, 0.0)
    with pytest.raises(DomainError):
        NomaCluster(1, Band(0, 1.0), ())
    with pytest.raises(DomainError):
        NomaCluster(1, Band(0, 1.0), (1, 1))
    with pytest.raises(DomainError):
        NomaCluster(1, Band(0, 1.0), (1, 2), {})  # user 1 needs a guarantee
    with pytest.raises(DomainError):
        NomaCluster(1, Band(0, 1.0), (1, 2), {1: -0.5})
    with pytest.raises(DomainError):
        PowerAllocation({1: -0.1})
    cluster = NomaCluster(1, Band(0, 1.0), (1, 2))  # default zero guarantees
    assert cluster.rate_guarantees == {1: 0.0}
    assert cluster.cluster_head == 2
    assert cluster.position_of(2) == 1
    with pytest.raises(KeyError):
        cluster.position_of(5)
