"""Closed-form single-cell solve and the coordinated multi-cell allocation."""

import math
import random

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from compnoma import EQUAL_RECEIVED, EQUAL_TRANSMIT
from compnoma.allocation import FEASIBLE, RATE_SHORT, later_sums, solve_jt, solve_single_cell

from conftest import as_cluster, one, random_problem, solve_one
from reference import (
    Band,
    ChannelRealization,
    NomaCluster,
    PowerAllocation,
    comp_user_rate_jt,
    sic_feasible,
    user_rate_single_cell,
)


def test_single_user_gets_everything():
    powers, reason, _ = solve_one([2.0], [], budget=3.5)
    assert reason == FEASIBLE
    assert powers == [3.5]


def test_frozen_two_user_solution():
    gains = [1.0, 10.0]
    powers, reason, _ = solve_one(gains, [0.5], budget=1.0)
    assert reason == FEASIBLE
    t = 2.0 ** 0.5 - 1.0
    assert powers[0] == pytest.approx(t / (1.0 + t) * 2.0, rel=1e-12)
    assert powers[0] == pytest.approx(0.58579, abs=5e-6)
    assert powers[1] == pytest.approx(0.41421, abs=5e-6)
    head_rate = user_rate_single_cell(*as_cluster(powers, gains), 1)
    assert head_rate == pytest.approx(math.log2(1.0 + 10.0 * (math.sqrt(2.0) - 1.0)), rel=1e-12)
    assert head_rate == pytest.approx(2.3624, abs=2e-4)
    # guarantee is met exactly at the closed-form power
    r1 = user_rate_single_cell(*as_cluster(powers, gains), 0)
    assert r1 == pytest.approx(0.5, rel=1e-12)
    assert math.fsum(powers) == 1.0


def test_feasibility_boundary_at_unit_rate():
    # gamma=1, budget=1: R=1.0 consumes the whole budget, R=1.1 cannot be met
    powers, reason, _ = solve_one([1.0, 10.0], [1.0], budget=1.0)
    assert reason == FEASIBLE
    assert powers[0] == pytest.approx(1.0, rel=1e-12)
    assert powers[1] == pytest.approx(0.0, abs=1e-15)
    powers, reason, pos = solve_one([1.0, 10.0], [1.1], budget=1.0)
    assert (reason, pos) == (RATE_SHORT, 0)
    assert set(powers) == {0.0}


def test_sic_floor_binds_with_zero_guarantees():
    # zero guarantees leave only the decodability floor: each non-head takes
    # half the remaining budget, even at zero tolerance (hierarchy gap >= 0)
    gains = [1.0, 2.0, 4.0]
    powers, reason, _ = solve_one(gains, [0.0, 0.0], budget=1.0)
    assert reason == FEASIBLE
    assert powers[0] == pytest.approx(0.5, rel=1e-12)
    assert powers[1] == pytest.approx(0.25, rel=1e-12)
    assert powers[2] == pytest.approx(0.25, rel=1e-12)
    assert sic_feasible(*as_cluster(powers, gains), 0.0)


def test_sic_floor_with_positive_tolerance():
    gains = [1.0, 2.0]
    powers, reason, _ = solve_one(gains, [0.0], budget=1.0, p_tol=0.5)
    # floor = (1 + 0.5/1)/2 sized against the worst decoder
    assert powers[0] == pytest.approx(0.75, rel=1e-12)
    assert reason == FEASIBLE
    assert sic_feasible(*as_cluster(powers, gains), 0.5)
    _, too_tight, _ = solve_one(gains, [0.0], budget=1.0, p_tol=2.0)
    assert too_tight != FEASIBLE


def test_budget_conservation_and_audits_random():
    rng = random.Random(31)
    feasible_seen = 0
    for _ in range(300):
        problem = random_problem(rng, guarantee_scale=(0.5, 1.3))
        powers, reason, pos = solve_one(*problem)
        assert all(p >= 0.0 for p in powers)
        if reason != FEASIBLE:
            # the head takes the residual: only a non-head position can bind
            assert reason == RATE_SHORT and pos < len(powers) - 1
            continue
        feasible_seen += 1
        assert math.fsum(powers) == pytest.approx(problem.budget, rel=1e-12)
        cluster = as_cluster(powers, problem.gains)
        for u, r in enumerate(problem.guarantees):
            assert user_rate_single_cell(*cluster, u) >= r * (1.0 - 1e-9)
        assert sic_feasible(*cluster, problem.p_tol)
    assert feasible_seen > 50


def test_raising_a_guarantee_never_helps_the_head():
    rng = random.Random(32)
    checked = 0
    for _ in range(200):
        problem = random_problem(rng, guarantee_scale=(0.4, 0.9))
        powers, reason, _ = solve_one(*problem)
        if reason != FEASIBLE:
            continue
        raised = list(problem.guarantees)
        u = rng.randrange(len(raised))
        raised[u] *= 1.0 + rng.uniform(0.0, 1.0)
        after, reason, _ = solve_one(*problem._replace(guarantees=raised))
        if reason == FEASIBLE:
            assert after[-1] <= powers[-1] * (1.0 + 1e-12)
            checked += 1
    assert checked > 30


def solve_pair(edge_gains, tail_gains, guarantees, budget=1.0, split=EQUAL_TRANSMIT):
    """solve_jt on one two-cell instance in negligible mode: the edge users
    1..q lead both decode orders, cell c's own users are 10c+1, 10c+2, ...
    (gains per cell in decode order), and guarantees map user ids of
    non-heads to bits/s.  Returns (decode orders, powers per cell in decode
    order, reason, position, cell)."""
    q = len(edge_gains[1])
    orders = [
        tuple(range(1, q + 1)) + tuple(range(10 * c + 1, 10 * c + 1 + len(tail_gains[c])))
        for c in (1, 2)
    ]
    pw, reason, pos, cell, _ = solve_jt(
        [[one(g) for g in edge_gains[c]] for c in (1, 2)],
        [[one(g) for g in tail_gains[c]] for c in (1, 2)],
        [[one(guarantees.get(u, 0.0)) for u in order[:-1]] + [one(0.0)] for order in orders],
        None,
        [budget] * 2,
        0.0,
        1.0,
        split,
    )
    powers = [[float(p[0]) for p in cell_pw] for cell_pw in pw]
    return orders, powers, int(reason[0]), int(pos[0]), int(cell[0])


def scalar_objects(orders, powers, guarantees):
    """Unit-band clusters and allocations for the scalar references."""
    band = Band(0, 1.0)
    clusters = [
        NomaCluster(c, band, order, {u: guarantees.get(u, 0.0) for u in order[:-1]})
        for c, order in zip((1, 2), orders)
    ]
    allocs = [PowerAllocation(dict(zip(order, p))) for order, p in zip(orders, powers)]
    return clusters, allocs


def test_jt_single_problem_delegates_exactly():
    # one cell and no shared prefix: the joint solve is the single-cell solve
    gains, guarantees = [1.0, 10.0], [0.5]
    direct = solve_one(gains, guarantees, budget=1.0)
    pw, reason, pos, _, _ = solve_jt(
        [[]],
        [[one(g) for g in gains]],
        [[one(r) for r in [*guarantees, 0.0]]],
        None,
        [1.0],
        0.0,
        1.0,
        EQUAL_TRANSMIT,
    )
    assert len(pw) == 1
    assert [float(p[0]) for p in pw[0]] == direct[0]
    assert (int(reason[0]), int(pos[0])) == direct[1:]


def test_jt_symmetric_two_cells_split_half_half():
    # equal gains and one guaranteed edge user: each cell contributes exactly
    # half of the required received power, under either split policy
    guarantee = 2.0
    for split in (EQUAL_TRANSMIT, EQUAL_RECEIVED):
        orders, powers, reason, _, _ = solve_pair(
            edge_gains={1: [1.0, 1.0], 2: [1.0, 1.0]},
            tail_gains={1: [], 2: []},
            guarantees={1: guarantee},
            budget=4.0,
            split=split,
        )
        assert reason == FEASIBLE
        assert powers[0][0] == pytest.approx(powers[1][0], rel=1e-12)
        received = powers[0][0] * 1.0 + powers[1][0] * 1.0
        assert powers[0][0] * 1.0 == pytest.approx(received / 2.0, rel=1e-12)
        # the guarantee is met exactly when the rate requirement binds
        clusters, allocs = scalar_objects(orders, powers, {1: guarantee})
        table = ChannelRealization({(c, u): 1.0 for c in (1, 2) for u in (1, 2)})
        rate = comp_user_rate_jt(clusters, allocs, table, 1)
        assert rate >= guarantee * (1.0 - 1e-9)
        assert rate == pytest.approx(guarantee, rel=1e-6)
        # heads absorb the rest of each budget
        for p in powers:
            assert math.fsum(p) == pytest.approx(4.0, rel=1e-12)


def test_jt_guarantees_audited_on_random_instances():
    rng = random.Random(33)
    feasible_seen = 0
    for _ in range(150):
        q = rng.choice((1, 2))
        edge_gains = {
            c: sorted(10.0 ** rng.uniform(-4.5, -2.5) for _ in range(q)) for c in (1, 2)
        }
        tail_gains = {
            c: sorted(10.0 ** rng.uniform(-4.0, -2.0) for _ in range(rng.randint(1, 2)))
            for c in (1, 2)
        }
        budget = 10.0 ** 4.3
        guarantees = {}
        for i in range(q):
            snr = budget * (edge_gains[1][i] + edge_gains[2][i])
            guarantees[i + 1] = rng.uniform(0.1, 0.35) * math.log2(1.0 + snr)
        for c in (1, 2):
            for j, g in enumerate(tail_gains[c]):
                uid = c * 10 + 1 + j
                guarantees[uid] = rng.uniform(0.1, 0.35) * math.log2(1.0 + budget * g)
        orders, powers, reason, pos, cell = solve_pair(edge_gains, tail_gains, guarantees, budget=budget)
        if reason != FEASIBLE:
            assert pos < len(orders[cell])
            continue
        feasible_seen += 1
        gains_table = {}
        for c in (1, 2):
            for i in range(q):
                gains_table[(c, i + 1)] = edge_gains[c][i]
        for c in (1, 2):
            for j, g in enumerate(tail_gains[c]):
                gains_table[(c, c * 10 + 1 + j)] = g
        table = ChannelRealization(gains_table)
        clusters, allocs = scalar_objects(orders, powers, guarantees)
        for ci, cluster in enumerate(clusters):
            assert math.fsum(powers[ci]) == pytest.approx(budget, rel=1e-12)
            for u, r in cluster.rate_guarantees.items():
                if u <= q:
                    rate = comp_user_rate_jt(clusters, allocs, table, u)
                else:
                    rate = user_rate_single_cell(cluster, allocs[ci], table, u)
                assert rate >= r * (1.0 - 1e-9)
    assert feasible_seen > 60


def test_jt_infeasible_when_an_edge_guarantee_is_oversized():
    _, _, reason, pos, _ = solve_pair(
        edge_gains={1: [1.0], 2: [1.0]},
        tail_gains={1: [2.0], 2: [2.0]},
        guarantees={1: 50.0},
        budget=1.0,
    )
    assert (reason, pos) == (RATE_SHORT, 0)


# --- cluster membership: unused leading positions change nothing -----------

GAIN = st.floats(1e-2, 1e2)
RATE = st.floats(0.0, 2.0)
BUDGET = st.floats(0.1, 100.0)


def draw_array(data, elements, *shape) -> np.ndarray:
    size = math.prod(shape)
    return np.array(data.draw(st.lists(elements, min_size=size, max_size=size))).reshape(shape)


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_unused_positions_leave_single_cell_members_bit_identical(data):
    # instances of up to `length` members share one call, each padded in
    # front with unused positions (an empty one at zero budget); every
    # member must be sized exactly as in a solve of its own cluster alone
    n, length = data.draw(st.integers(1, 4)), data.draw(st.integers(1, 4))
    sizes = np.array(data.draw(st.lists(st.integers(0, length), min_size=n, max_size=n)))
    p_tol = data.draw(st.sampled_from([0.0, 0.5]))
    g = draw_array(data, GAIN, n, length)
    x = draw_array(data, st.just(0.0) | GAIN, n, length)
    r = draw_array(data, RATE, n, length)
    budget = np.where(sizes > 0, draw_array(data, BUDGET, n), 0.0)
    idle = length - sizes
    r = np.where(np.arange(length) < idle[:, None], 0.0, r)
    powers, reason, pos = solve_single_cell(list(g.T), list(x.T), list(r.T), budget, p_tol, 1.0, idle)
    for i, lead in enumerate(idle):
        assert [p[i] for p in powers[:lead]] == [0.0] * lead
        if lead == length:
            assert reason[i] == FEASIBLE
            continue
        alone = solve_single_cell(*(list(a[i:i + 1, lead:].T) for a in (g, x, r)), budget[i], p_tol, 1.0)
        assert [p[i] for p in powers[lead:]] == [p[0] for p in alone[0]]
        assert reason[i] == alone[1][0]
        assert pos[i] == (alone[2][0] + lead if alone[1][0] else 0)


def draw_idle_jt_problem(data):
    """solve_jt inputs with an empty shared prefix on two cells: cell 1
    always has a member, cell 2 may have none (and then no budget).  Returns
    (n, idle, tails, cross, r, budgets), each but n one entry per cell: idle
    counts each instance's unused leading positions, tails and r are
    (n, positions), r 0 at unused positions and at the head, and cross is
    (n, positions, 2)."""
    n = data.draw(st.integers(1, 4))
    lengths = [data.draw(st.integers(1, 3)) for _ in (0, 1)]
    sizes = [
        np.array(data.draw(st.lists(st.integers(1 - ci, length), min_size=n, max_size=n)))
        for ci, length in enumerate(lengths)
    ]
    idle = [length - k for length, k in zip(lengths, sizes)]
    g = [draw_array(data, GAIN, n, length) for length in lengths]
    cross = [draw_array(data, GAIN, n, length, 2) for length in lengths]
    r = [
        np.where(np.arange(length) < lead[:, None], 0.0, draw_array(data, RATE, n, length))
        for length, lead in zip(lengths, idle)
    ]
    for rc in r:
        rc[:, -1] = 0.0  # a cell's head has no guarantee
    budgets = [np.where(k > 0, draw_array(data, BUDGET, n), 0.0) for k in sizes]
    return n, idle, g, cross, r, budgets


def draw_shared_jt_problem(data, q):
    """solve_jt inputs with q jointly served members on two cells whose own
    tails hold 0-2 members (a cell with none is headed by the last shared
    member, as scenario 3's cell 2).  Returns (n, raw, tails, cross, r,
    budgets), each but n one entry per cell: raw is (n, q), tails (n,
    length), cross (n, length, 2) and r (n, q + length), 0 at the head."""
    n = data.draw(st.integers(1, 4))
    lengths = [data.draw(st.integers(0, 2)) for _ in (0, 1)]
    raw = [draw_array(data, GAIN, n, q) for _ in (0, 1)]
    tails = [draw_array(data, GAIN, n, length) for length in lengths]
    cross = [draw_array(data, GAIN, n, length, 2) for length in lengths]
    r = [draw_array(data, RATE, n, q + length) for length in lengths]
    for rc in r:
        rc[:, -1] = 0.0  # a cell's head, shared or its own, has no guarantee
    budgets = [draw_array(data, BUDGET, n) for _ in (0, 1)]
    return n, raw, tails, cross, r, budgets


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_unused_positions_leave_jt_members_bit_identical(data):
    # solve_jt with an empty shared prefix on two cells: members' powers,
    # rates, reason codes and cells are those of each instance solved alone
    full, p_tol = data.draw(st.booleans()), data.draw(st.sampled_from([0.0, 0.5]))
    n, idle, g, cross, r, budgets = draw_idle_jt_problem(data)

    def solve(rows, lead, budget, idle=None):
        # per cell, one (instances,) array per decode position from lead[ci] on
        by_position = [list(map(list, cross[ci][rows, lead[ci]:].transpose(1, 2, 0))) for ci in (0, 1)]
        return solve_jt(
            [[], []],
            [list(g[ci][rows, lead[ci]:].T) for ci in (0, 1)],
            [list(r[ci][rows, lead[ci]:-1].T) + [0.0] for ci in (0, 1)],
            by_position if full else None,
            budget, p_tol, 1.0, EQUAL_TRANSMIT, idle,
        )

    pw, reason, pos, cell, rates = solve(slice(None), [0, 0], budgets, idle)
    for i in range(n):
        lead = [int(a[i]) for a in idle]
        a_pw, a_reason, a_pos, a_cell, a_rates = solve(slice(i, i + 1), lead, [b[i] for b in budgets])
        assert (reason[i], cell[i]) == (a_reason[0], a_cell[0])
        assert pos[i] == (a_pos[0] + lead[a_cell[0]] if a_reason[0] else 0)
        for ci in (0, 1):
            for got, want in ((pw[ci], a_pw[ci]), (rates[ci], a_rates[ci])):
                assert [v[i] for v in got[:lead[ci]]] == [0.0] * lead[ci]
                assert [v[i] for v in got[lead[ci]:]] == [v[0] for v in want]


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_jt_shared_prefix_batch_equals_each_instance_alone(data):
    # solve_jt with 1-2 jointly served members, under both splits and
    # interference modes: every instance's powers, rates, reason, position
    # and cell are those of the instance solved alone
    split = data.draw(st.sampled_from([EQUAL_RECEIVED, EQUAL_TRANSMIT]))
    full, p_tol = data.draw(st.booleans()), data.draw(st.sampled_from([0.0, 0.5]))
    n, raw, tails, cross, r, budgets = draw_shared_jt_problem(data, data.draw(st.integers(1, 2)))

    def solve(rows):
        return solve_jt(
            [list(raw[ci][rows].T) for ci in (0, 1)],
            [list(tails[ci][rows].T) for ci in (0, 1)],
            [list(r[ci][rows].T) for ci in (0, 1)],
            [list(map(list, cross[ci][rows].transpose(1, 2, 0))) for ci in (0, 1)] if full else None,
            [b[rows] for b in budgets], p_tol, 1.0, split,
        )

    pw, reason, pos, cell, rates = solve(slice(None))
    for i in range(n):
        a_pw, a_reason, a_pos, a_cell, a_rates = solve(slice(i, i + 1))
        assert (reason[i], pos[i], cell[i]) == (a_reason[0], a_pos[0], a_cell[0])
        for got, want in ((pw, a_pw), (rates, a_rates)):
            assert [[v[i] for v in c] for c in got] == [[v[0] for v in c] for c in want]


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_jt_gains_times_2k_and_budgets_times_2_to_minus_k_change_only_the_powers(data):
    # the same link budget in other units: powers of two scale exactly, so
    # every reason, position, cell and rate is bit-identical and every power
    # scales by exactly 2^-k (p_tol is noise-normalized and stays)
    q, k = data.draw(st.integers(0, 2)), data.draw(st.integers(-8, 8))
    split = data.draw(st.sampled_from([EQUAL_RECEIVED, EQUAL_TRANSMIT]))
    full, p_tol = data.draw(st.booleans()), data.draw(st.sampled_from([0.0, 0.5]))
    if q:
        n, raw, tails, cross, r, budgets = draw_shared_jt_problem(data, q)
        idle = None
    else:
        n, idle, tails, cross, r, budgets = draw_idle_jt_problem(data)
        raw = [np.zeros((n, 0))] * 2

    def solve(gain, budget):
        return solve_jt(
            [list(a.T * gain) for a in raw],
            [list(a.T * gain) for a in tails],
            [list(a.T) for a in r],
            [list(map(list, a.transpose(1, 2, 0) * gain)) for a in cross] if full else None,
            [b * budget for b in budgets], p_tol, 1.0, split, idle,
        )

    pw, reason, pos, cell, rates = solve(1.0, 1.0)
    s_pw, s_reason, s_pos, s_cell, s_rates = solve(2.0**k, 2.0**-k)
    assert (s_reason.tolist(), s_pos.tolist(), s_cell.tolist()) == (reason.tolist(), pos.tolist(), cell.tolist())
    for ci in (0, 1):
        assert [v.tolist() for v in s_rates[ci]] == [v.tolist() for v in rates[ci]]
        assert [v.tolist() for v in s_pw[ci]] == [(v * 2.0**-k).tolist() for v in pw[ci]]


def test_floor_sized_positions_leave_an_exactly_zero_gap():
    # with p_tol 0 a non-head position sized at its decodability floor, half
    # its remaining budget, must see a gap p - later_sums(p) of exactly 0.0,
    # so no verdict there rests on rounding; with at most 3 members per cell
    # the budget subtractions are exact (Sterbenz), so a nonzero gap comes
    # from how the powers were sized or summed
    floors = []

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def check(data):
        q = data.draw(st.integers(0, 2))
        split, full = data.draw(st.sampled_from([EQUAL_RECEIVED, EQUAL_TRANSMIT])), data.draw(st.booleans())
        if q:
            n, raw, tails, cross, r, budgets = draw_shared_jt_problem(data, q)
            idle = None
        else:
            n, idle, tails, cross, r, budgets = draw_idle_jt_problem(data)
            raw = [np.zeros((n, 0))] * 2
        assume(all(rc.shape[1] <= 3 for rc in r))
        pw, reason, _, _, _ = solve_jt(
            [list(a.T) for a in raw], [list(a.T) for a in tails], [list(a.T) for a in r],
            [list(map(list, a.transpose(1, 2, 0))) for a in cross] if full else None,
            budgets, 0.0, 1.0, split, idle,
        )
        for i in np.flatnonzero(reason == FEASIBLE):
            for ci in (0, 1):
                powers = [p[i] for p in pw[ci]]
                later, rem = later_sums(powers), budgets[ci][i]
                for k, p in enumerate(powers[:-1]):
                    if p == 0.5 * rem:
                        assert p - later[k] == 0.0, (i, ci, k, powers)
                        floors.append(p > 0.0)
                    rem = rem - p

    check()
    assert sum(floors) > 0
