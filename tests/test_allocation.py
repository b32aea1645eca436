"""Closed-form single-cell solve and the coordinated multi-cell allocation."""

import math
import random
from dataclasses import replace

import pytest

from compnoma import (
    EQUAL_RECEIVED,
    EQUAL_TRANSMIT,
    AllocationProblem,
    Band,
    ChannelRealization,
    ConditionViolation,
    DomainError,
    NomaCluster,
    allocate_jt,
    allocate_single_cell,
    comp_user_rate_jt,
    sic_feasible,
    user_rate_single_cell,
)

from conftest import make_problem, random_problem


def test_single_user_gets_everything():
    problem = make_problem([2.0], [], budget=3.5)
    alloc = allocate_single_cell(problem)
    assert alloc.feasible
    assert alloc.powers == {1: 3.5}


def test_frozen_two_user_solution():
    problem = make_problem([1.0, 10.0], [0.5], budget=1.0)
    alloc = allocate_single_cell(problem)
    assert alloc.feasible
    t = 2.0 ** 0.5 - 1.0
    assert alloc.powers[1] == pytest.approx(t / (1.0 + t) * 2.0, rel=1e-12)
    assert alloc.powers[1] == pytest.approx(0.58579, abs=5e-6)
    assert alloc.powers[2] == pytest.approx(0.41421, abs=5e-6)
    head_rate = user_rate_single_cell(problem.cluster, alloc, problem.gains, 2)
    assert head_rate == pytest.approx(math.log2(1.0 + 10.0 * (math.sqrt(2.0) - 1.0)), rel=1e-12)
    assert head_rate == pytest.approx(2.3624, abs=2e-4)
    # guarantee is met exactly at the closed-form power
    r1 = user_rate_single_cell(problem.cluster, alloc, problem.gains, 1)
    assert r1 == pytest.approx(0.5, rel=1e-12)
    assert math.fsum(alloc.powers.values()) == 1.0


def test_feasibility_boundary_at_unit_rate():
    # gamma=1, budget=1: R=1.0 consumes the whole budget, R=1.1 cannot be met
    at_edge = allocate_single_cell(make_problem([1.0, 10.0], [1.0], budget=1.0))
    assert at_edge.feasible
    assert at_edge.powers[1] == pytest.approx(1.0, rel=1e-12)
    assert at_edge.powers[2] == pytest.approx(0.0, abs=1e-15)
    beyond = allocate_single_cell(make_problem([1.0, 10.0], [1.1], budget=1.0))
    assert not beyond.feasible
    assert beyond.diagnostics == ("infeasible_guarantee position=0 user=1",)
    assert set(beyond.powers.values()) == {0.0}


def test_sic_floor_binds_with_zero_guarantees():
    # zero guarantees leave only the decodability floor: each non-head takes
    # half the remaining budget, even at zero tolerance (hierarchy gap >= 0)
    problem = make_problem([1.0, 2.0, 4.0], [0.0, 0.0], budget=1.0)
    alloc = allocate_single_cell(problem)
    assert alloc.feasible
    assert alloc.powers[1] == pytest.approx(0.5, rel=1e-12)
    assert alloc.powers[2] == pytest.approx(0.25, rel=1e-12)
    assert alloc.powers[3] == pytest.approx(0.25, rel=1e-12)
    assert sic_feasible(problem.cluster, alloc, problem.gains, 0.0)


def test_sic_floor_with_positive_tolerance():
    problem = make_problem([1.0, 2.0], [0.0], budget=1.0, p_tol=0.5)
    alloc = allocate_single_cell(problem)
    # floor = (1 + 0.5/1)/2 sized against the worst decoder
    assert alloc.powers[1] == pytest.approx(0.75, rel=1e-12)
    assert alloc.feasible
    assert sic_feasible(problem.cluster, alloc, problem.gains, 0.5)
    too_tight = allocate_single_cell(make_problem([1.0, 2.0], [0.0], budget=1.0, p_tol=2.0))
    assert not too_tight.feasible


def test_head_guarantee_checked_after_allocation():
    cluster = NomaCluster(1, Band(0, 1.0), (1, 2), {1: 0.5, 2: 3.0})
    problem = AllocationProblem(cluster=cluster, gains={1: 1.0, 2: 10.0}, budget_mw=1.0, p_tol=0.0)
    alloc = allocate_single_cell(problem)
    assert not alloc.feasible
    assert "head_residual" in alloc.diagnostics[0]
    easy = NomaCluster(1, Band(0, 1.0), (1, 2), {1: 0.5, 2: 2.0})
    problem = AllocationProblem(cluster=easy, gains={1: 1.0, 2: 10.0}, budget_mw=1.0, p_tol=0.0)
    assert allocate_single_cell(problem).feasible


def test_budget_conservation_and_audits_random():
    rng = random.Random(31)
    feasible_seen = 0
    for _ in range(300):
        problem = random_problem(rng, guarantee_scale=(0.5, 1.3))
        alloc = allocate_single_cell(problem)
        assert all(p >= 0.0 for p in alloc.powers.values())
        if not alloc.feasible:
            assert alloc.diagnostics
            continue
        feasible_seen += 1
        total = math.fsum(alloc.powers.values())
        assert total == pytest.approx(problem.budget_mw, rel=1e-12)
        for u, r in problem.cluster.rate_guarantees.items():
            rate = user_rate_single_cell(problem.cluster, alloc, problem.gains, u)
            assert rate >= r * (1.0 - 1e-9)
        assert sic_feasible(problem.cluster, alloc, problem.gains, problem.p_tol)
    assert feasible_seen > 50


def test_raising_a_guarantee_never_helps_the_head():
    rng = random.Random(32)
    checked = 0
    for _ in range(200):
        problem = random_problem(rng, guarantee_scale=(0.4, 0.9))
        alloc = allocate_single_cell(problem)
        if not alloc.feasible:
            continue
        order = problem.cluster.decode_order
        u = order[rng.randrange(len(order) - 1)]
        raised = dict(problem.cluster.rate_guarantees)
        raised[u] *= 1.0 + rng.uniform(0.0, 1.0)
        bumped = AllocationProblem(
            cluster=replace(problem.cluster, rate_guarantees=raised),
            gains=problem.gains,
            budget_mw=problem.budget_mw,
            p_tol=problem.p_tol,
        )
        after = allocate_single_cell(bumped)
        if after.feasible:
            head = order[-1]
            assert after.powers[head] <= alloc.powers[head] * (1.0 + 1e-12)
            checked += 1
    assert checked > 30


def test_problem_validation():
    with pytest.raises(DomainError):
        make_problem([1.0, 2.0], [0.5], budget=0.0)
    with pytest.raises(DomainError):
        make_problem([1.0, 2.0], [0.5], p_tol=-1.0)
    with pytest.raises(LookupError):
        AllocationProblem(
            cluster=NomaCluster(1, Band(0, 1.0), (1, 2), {1: 0.0}),
            gains={1: 1.0},
            budget_mw=1.0,
            p_tol=0.0,
        )
    with pytest.raises(DomainError):
        make_problem([1.0, -2.0], [0.5])


def cells_pair(edge_gains, tail_gains, guarantees, budget=1.0, p_tol=0.0, split_tables=True):
    """Two-cell coordination problems sharing the edge users 1..q."""
    band = Band(0, 1.0)
    q = len(edge_gains[1])
    edge = tuple(range(1, q + 1))
    problems = []
    for c in (1, 2):
        tail = tuple(range(c * 10 + 1, c * 10 + 1 + len(tail_gains[c])))
        order = edge + tail
        guar = {u: guarantees.get(u, 0.0) for u in order[:-1]}
        cluster = NomaCluster(c, band, order, guar)
        eff = {}
        comp_cell = {}
        for i, u in enumerate(edge):
            comp_cell[u] = {1: edge_gains[1][i], 2: edge_gains[2][i]}
            eff[u] = edge_gains[1][i] + edge_gains[2][i]
        for j, u in enumerate(tail):
            eff[u] = tail_gains[c][j]
        problems.append(
            AllocationProblem(
                cluster=cluster,
                gains=eff,
                budget_mw=budget,
                p_tol=p_tol,
                comp_cell_gains=comp_cell if split_tables else {},
            )
        )
    return problems


def test_jt_single_problem_delegates_exactly():
    problem = make_problem([1.0, 10.0], [0.5], budget=1.0)
    direct = allocate_single_cell(problem)
    via_jt = allocate_jt([problem])
    assert len(via_jt) == 1
    assert via_jt[0].powers == direct.powers
    assert via_jt[0].feasible == direct.feasible


def test_jt_symmetric_two_cells_split_half_half():
    # equal gains and one guaranteed edge user: each cell contributes exactly
    # half of the required received power, under either split policy
    guarantee = 2.0
    for split in (EQUAL_TRANSMIT, EQUAL_RECEIVED):
        problems = cells_pair(
            edge_gains={1: [1.0, 1.0], 2: [1.0, 1.0]},
            tail_gains={1: [], 2: []},
            guarantees={1: guarantee},
            budget=4.0,
        )
        allocs = allocate_jt(problems, split=split)
        assert all(a.feasible for a in allocs)
        assert allocs[0].diagnostics == ()
        assert allocs[0].powers[1] == pytest.approx(allocs[1].powers[1], rel=1e-12)
        received = allocs[0].powers[1] * 1.0 + allocs[1].powers[1] * 1.0
        assert allocs[0].powers[1] * 1.0 == pytest.approx(received / 2.0, rel=1e-12)
        # the guarantee is met exactly when the rate requirement binds
        clusters = [p.cluster for p in problems]
        table = ChannelRealization({(c, u): 1.0 for c in (1, 2) for u in (1, 2)})
        rate = comp_user_rate_jt(clusters, allocs, table, 1)
        assert rate >= guarantee * (1.0 - 1e-9)
        assert rate == pytest.approx(guarantee, rel=1e-6)
        # heads absorb the rest of each budget
        for a, p in zip(allocs, problems):
            assert math.fsum(a.powers.values()) == pytest.approx(p.budget_mw, rel=1e-12)


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
        problems = cells_pair(edge_gains, tail_gains, guarantees, budget=budget)
        allocs = allocate_jt(problems, split=EQUAL_TRANSMIT)
        if not all(a.feasible for a in allocs):
            assert len({a.diagnostics for a in allocs}) == 1
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
        clusters = [p.cluster for p in problems]
        for ci, cluster in enumerate(clusters):
            assert math.fsum(allocs[ci].powers.values()) == pytest.approx(
                problems[ci].budget_mw, rel=1e-12
            )
            for u, r in cluster.rate_guarantees.items():
                if u <= q:
                    rate = comp_user_rate_jt(clusters, allocs, table, u)
                else:
                    rate = user_rate_single_cell(cluster, allocs[ci], table, u)
                assert rate >= r * (1.0 - 1e-9)
    assert feasible_seen > 60


def test_jt_infeasible_when_an_edge_guarantee_is_oversized():
    problems = cells_pair(
        edge_gains={1: [1.0], 2: [1.0]},
        tail_gains={1: [2.0], 2: [2.0]},
        guarantees={1: 50.0},
        budget=1.0,
    )
    allocs = allocate_jt(problems)
    assert not any(a.feasible for a in allocs)
    assert "infeasible_guarantee" in allocs[0].diagnostics[0]
    assert allocs[0].diagnostics == allocs[1].diagnostics


def test_jt_validation_errors():
    problems = cells_pair(
        edge_gains={1: [1.0], 2: [1.0]}, tail_gains={1: [], 2: []}, guarantees={}
    )
    with pytest.raises(DomainError):
        allocate_jt(problems, split="thirds")
    with pytest.raises(DomainError):
        allocate_jt(problems, interference_mode="kinda")
    with pytest.raises(DomainError):
        allocate_jt([])
    mismatched = [problems[0], replace(problems[1], p_tol=5.0)]
    with pytest.raises(DomainError):
        allocate_jt(mismatched)
    # equal-transmit needs the per-cell gain table of every shared member
    bare = cells_pair(
        edge_gains={1: [1.0], 2: [1.0]},
        tail_gains={1: [], 2: []},
        guarantees={},
        split_tables=False,
    )
    with pytest.raises(LookupError):
        allocate_jt(bare, split=EQUAL_TRANSMIT)
    assert all(a.feasible for a in allocate_jt(bare, split=EQUAL_RECEIVED))


def test_jt_rejects_inconsistent_shared_orders():
    band = Band(0, 1.0)
    def problem_for(order):
        cluster = NomaCluster(1 if order[0] == 1 else 2, band, order)
        gains = {u: 1.0 for u in order}
        return AllocationProblem(
            cluster=cluster,
            gains=gains,
            budget_mw=1.0,
            p_tol=0.0,
            comp_cell_gains={u: {1: 1.0, 2: 1.0} for u in order if u < 10},
        )

    # swapped shared order across cells
    a = AllocationProblem(
        cluster=NomaCluster(1, band, (1, 2, 11)),
        gains={1: 1.0, 2: 1.0, 11: 1.0},
        budget_mw=1.0,
        p_tol=0.0,
        comp_cell_gains={1: {1: 1.0, 2: 1.0}, 2: {1: 1.0, 2: 1.0}},
    )
    b = AllocationProblem(
        cluster=NomaCluster(2, band, (2, 1, 21)),
        gains={1: 1.0, 2: 1.0, 21: 1.0},
        budget_mw=1.0,
        p_tol=0.0,
        comp_cell_gains={1: {1: 1.0, 2: 1.0}, 2: {1: 1.0, 2: 1.0}},
    )
    with pytest.raises(ConditionViolation) as err:
        allocate_jt([a, b])
    assert err.value.which == 2
    # shared member buried behind a single-cell user
    c = AllocationProblem(
        cluster=NomaCluster(1, band, (1, 11, 2)),
        gains={1: 1.0, 2: 1.0, 11: 1.0},
        budget_mw=1.0,
        p_tol=0.0,
        comp_cell_gains={1: {1: 1.0, 2: 1.0}, 2: {1: 1.0, 2: 1.0}},
    )
    d = AllocationProblem(
        cluster=NomaCluster(2, band, (1, 2, 21)),
        gains={1: 1.0, 2: 1.0, 21: 1.0},
        budget_mw=1.0,
        p_tol=0.0,
        comp_cell_gains={1: {1: 1.0, 2: 1.0}, 2: {1: 1.0, 2: 1.0}},
    )
    with pytest.raises(ConditionViolation) as err:
        allocate_jt([c, d])
    assert err.value.which == 1
