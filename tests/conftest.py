"""Shared builders for the test suite.

Random instances use explicit random.Random seeds so every test is
reproducible on its own; nothing here touches global RNG state.
"""

from __future__ import annotations

import math
import random
from typing import NamedTuple

import numpy as np

from compnoma.allocation import FEASIBLE, solve_single_cell
from compnoma.scenarios import COVERAGE_M, SITES

from reference import Band, NomaCluster, PowerAllocation, brute_force_oracle, sum_rate_single_cell

REF_BUDGET_MW = 10.0 ** 4.3  # 43 dBm


class Instance(NamedTuple):
    """One single-cell allocation instance, positions in decode order;
    guarantees cover the non-head positions."""

    gains: list
    guarantees: list
    budget: float = 1.0
    p_tol: float = 0.0


def one(value) -> np.ndarray:
    """A value as a length-1 kernel input."""
    return np.full(1, value, dtype=float)


def solve_one(gains, guarantees, budget=1.0, p_tol=0.0, width=1.0, x=None):
    """solve_single_cell on one instance: x is each position's external
    interference.  Returns (powers in decode order, reason code, position)."""
    powers, reason, pos = solve_single_cell(
        [one(g) for g in gains],
        [one(v) for v in x or [0.0] * len(gains)],
        [one(r) for r in [*guarantees, 0.0]],
        budget,
        p_tol,
        width,
    )
    return [float(p[0]) for p in powers], int(reason[0]), int(pos[0])


def as_cluster(powers, gains, width=1.0):
    """A decode-ordered instance as the scalar references take it, users
    numbered by position: (cluster, allocation, gains by user)."""
    order = tuple(range(len(powers)))
    return (
        NomaCluster(1, Band(0, width), order),
        PowerAllocation(dict(zip(order, powers))),
        dict(zip(order, gains)),
    )


def random_problem(
    rng: random.Random,
    n: int | None = None,
    p_tol: float | None = None,
    guarantee_scale: tuple[float, float] = (1.0, 1.0),
) -> Instance:
    """Ascending-gain instance with log-uniform gains in [1e-5, 1e-2] /mW and
    guarantees drawn from the users' equal-split orthogonal rates, optionally
    rescaled to stress the feasibility boundary."""
    if n is None:
        n = rng.choice((2, 3))
    if p_tol is None:
        p_tol = rng.choice((0.0, 100.0))
    gains = sorted(10.0 ** rng.uniform(-5.0, -2.0) for _ in range(n))
    lo, hi = guarantee_scale
    guarantees = [
        rng.uniform(lo, hi) * (1.0 / n) * math.log2(1.0 + REF_BUDGET_MW * gains[i])
        for i in range(n - 1)
    ]
    return Instance(gains, guarantees, REF_BUDGET_MW, p_tol)


def oracle_agreement(problem: Instance, grid_points: int = 1000):
    """Compare the closed-form solve against the grid oracle.

    Returns (ok, detail).  Verdict splits are excused when nudging the budget
    by one grid step flips the closed-form verdict (the instance straddles a
    feasibility boundary finer than the grid).
    """
    powers, reason, _ = solve_one(*problem)
    feasible = reason == FEASIBLE
    oracle = brute_force_oracle(*problem, grid_points)
    step = problem.budget / (grid_points - 1)
    if feasible != oracle.feasible:
        for nudged in (problem.budget - step, problem.budget + step):
            if nudged <= 0.0:
                continue
            if (solve_one(*problem._replace(budget=nudged))[1] == FEASIBLE) != feasible:
                return True, "verdict split excused at a feasibility boundary"
        return False, (
            f"verdicts disagree away from any boundary: closed={feasible} "
            f"oracle={oracle.feasible}"
        )
    if not feasible:
        return True, "both infeasible"
    closed_sum = sum_rate_single_cell(*as_cluster(powers, problem.gains))
    gap = abs(closed_sum - oracle.sum_rate_bps)
    if gap <= 1e-3 * max(abs(closed_sum), 1e-12):
        return True, "sum rates match"
    return False, f"sum-rate gap {gap:.3e} (closed {closed_sum}, oracle {oracle.sum_rate_bps})"


def draw_edge_position(rng, radius):
    """Reference edge-user placement, independent of draw_block: a uniform
    point in the midpoint disc of radius, redrawn while it falls inside
    either cell's coverage disc."""
    while True:
        theta = 2.0 * math.pi * rng.random()
        r = radius * math.sqrt(rng.random())
        x, y = r * math.cos(theta), r * math.sin(theta)
        if all(math.hypot(x - cx, y - cy) > COVERAGE_M for cx, cy in SITES):
            return (x, y)


def jt_order_mutants(rng: random.Random, count: int):
    """Valid two-cell cluster pairs, each broken by one decode-order mutation.

    Yields (clusters, comp_ids, expected_violation): expected 1 moves a
    jointly served user behind a single-cell user, expected 2 swaps the
    relative order of two jointly served users in one cell.
    """
    band = Band(0, 1.0)
    cases = []
    for i in range(count):
        which = 2 if i % 2 == 0 else 1
        n_comp = rng.randint(2, 3)
        comp = tuple(range(1, n_comp + 1))
        tails = {
            1: tuple(range(11, 11 + rng.randint(1, 3))),
            2: tuple(range(21, 21 + rng.randint(1, 3))),
        }
        orders = {c: list(comp) + list(tails[c]) for c in (1, 2)}
        cell = rng.choice((1, 2))
        order = orders[cell]
        if which == 2:
            a, b = rng.sample(range(n_comp), 2)
            order[a], order[b] = order[b], order[a]
        else:
            victim = order.pop(rng.randrange(n_comp))
            insert_at = rng.randint(n_comp, len(order))  # past >=1 single-cell user
            order.insert(insert_at, victim)
        clusters = [
            NomaCluster(c, band, tuple(orders[c])) for c in (1, 2)
        ]
        cases.append((clusters, comp, which))
    return cases
