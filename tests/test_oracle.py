"""Grid-search reference allocator and its agreement with the closed form."""

import math
import random

import pytest

from compnoma import DomainError
from compnoma.allocation import FEASIBLE

from conftest import Instance, as_cluster, oracle_agreement, random_problem, solve_one
from reference import brute_force_oracle, sum_rate_single_cell


def test_oracle_matches_frozen_two_user_example():
    problem = Instance([1.0, 10.0], [0.5], budget=1.0)
    powers, reason, _ = solve_one(*problem)
    result = brute_force_oracle(*problem, grid_points=10_001)
    assert reason == FEASIBLE and result.feasible
    closed_sum = sum_rate_single_cell(*as_cluster(powers, problem.gains))
    assert abs(closed_sum - result.sum_rate_bps) <= 1e-3 * closed_sum
    assert result.powers[0] == pytest.approx(powers[0], abs=2e-4)


def test_oracle_zero_guarantees_split_evenly():
    # decodability floor alone: half the budget to the first user, half to the
    # head, for both the closed form and the grid search
    problem = Instance([1.0, 10.0], [0.0], budget=1.0)
    powers, _, _ = solve_one(*problem)
    assert powers == [0.5, 0.5]
    result = brute_force_oracle(*problem, grid_points=1001)
    step = 1.0 / 1000.0
    assert result.feasible
    assert abs(result.powers[0] - 0.5) <= step + 1e-12
    ok, detail = oracle_agreement(problem, grid_points=1001)
    assert ok, detail


def test_oracle_detects_unreachable_guarantee():
    problem = Instance([1.0, 10.0], [1.1], budget=1.0)
    _, reason, _ = solve_one(*problem)
    result = brute_force_oracle(*problem, grid_points=2001)
    assert reason != FEASIBLE
    assert not result.feasible
    assert result.powers == (0.0, 0.0)
    assert math.isnan(result.sum_rate_bps)


def test_oracle_agreement_random_instances():
    rng = random.Random(41)
    for _ in range(200):
        problem = random_problem(rng, guarantee_scale=(0.5, 1.5))
        ok, detail = oracle_agreement(problem)
        assert ok, detail


def test_oracle_input_validation():
    with pytest.raises(DomainError):
        brute_force_oracle(*Instance([1.0, 2.0, 3.0, 4.0], [0.1, 0.1, 0.1]))
    with pytest.raises(DomainError):
        brute_force_oracle(*Instance([1.0, 2.0], [0.1]), grid_points=1)
