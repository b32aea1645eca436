"""Coordination-set checks, decode-order validation, cell selection, band plans."""

import random

import pytest

from compnoma import (
    Band,
    CompSet,
    ConditionViolation,
    ConfigError,
    NomaCluster,
    build_cs_band_plan,
    dps_select_cell,
    reject_cb,
    validate_jt_conditions,
)

from conftest import jt_order_mutants

BAND = Band(0, 8.64e6)


def clusters_for(orders):
    return [NomaCluster(cell, BAND, tuple(order)) for cell, order in orders.items()]


def test_validate_jt_accepts_consistent_orders():
    clusters = clusters_for({1: (1, 2, 11, 12), 2: (1, 2, 21)})
    validate_jt_conditions(clusters, (1, 2))


def test_validate_jt_flags_noncomp_ahead_of_comp():
    clusters = clusters_for({1: (11, 1, 2), 2: (1, 2, 21)})
    with pytest.raises(ConditionViolation) as err:
        validate_jt_conditions(clusters, (1, 2))
    assert err.value.which == 1
    assert err.value.cell_id == 1


def test_validate_jt_flags_relative_order_swap():
    clusters = clusters_for({1: (1, 2, 11), 2: (2, 1, 21)})
    with pytest.raises(ConditionViolation) as err:
        validate_jt_conditions(clusters, (1, 2))
    assert err.value.which == 2
    assert err.value.cell_id == 2


def test_comp_set_invariants():
    with pytest.raises(ConfigError):
        CompSet(cell_ids=(1,), comp_user_ids=(1,))
    with pytest.raises(ConfigError):
        CompSet(cell_ids=(1, 1), comp_user_ids=(1,))
    with pytest.raises(ConfigError):
        CompSet(cell_ids=(1, 2), comp_user_ids=())
    CompSet(cell_ids=(1, 2), comp_user_ids=(1,))


def test_dps_selection():
    assert dps_select_cell(1, {(1, 1): 0.5, (2, 1): 0.9}, (1, 2)) == 2
    # ties break toward the lowest cell id
    assert dps_select_cell(1, {(1, 1): 0.7, (2, 1): 0.7}, (2, 1)) == 1
    assert dps_select_cell(3, {(5, 3): 1e-9}, (5,)) == 5
    gains = {(1, 7): 3e-4, (2, 7): 2.9e-4, (3, 7): 8e-4}
    scaled = {k: g * 123.456 for k, g in gains.items()}
    assert dps_select_cell(7, gains, (1, 2, 3)) == dps_select_cell(7, scaled, (1, 2, 3))
    with pytest.raises(ConfigError):
        dps_select_cell(1, {}, ())


def test_cs_band_plan_shape():
    comp = CompSet(cell_ids=(1, 2), comp_user_ids=(1, 2))
    plan = build_cs_band_plan(comp, {1: (11,), 2: (21,)})
    assert len(plan.assignments) == 4
    totals = plan.cell_fraction_totals()
    assert totals == {1: pytest.approx(1.0), 2: pytest.approx(1.0)}
    for a in plan.assignments:
        assert a.fraction == 0.5
    # edge users never share a band
    edge_band = {}
    for a in plan.assignments:
        for u in a.members:
            if u in (1, 2):
                edge_band[u] = a.band_id
    assert edge_band[1] != edge_band[2]
    # each edge user rides with the inner user of the cell it is paired to
    paired = {a.members for a in plan.assignments if len(a.members) == 2}
    assert paired == {(1, 11), (2, 21)}


def test_cs_band_plan_pairs_edges_by_sorted_order():
    comp = CompSet(cell_ids=(2, 1), comp_user_ids=(9, 3))
    plan = build_cs_band_plan(comp, {1: (11,), 2: (21,)})
    pairings = {}
    for a in plan.assignments:
        if len(a.members) == 2:
            pairings[a.members[0]] = a.cell_id
    assert pairings == {3: 1, 9: 2}


def test_cs_band_plan_validation():
    three = CompSet(cell_ids=(1, 2, 3), comp_user_ids=(1, 2))
    with pytest.raises(ConfigError):
        build_cs_band_plan(three, {1: (11,), 2: (21,), 3: (31,)})
    one_edge = CompSet(cell_ids=(1, 2), comp_user_ids=(1,))
    with pytest.raises(ConfigError):
        build_cs_band_plan(one_edge, {1: (11,), 2: (21,)})
    two_edges = CompSet(cell_ids=(1, 2), comp_user_ids=(1, 2))
    with pytest.raises(ConfigError):
        build_cs_band_plan(two_edges, {1: (11, 12), 2: (21,)})
    with pytest.raises(ConfigError):
        build_cs_band_plan(two_edges, {1: (), 2: (21,)})


def test_cb_is_rejected_with_rationale():
    with pytest.raises(ConfigError) as err:
        reject_cb()
    message = str(err.value)
    assert "single-antenna" in message
    assert "beamforming" in message


def test_mutant_orders_are_detected():
    rng = random.Random(77)
    for clusters, comp, which in jt_order_mutants(rng, 40):
        with pytest.raises(ConditionViolation) as err:
            validate_jt_conditions(clusters, comp)
        assert err.value.which == which
