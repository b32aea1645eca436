"""Decode-order validation and the reference cell selection."""

import random

import pytest

from compnoma import ConfigError, config_from_dict

from conftest import jt_order_mutants
from reference import Band, ConditionViolation, NomaCluster, dps_select_cell, validate_jt_conditions

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


def test_cb_is_rejected_with_rationale():
    with pytest.raises(ConfigError) as err:
        config_from_dict({"scenario_id": 3, "schemes": ["CB-NOMA"]})
    message = str(err.value)
    assert "single-antenna" in message
    assert "beamforming" in message


def test_mutant_orders_are_detected():
    rng = random.Random(77)
    for clusters, comp, which in jt_order_mutants(rng, 40):
        with pytest.raises(ConditionViolation) as err:
            validate_jt_conditions(clusters, comp)
        assert err.value.which == which
