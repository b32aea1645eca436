"""Unit conversions used at the config boundary.

Internally everything runs in linear units: mW for powers, mW/Hz for noise
density, Hz for bandwidth, dimensionless linear ratios for gaps/gains.
"""

from __future__ import annotations


def dbm_to_mw(value_dbm: float) -> float:
    return 10.0 ** (value_dbm / 10.0)

