"""Radio parameters, path loss and small-scale fading.

All gains in this package are normalized against the in-band noise power
(noise density x full system bandwidth), so a user's received SNR over the
full band is simply transmit_power_mW x gain.  Gains carry units of 1/mW.
Powers run in linear units (mW), in configs and sidecars as in the code.
A value out of range raises ``ConfigError`` naming it, as every rejected input does.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

from .errors import ConfigError, check_kinds


REFERENCE_TX_POWER_DBM = 43.0
REFERENCE_NOISE_DENSITY_DBM_HZ = -139.0
BANDWIDTH_HZ = 8.64e6
PATHLOSS_EXPONENT = 4.0


@dataclass(frozen=True)
class RadioParams:
    """Link-budget constants shared by every cell of a coordination set.
    ``RadioParams()`` is the reference radio: 43 dBm per cell, -139 dBm/Hz
    noise density and no decodability margin.  Every radio has the
    ``BANDWIDTH_HZ`` band and ``PATHLOSS_EXPONENT`` distance loss.

    tx_power_mw:        per-cell transmit power budget, mW
    noise_density_mw_hz: noise power spectral density, mW/Hz
    sic_tolerance:      minimum noise-normalized received-power gap between a
                        decoded signal and the not-yet-decoded rest (linear
                        ratio, dimensionless)
    Construction raises ConfigError naming a field that breaks config.py's kind rule or a range,
    or the density of a noise power that overflows to inf.
    """

    tx_power_mw: float = 10.0 ** (REFERENCE_TX_POWER_DBM / 10.0)
    noise_density_mw_hz: float = 10.0 ** (REFERENCE_NOISE_DENSITY_DBM_HZ / 10.0)
    sic_tolerance: float = 0.0

    def __post_init__(self) -> None:
        check_kinds(self)
        for f in fields(self):
            value, zero_ok = getattr(self, f.name), f.name == "sic_tolerance"
            if not (value >= 0.0 if zero_ok else value > 0.0):
                raise ConfigError(f"{f.name} must be {'non-negative' if zero_ok else 'positive'}, got {value}")
        if self.noise_power_mw == math.inf:
            raise ConfigError(f"noise_density_mw_hz * BANDWIDTH_HZ must be a finite noise power, got {math.inf}")

    @property
    def noise_power_mw(self) -> float:
        """In-band noise power over the full system bandwidth, mW."""
        return self.noise_density_mw_hz * BANDWIDTH_HZ


def gain_array(fading, distance_terms, params: RadioParams):
    """Noise-normalized gains, 1/mW, elementwise: fading * d^(-PATHLOSS_EXPONENT) / noise.

    fading is the squared fading envelope (unit mean under Rayleigh); zero
    fading gives a zero gain.  Works on floats and arrays.  The operation
    order is that of the scalar gain formula in ``tests/reference.py``,
    which a test pins every sweep link to, bit for bit.
    """
    return fading * distance_terms / params.noise_power_mw


def distance_term(a: tuple[float, float], b: tuple[float, float]) -> float:
    """d^(-PATHLOSS_EXPONENT) between two positions; computed with math, not numpy, so it is
    bit-identical wherever it is evaluated.  Raises ConfigError naming the positions when the
    distance is 0 or so small that the term overflows.  No sweep position overflows it: the
    nearest to a site without rounding onto it, one ulp of 500 m (about 5.7e-14 m) away,
    gives about 9.6e52."""
    d = math.hypot(a[0] - b[0], a[1] - b[1])
    try:
        return d ** (-PATHLOSS_EXPONENT)
    except (ZeroDivisionError, OverflowError) as e:
        raise ConfigError(f"user at {a} is on top of a cell at {b}") from e
