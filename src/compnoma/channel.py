"""Radio parameters, path loss and small-scale fading.

All gains in this package are normalized against the in-band noise power
(noise density x full system bandwidth), so a user's received SNR over the
full band is simply transmit_power_mW x gain.  Gains carry units of 1/mW.
Powers run in linear units (mW); ``dbm_to_mw`` converts at the config boundary.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

from .errors import DomainError


def dbm_to_mw(value_dbm: float) -> float:
    return 10.0 ** (value_dbm / 10.0)


REFERENCE_TX_POWER_DBM = 43.0
REFERENCE_NOISE_DENSITY_DBM_HZ = -139.0


@dataclass(frozen=True)
class RadioParams:
    """Link-budget constants shared by every cell of a coordination set.
    ``RadioParams()`` is the reference radio: 43 dBm per cell, -139 dBm/Hz
    noise density, an 8.64 MHz band, fourth-power distance loss and no
    decodability margin.

    tx_power_mw:        per-cell transmit power budget, mW
    noise_density_mw_hz: noise power spectral density, mW/Hz
    bandwidth_hz:       full system (multiplexing) bandwidth, Hz
    pathloss_exponent:  distance power-law exponent
    sic_tolerance:      minimum noise-normalized received-power gap between a
                        decoded signal and the not-yet-decoded rest (linear
                        ratio, dimensionless)
    """

    tx_power_mw: float = dbm_to_mw(REFERENCE_TX_POWER_DBM)
    noise_density_mw_hz: float = dbm_to_mw(REFERENCE_NOISE_DENSITY_DBM_HZ)
    bandwidth_hz: float = 8.64e6
    pathloss_exponent: float = 4.0
    sic_tolerance: float = 0.0

    def __post_init__(self) -> None:
        for f in fields(self):
            value, zero_ok = getattr(self, f.name), f.name == "sic_tolerance"
            if not (math.isfinite(value) and (value > 0.0 or zero_ok and value == 0.0)):
                sign = "non-negative" if zero_ok else "positive"
                raise DomainError(f"{f.name} must be finite and {sign}, got {value}")

    @property
    def noise_power_mw(self) -> float:
        """In-band noise power over the full system bandwidth, mW."""
        return self.noise_density_mw_hz * self.bandwidth_hz


def gain_array(fading, distance_terms, params: RadioParams):
    """Noise-normalized gains, 1/mW, elementwise: fading * d^(-alpha) / noise.

    fading is the squared fading envelope (unit mean under Rayleigh); zero
    fading gives a zero gain.  Works on floats and arrays.  The operation
    order is that of the scalar gain formula in ``tests/reference.py``,
    which a test pins every sweep link to, bit for bit.
    """
    return fading * distance_terms / params.noise_power_mw


def distance_term(a: tuple[float, float], b: tuple[float, float], alpha: float) -> float:
    """d^(-alpha) between two positions; computed with math, not numpy, so it
    is bit-identical wherever it is evaluated."""
    d = math.hypot(a[0] - b[0], a[1] - b[1])
    if d <= 0.0:
        raise DomainError(f"user at {a} is on top of a cell at {b}")
    return d ** (-alpha)
