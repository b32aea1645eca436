"""Array kernels of the rate maths: one (n,) array per decode position, n
trials at once.

Decode-order convention: position 0 is decoded first by everyone; the last
position is the cluster head, which cancels all other in-cluster signals and
sees only noise (plus whatever interference mode adds).  A user's own-cluster
interference is therefore the total power of signals decoded *after* it,
``later_sums`` below.  The scalar formulas these kernels are tested against
live in ``tests/reference.py``.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np


def seq_sum(terms):
    """Left-to-right sum from 0.0, the order of the scalar formulas.

    The order matters: with a zero decodability tolerance the gap
    p_i - (p_i+1 + p_i+2 + ...) of a floor-sized position is exactly 0.0, and
    a reordered sum can make it -1 ULP and flip a feasible verdict.  For the
    one or two cells of a coordination set it also equals math.fsum.
    """
    total = 0.0
    for term in terms:
        total = total + term
    return total


def later_sums(powers: Sequence) -> list:
    """later[i] = powers[i+1] + powers[i+2] + ..., summed left to right."""
    return [seq_sum(powers[i + 1:]) for i in range(len(powers))]


def rates(width: float, num, den) -> np.ndarray:
    """width * log2(1 + num/den), elementwise: a rate in bits/s from received
    signal power and noise-plus-interference, both noise-normalized."""
    return width * np.log2(1.0 + num / den)
