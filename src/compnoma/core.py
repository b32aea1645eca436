"""Domain objects and per-user rate/decodability math for one coordination set.

The scalar formulas below take one cluster and a dict of powers; they are the
reference the array kernels (``later_sums``/``rates`` here, the solvers in
``allocation``) are tested against, and the sweep never calls them.

Decode-order convention: ``NomaCluster.decode_order`` lists users in the order
their signals are decoded.  Position 0 is decoded first by everyone; the last
position is the cluster head, which cancels all other in-cluster signals and
sees only noise (plus whatever interference mode adds).  A user's own-cluster
interference is therefore the total power of signals decoded *after* it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .channel import ChannelRealization
from .errors import ConditionViolation, DomainError


@dataclass(frozen=True)
class Band:
    """A spectrum slice: identity plus absolute width in Hz."""

    band_id: int
    width_hz: float

    def __post_init__(self) -> None:
        if self.width_hz <= 0.0:
            raise DomainError(f"band width must be positive, got {self.width_hz}")


@dataclass(frozen=True)
class NomaCluster:
    """One cell's superposition group on one band.

    rate_guarantees maps user_id -> bits/s and must cover every non-head
    member; a head entry is optional and, when present, is checked after
    allocation rather than sized for.  Omitting the mapping fills zero
    guarantees for all non-head members.
    """

    cell_id: int
    band: Band
    decode_order: tuple[int, ...]
    rate_guarantees: Mapping[int, float] | None = None

    def __post_init__(self) -> None:
        if not self.decode_order:
            raise DomainError("a cluster needs at least one member")
        if len(set(self.decode_order)) != len(self.decode_order):
            raise DomainError(f"duplicate member in decode order {self.decode_order}")
        if self.rate_guarantees is None:
            object.__setattr__(
                self, "rate_guarantees", {u: 0.0 for u in self.decode_order[:-1]}
            )
        else:
            missing = [u for u in self.decode_order[:-1] if u not in self.rate_guarantees]
            if missing:
                raise DomainError(f"non-head members without a rate guarantee: {missing}")
            for u, r in self.rate_guarantees.items():
                if r < 0.0:
                    raise DomainError(f"negative rate guarantee for user {u}")

    @property
    def cluster_head(self) -> int:
        return self.decode_order[-1]

    def position_of(self, user_id: int) -> int:
        try:
            return self.decode_order.index(user_id)
        except ValueError:
            raise KeyError(f"user {user_id} is not in cell {self.cell_id}'s cluster") from None


@dataclass(frozen=True)
class PowerAllocation:
    """Per-user transmit powers (mW) of one cluster, plus a feasibility verdict.

    diagnostics carries short machine-readable codes such as
    ``infeasible_guarantee position=1 user=7``.
    """

    powers: Mapping[int, float]
    feasible: bool = True
    diagnostics: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        for u, p in self.powers.items():
            if p < 0.0:
                raise DomainError(f"negative power {p} for user {u}")


def _gain_of(gains, cell_id: int, user_id: int) -> float:
    """Receiver gain lookup from either a realization table or a per-user map."""
    if isinstance(gains, ChannelRealization):
        return gains.gains[(cell_id, user_id)]
    return gains[user_id]


def user_rate_single_cell(
    cluster: NomaCluster, alloc: PowerAllocation, gains, user_id: int
) -> float:
    """Achievable rate (bits/s) of one cluster member over the cluster's band.

    rate = width * log2(1 + p*g / (g * later_power + 1)) with g the receiver's
    noise-normalized gain and later_power the total power of signals decoded
    after this user.
    """
    pos = cluster.position_of(user_id)
    order = cluster.decode_order
    powers = alloc.powers
    g = _gain_of(gains, cluster.cell_id, user_id)
    later = 0.0
    for j in range(pos + 1, len(order)):
        later += powers[order[j]]
    num = powers[user_id] * g
    den = 1.0 + g * later
    return cluster.band.width_hz * math.log2(1.0 + num / den)


def comp_user_rate_jt(
    clusters: Sequence[NomaCluster],
    allocs: Sequence[PowerAllocation],
    gains,
    user_id: int,
) -> float:
    """Rate of a jointly-transmitted user: all cells' copies add coherently.

    Numerator sums every cell's received power for this user; the denominator
    adds every cell's later-decoded in-cluster power, received at this user's
    per-cell gain.  All clusters must sit on one shared band.
    """
    width = clusters[0].band.width_hz
    num = 0.0
    den = 1.0
    for cluster, alloc in zip(clusters, allocs):
        if cluster.band != clusters[0].band:
            raise DomainError("joint transmission requires a single shared band")
        try:
            pos = cluster.decode_order.index(user_id)
        except ValueError:
            raise ConditionViolation(
                1, cluster.cell_id, (user_id,), "coordinated user missing from a cluster"
            ) from None
        order = cluster.decode_order
        powers = alloc.powers
        g = _gain_of(gains, cluster.cell_id, user_id)
        later = 0.0
        for j in range(pos + 1, len(order)):
            later += powers[order[j]]
        num += powers[user_id] * g
        den += g * later
    return width * math.log2(1.0 + num / den)


def noncomp_user_rate(
    cluster: NomaCluster,
    alloc: PowerAllocation,
    gains,
    user_id: int,
    interference_mode: str = "negligible",
    cross: Sequence[tuple[NomaCluster, PowerAllocation]] = (),
) -> float:
    """Rate of a single-cell user, optionally under cross-cell interference.

    In ``full`` mode every member of another cell's co-band cluster that is not
    also a member of this cluster (i.e. not a cancellable shared signal)
    contributes p * g' interference, with g' that cell's gain to this user.
    ``negligible`` mode drops the cross-cell term entirely.
    """
    if interference_mode not in ("full", "negligible"):
        raise DomainError(f"unknown interference mode {interference_mode!r}")
    pos = cluster.position_of(user_id)
    order = cluster.decode_order
    powers = alloc.powers
    g = _gain_of(gains, cluster.cell_id, user_id)
    later = 0.0
    for j in range(pos + 1, len(order)):
        later += powers[order[j]]
    den = 1.0 + g * later
    if interference_mode == "full":
        own = set(order)
        for other_cluster, other_alloc in cross:
            for member in other_cluster.decode_order:
                if member in own:
                    continue  # shared signal, decoded and cancelled
                g_cross = _gain_of(gains, other_cluster.cell_id, user_id)
                den += other_alloc.powers[member] * g_cross
    num = powers[user_id] * g
    return cluster.band.width_hz * math.log2(1.0 + num / den)


def sic_feasible(cluster: NomaCluster, alloc: PowerAllocation, gains, p_tol: float) -> bool:
    """True iff every signal clears the received-power gap at every decoder.

    For each non-head position i, every user at position >= i must observe
    (p_i - sum_{j>i} p_j) * g_k >= p_tol; g_k is the decoder's own gain (a
    per-user effective-gain map may be passed for coordinated patterns).
    """
    if p_tol < 0.0:
        raise DomainError("p_tol cannot be negative")
    order = cluster.decode_order
    powers = [alloc.powers[u] for u in order]
    eff = [_gain_of(gains, cluster.cell_id, u) for u in order]
    n = len(order)
    for i in range(n - 1):
        gap = powers[i] - sum(powers[i + 1:])
        for k in range(i, n):
            if gap * eff[k] < p_tol:
                return False
    return True


def sum_rate_single_cell(cluster: NomaCluster, alloc: PowerAllocation, gains) -> float:
    """Total cluster throughput, bits/s."""
    return math.fsum(
        user_rate_single_cell(cluster, alloc, gains, u) for u in cluster.decode_order
    )


# --- array kernels: one (n,) array per decode position, n trials at once ---


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
