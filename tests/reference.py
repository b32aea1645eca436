"""Scalar references the array kernels are tested against.

Everything here works on one instance at a time with plain Python objects:
the domain objects of one cluster, the per-user rate and decodability
formulas, a sweep trial's generator seed, the scalar gain formula, dynamic
cell selection, and a brute-force grid oracle for the single-cell allocation.  None of it shares code with the
engine in ``compnoma.allocation``, ``compnoma.scenarios`` or
``compnoma.harness`` (``test_exports`` checks the imports), so an agreement
between the two is evidence, not a tautology.

Decode-order convention: ``NomaCluster.decode_order`` lists users in the order
their signals are decoded.  Position 0 is decoded first by everyone; the last
position is the cluster head, which cancels all other in-cluster signals and
sees only noise (plus whatever interference mode adds).  A user's own-cluster
interference is therefore the total power of signals decoded *after* it.
"""

from __future__ import annotations

import hashlib
import math
import struct
from dataclasses import dataclass, field
from typing import Mapping, Sequence

import numpy as np

from compnoma.channel import RadioParams
from compnoma.errors import ConditionViolation, ConfigError, DomainError

# --- domain objects ----------------------------------------------------------


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


# --- channel -------------------------------------------------------------------


def trial_seed(master_seed: int, sweep_index: int, trial: int) -> int:
    """Generator seed of one sweep trial: the 16-byte blake2b digest, read
    big-endian, of the master seed, sweep index and trial index, each masked
    to 64 bits and packed big-endian."""
    mask = (1 << 64) - 1
    key = struct.pack(">QQQ", master_seed & mask, sweep_index & mask, trial & mask)
    return int.from_bytes(hashlib.blake2b(key, digest_size=16).digest(), "big")


def normalized_gain(distance_m: float, fading_power: float, params: RadioParams) -> float:
    """Noise-normalized channel power gain, 1/mW.

    gain = fading_power * distance^(-alpha) / (noise_density * bandwidth)

    fading_power is the squared fading envelope (unit mean under Rayleigh);
    fading_power = 0 degenerates to a zero gain, not an error.
    """
    if distance_m <= 0.0:
        raise DomainError(f"distance must be positive, got {distance_m}")
    if fading_power < 0.0:
        raise DomainError(f"fading power cannot be negative, got {fading_power}")
    return fading_power * distance_m ** (-params.pathloss_exponent) / params.noise_power_mw


@dataclass(frozen=True)
class ChannelRealization:
    """One trial's gain table, keyed by (cell_id, user_id)."""

    gains: Mapping[tuple[int, int], float] = field(default_factory=dict)

    def __getitem__(self, key: tuple[int, int]) -> float:
        return self.gains[key]

    def __contains__(self, key: tuple[int, int]) -> bool:
        return key in self.gains


def dps_select_cell(comp_user: int, gains, cells: Sequence) -> int:
    """Serving cell for one dynamically switched user: the cell with the
    largest realized gain this trial; ties go to the lowest cell id."""
    if not cells:
        raise ConfigError("no candidate cells to select from")
    best_id: int | None = None
    best_gain = 0.0
    ids = sorted(getattr(cell, "cell_id", cell) for cell in cells)
    for cell_id in ids:
        g = gains[(cell_id, comp_user)]
        if best_id is None or g > best_gain:
            best_id, best_gain = cell_id, g
    assert best_id is not None
    return best_id


# --- per-user rates and decodability -----------------------------------------


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


# --- brute-force oracle --------------------------------------------------------


@dataclass(frozen=True)
class OracleResult:
    """The best feasible grid point: powers in decode order and their sum rate
    (bits/s/Hz).  With no feasible grid point, feasible is False, the powers
    are zero and the sum rate is NaN."""

    powers: tuple[float, ...]
    feasible: bool
    sum_rate_bps: float


def _left_sum(terms):
    """Left-to-right sum from 0.0."""
    total = 0.0
    for term in terms:
        total = total + term
    return total


def brute_force_oracle(
    gains: Sequence[float],
    guarantees: Sequence[float],
    budget: float,
    p_tol: float,
    grid_points: int = 1000,
) -> OracleResult:
    """Exhaustive sum-rate search over the budget simplex, n <= 3, on a unit
    band; gains are per decode position and guarantees cover the non-head
    positions.

    Position 0's signal is cancelled before any later decode, so topping the
    budget up through p_0 never hurts anyone: the search fixes
    p_0 = budget - sum(others) and grids the remaining positions.  Guarantees
    and decodability gaps are enforced on every grid point.  A feasible winner
    is then polished by re-gridding a one-step box around it a few times, so
    the reported optimum is not limited by the coarse step; the feasibility
    verdict itself stays a property of the full-budget grid.
    """
    n = len(gains)
    if n > 3:
        raise DomainError("oracle supports clusters of at most 3 users")
    if grid_points < 2:
        raise DomainError("need at least 2 grid points per free dimension")
    g = np.array(gains, dtype=float)

    def evaluate(free):
        # free holds the power columns of positions 1..n-1; position 0 takes
        # the budget remainder.  Column sums run left to right, as an (N, n)
        # matrix's row sums do, without its strided reductions and copies
        p = [np.atleast_1d(budget - _left_sum(free))] + free
        later = [_left_sum(p[i + 1:]) for i in range(n)]
        feasible = np.ones(len(p[0]), dtype=bool)
        for i in range(n - 1):
            gap = p[i] - later[i]
            worst = np.where(gap >= 0.0, gap * g[i:].min(), gap * g[i:].max())
            feasible &= worst >= p_tol
        out = [np.log2(1.0 + p[i] * g[i] / (g[i] * later[i] + 1.0)) for i in range(n)]
        for i, r in enumerate(guarantees):
            if r > 0.0:
                feasible &= out[i] >= r * (1.0 - 1e-12)
        sums = _left_sum(out)
        sums[~feasible] = -math.inf
        return feasible, sums

    def simplex(spans):
        # grid points (as columns) whose free powers fit in the budget
        if len(spans) < 2:
            return list(spans)
        a, b = np.meshgrid(*spans, indexing="ij")
        a, b = a.ravel(), b.ravel()
        keep = a + b <= budget
        return [a[keep], b[keep]]

    axis = np.linspace(0.0, budget, grid_points)
    free = simplex([axis] * (n - 1))
    feasible, sums = evaluate(free)
    if not feasible.any():
        return OracleResult((0.0,) * n, False, math.nan)
    best_idx = int(np.argmax(sums))
    best_free = [c[best_idx] for c in free]
    best_sum = float(sums[best_idx])

    half = budget / (grid_points - 1)
    refine_pts = 51
    for _ in range(3 if n > 1 else 0):
        spans = [
            np.linspace(
                max(0.0, c - half), min(budget, c + half), refine_pts
            )
            for c in best_free
        ]
        cand = [np.append(c, best) for c, best in zip(simplex(spans), best_free)]
        c_feasible, c_sums = evaluate(cand)
        c_best = int(np.argmax(c_sums))
        if c_sums[c_best] > best_sum:
            best_sum = float(c_sums[c_best])
            best_free = [c[c_best] for c in cand]
        half = 2.0 * half / (refine_pts - 1)

    powers = [budget - _left_sum(best_free)] + best_free
    return OracleResult(tuple(float(p) for p in powers), True, best_sum)
