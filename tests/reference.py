"""Scalar references the array kernels are tested against.

Everything here works on one instance at a time with plain Python objects:
the domain objects of one cluster, the joint-transmission decode-order
rules, the per-user rate and decodability formulas, a sweep trial's
generator seed, the scalar gain formula, the edge-placement law, dynamic
cell selection, each scheme's guaranteed users, and a brute-force grid
oracle for the single-cell allocation.  None of it shares code with the
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
from functools import lru_cache
from typing import Iterable, Mapping, Sequence

import numpy as np

from compnoma.channel import PATHLOSS_EXPONENT, RadioParams
from compnoma.errors import ConfigError


class DomainError(ValueError):
    """A reference object was built or used outside its invariants."""


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


# --- joint-transmission decode-order rules -------------------------------------


class ConditionViolation(DomainError):
    """A cluster list breaks one of the joint-transmission decode-order rules.

    which = 1: a coordinated user is decoded after a single-cell user.
    which = 2: coordinated users appear in different relative orders
               in two clusters.
    """

    def __init__(self, which: int, cell_id: int, users: tuple[int, ...], detail: str = ""):
        self.which = which
        self.cell_id = cell_id
        self.users = tuple(users)
        msg = f"decode-order condition {which} violated in cell {cell_id} (users {self.users})"
        if detail:
            msg += f": {detail}"
        super().__init__(msg)


def validate_jt_conditions(clusters: Sequence, comp_users: Iterable[int]) -> None:
    """Check the two decode-order rules joint transmission depends on; each
    cluster has a ``cell_id`` and a ``decode_order``.

    1. In every cluster, jointly served users are decoded before any
       single-cell user (otherwise a single-cell user would have to cancel a
       signal it cannot decode everywhere).
    2. The jointly served users keep one common relative order across all
       clusters (their superposed copies must be cancellable in lockstep).

    Raises ConditionViolation (which=1 or 2) on the first broken rule.
    """
    comp = set(comp_users)
    reference: tuple[int, ...] | None = None
    for cluster in clusters:
        order = cluster.decode_order
        seen_noncomp = False
        for u in order:
            if u in comp:
                if seen_noncomp:
                    raise ConditionViolation(
                        1, cluster.cell_id, order, f"user {u} decoded after a single-cell user"
                    )
            else:
                seen_noncomp = True
        sub = tuple(u for u in order if u in comp)
        if reference is None:
            reference = sub
        elif sub != reference:
            raise ConditionViolation(
                2, cluster.cell_id, order,
                f"joint users ordered {sub}, expected {reference}",
            )


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

    gain = fading_power * distance^(-PATHLOSS_EXPONENT) / (noise_density * BANDWIDTH_HZ)

    fading_power is the squared fading envelope (unit mean under Rayleigh);
    fading_power = 0 degenerates to a zero gain, not an error.
    """
    if distance_m <= 0.0:
        raise DomainError(f"distance must be positive, got {distance_m}")
    if fading_power < 0.0:
        raise DomainError(f"fading power cannot be negative, got {fading_power}")
    return fading_power * distance_m ** (-PATHLOSS_EXPONENT) / params.noise_power_mw


def lens_area(r: float, rho: float, h: float) -> float:
    """Area shared by a disc of radius r and one of radius rho whose centres
    are h apart (E. W. Weisstein, "Circle-Circle Intersection", MathWorld)."""
    if r + rho <= h:
        return 0.0
    if abs(r - rho) >= h:  # one disc inside the other
        return math.pi * min(r, rho) ** 2
    a = (h * h + r * r - rho * rho) / (2.0 * h * r)
    b = (h * h + rho * rho - r * r) / (2.0 * h * rho)
    kite = (-h + r + rho) * (h + r - rho) * (h - r + rho) * (h + r + rho)
    return r * r * math.acos(a) + rho * rho * math.acos(b) - 0.5 * math.sqrt(kite)


def edge_radius_cdf(r: float, radius: float, rho: float, h: float) -> float:
    """P(|edge position| <= r) for a position uniform on the disc of the given
    radius at the midpoint, minus the two coverage discs of radius rho centred
    h either side of it (h > rho, so the two lenses never overlap)."""
    def area(x):
        return math.pi * x * x - 2.0 * lens_area(x, rho, h)

    return area(min(r, radius)) / area(radius)


def guaranteed_users(comp, tails, gains, scheme: str) -> np.ndarray:
    """(trials, users) mask of the users a feasible trial must pay at least
    their orthogonal rate: every user some cluster decodes before its head.

    comp are the columns of the jointly served users, tails[ci] those of cell
    ci's single-cell users and gains a (trials, cells, users) array.  Built
    from the gains alone, by the schemes' rules:

    - JT-NOMA: everyone but each cell's strongest single-cell user (a cell
      without one is headed by a jointly served user, who is still decoded
      before the other cell's head);
    - DPS-NOMA: each cell's members but its strongest; an edge user joins
      cell 2 when its gain there is strictly larger, else cell 1;
    - CS-NOMA: on half band b, the weaker of edge user b and cell b's
      single-cell user, the edge user on ties.

    Ties for a cell's strongest go to the later member in (single-cell
    users, edge users) order.
    """
    n, _, users = gains.shape
    mask = np.zeros((n, users), bool)
    rows = np.arange(n)

    def all_but_strongest(ci, cols, member):
        # member[:, j] says whether cols[j] is in cell ci's cluster this trial
        key = np.where(member, gains[:, ci, cols], -np.inf)
        head = len(cols) - 1 - np.argmax(key[:, ::-1], axis=1)
        for j, c in enumerate(cols):
            mask[:, c] |= member[:, j] & (head != j)

    if scheme == "JT-NOMA":
        mask[:, list(comp)] = True
        for ci, cols in enumerate(tails):
            if cols:
                all_but_strongest(ci, list(cols), np.ones((n, len(cols)), bool))
    elif scheme == "DPS-NOMA":
        to_cell_2 = gains[:, 1, list(comp)] > gains[:, 0, list(comp)]
        for ci, joined in enumerate((~to_cell_2, to_cell_2)):
            cols = list(tails[ci]) + list(comp)
            all_but_strongest(ci, cols, np.column_stack([np.ones((n, len(tails[ci])), bool), joined]))
    elif scheme == "CS-NOMA":
        for b, edge in enumerate(comp):
            own = tails[b][0]
            edge_weaker = gains[:, b, edge] <= gains[:, b, own]
            mask[rows, np.where(edge_weaker, edge, own)] = True
    else:
        raise ConfigError(f"no guarantee rule for {scheme!r}")
    return mask


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


def _simplex(spans, budget: float) -> list:
    """Grid points (as columns) of spans whose free powers fit in budget."""
    if len(spans) < 2:
        return list(spans)
    a, b = np.meshgrid(*spans, indexing="ij")
    a, b = a.ravel(), b.ravel()
    keep = a + b <= budget
    return [a[keep], b[keep]]


def _powers(free: list, budget: float) -> tuple:
    """(p, later, gaps) of the power columns free of positions 1..n-1:
    every position's power, position 0 taking the budget remainder; the
    power decoded after each position; and each non-head position's gap
    p[i] - later[i].  Column sums run left to right, as an (N, n) matrix's
    row sums do, without its strided reductions and copies."""
    p = [np.atleast_1d(budget - _left_sum(free))] + free
    later = [_left_sum(p[i + 1:]) for i in range(len(p))]
    return p, later, [p[i] - later[i] for i in range(len(p) - 1)]


@lru_cache(maxsize=4)
def _full_grid(budget: float, grid_points: int, dims: int) -> tuple:
    """_powers of the full-budget grid of dims free powers (_simplex's
    columns, grid_points steps each), built once per key: the random
    instances all have one budget, so only their gains and guarantees
    differ.  Every caller shares these arrays, so they are read-only."""
    axis = np.linspace(0.0, budget, grid_points)
    p, later, gaps = _powers(_simplex([axis] * dims, budget), budget)
    for column in (*p, *later, *gaps):
        if isinstance(column, np.ndarray):
            column.flags.writeable = False
    return p, later, gaps


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

    def evaluate(p, later, gaps):
        # _powers' columns: only the gains and guarantees are this instance's
        feasible = np.ones(len(p[0]), dtype=bool)
        for i, gap in enumerate(gaps):
            worst = np.where(gap >= 0.0, gap * g[i:].min(), gap * g[i:].max())
            feasible &= worst >= p_tol
        out = [np.log2(1.0 + p[i] * g[i] / (g[i] * later[i] + 1.0)) for i in range(n)]
        for i, r in enumerate(guarantees):
            if r > 0.0:
                feasible &= out[i] >= r * (1.0 - 1e-12)
        sums = _left_sum(out)
        sums[~feasible] = -math.inf
        return feasible, sums

    grid = _full_grid(budget, grid_points, n - 1)
    feasible, sums = evaluate(*grid)
    if not feasible.any():
        return OracleResult((0.0,) * n, False, math.nan)
    best_idx = int(np.argmax(sums))
    best_free = [c[best_idx] for c in grid[0][1:]]
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
        cand = [np.append(c, best) for c, best in zip(_simplex(spans, budget), best_free)]
        c_feasible, c_sums = evaluate(*_powers(cand, budget))
        c_best = int(np.argmax(c_sums))
        if c_sums[c_best] > best_sum:
            best_sum = float(c_sums[c_best])
            best_free = [c[c_best] for c in cand]
        half = 2.0 * half / (refine_pts - 1)

    powers = [budget - _left_sum(best_free)] + best_free
    return OracleResult(tuple(float(p) for p in powers), True, best_sum)
