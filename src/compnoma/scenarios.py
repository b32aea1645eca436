"""Two-cell evaluation scenarios: geometry builders, orthogonal-access
baselines, and the scheme kernels every trial is evaluated with.

Three layouts are modeled, all with base stations 1 km apart:

1. one cell-edge user served jointly, two single-cell users per cell (one at a
   swept distance, one fixed at 300 m);
2. two cell-edge users served jointly, one single-cell user per cell at 250 m,
   with the edge-region radius swept;
3. like 2 but cell 2 has no single-cell user, so its cluster is the two edge
   users alone and the later-decoded edge user is cell 2's cluster head.

Single-cell users sit on the ray pointing away from the opposite base station
so their geometry is deterministic; edge users are drawn uniformly from a disc
at the midpoint, rejecting draws inside either cell's coverage radius.

Schemes are evaluated on a (trials, cells, users) gain array whose user
columns are the user ids in ascending order (see ``Layout``); ``run_trial``,
``oma_rates`` and ``cs_oma_rates`` are the one-trial wrappers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Mapping, Sequence

import numpy as np

from .allocation import EQUAL_RECEIVED, EQUAL_TRANSMIT, FEASIBLE, REL_SLACK, solve_jt, solve_single_cell
from .channel import RadioParams, distance_term, fading_draws, gain_array
from .core import COMP, NONCOMP, Cell, UserEquipment, later_sums, rates, seq_sum
from .errors import ConfigError, DomainError
from .schemes import CS_NOMA, CS_OMA, DPS_NOMA, JT_NOMA, JT_OMA, CompSet, build_cs_band_plan
from .units import dbm_to_mw

# Reference radio parameters: 43 dBm per cell, -139 dBm/Hz noise density,
# 8.64 MHz system band, fourth-power distance loss.  The decodability
# tolerance default is deliberately conservative; sweep presets relax it.
REFERENCE_RADIO = RadioParams(
    tx_power_mw=dbm_to_mw(43.0),
    noise_density_mw_hz=dbm_to_mw(-139.0),
    bandwidth_hz=8.64e6,
    pathloss_exponent=4.0,
    sic_tolerance=100.0,
)

DISC = "disc"
RING = "ring"

CASE_EDGE_ORDER_CELL2 = "case1"  # edge users decoded in cell-2 gain order
CASE_EDGE_ORDER_CELL1 = "case2"  # edge users decoded in cell-1 gain order

_MAX_PLACEMENT_DRAWS = 100_000


@dataclass(frozen=True)
class PlacementSpec:
    """Deterministic geometry knobs; None means 'use the scenario default'."""

    inter_site_m: float = 1000.0
    coverage_m: float = 400.0
    edge_region_radius_m: float | None = None
    edge_region_law: str = DISC
    primary_distance_m: float | None = None
    secondary_distance_m: float = 300.0

    def __post_init__(self) -> None:
        if self.inter_site_m <= 0.0 or self.coverage_m <= 0.0:
            raise DomainError("site spacing and coverage radius must be positive")
        if self.inter_site_m / 2.0 <= self.coverage_m:
            raise DomainError(
                "coverage discs overlap the midpoint; no admissible edge region"
            )
        if self.edge_region_law not in (DISC, RING):
            raise DomainError(f"unknown edge-region law {self.edge_region_law!r}")


@dataclass(frozen=True)
class ScenarioTopology:
    scenario_id: int
    radio: RadioParams
    cells: tuple[Cell, ...]
    users: tuple[UserEquipment, ...]
    comp_set: CompSet
    sweep_value: float = 0.0

    def user(self, user_id: int) -> UserEquipment:
        for u in self.users:
            if u.user_id == user_id:
                return u
        raise KeyError(user_id)

    @property
    def comp_ids(self) -> tuple[int, ...]:
        return self.comp_set.comp_user_ids

    def noncomp_in_cell(self, cell_id: int) -> tuple[int, ...]:
        return tuple(
            u.user_id
            for u in self.users
            if u.role == NONCOMP and u.serving_cells[0] == cell_id
        )


def _draw_edge_position(
    rng, radius: float, law: str, sites: Sequence[tuple[float, float]], coverage: float
) -> tuple[float, float]:
    """Uniform point in the midpoint disc (or on its rim), rejected while it
    falls inside either cell's coverage disc.  The test uses math, not numpy:
    it decides how many draws a trial consumes."""
    random, hypot, ring = rng.random, math.hypot, law == RING
    for _ in range(_MAX_PLACEMENT_DRAWS):
        theta = 2.0 * math.pi * random()
        r = radius if ring else radius * math.sqrt(random())
        x, y = r * math.cos(theta), r * math.sin(theta)
        for cx, cy in sites:
            if not hypot(x - cx, y - cy) > coverage:
                break
        else:
            return (x, y)
    raise DomainError(
        "edge-user placement rejected too often; region outside coverage is empty"
    )


@dataclass(frozen=True)
class Layout:
    """How a scenario maps onto a (trials, cells, users) gain array.

    Axis 1 holds cells 1 and 2; axis 2 holds user_ids, ascending.  comp are the
    columns of the jointly served users, tails[ci] those of cell ci's
    single-cell users.
    """

    scenario_id: int
    user_ids: tuple[int, ...]
    comp: tuple[int, ...]
    tails: tuple[tuple[int, ...], ...]
    power_mw: float
    bandwidth_hz: float
    p_tol: float


def _layout(topology: ScenarioTopology) -> Layout:
    ids = tuple(sorted(u.user_id for u in topology.users))
    radio = topology.radio
    return Layout(
        topology.scenario_id,
        ids,
        tuple(ids.index(u) for u in topology.comp_ids),
        tuple(tuple(ids.index(u) for u in topology.noncomp_in_cell(c.cell_id)) for c in topology.cells),
        radio.tx_power_mw,
        radio.bandwidth_hz,
        radio.sic_tolerance,
    )


class SweepPoint:
    """One sweep point: its fixed geometry, built once, and each trial's draw.

    ``topology`` holds the jointly served users at a placeholder position.  A
    trial's draw consumes its RNG exactly as build_scenario followed by
    draw_realization does, so both give bit-identical gains.
    """

    def __init__(
        self, scenario_id: int, sweep_value: float, radio: RadioParams, placement: PlacementSpec | None
    ):
        if scenario_id not in (1, 2, 3):
            raise ConfigError(f"unknown scenario {scenario_id}")
        if sweep_value <= 0.0:
            raise DomainError("sweep value must be positive")
        spec = placement or PlacementSpec()
        half = spec.inter_site_m / 2.0
        cells = (
            Cell(cell_id=1, position=(-half, 0.0), power_budget_mw=radio.tx_power_mw),
            Cell(cell_id=2, position=(half, 0.0), power_budget_mw=radio.tx_power_mw),
        )
        if scenario_id == 1:
            radius = spec.edge_region_radius_m if spec.edge_region_radius_m is not None else 200.0
            primary = sweep_value
            self.comp_ids = (1,)
        else:
            radius = spec.edge_region_radius_m if spec.edge_region_radius_m is not None else sweep_value
            primary = spec.primary_distance_m if spec.primary_distance_m is not None else 250.0
            self.comp_ids = (1, 2)
        if primary > spec.coverage_m:
            raise DomainError(
                f"single-cell user distance {primary} exceeds coverage {spec.coverage_m}"
            )

        def away(cell: Cell, dist: float) -> tuple[float, float]:
            # on the ray from the opposite site through this one, dist beyond it
            sign = -1.0 if cell.position[0] < 0.0 else 1.0
            return (cell.position[0] + sign * dist, 0.0)

        users = [UserEquipment(u, (0.0, 0.0), COMP, (1, 2)) for u in self.comp_ids]
        for cell in cells if scenario_id != 3 else cells[:1]:
            distances = (primary, spec.secondary_distance_m) if scenario_id == 1 else (primary,)
            for i, dist in enumerate(distances):
                uid = cell.cell_id * 10 + 1 + i
                users.append(UserEquipment(uid, away(cell, dist), NONCOMP, (cell.cell_id,)))
        self.topology = ScenarioTopology(
            scenario_id=scenario_id,
            radio=radio,
            cells=cells,
            users=tuple(sorted(users, key=lambda u: u.user_id)),
            comp_set=CompSet(cell_ids=(1, 2), comp_user_ids=self.comp_ids),
            sweep_value=sweep_value,
        )
        self.layout = _layout(self.topology)
        self.radio = radio
        self.sites = [c.position for c in cells]
        self.edge_region = (radius, spec.edge_region_law, spec.coverage_m)
        # d^(-alpha) per (cell, user); edge-user columns are filled per trial
        alpha = radio.pathloss_exponent
        self.terms = np.array(
            [[distance_term(u.position, site, alpha) if u.role == NONCOMP else 0.0
              for u in self.topology.users] for site in self.sites]
        )
        self.links = self.terms.size

    def draw(self, rng) -> list[float]:
        """Edge-user distance terms (per user: cell 1, cell 2), then one fading
        draw per (cell, user) link."""
        radius, law, coverage = self.edge_region
        alpha = self.radio.pathloss_exponent
        out = []
        for _ in self.comp_ids:
            x, y = _draw_edge_position(rng, radius, law, self.sites, coverage)
            # distance_term inlined; an accepted position is outside coverage
            out += [math.hypot(x - cx, y - cy) ** (-alpha) for cx, cy in self.sites]
        return out + fading_draws(rng, self.links)

    def gains(self, draws: Sequence[list[float]]) -> np.ndarray:
        """(trials, cells, users) gain array from a block of trial draws."""
        a = np.array(draws, dtype=float)
        n, q = len(a), len(self.comp_ids)
        terms = np.repeat(self.terms[None], n, axis=0)
        terms[:, :, self.layout.comp] = a[:, : 2 * q].reshape(n, q, 2).transpose(0, 2, 1)
        return gain_array(a[:, 2 * q:].reshape(terms.shape), terms, self.radio)


def build_scenario(
    scenario_id: int,
    sweep_value: float,
    rng,
    radio: RadioParams = REFERENCE_RADIO,
    placement: PlacementSpec | None = None,
) -> ScenarioTopology:
    """Instantiate one trial's topology at one sweep point.

    The sweep parameter is the swept single-cell user distance (scenario 1) or
    the edge-region radius (scenarios 2 and 3).  Consumes randomness only for
    edge-user positions, in ascending user-id order.
    """
    point = SweepPoint(scenario_id, sweep_value, radio, placement)
    radius, law, coverage = point.edge_region
    edge = {u: _draw_edge_position(rng, radius, law, point.sites, coverage) for u in point.comp_ids}
    users = tuple(replace(u, position=edge.get(u.user_id, u.position)) for u in point.topology.users)
    return replace(point.topology, users=users)


@dataclass(frozen=True)
class TrialResult:
    scheme: str
    rates_bps: Mapping[int, float]
    baseline_rates_bps: Mapping[int, float]
    spectral_efficiency: float
    baseline_spectral_efficiency: float
    feasible: bool
    guarantees_met: bool


def _by_gain(g: np.ndarray, cols: Sequence[int]) -> list:
    """cols in ascending gain per trial (g is (trials, users)); the sort is
    stable, so ties keep the given order, as sorted() does."""
    if len(cols) < 2:
        return list(cols)
    return list(np.asarray(cols)[np.argsort(g[:, cols], axis=1, kind="stable")].T)


def orthogonal_rates(lay: Layout, g: np.ndarray) -> np.ndarray:
    """Orthogonal baseline of every user, (trials, users): each cell splits
    its band evenly over its served set; jointly served users get the aligned
    share from both cells plus any leftover share from the cell serving fewer
    users.

    With power proportional to band share, in-band SNR equals full-band power
    times the full-band gain (p/B_share times gain*B_share/w cancels), so the
    budget-times-gain product is used directly.
    """
    p = lay.power_mw
    width = [lay.bandwidth_hz / (len(lay.tails[ci]) + len(lay.comp)) for ci in (0, 1)]
    out = np.empty((len(g), len(lay.user_ids)))
    cells = [ci for ci in (0, 1) for _ in lay.tails[ci]]
    cols = [c for ci in (0, 1) for c in lay.tails[ci]]
    out[:, cols] = np.array([width[ci] for ci in cells]) * np.log2(1.0 + p * g[:, cells, cols])
    aligned = min(width)
    edge = list(lay.comp)
    rate = aligned * np.log2(1.0 + (p * g[:, 0, edge] + p * g[:, 1, edge]))
    for ci in (0, 1):
        extra = width[ci] - aligned
        if extra > 0.0:
            rate = rate + extra * np.log2(1.0 + p * g[:, ci, edge])
    out[:, edge] = rate
    return out


def _cs_oma(lay: Layout, g: np.ndarray) -> np.ndarray:
    """Fully orthogonal halves: each cell serves its edge user and its own
    single-cell user on separate half-bands at proportional power."""
    pairs = [(ci, c) for ci, edge in enumerate(lay.comp) for c in (edge, lay.tails[ci][0])]
    cells, cols = [ci for ci, _ in pairs], [c for _, c in pairs]
    out = np.zeros((len(g), len(lay.user_ids)))
    out[:, cols] = lay.bandwidth_hz / 2.0 * np.log2(1.0 + lay.power_mw * g[:, cells, cols])
    return out


def _edge_order(lay: Layout, g: np.ndarray, decode_case: str) -> list:
    """Shared decode order of the jointly served users: ascending realized
    gain in the reference cell (cell 2 in the first decode case of the
    asymmetric scenario, cell 1 otherwise)."""
    ref = 1 if lay.scenario_id == 3 and decode_case == CASE_EDGE_ORDER_CELL2 else 0
    return _by_gain(g[:, ref], lay.comp)


def _jt_noma(lay, g, base, full, split, decode_case):
    """Both cells decode the jointly served users first, in the shared edge
    order, then their own users by ascending gain; non-heads are guaranteed
    their orthogonal rate."""
    rows = np.arange(len(g))
    edge = _edge_order(lay, g, decode_case)
    orders = [edge + _by_gain(g[:, ci], lay.tails[ci]) for ci in (0, 1)]
    q = len(edge)
    _, reason, _, _, pos_rates = solve_jt(
        [[g[rows, ci, c] for c in edge] for ci in (0, 1)],
        [[g[rows, ci, c] for c in orders[ci][q:]] for ci in (0, 1)],
        [[base[rows, c] for c in order[:-1]] + [0.0] for order in orders],
        [[0.0] * len(order) for order in orders],
        [[[g[rows, oc, c] for oc in (0, 1)] for c in orders[ci][q:]] for ci in (0, 1)] if full else None,
        [lay.power_mw] * 2,
        lay.p_tol,
        lay.bandwidth_hz,
        split,
        full,
    )
    out = np.empty_like(base)
    nonhead = np.zeros(base.shape, bool)
    for ci, order in enumerate(orders):
        for c, r in zip(order, pos_rates[ci]):
            out[rows, c] = r
        for c in order[:-1]:
            nonhead[rows, c] = True
    return out, reason, nonhead


def _single_cell_clusters(eff, base, clusters, p_tol, full):
    """Solve single-cell clusters side by side and evaluate their members.

    eff is the (trials, cells, users) gain array at the clusters' band
    scaling; clusters lists (cell, member columns, budget, band width, band
    id), and clusters on one band id interfere with each other in full mode.
    Returns (rates summed over clusters, reason of the first infeasible
    cluster, non-head mask).
    """
    rows = np.arange(len(eff))
    reason = np.zeros(len(eff), np.int8)
    solved = []
    for ci, cols, budget, width, band in clusters:
        order = _by_gain(eff[:, ci], cols)
        x = [0.0] * len(order)
        if full:
            others = [(oc, b) for oc, _, b, _, ob in clusters if ob == band and oc != ci]
            x = [seq_sum(b * eff[rows, oc, c] for oc, b in others) for c in order]
        powers, cluster_reason, _ = solve_single_cell(
            [eff[rows, ci, c] for c in order],
            x,
            [base[rows, c] for c in order[:-1]] + [0.0],
            budget,
            p_tol,
            width,
        )
        reason = np.where(reason == FEASIBLE, cluster_reason, reason)
        solved.append((ci, order, powers, width, band))
    out = np.zeros(base.shape)
    nonhead = np.zeros(base.shape, bool)
    for ci, order, powers, width, band in solved:
        later = later_sums(powers)
        for k, c in enumerate(order):
            gain = eff[rows, ci, c]
            noise = 1.0 + gain * later[k]
            if full:
                for oc, _, o_powers, _, ob in solved:
                    if ob == band and oc != ci:
                        for p in o_powers:
                            noise = noise + p * eff[rows, oc, c]
            out[rows, c] += rates(width, powers[k] * gain, noise)
        for c in order[:-1]:
            nonhead[rows, c] = True
    return out, reason, nonhead


def _dps_noma(lay, g, base, full):
    """Each jointly served user joins the cell with the larger realized gain
    (cell 1 on ties).  Trials are grouped by that choice, so every group has
    fixed cluster sizes."""
    out = np.empty_like(base)
    nonhead = np.empty(base.shape, bool)
    reason = np.empty(len(g), np.int8)
    moved = sum((g[:, 1, c] > g[:, 0, c]).astype(int) << j for j, c in enumerate(lay.comp))
    for choice in range(1 << len(lay.comp)):
        idx = np.flatnonzero(moved == choice)
        if not len(idx):
            continue
        members = [
            list(lay.tails[ci]) + [c for j, c in enumerate(lay.comp) if ((choice >> j) & 1) == ci]
            for ci in (0, 1)
        ]
        clusters = [(ci, members[ci], lay.power_mw, lay.bandwidth_hz, 0) for ci in (0, 1) if members[ci]]
        solved = _single_cell_clusters(g[idx], base[idx], clusters, lay.p_tol, full)
        out[idx], reason[idx], nonhead[idx] = solved
    return out, reason, nonhead


def _cs_noma(lay, g, base, full):
    """The orthogonal 50/50 band plan, one superposed cluster per band share;
    in-band noise shrinks with the band, so gains scale by 1/fraction."""
    plan = build_cs_band_plan(CompSet(cell_ids=(0, 1), comp_user_ids=lay.comp), dict(enumerate(lay.tails)))
    clusters = [
        (a.cell_id, list(a.members), lay.power_mw * a.fraction, a.fraction * lay.bandwidth_hz, a.band_id)
        for a in plan.assignments
    ]
    return _single_cell_clusters(g / 0.5, base, clusters, lay.p_tol, full)


def evaluate(
    lay: Layout, g: np.ndarray, base: np.ndarray, scheme: str,
    interference_mode: str, jt_split: str, decode_case: str,
):
    """One scheme on a block of trials: (rates, feasible, guarantees met,
    reason code), each with a leading trials axis.

    base is the orthogonal baseline: it supplies the non-head rate
    guarantees and the fallback rates of infeasible trials.
    """
    if interference_mode not in ("full", "negligible"):
        raise DomainError(f"unknown interference mode {interference_mode!r}")
    if decode_case not in (CASE_EDGE_ORDER_CELL2, CASE_EDGE_ORDER_CELL1):
        raise ConfigError(f"unknown decode case {decode_case!r}")
    if scheme in (CS_OMA, CS_NOMA) and lay.scenario_id != 2:
        raise ConfigError(
            "orthogonal coordination needs two cells with one edge user and one "
            "single-cell user each"
        )
    n = len(g)
    full = interference_mode == "full"
    if scheme in (JT_OMA, CS_OMA):
        out = base if scheme == JT_OMA else _cs_oma(lay, g)
        return out, np.ones(n, bool), np.ones(n, bool), np.zeros(n, np.int8)
    if scheme == JT_NOMA:
        if jt_split not in (EQUAL_RECEIVED, EQUAL_TRANSMIT):
            raise DomainError(f"unknown split policy {jt_split!r}")
        out, reason, nonhead = _jt_noma(lay, g, base, full, jt_split, decode_case)
    elif scheme == DPS_NOMA:
        out, reason, nonhead = _dps_noma(lay, g, base, full)
    elif scheme == CS_NOMA:
        out, reason, nonhead = _cs_noma(lay, g, base, full)
    else:
        raise ConfigError(f"unknown scheme {scheme!r}")
    feasible = reason == FEASIBLE
    out = np.where(feasible[:, None], out, base)
    met = ~(feasible & (nonhead & (out < base * (1.0 - REL_SLACK))).any(axis=1))
    return out, feasible, met, reason


# --- one-trial wrappers over a topology and a ChannelRealization ------------


def _one_trial(topology: ScenarioTopology, gains) -> tuple[Layout, np.ndarray]:
    lay = _layout(topology)
    g = np.array([[[gains[(c.cell_id, u)] for u in lay.user_ids] for c in topology.cells]])
    return lay, g


def oma_rates(topology: ScenarioTopology, gains) -> dict[int, float]:
    """One trial's orthogonal baseline per user; see orthogonal_rates."""
    lay, g = _one_trial(topology, gains)
    return dict(zip(lay.user_ids, orthogonal_rates(lay, g)[0].tolist()))


def cs_oma_rates(topology: ScenarioTopology, gains) -> dict[int, float]:
    """One trial's orthogonal half-band rates per user; see _cs_oma."""
    lay, g = _one_trial(topology, gains)
    return dict(zip(lay.user_ids, _cs_oma(lay, g)[0].tolist()))


def _edge_decode_order(topology: ScenarioTopology, gains, decode_case: str) -> tuple[int, ...]:
    lay, g = _one_trial(topology, gains)
    return tuple(lay.user_ids[int(np.ravel(c)[0])] for c in _edge_order(lay, g, decode_case))


def run_trial(
    topology: ScenarioTopology,
    gains,
    scheme: str,
    interference_mode: str = "negligible",
    jt_split: str = EQUAL_TRANSMIT,
    decode_case: str = CASE_EDGE_ORDER_CELL2,
) -> TrialResult:
    """Evaluate one channel realization under one scheme (see evaluate)."""
    lay, g = _one_trial(topology, gains)
    base = orthogonal_rates(lay, g)
    out, feasible, met, _ = evaluate(lay, g, base, scheme, interference_mode, jt_split, decode_case)
    rates_bps = dict(zip(lay.user_ids, out[0].tolist()))
    baseline = dict(zip(lay.user_ids, base[0].tolist()))
    b = lay.bandwidth_hz
    return TrialResult(
        scheme=scheme,
        rates_bps=rates_bps,
        baseline_rates_bps=baseline,
        spectral_efficiency=math.fsum(rates_bps.values()) / b,
        baseline_spectral_efficiency=math.fsum(baseline.values()) / b,
        feasible=bool(feasible[0]),
        guarantees_met=bool(met[0]),
    )
