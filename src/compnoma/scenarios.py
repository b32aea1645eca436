"""Two-cell evaluation scenarios: geometry builders, orthogonal-access
baselines, and the scheme kernels every trial is evaluated with.

Three layouts are modeled, all with base stations 1 km apart, each covering
400 m:

1. one cell-edge user served jointly, drawn from a 200 m edge region, two
   single-cell users per cell (one at a swept distance, one fixed at 300 m);
2. two cell-edge users served jointly, one single-cell user per cell at 250 m,
   with the edge-region radius swept;
3. like 2 but cell 2 has no single-cell user, so its cluster is the two edge
   users alone and the later-decoded edge user is cell 2's cluster head.

Single-cell users sit on the ray pointing away from the opposite base station
so their geometry is deterministic; edge users are drawn uniformly in the
edge region, a disc around the midpoint, rejecting draws inside either cell's
coverage radius.

``draw_block`` turns a kernel block's trials, one segment per sweep point,
into a (trials, cells, users) gain array, whose user columns are the user ids
in ascending order (see ``Layout``); schemes are evaluated on it by
``orthogonal_rates`` and ``evaluate``.
"""

from __future__ import annotations

import _random
import hashlib
import math
import struct
from array import array
from dataclasses import dataclass, replace
from math import cos, hypot, log, sin, sqrt
from typing import Sequence

import numpy as np

from .allocation import EQUAL_RECEIVED, EQUAL_TRANSMIT, FEASIBLE, rates, solve_jt
from .channel import BANDWIDTH_HZ, PATHLOSS_EXPONENT, RadioParams, distance_term, gain_array
from .errors import ConfigError, SweepError

# the scheme names, which evaluate dispatches on
JT_NOMA = "JT-NOMA"
CS_NOMA = "CS-NOMA"
DPS_NOMA = "DPS-NOMA"
JT_OMA = "JT-OMA"
CS_OMA = "CS-OMA"

CASE_EDGE_ORDER_CELL2 = "case1"  # edge users decoded in cell-2 gain order; "case2" uses cell 1's
DECODE_CASES = (CASE_EDGE_ORDER_CELL2, "case2")  # the cases evaluate takes

# valid values of the string choices evaluate takes, by config key
CHOICES = {
    "interference_mode": ("negligible", "full"),
    "jt_split": (EQUAL_RECEIVED, EQUAL_TRANSMIT),
}

# every scenario's two sites, 1 km apart on the x axis with the midpoint at
# the origin, and their coverage radius: discs that stop short of the
# midpoint, so edge users can be placed
SITES = ((-500.0, 0.0), (500.0, 0.0))
COVERAGE_M = 400.0
# the swept distance of every run, m: the paper's 50-400 m in 50 m steps
SWEEP_M = tuple(50.0 * i for i in range(1, 9))
_MAX_FADING = -log(2.0**-53)  # -log(1 - U) at the largest uniform draw_block forms, 1 - 2^-53
_MASK64 = (1 << 64) - 1
_TWO_PI = 2.0 * math.pi


@dataclass(frozen=True)
class Layout:
    """How a scenario maps onto a (trials, cells, users) gain array.

    Axis 1 holds cells 1 and 2; axis 2 holds user_ids, ascending.  comp are the
    columns of the jointly served users, tails[ci] those of cell ci's
    single-cell users (none for cell 2 in scenario 3); radio is every
    cell's.
    """

    user_ids: tuple[int, ...]
    comp: tuple[int, ...]
    tails: tuple[tuple[int, ...], ...]
    radio: RadioParams


class SweepPoint:
    """One sweep point's fixed geometry, built once; ``draw_block`` draws its
    trials.

    The jointly served users are 1 (and 2); cell c's single-cell users are
    10c+1 (and 10c+2), on the ray pointing away from the other site.
    ``terms`` holds d^(-4) per (cell, user): fixed for single-cell users,
    0 in the edge users' columns, which ``draw_block`` fills from each
    trial's positions in the disc of ``radius`` around the midpoint.
    Construction raises ConfigError if the radio can overflow a received
    power: twice (an edge user's two links) the transmit power times the
    largest fading and distance term over the noise power must be finite.
    """

    def __init__(self, scenario_id: int, sweep_value: float, radio: RadioParams):
        if scenario_id not in (1, 2, 3):
            raise ConfigError(f"unknown scenario {scenario_id}")
        if not 0.0 < sweep_value < math.inf:
            raise ConfigError(f"sweep value must be positive and finite, got {sweep_value}")
        if scenario_id == 1:  # the sweep sets the first single-cell user's distance
            if sweep_value > COVERAGE_M:
                raise ConfigError(f"single-cell user distance {sweep_value} exceeds coverage {COVERAGE_M}")
            radius = 200.0
            distances = (sweep_value, 300.0)
            comp_ids = (1,)
        else:  # the sweep sets the edge-region radius
            radius = sweep_value
            distances = (250.0,)
            comp_ids = (1, 2)
        cells = (1,) if scenario_id == 3 else (1, 2)  # scenario 3: cell 2 serves edge users only
        tails = [(c, 10 * c + 1 + i, d) for c in cells for i, d in enumerate(distances)]
        ids = comp_ids + tuple(u for _, u, _ in tails)
        self.layout = Layout(
            ids,
            tuple(range(len(comp_ids))),
            tuple(tuple(ids.index(u) for c, u, _ in tails if c == cell) for cell in (1, 2)),
            radio,
        )
        self.radius = radius
        self.terms = np.zeros((2, len(ids)))
        for c, u, d in tails:
            x = SITES[c - 1][0]
            position = (x + math.copysign(d, x), 0.0)
            self.terms[:, ids.index(u)] = [distance_term(position, site) for site in SITES]
        term = float(self.terms.max())  # single-cell users are within coverage, edge users beyond it
        if 2.0 * (radio.tx_power_mw * (_MAX_FADING * term / radio.noise_power_mw)) == math.inf:
            raise ConfigError(
                f"2 x tx_power_mw x the largest fading ({_MAX_FADING:.4g}) x d^-4 ({term:.4g}) over the noise"
                f" power ({radio.noise_power_mw:.4g} mW) overflows to inf"
            )


def draw_block(seed: int, segments: Sequence[tuple[SweepPoint, int, Sequence[int]]]) -> np.ndarray:
    """(trials, cells, users) gain array of a kernel block: each (point,
    sweep_index, trials) segment's trials in turn, under master seed seed; the
    points share one Layout, radio included.  Trial t of point i reseeds one
    generator (as random.Random would) with the blake2b hash of (seed, i, t),
    each masked to 64 bits: (seed, i) is hashed (then copied per trial), and
    the point's radius read, once per segment.  A trial draws the edge
    users' positions in user-id order, each uniform in the point's midpoint
    disc and redrawn while inside either coverage disc (tested with math, not
    numpy: it decides how many draws a trial consumes), then one fading
    uniform per (cell, user) link, cells outer, as one getrandbits word block
    (least significant word first).
    No block-sized list of Python objects is built: the edge users' distance
    terms go to one array("d") and the word blocks, little-endian, to one
    bytearray, which numpy reads in place, turning each word pair into
    random()'s double by its formula.  Fading is Exp(1), the squared Rayleigh
    envelope: -log(1 - U) by libm's log (from which numpy's differs on some
    inputs), streamed over a memoryview.  A trial's failure is re-raised as a
    SweepError naming the seed, sweep index and trial being drawn."""
    return gain_array(*_draw_trials(seed, segments), segments[0][0].layout.radio)


def _draw_trials(seed: int, segments: Sequence[tuple[SweepPoint, int, Sequence[int]]]):
    """draw_block's (fading, distance terms), each (trials, cells, users).
    The word and term buffers die on return, before the gains are formed.  A
    trial's failure is raised as a SweepError naming it."""
    pack, from_bytes = struct.Struct(">Q").pack, int.from_bytes
    rng = _random.Random(0)  # a seed spares reading OS entropy; every trial reseeds it
    reseed, random, getrandbits = _random.Random.seed, rng.random, rng.getrandbits
    edge, words = array("d"), bytearray()
    put, half, coverage, power = edge.append, SITES[1][0], COVERAGE_M, -PATHLOSS_EXPONENT
    for point, sweep_index, trials in segments:
        t = None
        try:
            prefix = struct.pack(">QQ", seed & _MASK64, sweep_index & _MASK64)
            copy = hashlib.blake2b(prefix, digest_size=16).copy
            radius = point.radius
            users, size = point.layout.comp, 8 * point.terms.size
            for t in trials:
                h = copy()
                h.update(pack(t & _MASK64))
                reseed(rng, from_bytes(h.digest(), "big"))
                for _ in users:
                    # ends: at the fixed geometry a draw lands outside both
                    # discs with probability at least 0.47, whatever the
                    # radius (test_scenarios checks the bound)
                    while True:
                        theta = _TWO_PI * random()
                        r = radius * sqrt(random())
                        x, y = r * cos(theta), r * sin(theta)
                        d1 = hypot(x + half, y)  # hypot(x - site x, y - site y), bit for bit
                        if d1 > coverage:
                            d2 = hypot(x - half, y)
                            if d2 > coverage:
                                break
                    put(d1 ** power)
                    put(d2 ** power)
                words += getrandbits(8 * size).to_bytes(size, "little")
        except Exception as e:
            raise SweepError(f"seed={seed} sweep_index={sweep_index} trial={t}: {type(e).__name__}: {e}") from e
    terms = np.repeat([p.terms for p, _, _ in segments], [len(tr) for _, _, tr in segments], axis=0)
    terms[:, :, users] = np.frombuffer(edge).reshape(len(terms), len(users), 2).transpose(0, 2, 1)
    a, b = np.frombuffer(words, "<u4").reshape(-1, 2).T
    u = (a >> 5) * 2.0**26
    u += b >> 6
    u *= 2.0**-53
    np.subtract(1.0, u, out=u)
    fading = np.fromiter(map(log, memoryview(u)), float, u.size)
    np.negative(fading, out=fading)
    return fading.reshape(terms.shape), terms


def _by_gain(key: np.ndarray, cols: Sequence[int]) -> list:
    """cols in ascending key per trial: key is (trials, len(cols)), the
    gains of cols' users as seen by one cell (or any stand-in for them).
    The sort is stable, so ties keep the given order, as sorted() does."""
    if len(cols) < 2:
        return list(cols)
    return list(np.asarray(cols)[np.argsort(key, axis=1, kind="stable")].T)


def orthogonal_rates(lay: Layout, g: np.ndarray) -> np.ndarray:
    """Orthogonal baseline of every user, (trials, users): each cell splits
    its band evenly over its served set; jointly served users get the aligned
    share from both cells plus any leftover share from the cell serving fewer
    users.  JT-OMA's plan is the layout's own served sets; CS-OMA's 50/50
    plan has no jointly served user, and cell b serves edge user b and its
    own single-cell user (see ``evaluate``).  Every user must be served.

    With power proportional to band share, in-band SNR equals full-band power
    times the full-band gain (p/B_share times gain*B_share/w cancels), so the
    budget-times-gain product is used directly.
    """
    p = lay.radio.tx_power_mw
    width = [BANDWIDTH_HZ / (len(lay.tails[ci]) + len(lay.comp)) for ci in (0, 1)]
    out = np.empty((len(g), len(lay.user_ids)))
    cells = [ci for ci in (0, 1) for _ in lay.tails[ci]]
    cols = [c for ci in (0, 1) for c in lay.tails[ci]]
    out[:, cols] = rates(np.array([width[ci] for ci in cells]), p * g[:, cells, cols], 1.0)
    aligned = min(width)
    edge = list(lay.comp)
    rate = rates(aligned, p * g[:, 0, edge] + p * g[:, 1, edge], 1.0)
    for ci in (0, 1):
        extra = width[ci] - aligned
        if extra > 0.0:
            rate = rate + rates(extra, p * g[:, ci, edge], 1.0)
    out[:, edge] = rate
    return out


def decode_cases(scenario_id: int) -> tuple[str, ...]:
    """The decode cases a scenario's JT-NOMA is evaluated under, one series
    each.  Only scenario 3's cell 2 serves no single-cell user, so only there
    may its gain order lead the shared decode order (see ``_edge_order``):
    it has both cases, and every other scenario case 1 alone."""
    return DECODE_CASES if scenario_id == 3 else DECODE_CASES[:1]


def _edge_order(lay: Layout, g: np.ndarray, case: str) -> list:
    """Shared decode order of the jointly served users: ascending realized
    gain in the reference cell: cell 2 in decode case 1 of a layout whose
    cell 2 serves no single-cell user (scenario 3), cell 1 otherwise, so
    case 2 and every case of scenarios 1-2 order them by cell 1's gains."""
    ref = 1 if not lay.tails[1] and case == CASE_EDGE_ORDER_CELL2 else 0
    return _by_gain(g[:, ref, lay.comp], lay.comp)


def _noma_clusters(g, base, edge, orders, budgets, width, p_tol, split, full, idle=None):
    """Per-cell NOMA clusters through ``solve_jt``: orders[ci] is cell ci's
    decode order of user columns, led by the jointly served columns ``edge``
    (none for per-cell schemes, whose split is then unused); every non-head
    is guaranteed its orthogonal rate.  idle[ci], if given, counts per trial
    the leading positions of orders[ci] that cell ci does not serve: they
    point at an extra, zero-guarantee column, dropped from the results.
    Returns (rates, reason); a user no cell serves gets rate 0."""
    rows = np.arange(len(g))
    q, users = len(edge), base.shape[1]
    if idle is not None:  # in g, column -1 is some user's: any gain will do
        orders = [[np.where(k < idle[ci], -1, c) for k, c in enumerate(o)] for ci, o in enumerate(orders)]
        base = np.column_stack([base, np.zeros(len(base))])
    _, reason, _, _, pos_rates = solve_jt(
        [[g[rows, ci, c] for c in edge] for ci in (0, 1)],
        [[g[rows, ci, c] for c in order[q:]] for ci, order in enumerate(orders)],
        [[base[rows, c] for c in order[:-1]] + [0.0] for order in orders],
        [[[g[rows, oc, c] for oc in (0, 1)] for c in order[q:]] for order in orders] if full else None,
        budgets, p_tol, width, split, idle,
    )
    out = np.zeros(base.shape)
    for ci, order in enumerate(orders):
        for c, r in zip(order, pos_rates[ci]):
            out[rows, c] = r
    return out[:, :users], reason


def _jt_noma(lay, g, base, full, split, case):
    """Both cells decode the jointly served users first, in the case's shared
    edge order, then their own users by ascending gain."""
    edge = _edge_order(lay, g, case)
    orders = [edge + _by_gain(g[:, ci, lay.tails[ci]], lay.tails[ci]) for ci in (0, 1)]
    r = lay.radio
    return _noma_clusters(g, base, edge, orders, [r.tx_power_mw] * 2, BANDWIDTH_HZ, r.sic_tolerance, split, full)


def _dps_noma(lay, g, base, full):
    """Each jointly served user joins the cell with the larger realized gain
    (cell 1 on ties), and every cell decodes its members by ascending gain.
    Each cell lists its single-cell users and every jointly served user; a
    trial's non-members lead the order unserved, and a cell left with no
    members transmits nothing."""
    to2 = g[:, 1, lay.comp] > g[:, 0, lay.comp]  # (trials, jointly served users)
    r = lay.radio
    orders, idle, budgets = [], [], []
    for ci, away in enumerate((to2, ~to2)):
        cols = lay.tails[ci] + lay.comp
        key = g[:, ci, cols]  # non-members at -inf lead; the stable sort keeps ties in cols' order
        key[:, len(lay.tails[ci]):][away] = -np.inf
        orders.append(_by_gain(key, cols))
        idle.append(np.count_nonzero(away, axis=1))
        budgets.append(np.where(idle[ci] < len(cols), r.tx_power_mw, 0.0))
    return _noma_clusters(g, base, [], orders, budgets, BANDWIDTH_HZ, r.sic_tolerance, EQUAL_TRANSMIT, full, idle)


def _cs_noma(lay, g, base, full):
    """The orthogonal 50/50 band plan: on half band b, cell b superposes edge
    user b on its single-cell user and the other cell serves its single-cell
    user alone, each at half power.  Half the power over half the noise
    leaves every SNR at its full-band value, so the full-band gains and
    budgets are solved as they are, and the half band is only the rate's
    width.  One call solves both bands: band 1's trials follow band 0's with
    the cells swapped, so cell 1 always superposes (the other cell's lone
    head can flag nothing, so the reason codes are unchanged).  The two
    bands' rates add; the reason is band 0's unless that is feasible."""
    n = len(g)
    g = np.concatenate([g, g[:, ::-1]])
    rows = np.arange(2 * n)
    edge, own = np.repeat(lay.comp, n), np.repeat(lay.tails[0] + lay.tails[1], n)
    swap = g[rows, 0, own] < g[rows, 0, edge]  # ascending gain, ties in the order (edge, own)
    orders = [[np.where(swap, own, edge), np.where(swap, edge, own)], [own[::-1]]]
    r = lay.radio
    out, reason = _noma_clusters(
        g, np.concatenate([base, base]), [], orders, [r.tx_power_mw] * 2, BANDWIDTH_HZ / 2.0, r.sic_tolerance,
        EQUAL_TRANSMIT, full,
    )
    (out0, out1), (reason0, reason1) = np.split(out, 2), np.split(reason, 2)
    return out0 + out1, np.where(reason0 == FEASIBLE, reason1, reason0)


def evaluate(
    lay: Layout, g: np.ndarray, base: np.ndarray, scheme: str,
    interference_mode: str, jt_split: str, case: str,
):
    """One scheme on a block of trials under one decode case: (rates, reason
    code), each with a leading trials axis; a trial is feasible where its
    reason is FEASIBLE.

    base is the orthogonal baseline: it supplies the non-head rate
    guarantees and the fallback rates of infeasible trials.  Only JT-NOMA
    reads case.  An unknown scheme, interference mode, split or case raises
    ConfigError, as does CS-NOMA or CS-OMA on a layout other than scenario
    2's: their 50/50 plan needs two jointly served users and one single-cell
    user per cell.
    """
    for key, value in (("interference_mode", interference_mode), ("jt_split", jt_split)):
        if value not in CHOICES[key]:
            raise ConfigError(f"unknown {key} {value!r}")
    if case not in DECODE_CASES:
        raise ConfigError(f"unknown decode_case {case!r}")
    if scheme in (CS_NOMA, CS_OMA) and (len(lay.comp), *map(len, lay.tails)) != (2, 1, 1):
        raise ConfigError(f"{scheme} needs two jointly served users and one single-cell user per cell")
    full = interference_mode == "full"
    if scheme in (JT_OMA, CS_OMA):
        if scheme == CS_OMA:  # the 50/50 plan: cell b serves edge user b and its own single-cell user
            halves = replace(lay, comp=(), tails=tuple(zip(lay.comp, (t[0] for t in lay.tails))))
            base = orthogonal_rates(halves, g)
        return base, np.zeros(len(g), np.int8)
    if scheme == JT_NOMA:
        out, reason = _jt_noma(lay, g, base, full, jt_split, case)
    elif scheme == DPS_NOMA:
        out, reason = _dps_noma(lay, g, base, full)
    elif scheme == CS_NOMA:
        out, reason = _cs_noma(lay, g, base, full)
    else:
        raise ConfigError(f"unknown scheme {scheme!r}")
    return np.where((reason == FEASIBLE)[:, None], out, base), reason
