"""Power allocation: closed-form single-cell solve, one-pass coordinated
solve, and a brute-force grid oracle for cross-checking.

The single-cell solve walks the decode order front to back.  At each non-head
position the remaining budget P_rem will be spent entirely on this signal and
the ones after it (the head absorbs the residual), so the guarantee equation
and the decodability gap both have closed forms:

    t        = 2^(R/width) - 1
    p_rate   = t/(1+t) * (P_rem + max over decoders d of (X_d + 1)/g_d)
    p_sic    = (P_rem + p_tol/g_min)/2
    p        = max(p_rate, p_sic)

where the decoders of position k are every member at position >= k, g_min is
their smallest effective gain, and X_d is any fixed external interference at
decoder d (zero unless cross-cell terms are modeled).  Sizing against the
worst decoder keeps the signal decodable everywhere it must be cancelled.

Both solvers are array kernels: every input is a list with one (n,) array per
decode position, so n independent instances are solved at once by a Python
loop over positions only.  ``solve_jt`` is the sweep's one NOMA solve, rate
evaluation and audit: JT-NOMA passes the jointly served users as the shared
prefix, and DPS-NOMA and CS-NOMA pass an empty prefix, so each cell's members
are its single-cell tail, solved by ``solve_single_cell``.
``allocate_single_cell`` and ``allocate_jt`` are the one-instance wrappers
over the dict-based problem objects.  Each kernel reports a small integer
reason code per instance (0 = feasible) and the decode position (and cell)
that set it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Mapping, Sequence

import numpy as np

from .core import NomaCluster, PowerAllocation, later_sums, rates, seq_sum
from .errors import DomainError
from .schemes import validate_jt_conditions

EQUAL_RECEIVED = "equal_received"
EQUAL_TRANSMIT = "equal_transmit"

REL_SLACK = 1e-9  # relative slack of every audit re-check (guarantees, decodability)

# reason codes: why an instance is infeasible (0 = it is not)
FEASIBLE = 0
RATE_SHORT = 1  # a position's requirement exceeds the remaining budget
HEAD_SHORT = 2  # the residual left to the head misses its optional guarantee
SHORTFALL = 3  # the audit's recomputed rate misses a guarantee
SIC_GAP = 4  # the audit finds a signal below the decodability gap


@dataclass(frozen=True)
class AllocationProblem:
    """One cell's allocation inputs.

    gains holds each member's *effective* noise-normalized gain: the plain
    serving-cell gain for single-cell members, the combined received gain per
    unit of local power for jointly-transmitted members.  For coordinated
    solves, comp_cell_gains carries the raw per-cell gain table of the shared
    members ({user: {cell: gain}}), and cross_cell_gains the other-cell gains
    of single-cell members used when cross-cell interference is modeled.
    external_interference adds a fixed noise-normalized term to a member's
    denominator.
    """

    cluster: NomaCluster
    gains: Mapping[int, float]
    budget_mw: float
    p_tol: float
    band_width_hz: float | None = None
    external_interference: Mapping[int, float] = field(default_factory=dict)
    comp_cell_gains: Mapping[int, Mapping[int, float]] = field(default_factory=dict)
    cross_cell_gains: Mapping[int, Mapping[int, float]] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.budget_mw <= 0.0:
            raise DomainError(f"budget must be positive, got {self.budget_mw}")
        if self.p_tol < 0.0:
            raise DomainError("p_tol cannot be negative")
        if self.band_width_hz is None:
            object.__setattr__(self, "band_width_hz", self.cluster.band.width_hz)
        if self.band_width_hz <= 0.0:
            raise DomainError("band width must be positive")
        for u in self.cluster.decode_order:
            if u not in self.gains:
                raise LookupError(f"no effective gain for cluster member {u}")
            if self.gains[u] < 0.0:
                raise DomainError(f"negative gain for user {u}")


def _over(num, gain):
    """num/gain elementwise for num >= 0: a zero demand is zero, a positive
    one over a zero-gain decoder is unservable (inf)."""
    return np.where(num > 0.0, num / gain, 0.0)


def _floor(rem, p_tol: float, g_min):
    """Decodability floor: half the remaining budget plus the tolerance
    margin at the weakest decoder."""
    return 0.5 * (rem + (_over(p_tol, g_min) if p_tol else 0.0))


def _suffix(reduce, columns) -> list:
    """out[k] = reduce over columns[k:], one (n,) array per position."""
    out = list(columns)
    for k in range(len(out) - 2, -1, -1):
        out[k] = reduce(out[k], out[k + 1])
    return out


def _given(r) -> bool:
    """Whether a rate guarantee is set: a scalar 0 is none, an array may be
    (rates are never negative, so a zero entry is never short)."""
    return isinstance(r, np.ndarray) or bool(r)


def _flag(reason, pos, cell, bad, code, k, ci=0) -> None:
    """Record code at decode position k (of cell ci) where bad and no earlier
    code is set: the first failure in solve order is the one reported."""
    if not bad.any():
        return
    new = bad & (reason == FEASIBLE)
    if new.any():
        reason[new] = code
        np.copyto(pos, k, where=new)
        if cell is not None:
            cell[new] = ci


@np.errstate(all="ignore")
def solve_single_cell(g, x, r, budget, p_tol: float, width: float):
    """Closed-form forward solve of n clusters of K members.

    g, x and r hold, per decode position, the effective gain, the fixed
    external interference and the rate guarantee; r[-1] is an optional head
    guarantee (0 = none), checked against the residual.  Returns
    (powers per position, reason, position); infeasible instances get zero
    powers.
    """
    n = len(g[0])
    reason = np.zeros(n, np.int8)
    pos = np.zeros(n, np.int8)
    rem = budget if isinstance(budget, np.ndarray) else np.full(n, float(budget))
    # over the decoders of each position: every member at or after it
    g_min = _suffix(np.minimum, g)
    worst = _suffix(np.maximum, [(xd + 1.0) / gd for xd, gd in zip(x, g)])
    powers = []
    for k in range(len(g) - 1):
        t = np.exp2(r[k] / width) - 1.0
        p_rate = np.where(t > 0.0, t / (1.0 + t) * (rem + worst[k]), 0.0)
        p = np.maximum(p_rate, _floor(rem, p_tol, g_min[k]))
        _flag(reason, pos, None, ~(p <= rem), RATE_SHORT, k)
        powers.append(p)
        rem = rem - p
    powers.append(rem)
    if _given(r[-1]):
        head_rate = rates(width, rem * g[-1], x[-1] + 1.0)
        _flag(reason, pos, None, head_rate < r[-1] * (1.0 - REL_SLACK), HEAD_SHORT, len(g) - 1)
    if reason.any():
        powers = [np.where(reason == FEASIBLE, p, 0.0) for p in powers]
    return powers, reason, pos


def _one(value) -> np.ndarray:
    return np.full(1, value, dtype=float)


_DIAGNOSTICS = {
    RATE_SHORT: "infeasible_guarantee position={k} user={user}{at}",
    HEAD_SHORT: "infeasible_guarantee position={k} user={user} head_residual",
    SHORTFALL: "guarantee_shortfall user={user}{at}",
    SIC_GAP: "sic_gap{at}",
}


def _diagnostics(code: int, k: int, user: int, cell_id: int | None = None) -> tuple[str, ...]:
    """A one-instance reason code as the diagnostic string it stands for."""
    if code == FEASIBLE:
        return ()
    at = "" if cell_id is None else f" cell={cell_id}"
    return (_DIAGNOSTICS[code].format(k=k, user=user, at=at),)


def allocate_single_cell(problem: AllocationProblem) -> PowerAllocation:
    """Minimal-power forward solve; the head takes the residual budget.

    Returns feasible=False (diagnostics name the binding position) when some
    position's requirement exceeds the remaining budget, or when an optional
    head guarantee is not met by the residual.
    """
    order = problem.cluster.decode_order
    guarantees = problem.cluster.rate_guarantees
    powers, reason, pos = solve_single_cell(
        [_one(problem.gains[u]) for u in order],
        [_one(problem.external_interference.get(u, 0.0)) for u in order],
        [_one(guarantees.get(u, 0.0)) for u in order],
        problem.budget_mw,
        problem.p_tol,
        problem.band_width_hz,
    )
    diagnostics = _diagnostics(int(reason[0]), int(pos[0]), order[pos[0]])
    return PowerAllocation(
        powers={u: float(p[0]) for u, p in zip(order, powers)},
        feasible=not diagnostics,
        diagnostics=diagnostics,
    )


# --- coordinated (joint-transmission) allocation ---------------------------


@np.errstate(all="ignore")
def solve_jt(raw, tails, r, x, cross, budgets, p_tol: float, width: float, split: str, full: bool):
    """One forward pass over a coordination set of n instances, then an audit.

    Per cell ci: raw[ci][k] is the cell's gain to the shared member at
    position k (the shared prefix is common to all cells), tails[ci] the gains
    of its single-cell members, r[ci] and x[ci] every position's guarantee and
    fixed external interference, and cross[ci][j][oc] the gain from cell oc to
    tail member j (read only when ``full``).  With an empty prefix
    (raw = [[]] * m) the cells are independent NOMA clusters coupled only by
    cross-cell interference; a cell with no members must get a zero budget,
    or its budget counts as interference.  The audit re-checks guarantees and
    decodability gaps with a relative slack of REL_SLACK.  Returns (powers
    per cell and position, reason, position, cell, rates per cell and
    position).
    """
    m, q = len(raw), len(raw[0])
    n = len((raw[0] or tails[0])[0])
    sizes = [q + len(t) for t in tails]
    reason = np.zeros(n, np.int8)
    pos = np.zeros(n, np.int8)
    cell = np.zeros(n, np.int8)
    if split == EQUAL_RECEIVED:
        default = [[m * raw[ci][k] for k in range(q)] for ci in range(m)]
    else:
        default = [[seq_sum(raw[mi][k] for mi in range(m)) for k in range(q)]] * m
    # while the pass runs, a member not yet sized decodes at its split-default
    # gain; that is the gain every shared floor below is sized against (the
    # tails' floors are solve_single_cell's)
    g_min = [_suffix(np.minimum, default[ci] + list(tails[ci])) for ci in range(m)] if q else None
    rem = [np.full(n, float(b)) for b in budgets]
    pw = [[None] * sizes[ci] for ci in range(m)]

    # Heads absorb their cell's residual, so whatever a cell transmits after
    # position k totals exactly its remaining budget there: each requirement
    # is closed-form in the remaining budgets, and one forward pass sizes it.
    for k in range(q):
        heads = [ci for ci in range(m) if sizes[ci] == k + 1]
        nonheads = [ci for ci in range(m) if sizes[ci] != k + 1]
        need = 0.0
        if nonheads:
            # the guarantee is taken from the first cell the member does not head
            rk = r[nonheads[0]][k]
            t = np.exp2(rk / width) - 1.0
            total = seq_sum(raw[ci][k] * rem[ci] for ci in range(m))
            delivered = seq_sum(raw[hi][k] * rem[hi] for hi in heads)
            need = t * (1.0 + x[0][k] + total) / (1.0 + t) - delivered
            need = np.where((rk > 0.0) & (need > 0.0), need, 0.0)
        for ci in range(m):
            if ci in heads:
                p = rem[ci]
            else:
                if split == EQUAL_RECEIVED:
                    share = _over(need / len(nonheads), raw[ci][k])
                else:
                    share = _over(need, seq_sum(raw[mi][k] for mi in nonheads))
                p = np.maximum(share, _floor(rem[ci], p_tol, g_min[ci][k]))
                bad = ~(p <= rem[ci])
                if bad.any():
                    _flag(reason, pos, cell, bad, RATE_SHORT, k, ci)
                    p = np.where(bad, rem[ci], p)
            pw[ci][k] = p
            rem[ci] = rem[ci] - p

    # each cell's remaining budget is its single-cell traffic from here on, so
    # the cross-cell interference its tail sees in full mode is already fixed
    nonshared = list(rem)
    for ci in range(m):
        if sizes[ci] == q:
            continue
        tail_x = []
        for j in range(sizes[ci] - q):
            xj = x[ci][q + j]
            if full:
                for oc in range(m):
                    if oc != ci:
                        xj = xj + nonshared[oc] * cross[ci][j][oc]
            tail_x.append(xj)
        tail_r = list(r[ci][q:-1]) + [0.0]
        powers, tail_reason, tail_pos = solve_single_cell(
            tails[ci], tail_x, tail_r, rem[ci], p_tol, width
        )
        _flag(reason, pos, cell, tail_reason != FEASIBLE, RATE_SHORT, tail_pos + q, ci)
        pw[ci][q:] = powers

    # audit: every rate recomputed with the final powers, every guarantee and
    # decodability gap re-checked at the gains the members actually see
    later = [later_sums(pw[ci]) for ci in range(m)]
    tol = p_tol * (1.0 - REL_SLACK)  # a floor-sized gap may miss p_tol by rounding
    out = [[None] * sizes[ci] for ci in range(m)]
    received = []
    for k in range(q):
        received.append(seq_sum(pw[ci][k] * raw[ci][k] for ci in range(m)))
        noise = seq_sum([1.0] + [raw[ci][k] * later[ci][k] for ci in range(m)])
        joint = rates(width, received[k], noise)
        for ci in range(m):
            out[ci][k] = joint
    for ci in range(m):
        for j, g in enumerate(tails[ci]):
            noise = 1.0 + g * later[ci][q + j]
            if full:
                for oc in range(m):
                    if oc != ci:
                        for p in pw[oc][q:]:
                            noise = noise + p * cross[ci][j][oc]
            out[ci][q + j] = rates(width, pw[ci][q + j] * g, noise)
    for ci in range(m):
        for k in range(sizes[ci]):
            if _given(r[ci][k]):
                _flag(reason, pos, cell, out[ci][k] < r[ci][k] * (1.0 - REL_SLACK), SHORTFALL, k, ci)
        seen = [
            np.where((pw[ci][k] > 0.0) & (received[k] > 0.0), received[k] / pw[ci][k], default[ci][k])
            for k in range(q)
        ] + list(tails[ci])
        for i in range(sizes[ci] - 1):
            gap = pw[ci][i] - later[ci][i]
            bad = gap * seen[i] < tol
            for s in seen[i + 1:]:
                bad |= gap * s < tol
            _flag(reason, pos, cell, bad, SIC_GAP, i, ci)
    return pw, reason, pos, cell, out


def allocate_jt(
    problems: Sequence[AllocationProblem],
    split: str = EQUAL_TRANSMIT,
    interference_mode: str = "negligible",
) -> list[PowerAllocation]:
    """Allocation across the cells of a coordination set, in one forward pass.

    Walks the shared decode prefix position by position: sizes each shared
    member's required combined received power from its guarantee, net of what
    residual-absorbing head cells already contribute, splits the requirement
    over the non-head cells (equal received shares by default), and applies
    the same per-position decodability floors as the single-cell solve; each
    cell's single-cell tail is then solved with the shared prefix pinned.
    The result is re-audited (guarantees, decodability) before being reported
    feasible.
    """
    if split not in (EQUAL_RECEIVED, EQUAL_TRANSMIT):
        raise DomainError(f"unknown split policy {split!r}")
    if interference_mode not in ("full", "negligible"):
        raise DomainError(f"unknown interference mode {interference_mode!r}")
    if not problems:
        raise DomainError("allocate_jt needs at least one problem")
    if len(problems) == 1:
        return [allocate_single_cell(problems[0])]

    clusters = [p.cluster for p in problems]
    width = problems[0].band_width_hz
    p_tol = problems[0].p_tol
    for p in problems:
        if p.band_width_hz != width:
            raise DomainError("joint transmission requires one shared band width")
        if p.p_tol != p_tol:
            raise DomainError("p_tol must match across a coordination set")

    # the jointly served members must lead every decode order, in one order
    shared = set.intersection(*(set(c.decode_order) for c in clusters))
    validate_jt_conditions(clusters, shared)
    comp = tuple(u for u in clusters[0].decode_order if u in shared)
    m = len(problems)
    cell_ids = [c.cell_id for c in clusters]
    orders = [c.decode_order for c in clusters]
    raw = []
    for ci, problem in enumerate(problems):
        row = []
        for u in comp:
            table = problem.comp_cell_gains.get(u, {})
            if cell_ids[ci] in table:
                row.append(_one(table[cell_ids[ci]]))
            elif split == EQUAL_RECEIVED:
                row.append(_one(problem.gains[u] / m))
            else:
                raise LookupError(f"raw per-cell gain required for user {u} under {split}")
        raw.append(row)
    tail_users = [o[len(comp):] for o in orders]
    pw, reason, pos, cell, _ = solve_jt(
        raw,
        [[_one(p.gains[u]) for u in t] for p, t in zip(problems, tail_users)],
        [[_one(c.rate_guarantees.get(u, 0.0)) for u in c.decode_order] for c in clusters],
        [[_one(p.external_interference.get(u, 0.0)) for u in o] for p, o in zip(problems, orders)],
        [
            [[_one(p.cross_cell_gains.get(u, {}).get(oc, 0.0)) for oc in cell_ids] for u in t]
            for p, t in zip(problems, tail_users)
        ],
        [p.budget_mw for p in problems],
        p_tol,
        width,
        split,
        interference_mode == "full",
    )
    ci, k = int(cell[0]), int(pos[0])
    diagnostics = _diagnostics(int(reason[0]), k, orders[ci][k], cell_ids[ci])
    return [
        PowerAllocation(
            powers={u: float(p[0]) for u, p in zip(orders[ci], pw[ci])},
            feasible=not diagnostics,
            diagnostics=diagnostics,
        )
        for ci in range(m)
    ]


# --- brute-force oracle -----------------------------------------------------


@dataclass(frozen=True)
class OracleResult:
    allocation: PowerAllocation
    sum_rate_bps: float


def brute_force_oracle(problem: AllocationProblem, grid_points: int = 1000) -> OracleResult:
    """Exhaustive sum-rate search over the budget simplex, n <= 3.

    Position 0's signal is cancelled before any later decode, so topping the
    budget up through p_0 never hurts anyone: the search fixes
    p_0 = budget - sum(others) and grids the remaining positions.  Guarantees
    and decodability gaps are enforced on every grid point.  A feasible winner
    is then polished by re-gridding a one-step box around it a few times, so
    the reported optimum is not limited by the coarse step; the feasibility
    verdict itself stays a property of the full-budget grid.
    """
    cluster = problem.cluster
    order = cluster.decode_order
    n = len(order)
    if n > 3:
        raise DomainError("oracle supports clusters of at most 3 users")
    if grid_points < 2:
        raise DomainError("need at least 2 grid points per free dimension")
    width = problem.band_width_hz
    budget = problem.budget_mw
    g = np.array([problem.gains[u] for u in order])
    x = np.array([problem.external_interference.get(u, 0.0) for u in order])
    guarantees = np.array(
        [cluster.rate_guarantees.get(u, 0.0) for u in order]
    )

    def evaluate(free):
        # free holds the power columns of positions 1..n-1; position 0 takes
        # the budget remainder.  Column sums run left to right, as an (N, n)
        # matrix's row sums do, without its strided reductions and copies
        p = [np.atleast_1d(budget - seq_sum(free))] + free
        later = later_sums(p)
        feasible = np.ones(len(p[0]), dtype=bool)
        for i in range(n - 1):
            gap = p[i] - later[i]
            worst = np.where(gap >= 0.0, gap * g[i:].min(), gap * g[i:].max())
            feasible &= worst >= problem.p_tol
        out = [rates(width, p[i] * g[i], g[i] * later[i] + x[i] + 1.0) for i in range(n)]
        for i in range(n):
            if guarantees[i] > 0.0:
                feasible &= out[i] >= guarantees[i] * (1.0 - 1e-12)
        sums = seq_sum(out)
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
        return OracleResult(
            PowerAllocation(
                powers={u: 0.0 for u in order},
                feasible=False,
                diagnostics=("oracle_no_feasible_grid_point",),
            ),
            math.nan,
        )
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

    powers_vec = [budget - seq_sum(best_free)] + best_free
    powers = {order[i]: float(powers_vec[i]) for i in range(n)}
    return OracleResult(
        PowerAllocation(powers=powers, feasible=True),
        best_sum,
    )
