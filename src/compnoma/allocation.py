"""Power allocation: closed-form single-cell solve and one-pass coordinated
solve.

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
are its single-cell tail, solved by ``solve_single_cell``.  Per-instance
budgets and membership let clusters whose sizes differ from trial to trial
share one call.  Each kernel reports a small integer reason code per
instance (0 = feasible) and the decode position (and cell) that set it.
The tests check both against the scalar references and the grid oracle in
``tests/reference.py``.

Decode-order convention: position 0 is decoded first by everyone; the last
position is the cluster head, which cancels all other in-cluster signals and
sees only noise (plus whatever interference mode adds).  A user's own-cluster
interference is therefore the total power of signals decoded *after* it,
``later_sums`` below.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

EQUAL_RECEIVED = "equal_received"
EQUAL_TRANSMIT = "equal_transmit"

REL_SLACK = 1e-9  # relative slack of every audit re-check (guarantees, decodability)

# reason codes: why an instance is infeasible (0 = it is not)
FEASIBLE = 0
RATE_SHORT = 1  # a position's requirement exceeds the remaining budget
SHORTFALL = 3  # the audit's recomputed rate misses a guarantee
SIC_GAP = 4  # the audit finds a signal below the decodability gap


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
def solve_single_cell(g, x, r, budget, p_tol: float, width: float, idle=None):
    """Closed-form forward solve of n clusters of K members.

    g, x and r hold, per decode position, the effective gain, the fixed
    external interference and the rate guarantee; the head takes the
    residual, so r[-1] is not read.  budget is a number or one per instance;
    idle, if given, counts per instance the leading positions its cluster
    does not use: they get exactly 0.0 power and must carry no guarantee, so
    members are sized as if alone.  Returns (powers per position, reason,
    position); infeasible instances get zero powers.
    """
    n = len(g[0])
    reason = np.zeros(n, np.int8)
    pos = np.zeros(n, np.int8)
    rem = np.full(n, budget, float)
    # over the decoders of each position: every member at or after it
    g_min = _suffix(np.minimum, g)
    worst = _suffix(np.maximum, [(xd + 1.0) / gd for xd, gd in zip(x, g)])
    powers = []
    for k in range(len(g) - 1):
        t = np.exp2(r[k] / width) - 1.0
        p_rate = np.where(t > 0.0, t / (1.0 + t) * (rem + worst[k]), 0.0)
        p = np.maximum(p_rate, _floor(rem, p_tol, g_min[k]))
        p = p if idle is None else np.where(k < idle, 0.0, p)
        _flag(reason, pos, None, ~(p <= rem), RATE_SHORT, k)
        powers.append(p)
        rem = rem - p
    powers.append(rem)
    if reason.any():
        powers = [np.where(reason == FEASIBLE, p, 0.0) for p in powers]
    return powers, reason, pos


# --- coordinated (joint-transmission) allocation ---------------------------


@np.errstate(all="ignore")
def solve_jt(raw, tails, r, cross, budgets, p_tol: float, width: float, split: str, idle=None):
    """One forward pass over a coordination set of n instances, then an audit.

    Per cell ci: raw[ci][k] is the cell's gain to the shared member at
    position k (the shared prefix is common to all cells), tails[ci] the gains
    of its single-cell members, r[ci] every position's guarantee (the head's
    is not read), and cross[ci][j][oc] the gain from cell oc to tail member
    j (cross is None when cross-cell interference is negligible);
    budgets[ci] is a number or one per instance.  With an empty prefix
    (raw = [[]] * m) the cells are independent NOMA clusters coupled only by
    cross-cell interference, and idle[ci] may count per instance the leading
    members cell ci leaves unused (see ``solve_single_cell``); they get rate
    0 and no audit.  A cell an instance leaves with no members must get a
    zero budget, or its budget counts as interference.  The audit re-checks
    guarantees and decodability gaps with a relative slack of REL_SLACK.
    Returns (powers per cell and position, reason, position, cell, rates per
    cell and position).
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
    rem = [np.full(n, b, float) for b in budgets]
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
            need = t * (1.0 + total) / (1.0 + t) - delivered
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
        tail_x = [
            0.0 if cross is None else seq_sum(nonshared[oc] * cross[ci][j][oc] for oc in range(m) if oc != ci)
            for j in range(sizes[ci] - q)
        ]
        powers, tail_reason, tail_pos = solve_single_cell(
            tails[ci], tail_x, r[ci][q:], rem[ci], p_tol, width, None if idle is None else idle[ci]
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
            others = [] if cross is None else [
                p * cross[ci][j][oc] for oc in range(m) if oc != ci for p in pw[oc][q:]
            ]
            noise = seq_sum([1.0 + g * later[ci][q + j], *others])
            out[ci][q + j] = rates(width, pw[ci][q + j] * g, noise)
    for ci in range(m):
        for k in range(sizes[ci] - 1):
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
            _flag(reason, pos, cell, bad if idle is None else bad & (i >= idle[ci]), SIC_GAP, i, ci)
    return pw, reason, pos, cell, out
