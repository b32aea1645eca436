"""Monte-Carlo sweep driver.

Each kernel block is drawn in one ``scenarios.draw_block`` call, which seeds
every (sweep point, trial) pair from a hash of the master seed and those two
indices, so a trial's channel realization depends on them alone:
every scheme of a run sees it, whatever the worker count or chunking.
Per-point statistics are reduced in trial order with exact summation.
"""

from __future__ import annotations

import logging
import math
import os
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .allocation import FEASIBLE
from .errors import DomainError, SweepError
from .scenarios import JT_NOMA, SweepPoint, draw_block, evaluate, orthogonal_rates

log = logging.getLogger("compnoma")

_Z95 = 1.96  # two-sided 95% normal quantile
# most trials per range, i.e. per kernel block; bounds memory: the tracemalloc peak
# of one run_chunk block of scenario 3 (every scheme, full interference, both
# decode cases) is 663 KiB, reached in DPS-NOMA's evaluate
_BLOCK = 1024
_MAX_POINTS = 10_000  # most values per sweep grid; a config builds each point's geometry


def sweep_values(start: float, stop: float, step: float) -> tuple[float, ...]:
    """Inclusive arithmetic grid; float drift short of stop is forgiven and
    drift past it is clamped, so no value exceeds stop."""
    if not all(map(math.isfinite, (start, stop, step))):
        raise DomainError("sweep start, stop and step must be finite")
    if step <= 0.0:
        raise DomainError("sweep step must be positive")
    if stop < start:
        raise DomainError("sweep stop below start")
    span = (stop - start) / step * (1.0 + 1e-9)  # inf if the grid overflows
    if span >= _MAX_POINTS:
        raise DomainError(f"sweep has more than {_MAX_POINTS} points")
    return tuple(min(start + i * step, stop) for i in range(int(span) + 1))


def scheme_rows(config) -> tuple[tuple[str, str, str], ...]:
    """(csv label, scheme, decode case) per output series.

    Requesting both decode cases splits the jointly-transmitted series in two;
    other schemes do not depend on the shared decode order.
    """
    rows: list[tuple[str, str, str]] = []
    for scheme in config.schemes:
        if config.decode_case == "both":
            if scheme == JT_NOMA:
                rows.append((f"{scheme}-case1", scheme, "case1"))
                rows.append((f"{scheme}-case2", scheme, "case2"))
            else:
                rows.append((scheme, scheme, "case1"))
        else:
            rows.append((scheme, scheme, config.decode_case))
    return tuple(rows)


def run_chunk(config, start: int, stop: int):
    """Evaluate flat trials [start, stop) of the sweep as one kernel block,
    under every series.

    Flat trial k is trial k % config.trials of sweep point k // config.trials.
    The caller sizes the block (run_sweep cuts at most _BLOCK trials), and
    it may cross points, which all share one Layout: one ``draw_block`` call
    draws the block's (trials, cells, users) gain array, one segment per
    point, and every series is evaluated on it, one ``evaluate`` call per
    ``scheme_rows`` row.  Module-level so process pools can pickle it.
    Returns (spectral efficiency, feasible), each of shape (trials, series).
    A failure is re-raised as a SweepError naming the seed, the block's
    first and last (sweep index, trial) and the one series label (``draw``
    for the draw); the draw's own SweepError, which names a trial, passes
    unchanged.
    """
    rows = scheme_rows(config)
    values = sweep_values(config.sweep_start, config.sweep_stop, config.sweep_step)
    seed, n = config.seed, config.trials
    segments = []
    for s_i in range(start // n, (stop - 1) // n + 1):
        point = SweepPoint(config.scenario_id, values[s_i], config.radio, config.edge_region_law)
        segments.append((point, s_i, range(max(start - s_i * n, 0), min(stop - s_i * n, n))))
    shape = (stop - start, len(rows))
    se, feasible = np.empty(shape), np.empty(shape, bool)
    label = "draw"
    try:
        gains = draw_block(seed, segments)
        label = "orthogonal baseline"
        base = orthogonal_rates(point.layout, gains)
        base_sums = _row_sums(base)
        for r_i, (label, scheme, case) in enumerate(rows):
            out, reason = evaluate(point.layout, gains, base, scheme, config.interference_mode, config.jt_split, case)
            ok = feasible[:, r_i] = reason == FEASIBLE
            # infeasible trials' rows, and JT-OMA's, are the baseline's bits
            se[:, r_i] = base_sums
            if out is not base:
                se[ok, r_i] = _row_sums(out[ok])
    except SweepError:
        raise
    except Exception as e:
        (p0, t0), (p1, t1) = divmod(start, n), divmod(stop - 1, n)
        raise SweepError(
            f"seed={seed} from sweep_index={p0} trial={t0} to sweep_index={p1} trial={t1}"
            f" series={label}: {type(e).__name__}: {e}"
        ) from e
    return se / config.radio.bandwidth_hz, feasible


def _row_sums(a: np.ndarray) -> np.ndarray:
    """math.fsum of each row of a 2-D float array, streamed from its columns'
    memoryviews, so no list of Python floats per row is built."""
    return np.fromiter(map(math.fsum, zip(*map(memoryview, np.ascontiguousarray(a.T)))), float, len(a))


@dataclass(frozen=True)
class SweepRow:
    sweep_value: float
    scheme: str
    mean_se_bps_hz: float
    ci95: float
    infeasible_frac: float
    trials: int
    # not a field: perfbench/worker.py still reads it, and ROADMAP item 1
    # drops that read and then this constant
    guarantee_violations = 0


@dataclass(frozen=True)
class SweepResult:
    rows: tuple[SweepRow, ...]

    def series(self, scheme: str) -> tuple[SweepRow, ...]:
        return tuple(r for r in self.rows if r.scheme == scheme)


def _reduce_point(
    sweep_value: float,
    label: str,
    ses: Sequence[float],
    infeasible: int,
) -> SweepRow:
    ses = np.asarray(ses, float)
    n = len(ses)
    mean = math.fsum(memoryview(ses)) / n
    if n > 1:  # float_power is libm pow(d, 2.0) per element, as d ** 2; d * d and np.power differ on some inputs
        var = math.fsum(memoryview(np.float_power(ses - mean, 2.0))) / (n - 1)
        ci = _Z95 * math.sqrt(var / n)
    else:
        ci = 0.0
    return SweepRow(
        sweep_value=sweep_value,
        scheme=label,
        mean_se_bps_hz=mean,
        ci95=ci,
        infeasible_frac=infeasible / n,
        trials=n,
    )


def run_sweep(config, workers: int = 1) -> SweepResult:
    """Run the configured sweep; identical output for any worker count.

    The sweep's trials are numbered point by point (see run_chunk) and cut
    into contiguous ranges that may cross points, each one kernel block of
    at most _BLOCK trials and at most a worker's share.  A serial run
    evaluates them in order in this process; more workers share one pool of
    at most one process per range and per CPU, a task per range.  Each
    point is reduced in trial order once all its trials are back.
    """
    values = sweep_values(config.sweep_start, config.sweep_stop, config.sweep_step)
    total = config.trials * len(values)
    span = min(_BLOCK, -(-total // max(workers, 1)))
    ranges = [(lo, min(lo + span, total)) for lo in range(0, total, span)]
    if workers <= 1:
        return _reduce(config, values, (run_chunk(config, lo, hi) for lo, hi in ranges))
    from concurrent.futures import ProcessPoolExecutor  # only pools pay for importing it
    with ProcessPoolExecutor(max_workers=min(workers, len(ranges), os.cpu_count() or 1)) as pool:
        futures = [pool.submit(run_chunk, config, lo, hi) for lo, hi in ranges]
        try:
            return _reduce(config, values, (f.result() for f in futures))
        except BaseException:
            pool.shutdown(cancel_futures=True)
            raise


def _reduce(config, values, parts) -> SweepResult:
    """Reduce consecutive flat ranges' (se, feasible) arrays, one point at a
    time, as soon as the point's last trial arrives."""
    rows = scheme_rows(config)
    n = config.trials
    out_rows: list[SweepRow] = []
    points = iter(values)
    pending, have = [], 0
    for part in parts:
        pending.append(part)
        have += len(part[0])
        while have >= n:
            se, feasible = (np.concatenate(a) for a in zip(*pending))
            pending, have = [(se[n:], feasible[n:])], have - n
            value = next(points)
            infeasible = (~feasible[:n]).sum(axis=0).tolist()
            for r_i, (label, _, _) in enumerate(rows):
                out_rows.append(_reduce_point(value, label, se[:n, r_i], infeasible[r_i]))
            log.info("sweep point %g done (%d trials, %d series)", value, n, len(rows))
    return SweepResult(tuple(out_rows))
