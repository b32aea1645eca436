"""Monte-Carlo sweep driver.

Every (sweep point, trial) pair owns a counter-derived RNG substream, so a
trial's channel realization depends only on the master seed and those two
indices.  All schemes of a run therefore see identical realizations, results
do not depend on the worker count or chunking, and per-point statistics are
reduced in trial order with exact summation.
"""

from __future__ import annotations

import hashlib
import logging
import math
import random
import struct
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import SweepError
from .scenarios import SweepPoint, evaluate, orthogonal_rates
from .schemes import JT_NOMA

log = logging.getLogger("compnoma")

_MASK64 = (1 << 64) - 1
_Z95 = 1.96  # two-sided 95% normal quantile
_BLOCK = 512  # trials per kernel call, so memory does not grow with trials


def substream(master_seed: int, sweep_index: int, trial_index: int) -> random.Random:
    """Independent, reproducible RNG for one trial of one sweep point."""
    key = struct.pack(
        ">QQQ", master_seed & _MASK64, sweep_index & _MASK64, trial_index & _MASK64
    )
    digest = hashlib.blake2b(key, digest_size=16).digest()
    return random.Random(int.from_bytes(digest, "big"))


def sweep_values(start: float, stop: float, step: float) -> tuple[float, ...]:
    """Inclusive arithmetic grid; endpoints snapped against float drift."""
    if step <= 0.0:
        raise ValueError("sweep step must be positive")
    if stop < start:
        raise ValueError("sweep stop below start")
    count = int(math.floor((stop - start) / step + 0.5)) + 1
    return tuple(start + i * step for i in range(count))


def scheme_rows(config) -> tuple[tuple[str, str, str], ...]:
    """(csv label, scheme, decode case) per output series.

    Requesting both decode cases splits the jointly-transmitted series in two;
    other schemes do not depend on the shared decode order.
    """
    rows: list[tuple[str, str, str]] = []
    for scheme in config.schemes:
        if config.decode_case == "both":
            if scheme == JT_NOMA and config.scenario_id == 3:
                rows.append((f"{scheme}-case1", scheme, "case1"))
                rows.append((f"{scheme}-case2", scheme, "case2"))
            else:
                rows.append((scheme, scheme, "case1"))
        else:
            rows.append((scheme, scheme, config.decode_case))
    return tuple(rows)


def run_chunk(config, sweep_index: int, sweep_value: float, start: int, stop: int):
    """Evaluate trials [start, stop) at one sweep point under every series.

    The point's fixed geometry is built once.  Trials are drawn one by one
    from their own substreams, a block at a time, and every series is then
    evaluated on the block's (trials, cells, users) gain array at once.
    Module-level so process pools can pickle it.  Returns (spectral
    efficiency, feasible, guarantees met), each of shape (trials, series).
    """
    rows = scheme_rows(config)
    where = f"seed={config.seed} sweep_index={sweep_index}"
    try:
        point = SweepPoint(config.scenario_id, sweep_value, config.radio, config.placement)
    except Exception as e:
        raise SweepError(f"{where} value={sweep_value}: {type(e).__name__}: {e}") from e
    shape = (stop - start, len(rows))
    se, feasible, met = np.empty(shape), np.empty(shape, bool), np.empty(shape, bool)
    for b0 in range(start, stop, _BLOCK):
        b1 = min(b0 + _BLOCK, stop)
        draws = []
        for t in range(b0, b1):
            try:
                draws.append(point.draw(substream(config.seed, sweep_index, t)))
            except Exception as e:
                raise SweepError(f"{where} trial={t}: {type(e).__name__}: {e}") from e
        label = "orthogonal baseline"
        block = slice(b0 - start, b1 - start)
        try:
            gains = point.gains(draws)
            base = orthogonal_rates(point.layout, gains)
            for r_i, (label, scheme, case) in enumerate(rows):
                out, ok, good, _ = evaluate(
                    point.layout, gains, base, scheme, config.interference_mode, config.jt_split, case
                )
                se[block, r_i] = [math.fsum(r) for r in out.tolist()]
                feasible[block, r_i] = ok
                met[block, r_i] = good
        except Exception as e:
            raise SweepError(
                f"{where} trials=[{b0}, {b1}) series={label}: {type(e).__name__}: {e}"
            ) from e
    return se / config.radio.bandwidth_hz, feasible, met


@dataclass(frozen=True)
class SweepRow:
    sweep_value: float
    scheme: str
    mean_se_bps_hz: float
    ci95: float
    infeasible_frac: float
    trials: int
    guarantee_violations: int = 0


@dataclass(frozen=True)
class SweepResult:
    rows: tuple[SweepRow, ...]

    def series(self, scheme: str) -> tuple[SweepRow, ...]:
        return tuple(r for r in self.rows if r.scheme == scheme)

    @property
    def schemes(self) -> tuple[str, ...]:
        seen: list[str] = []
        for r in self.rows:
            if r.scheme not in seen:
                seen.append(r.scheme)
        return tuple(seen)


def _reduce_point(
    sweep_value: float,
    label: str,
    ses: Sequence[float],
    infeasible: int,
    violations: int,
) -> SweepRow:
    n = len(ses)
    mean = math.fsum(ses) / n
    if n > 1:
        var = math.fsum((x - mean) ** 2 for x in ses) / (n - 1)
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
        guarantee_violations=violations,
    )


def run_sweep(config, workers: int = 1) -> SweepResult:
    """Run the configured sweep; identical output for any worker count.

    With workers > 1 one process pool serves the whole sweep: every point is
    cut into contiguous trial ranges, and each point is reduced in trial
    order as soon as its ranges are back.
    """
    values = sweep_values(config.sweep_start, config.sweep_stop, config.sweep_step)
    trials = config.trials
    if workers <= 1:
        chunks = (run_chunk(config, i, v, 0, trials) for i, v in enumerate(values))
        return _reduce(config, values, chunks)
    # about four ranges per worker over the whole sweep, none crossing a point
    span = min(trials, -(-trials * len(values) // (workers * 4)))
    with ProcessPoolExecutor(max_workers=workers) as pool:
        futures = [
            [
                pool.submit(run_chunk, config, i, v, t0, min(t0 + span, trials))
                for t0 in range(0, trials, span)
            ]
            for i, v in enumerate(values)
        ]
        try:
            chunks = (
                tuple(np.concatenate(parts) for parts in zip(*(f.result() for f in point)))
                for point in futures
            )
            return _reduce(config, values, chunks)
        except BaseException:
            pool.shutdown(cancel_futures=True)
            raise


def _reduce(config, values, chunks) -> SweepResult:
    rows = scheme_rows(config)
    out_rows: list[SweepRow] = []
    for value, (se, feasible, met) in zip(values, chunks):
        for r_i, (label, _, _) in enumerate(rows):
            out_rows.append(
                _reduce_point(
                    value,
                    label,
                    se[:, r_i].tolist(),
                    int((~feasible[:, r_i]).sum()),
                    int((~met[:, r_i]).sum()),
                )
            )
        log.info("sweep point %g done (%d trials, %d series)", value, len(se), len(rows))
    return SweepResult(tuple(out_rows))
