"""One benchmark process: set compnoma up, run sweeps, report them as JSON.

run.py starts this script with ``src/`` of the checkout on PYTHONPATH and
times set-up from the moment it spawns the process to the monotonic time
reported here as ``config_ready``.  Each sweep goes through the public entry
points, as ``compnoma --config X`` does: ``compnoma.config`` resolves the
configuration, ``compnoma.run_sweep`` runs it and ``compnoma.cli.format_csv``
renders the CSV.  The CSVs are returned for run.py to check.

Modes:
  setup    resolve the configuration and stop;
  measure  warm up, then run sweeps on ``--workers`` processes for ``--budget``
           seconds (at least one sweep), with a calibration loop before the
           first sweep and after each one (see calibrate.py);
  trace    warm up, then for ``--budget`` seconds cycle through a serial sweep,
           a traced serial sweep and, with more than one worker, a pool sweep.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
import traceback
from pathlib import Path

from calibrate import calibrate
from tracer import LayerTracer
from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
WARMUP_TRIALS = 10


def _cpu_s() -> float:
    self_, children = (resource.getrusage(w) for w in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN))
    return self_.ru_utime + self_.ru_stime + children.ru_utime + children.ru_stime


class Sweeper:
    """A workload's configuration, resolved as the CLI resolves it, and its sweeps."""

    def __init__(self, workload, seed: int):
        # imported here, not at the top: these imports are part of the timed set-up
        import compnoma
        import numpy
        from compnoma.cli import format_csv
        from compnoma.config import PRESETS, config_from_dict, config_to_dict

        if not Path(compnoma.__file__).resolve().is_relative_to(ROOT / "src"):
            raise SystemExit(f"compnoma imported from {compnoma.__file__}, not from {ROOT / 'src'}")
        data = config_to_dict(PRESETS[workload.preset]())
        data.update(workload.overrides, seed=seed)
        self.config = config_from_dict({**data, "trials": workload.trials})
        self.warmup_config = config_from_dict({**data, "trials": WARMUP_TRIALS})
        self.trials = workload.trials_per_sweep
        self.run_sweep = compnoma.run_sweep
        self.format_csv = format_csv
        self.numpy_version = numpy.__version__

    def sweep(self, workers: int, tracer: LayerTracer | None = None) -> dict:
        kind = "traced" if tracer is not None else "pool" if workers > 1 else "serial"
        csv, violations = None, []
        cpu0 = _cpu_s()
        start = time.perf_counter()
        try:
            if tracer is None:
                result = self.run_sweep(self.config, workers=workers)
            else:
                with tracer:
                    result = self.run_sweep(self.config, workers=workers)
            csv = self.format_csv(result)
            violations = [
                [f"{r.sweep_value:.9g}", r.scheme, r.guarantee_violations] for r in result.rows
            ]
        except Exception:  # a failed sweep is reported as failed rows
            traceback.print_exc()
        wall = time.perf_counter() - start
        record = {
            "kind": kind,
            "wall_s": wall,
            "cpu_s": _cpu_s() - cpu0,
            "trials": self.trials,
            "csv": csv,
            "violations": violations,
        }
        if tracer is not None:
            record["root_child_s"] = tracer.root_child_s
            record["layers"] = {k: list(v) for k, v in tracer.stats.items()}
        return record

    def warm_up(self) -> None:
        self.run_sweep(self.warmup_config, workers=1)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", required=True, choices=("setup", "measure", "trace"))
    parser.add_argument("--budget", type=float, default=0.0, help="seconds of sweeps")
    parser.add_argument("--workers", type=int, default=1)
    args = parser.parse_args(argv)

    sweeper = Sweeper(WORKLOADS[args.workload], args.seed)
    config_ready = time.monotonic()

    sweeps: list[dict] = []
    if args.mode != "setup":
        sweeper.warm_up()
        tracer = LayerTracer()
        start = time.perf_counter()
        cal_before = calibrate()
        while True:
            cycle = time.perf_counter()
            if args.mode == "measure":
                record = sweeper.sweep(args.workers)
                cal_after = calibrate()
                record["cal_wall_s"] = (cal_before[0] + cal_after[0]) / 2
                record["cal_cpu_s"] = (cal_before[1] + cal_after[1]) / 2
                cal_before = cal_after
                sweeps.append(record)
            else:
                sweeps.append(sweeper.sweep(1))
                sweeps.append(sweeper.sweep(1, tracer))
                if args.workers > 1:
                    sweeps.append(sweeper.sweep(args.workers))
            now = time.perf_counter()
            # stop at the cycle boundary nearest to the budget
            if now - start + (now - cycle) / 2 > args.budget:
                break

    peak_kb = max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    )
    print(
        json.dumps(
            {
                "config_ready": config_ready,
                "numpy": sweeper.numpy_version,
                "peak_rss_kb": peak_kb,
                "sweeps": sweeps,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
