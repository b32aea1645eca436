"""compnoma benchmark: microseconds per Monte-Carlo trial on sweep workloads.

    python3 perfbench/run.py --workload fig5 --seed 7 --seconds 20 --trace 0

Run from anywhere; the package under test is ``src/compnoma`` of the checkout
that holds this script.  Sweeps run in worker processes (see worker.py), and
every CSV they render is checked: against the golden bytes shipped for the
seed (perfbench/golden), for finite values and for zero guarantee violations,
and, for a pool sweep, against a serial CSV of the same run.  A row that fails
any check is counted in ``failed``.

With ``--trace 0`` the end-to-end metrics of the serial sweeps are printed:
  us_per_trial      median wall time of a run_sweep call / trials in it
  cpu_us_per_trial  median CPU time (process plus reaped children) / trials
  setup_s           median time from spawning a worker to a resolved config
  peak_rss_mb       median over workers of max(self, children) ru_maxrss
The three timings are scaled to a reference host speed by the calibration
loop timed next to each of them (see calibrate.py); the raw medians are
printed on ``raw.`` lines above the result.
With ``--trace 1`` a single worker alternates untraced and traced serial
sweeps (plus pool sweeps on a pool workload) and the per-layer metrics are
printed; see tracer.py for how spans are recorded.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines before it give run
metadata and every metric by name and unit.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

from calibrate import CAL_REFERENCE_S
from tracer import LAYERS, SOLVER_LAYERS
from workloads import WORKLOADS, check_sweep, load_golden

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
PACKAGE = ROOT / "src" / "compnoma"

MEASURE_WORKERS = 8  # timed worker processes per end-to-end run
SETUPS_PER_GAP = 3  # set-up-only workers before, between and after them
WORKER_TIMEOUT_S = 150.0


class BenchError(RuntimeError):
    pass


def spawn(workload: str, seed: int, mode: str, budget: float = 0.0, workers: int = 1) -> dict:
    """Run one worker process to completion and return its report, with
    ``setup_s`` measured from just before the spawn."""
    env = dict(os.environ)
    # bytecode caches on, as for an installed package; the first spawn fills them
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    cmd = [
        sys.executable, str(HERE / "worker.py"),
        "--workload", workload, "--seed", str(seed), "--mode", mode,
        "--budget", repr(budget), "--workers", str(workers),
    ]
    spawned = time.monotonic()
    try:
        proc = subprocess.run(
            cmd, env=env, stdout=subprocess.PIPE, text=True, timeout=WORKER_TIMEOUT_S + budget
        )
    except subprocess.TimeoutExpired as e:
        raise BenchError(f"worker ({mode}) timed out") from e
    if proc.returncode != 0 or not proc.stdout.strip():
        raise BenchError(f"worker ({mode}) exited with code {proc.returncode}")
    report = json.loads(proc.stdout.strip().splitlines()[-1])
    report["setup_s"] = report["config_ready"] - spawned
    return report


def per_trial_us(sweeps: list[dict], key: str = "wall_s", cal_key: str | None = None) -> float:
    """Median µs per trial; with ``cal_key``, scaled to the reference host speed
    by the calibration timed around each sweep."""
    return statistics.median(
        s[key] / s["trials"] * 1e6 * (CAL_REFERENCE_S / s[cal_key] if cal_key else 1.0) for s in sweeps
    )


def check(workload, seed: int, sweeps: list[dict]) -> tuple[int, int]:
    """Row counts (attempted, failed) over every sweep of the run.  Pool
    sweeps must also match the run's first single-worker CSV byte for byte."""
    golden = load_golden(workload, seed)
    reference = next((s["csv"] for s in sweeps if s["kind"] != "pool" and s["csv"]), None)
    attempted = failed = 0
    for s in sweeps:
        violations = {(p, label): v for p, label, v in s["violations"]}
        ref = reference if s["kind"] == "pool" else None
        a, f = check_sweep(workload, s["csv"], violations, golden, ref)
        attempted += a
        failed += f
    return attempted, failed


def pool_workers(workload) -> int:
    """One per core, at least 2, on a pool workload; 1 (no pool) otherwise."""
    return max(2, len(os.sched_getaffinity(0))) if workload.pool else 1


def end_to_end(workload, seed: int, seconds: float) -> tuple[dict, list[dict], dict]:
    spawn(workload.name, seed, "setup")  # untimed: leaves the bytecode caches warm
    reports, setups = [], []
    # set-up-only workers between the timed ones give more set-up samples
    for mode in (("setup",) * SETUPS_PER_GAP + ("measure",)) * MEASURE_WORKERS + ("setup",) * SETUPS_PER_GAP:
        report = spawn(workload.name, seed, mode, seconds / MEASURE_WORKERS)
        setups.append(report["setup_s"])
        if mode == "measure":
            reports.append(report)
    timed = [s for r in reports for s in r["sweeps"]]
    # set-up is too short to bracket with calibrations of its own, so it is
    # scaled by the run's median calibration, which follows the host's drift
    cal_s = statistics.median(s["cal_wall_s"] for s in timed)
    sweeps = list(timed)
    workers = pool_workers(workload)
    if workers > 1:
        # untimed: how many cores the host grants varies too much to gate on,
        # so the pool is only checked here and timed by the traced run
        sweeps += spawn(workload.name, seed, "measure", 0.0, workers)["sweeps"]
    metrics = {
        "us_per_trial": (per_trial_us(timed, "wall_s", "cal_wall_s"), "us"),
        "cpu_us_per_trial": (per_trial_us(timed, "cpu_s", "cal_cpu_s"), "us"),
        "setup_s": (statistics.median(setups) * CAL_REFERENCE_S / cal_s, "s"),
        "peak_rss_mb": (statistics.median(r["peak_rss_kb"] for r in reports) / 1024.0, "MiB"),
    }
    raw = {
        "raw.us_per_trial": (per_trial_us(timed), "us"),
        "raw.cpu_us_per_trial": (per_trial_us(timed, "cpu_s"), "us"),
        "raw.setup_s": (statistics.median(setups), "s"),
        "calibration_ms": (cal_s * 1e3, "ms"),
    }
    return metrics, sweeps, {"pool_workers": workers, "numpy": reports[0]["numpy"], "raw": raw}


def per_layer(workload, seed: int, seconds: float) -> tuple[dict, list[dict], dict]:
    workers = pool_workers(workload)
    report = spawn(workload.name, seed, "trace", seconds, workers)
    sweeps = report["sweeps"]
    by_kind = {k: [s for s in sweeps if s["kind"] == k] for k in ("serial", "traced", "pool")}
    traced = by_kind["traced"]
    trials = sum(s["trials"] for s in traced)
    serial_us = per_trial_us(by_kind["serial"])
    traced_us = per_trial_us(traced)

    metrics: dict[str, tuple[float, str]] = {}
    for layer in LAYERS:
        calls = sum(s["layers"][layer][0] for s in traced)
        metrics[f"{layer}.self_us_per_trial"] = (
            statistics.median(s["layers"][layer][1] / s["trials"] * 1e6 for s in traced), "us",
        )
        metrics[f"{layer}.calls_per_trial"] = (calls / trials, "1/trial")
        if layer in SOLVER_LAYERS:
            feasible = sum(s["layers"][layer][2] for s in traced)
            metrics[f"{layer}.feasible_frac"] = (feasible / calls if calls else 0.0, "ratio")
    metrics["harness.run_sweep.self_us_per_trial"] = (
        statistics.median((s["wall_s"] - s["root_child_s"]) / s["trials"] * 1e6 for s in traced), "us",
    )
    # with one worker there is no pool, and the serial run is its own baseline
    efficiency = serial_us / (workers * per_trial_us(by_kind["pool"])) if workload.pool else 1.0
    metrics["harness.pool.efficiency"] = (efficiency, "ratio")
    metrics["trace.us_per_trial"] = (traced_us, "us")
    metrics["trace.overhead_frac"] = (traced_us / serial_us - 1.0, "ratio")
    return metrics, sweeps, {"pool_workers": workers, "numpy": report["numpy"], "raw": {}}


def git_commit(root: Path) -> str:
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def src_lines(package: Path) -> int:
    return sum(len(p.read_text(encoding="utf-8").splitlines()) for p in sorted(package.glob("*.py")))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="compnoma sweep benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True, help="measuring time of one run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not (PACKAGE / "__init__.py").is_file():
        print(f"error: package under test not found at {PACKAGE}", file=sys.stderr)
        return 2

    workload = WORKLOADS[args.workload]
    try:
        measure = per_layer if args.trace else end_to_end
        metrics, sweeps, info = measure(workload, args.seed, args.seconds)
    except BenchError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    attempted, failed = check(workload, args.seed, sweeps)
    raw = info.pop("raw")

    meta = {
        "workload": workload.name,
        "seed": args.seed,
        "trace": args.trace,
        "trials_per_sweep": workload.trials_per_sweep,
        "sweeps": len(sweeps),
        "commit": git_commit(ROOT),
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "src_lines": src_lines(PACKAGE),
        **info,
    }
    print("meta " + json.dumps(meta, sort_keys=True))
    for name, (value, unit) in {**raw, **metrics}.items():
        print(f"{name:45s} {value:12.6g} {unit}")
    print(f"{'failed_frac':45s} {failed / attempted:12.6g} ({failed}/{attempted} rows)")
    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": attempted,
                "failed": failed,
                "metrics": {n: {"value": v, "unit": u} for n, (v, u) in metrics.items()},
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
