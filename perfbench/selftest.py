"""Self-test of the benchmark itself (under a minute).

    python3 perfbench/selftest.py

Checks that a corrupted golden row is counted as failed, that the printed
metric names and units equal those in BENCHMARK.json, that call counts and
feasible fractions repeat exactly across traced runs on a fixed seed, that the
trace separates the layers as intended, and that tracing tolerates functions
that no longer exist.  Exits 1 if any check fails.
"""

from __future__ import annotations

import json
import subprocess
import sys

from run import HERE, ROOT, spawn
from tracer import LAYERS, LayerTracer
from workloads import DEV_SEED, SWEEP_POINTS, WORKLOADS, check_sweep, load_golden

RUN_SECONDS = 2


class SelfTest:
    def __init__(self):
        self.failures = 0

    def expect(self, ok: bool, what: str) -> None:
        print(f"{'ok  ' if ok else 'FAIL'} {what}")
        self.failures += not ok


def bench(workload: str, trace: int) -> dict:
    out = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(DEV_SEED),
         "--seconds", str(RUN_SECONDS), "--trace", str(trace)],
        stdout=subprocess.PIPE, text=True, check=True,
    ).stdout
    return json.loads(out.strip().splitlines()[-1])


def check_golden_corruption(t: SelfTest) -> None:
    workload = WORKLOADS["fig5"]
    sweep = spawn(workload.name, DEV_SEED, "measure")["sweeps"][0]
    violations = {(p, label): v for p, label, v in sweep["violations"]}
    golden = load_golden(workload, DEV_SEED)
    attempted, failed = check_sweep(workload, sweep["csv"], violations, golden)
    t.expect(attempted == len(SWEEP_POINTS) * len(workload.series) and failed == 0, "program output matches its golden CSV")

    lines = golden.splitlines(keepends=True)
    row = lines[5].split(",")
    row[2] = row[2][:-1] + str((int(row[2][-1]) + 1) % 10)
    corrupted = "".join(lines[:5] + [",".join(row)] + lines[6:])
    _, failed = check_sweep(workload, sweep["csv"], violations, corrupted)
    t.expect(failed == 1, f"one corrupted golden row gives failed_frac {failed}/{attempted} > 0")
    _, failed = check_sweep(workload, sweep["csv"], violations, None, corrupted)
    t.expect(failed == 1, "a row that differs from the run's serial CSV fails")
    _, failed = check_sweep(workload, sweep["csv"], {("50", "JT-NOMA"): 1}, golden)
    t.expect(failed == 1, "a guarantee violation fails its row")
    _, failed = check_sweep(workload, None, {}, golden)
    t.expect(failed == attempted, "a sweep that raised fails every row")


def check_names(t: SelfTest, results: dict) -> None:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    t.expect({w["name"] for w in spec["workloads"]} == set(WORKLOADS), "workloads match BENCHMARK.json")
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        want = {m["name"]: m["unit"] for m in spec[key]}
        for name, result in results.items():
            if name[1] == trace:
                got = {n: m["unit"] for n, m in result["metrics"].items()}
                t.expect(got == want, f"{name[0]} --trace {trace} prints exactly the {key} metrics")
                t.expect(result["correct"] and result["failed"] == 0, f"{name[0]} --trace {trace} is correct")


def check_trace(t: SelfTest, results: dict) -> None:
    def counts(m: dict) -> dict:
        return {n: v["value"] for n, v in m.items() if n.endswith((".calls_per_trial", ".feasible_frac"))}

    again = bench("fig5", 1)
    t.expect(counts(results[("fig5", 1)]["metrics"]) == counts(again["metrics"]),
             "calls_per_trial and feasible_frac repeat exactly on a fixed seed")

    oma = results[("oma-baselines", 1)]["metrics"]
    t.expect(all(v["value"] == 0 for n, v in oma.items() if n.startswith(("allocation.", "core."))),
             "allocation.* and core.* report nothing on oma-baselines")
    fig5 = results[("fig5", 1)]["metrics"]
    share = sum(v["value"] for n, v in fig5.items()
                if n.startswith(("allocation.", "core.")) and n.endswith(".self_us_per_trial"))
    share /= fig5["trace.us_per_trial"]["value"]
    t.expect(share >= 0.25, f"allocation.* plus core.* self time is {share:.0%} of traced fig5 time")
    t.expect(oma["harness.pool.efficiency"]["value"] == fig5["harness.pool.efficiency"]["value"] == 1.0,
             "pool efficiency is 1 without a pool")
    pool = results[("fig6-full", 1)]["metrics"]["harness.pool.efficiency"]["value"]
    t.expect(0.0 < pool < 1.5, f"pool efficiency {pool:.2f} is measured on fig6-full")


def check_missing_functions(t: SelfTest) -> None:
    sys.path.insert(0, str(ROOT / "src"))
    import compnoma
    from compnoma.config import PRESETS
    from dataclasses import replace

    layers = dict(LAYERS)
    layers["gone"] = (("compnoma.allocation", "no_such_function"), ("compnoma.no_such_module", "f"))
    tracer = LayerTracer(layers)
    config = replace(PRESETS["fig5"](), trials=5)
    with tracer:
        compnoma.run_sweep(config)
    t.expect(tracer.stats["gone"] == [0, 0.0, 0], "a missing function reports zero calls")
    t.expect(tracer.stats["scenarios.run_trial"][0] == 8 * 5 * 3, "the other layers are still traced")
    t.expect(not hasattr(compnoma.harness.run_trial, "__wrapped__"), "leaving the tracer restores the package")


def main() -> int:
    t = SelfTest()
    check_golden_corruption(t)
    results = {(w, trace): bench(w, trace) for w in WORKLOADS for trace in (0, 1)}
    check_names(t, results)
    check_trace(t, results)
    check_missing_functions(t)
    print("selftest passed" if not t.failures else f"selftest: {t.failures} checks failed")
    return 1 if t.failures else 0


if __name__ == "__main__":
    sys.exit(main())
