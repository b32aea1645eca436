"""Capture the golden CSVs: one serial sweep per workload and shipped seed.

    python3 perfbench/make_golden.py [WORKLOAD ...]

Run it only at a commit whose output is known to be right: every benchmark
run compares its CSVs with these bytes.
"""

from __future__ import annotations

import argparse
import sys

from run import spawn
from workloads import GOLDEN_SEEDS, WORKLOADS, check_sweep, golden_path


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("workloads", nargs="*", metavar="WORKLOAD", help="default: all")
    args = parser.parse_args(argv)
    unknown = set(args.workloads) - set(WORKLOADS)
    if unknown:
        parser.error(f"unknown workloads {sorted(unknown)}; choose from {sorted(WORKLOADS)}")
    for name in args.workloads or sorted(WORKLOADS):
        workload = WORKLOADS[name]
        for seed in GOLDEN_SEEDS:
            sweep = spawn(name, seed, "measure")["sweeps"][0]
            violations = {(p, label): v for p, label, v in sweep["violations"]}
            attempted, failed = check_sweep(workload, sweep["csv"], violations)
            if failed:
                print(f"error: {name} seed {seed}: {failed}/{attempted} rows fail", file=sys.stderr)
                return 1
            path = golden_path(workload, seed)
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text(sweep["csv"], encoding="utf-8")
            print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
