"""Command-line front end: resolve a config, run the sweep, emit CSV.

Exit codes: 0 success, 1 configuration rejected, 2 runtime failure.
"""

from __future__ import annotations

import argparse
import json
import logging
import sys
import traceback
from dataclasses import fields
from typing import Sequence

from .config import CHOICES, PRESETS, ExperimentConfig, config_from_dict, config_to_dict, parse_config
from .errors import ConfigError
from .harness import SweepResult, run_sweep

log = logging.getLogger("compnoma")

CSV_HEADER = "sweep_m,scheme,mean_se_bps_hz,ci95,infeasible_frac,trials"


def format_csv(result: SweepResult) -> str:
    """Render rows sorted by (sweep value, scheme), numbers at 9 significant
    digits; refuses to serialize non-finite values."""
    import math

    lines = [CSV_HEADER]
    for row in sorted(result.rows, key=lambda r: (r.sweep_value, r.scheme)):
        values = {
            "sweep_m": row.sweep_value,
            "mean_se_bps_hz": row.mean_se_bps_hz,
            "ci95": row.ci95,
            "infeasible_frac": row.infeasible_frac,
        }
        for name, v in values.items():
            if not math.isfinite(v):
                raise ValueError(
                    f"refusing to emit non-finite {name}={v!r} "
                    f"(sweep={row.sweep_value}, scheme={row.scheme})"
                )
        lines.append(
            f"{row.sweep_value:.9g},{row.scheme},{row.mean_se_bps_hz:.9g},"
            f"{row.ci95:.9g},{row.infeasible_frac:.9g},{row.trials}"
        )
    return "\n".join(lines) + "\n"


def emit_csv(result: SweepResult, path: str | None) -> None:
    """Write the CSV to path, or to stdout when path is None or empty."""
    text = format_csv(result)
    if path:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


class _Parser(argparse.ArgumentParser):
    # usage mistakes are configuration errors (exit 1), not argparse's exit 2
    def error(self, message: str):
        raise ConfigError(message)


def _worker_count(text: str) -> int:
    if not text.isdecimal() or int(text) < 1:
        raise argparse.ArgumentTypeError(f"must be an integer of at least 1, got {text!r}")
    return int(text)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="compnoma",
        description=(
            "Monte-Carlo spectral-efficiency sweeps for two-cell coordinated "
            "multipoint downlinks with superposed (NOMA) and orthogonal access."
        ),
    )
    parser.add_argument(
        "preset",
        nargs="?",
        choices=sorted(PRESETS),
        help="named sweep preset; omit when using --config or --scenario",
    )
    parser.add_argument("--config", help="JSON config path")
    parser.add_argument("--scenario", dest="scenario_id", type=int, help="scenario id (1, 2 or 3)")
    parser.add_argument(
        "--scheme",
        action="append",
        help="scheme to run (repeatable or comma separated); overrides the config",
    )
    parser.add_argument("--trials", type=int, help="Monte-Carlo trials per sweep point")
    parser.add_argument("--seed", type=int, help="master seed")
    parser.add_argument("--out", dest="output_path", help="CSV output path (default: stdout)")
    parser.add_argument(
        "--case",
        dest="decode_case",
        type=lambda v: {"1": "case1", "2": "case2"}.get(v, v),
        choices=CHOICES["decode_case"],
        help="shared decode order of scenario 3, the asymmetric one (1/2 are aliases)",
    )
    parser.add_argument(
        "--interference",
        dest="interference_mode",
        choices=CHOICES["interference_mode"],
        help="cross-cell interference model",
    )
    parser.add_argument(
        "--split",
        dest="jt_split",
        choices=CHOICES["jt_split"],
        help="how coordinated cells share an edge user's power demand",
    )
    parser.add_argument("--workers", type=_worker_count, default=1, help="worker processes")
    parser.add_argument("--quiet", action="store_true", help="suppress progress logging")
    return parser


def _resolve_config(args: argparse.Namespace):
    if args.preset and args.config:
        raise ConfigError("give a preset or --config, not both")
    if args.preset:
        base = config_to_dict(PRESETS[args.preset]())
    elif args.config:
        base = config_to_dict(parse_config(args.config))
    elif args.scenario_id is not None:
        base = {}
    else:
        raise ConfigError("a preset, --config, or --scenario is required")

    if args.scenario_id is not None:
        # a scenario change invalidates inherited schemes, and drops an
        # inherited decode case, which only scenario 3 uses
        base.pop("schemes", None)
        if args.scenario_id != 3:
            base.pop("decode_case", None)
    if args.scheme:
        base["schemes"] = [s.strip() for chunk in args.scheme for s in chunk.split(",") if s.strip()]
    # every flag whose dest is a config field overrides that key
    keys = {f.name for f in fields(ExperimentConfig)}
    base.update((key, value) for key, value in vars(args).items() if key in keys and value is not None)
    return config_from_dict(base)


def main(argv: Sequence[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
        config = _resolve_config(args)
    except SystemExit as e:  # --help
        return int(e.code or 0)
    except ConfigError as e:  # a bad flag, flag value or config
        print(f"error: {e}", file=sys.stderr)
        return 1

    logging.basicConfig(
        level=logging.WARNING if args.quiet else logging.INFO,
        format="%(levelname)s %(name)s: %(message)s",
        stream=sys.stderr,
    )
    log.info("resolved config: %s", json.dumps(config_to_dict(config), sort_keys=True))

    try:
        result = run_sweep(config, workers=args.workers)
        for row in result.rows:
            if row.infeasible_frac == 1.0:
                log.warning(
                    "sweep_m=%g %s: infeasible in all %d trials; its row is the fallback's rates, "
                    "those of the orthogonal baseline (JT-OMA)", row.sweep_value, row.scheme, row.trials,
                )
        emit_csv(result, config.output_path)
        if config.output_path:
            sidecar = config.output_path + ".config.json"
            with open(sidecar, "w", encoding="utf-8") as fh:
                json.dump(config_to_dict(config), fh, indent=2, sort_keys=True)
            log.info("wrote %s and %s", config.output_path, sidecar)
    except Exception:
        traceback.print_exc()
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
