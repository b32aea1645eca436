"""Command-line front end: resolve a config, run the sweep, emit CSV.

A preset or a config file states what is modeled; ``--trials`` and ``--seed``
override its keys, and the other flags only decide where the run goes.
Exit codes: 0 success, 1 input rejected (``ConfigError``), 2 runtime failure.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import sys
import traceback
from dataclasses import fields
from typing import Sequence

from .config import PRESETS, ExperimentConfig, config_from_dict, config_to_dict, parse_config
from .errors import ConfigError
from .harness import CSV_NUMBER, SweepResult, run_sweep

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
            f"{row.sweep_value:{CSV_NUMBER}},{row.scheme},{row.mean_se_bps_hz:{CSV_NUMBER}},"
            f"{row.ci95:{CSV_NUMBER}},{row.infeasible_frac:{CSV_NUMBER}},{row.trials}"
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
        help="paper figure to reproduce: fig4-fig6 run scenarios 1-3 at their defaults; omit when using --config",
    )
    parser.add_argument("--config", help="JSON config path; it states the schemes, interference model and power split")
    parser.add_argument("--trials", type=int, help="Monte-Carlo trials per sweep point; overrides the config")
    parser.add_argument("--seed", type=int, help="master seed; overrides the config")
    parser.add_argument("--out", help="CSV output path (default: stdout)")
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
    else:
        raise ConfigError("a preset or --config is required")
    # every flag whose dest is a config field overrides that key
    keys = {f.name for f in fields(ExperimentConfig)}
    base.update((key, value) for key, value in vars(args).items() if key in keys and value is not None)
    return config_from_dict(base)


def main(argv: Sequence[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
        config = _resolve_config(args)
        sidecar = args.out and args.out + ".config.json"
        for path in filter(None, (args.out, sidecar)):  # a symlink is checked where it leads; a loop leads nowhere
            real = os.path.realpath(path)
            if os.path.isdir(real) or os.path.islink(real) or not os.path.isdir(os.path.dirname(real)):
                raise ConfigError(f"--out {args.out}: {path} is not a file path in an existing directory")
    except SystemExit as e:  # --help
        return int(e.code or 0)
    except ConfigError as e:  # a bad flag, flag value or config; an unwritable --out or sidecar, before the sweep
        print(f"error: {e}", file=sys.stderr)
        return 1

    # basicConfig does nothing once the root logger has a handler, so the
    # level is set on the package logger, on every call
    logging.basicConfig(format="%(levelname)s %(name)s: %(message)s", stream=sys.stderr)
    log.setLevel(logging.WARNING if args.quiet else logging.INFO)
    log.info("resolved config: %s", json.dumps(config_to_dict(config), sort_keys=True))

    try:
        result = run_sweep(config, workers=args.workers)
        for row in result.rows:
            if row.infeasible_frac == 1.0:
                log.warning(
                    "sweep_m=%g %s: infeasible in all %d trials; its row is the fallback's rates, "
                    "those of the orthogonal baseline (JT-OMA)", row.sweep_value, row.scheme, row.trials,
                )
        emit_csv(result, args.out)
        if sidecar:
            with open(sidecar, "w", encoding="utf-8") as fh:
                json.dump(config_to_dict(config), fh, indent=2, sort_keys=True)
            log.info("wrote %s and %s", args.out, sidecar)
    except Exception:
        traceback.print_exc()
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
