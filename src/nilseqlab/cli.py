"""Command-line experiment runner.

One subcommand per experiment kind; every subcommand takes a JSON config
file plus overrides.  Exit codes: 0 success, 2 config error, 3 budget
error.
"""

from __future__ import annotations

import argparse
import sys

from .errors import BudgetError, ConfigError
from .experiments import KINDS, load_config, run_experiment

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_BUDGET = 3


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nilseqlab",
        description="config-driven experiments on correlation sequences, "
                    "uniformity seminorms, and nilsequence dictionaries",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for kind, spec in KINDS.items():
        p = sub.add_parser(spec.command or kind, help=spec.help)
        p.set_defaults(kind=kind)
        p.add_argument("--config", required=True, help="JSON config file")
        p.add_argument("--out", default=None,
                       help="output directory (default: config out_dir or cwd)")
        p.add_argument("--seed", type=int, default=None,
                       help="override the config seed")
        p.add_argument("--no-cache", action="store_true",
                       help="recompute even if a cached result exists")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        cfg = load_config(args.config, overrides={
            "seed": args.seed,
            "out_dir": args.out,
            "use_cache": False if args.no_cache else None,
        })
        if cfg.kind != args.kind:
            raise ConfigError(
                f"config kind {cfg.kind!r} does not match subcommand "
                f"{args.command!r}"
            )
        result = run_experiment(cfg)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except BudgetError as exc:
        print(f"budget error: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    origin = "cache" if result.cache_hit else "computed"
    print(f"{result.config_hash[:12]} [{origin}] -> {result.out_dir}")
    for name in result.artifacts:
        print(f"  {name}")
    return EXIT_OK


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
