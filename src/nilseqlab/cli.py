"""Command-line experiment runner.

One subcommand per experiment kind; every subcommand takes a JSON config
file plus overrides.  Exit codes: 0 success, 2 config error, 3 budget
error.
"""

from __future__ import annotations

import argparse
import sys

from .errors import BudgetError, ConfigError
from .experiments import load_config, run_experiment

# CLI spelling -> config kind
_COMMANDS = {
    "gowers": "gowers",
    "correlate": "correlate",
    "decompose": "decompose",
    "vdc-check": "vdc-check",
    "anti-uniformity": "anti-uniformity",
    "interpolate-check": "interpolate-check",
    "class-distance": "class-distance",
    "subseq-avg": "subsequence-average",
}

_HELP = {
    "gowers": "uniformity seminorm of a target signal",
    "correlate": "correlation sequence of a torus system query",
    "decompose": "structured-plus-error split against a dictionary",
    "vdc-check": "van der Corput difference comparison",
    "anti-uniformity": "correlation versus 4x uniformity seminorm",
    "interpolate-check": "base-point interpolation identity check",
    "class-distance": "distance from a signal to a sequence class",
    "subseq-avg": "partial averages along a subsequence",
}

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
    for name in _COMMANDS:
        p = sub.add_parser(name, help=_HELP[name])
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
    kind = _COMMANDS[args.command]
    try:
        cfg = load_config(args.config, overrides={
            "seed": args.seed,
            "out_dir": args.out,
            "use_cache": False if args.no_cache else None,
        })
        if cfg.kind != kind:
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
