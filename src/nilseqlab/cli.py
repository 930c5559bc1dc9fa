"""Command-line experiment runner.

``nilseqlab <command> --config FILE [--out DIR] [--seed N] [--no-cache]``:
one positional command per experiment kind, and every command takes the
same options.  Exit codes: 0 success, 2 config error, 3 budget error.
"""

from __future__ import annotations

import argparse
import sys

from .errors import BudgetError, ConfigError
from .experiments import KINDS, load_config, run_experiment

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_BUDGET = 3

COMMANDS = {spec.command or kind: kind for kind, spec in KINDS.items()}


PARSER = argparse.ArgumentParser(
    prog="nilseqlab",
    description="config-driven experiments on correlation sequences,\n"
                "uniformity seminorms, and nilsequence dictionaries",
    epilog="commands:\n" + "\n".join(
        f"  {command:<20} {KINDS[kind].help}"
        for command, kind in COMMANDS.items()),
    formatter_class=argparse.RawDescriptionHelpFormatter,
)
PARSER.add_argument("command", choices=COMMANDS, metavar="command",
                    help="experiment to run (listed below)")
PARSER.add_argument("--config", required=True, help="JSON config file")
PARSER.add_argument("--out", default=None,
                    help="output directory (default: config out_dir or cwd)")
PARSER.add_argument("--seed", type=int, default=None,
                    help="override the config seed")
PARSER.add_argument("--no-cache", action="store_true",
                    help="recompute even if a cached result exists")


def main(argv=None) -> int:
    args = PARSER.parse_args(argv)
    try:
        cfg = load_config(args.config, overrides={
            "seed": args.seed,
            "out_dir": args.out,
            "use_cache": False if args.no_cache else None,
        })
        if cfg.kind != COMMANDS[args.command]:
            raise ConfigError(
                f"config kind {cfg.kind!r} does not match command "
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
