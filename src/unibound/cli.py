"""Batch experiment runner.

    unibound run CONFIG [--seed S] [--out DIR] [--override-numeric-constants]
    unibound validate CONFIG

``run`` executes the configured pipeline deterministically from the root
seed and writes ``result.<kind>.json`` plus ``table.csv``. ``validate``
reports every schema violation without executing anything.
"""

from __future__ import annotations

import argparse
import sys

from .config import load_config, validate_config
from .errors import ConfigError, DomainError, OverrideRequiredError, ResourceError, UniboundError
from .runner import EXIT_CONFIG, EXIT_IO, EXIT_OK, EXIT_RESOURCE, run_experiment


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="unibound", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="execute a configuration")
    run.add_argument("config", help="path to the configuration document")
    run.add_argument("--seed", type=int, default=None, help="override the configured root seed")
    run.add_argument("--out", default=None, help="override the output directory")
    # Parsed and ignored: replications run in one thread, and existing command
    # lines still pass it.
    run.add_argument("--workers", type=int, help=argparse.SUPPRESS)
    run.add_argument("--override-numeric-constants", action="store_true",
                     help="permit numeric-estimate L, M in bound assembly")

    val = sub.add_parser("validate", help="schema-check a configuration")
    val.add_argument("config", help="path to the configuration document")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        raw = load_config(args.config)
        if args.command == "validate":
            violations = validate_config(raw)
            for v in violations:
                print(f"violation: {v}")
            if violations:
                return EXIT_CONFIG
            print("valid")
            return EXIT_OK
        code, _, summary = run_experiment(
            raw,
            out_dir=args.out,
            seed=args.seed,
            override=args.override_numeric_constants,
        )
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO
    except (ConfigError, OverrideRequiredError, DomainError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except ResourceError as exc:
        print(f"resource error: {exc}", file=sys.stderr)
        return EXIT_RESOURCE
    except UniboundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    for line in summary:
        print(line)
    return code


if __name__ == "__main__":
    raise SystemExit(main())
