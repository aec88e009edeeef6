"""Command-line entry point.

One subcommand per pipeline stage plus `pipeline` for the whole chain.
Exit codes: 0 success, 2 configuration error, 3 input error, 4 violated
pipeline invariant (the message names the failed assertion).
"""
from __future__ import annotations

import argparse
import gc
import logging
import sys

from .config import validate_config
from .models import ConfigError, InputError, InvariantError
from .pipeline import STAGE_ORDER, run_pipeline, run_stage

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_INPUT = 3
EXIT_INVARIANT = 4


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tedclean",
        description="Turn raw award-notice tables into a clean relational database.",
    )
    parser.add_argument("-v", "--verbose", action="store_true", help="debug logging")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--config", required=True, help="path to the JSON config file")
        p.add_argument("--out", help="override the configured output directory")

    for stage in STAGE_ORDER:
        p = sub.add_parser(stage, help=f"run the {stage} stage")
        add_common(p)
        if stage == "evaluate":
            p.add_argument(
                "--mask",
                action="store_true",
                help="hide known identifiers and score their recovery",
            )

    p = sub.add_parser("pipeline", help="run all stages in order")
    add_common(p)
    p.add_argument("--mask", action="store_true", help="masked evaluation at the end")
    p.add_argument("--stage-from", choices=STAGE_ORDER, help="first stage to run")
    p.add_argument("--stage-to", choices=STAGE_ORDER, help="last stage to run")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    logging.basicConfig(
        level=logging.DEBUG if args.verbose else logging.INFO,
        format="%(levelname)s %(name)s: %(message)s",
    )
    # The stages' records hold no reference cycles, so the cyclic collector
    # finds nothing in them and each of its passes only rescans every record
    # built so far; reference counting frees them. Paused for this command
    # only: a library caller of run_pipeline or run_stage keeps the default.
    collecting = gc.isenabled()
    gc.disable()
    try:
        config = validate_config(args.config)
        if args.out:
            config.output_dir = args.out

        if args.command == "pipeline":
            run_pipeline(
                config,
                stage_from=args.stage_from,
                stage_to=args.stage_to,
                mask=args.mask,
            )
        else:
            run_stage(args.command, config, mask=getattr(args, "mask", False))
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except InputError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except InvariantError as exc:
        print(f"invariant violated: {exc}", file=sys.stderr)
        return EXIT_INVARIANT
    finally:
        if collecting:
            gc.enable()
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
