"""Command-line front end for pipeline stages and ablations.

All commands share a flag set (--config, --seed, --out, --precision,
--force) and write their results under the output directory, one
subdirectory per stage with a digest manifest.  Command ``c`` runs
``pipeline.stage_<c>`` (dashes become underscores), looked up when the
command runs.  Failures print a machine-readable JSON error record to stderr
and return a nonzero exit code.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import logging
import sys
from pathlib import Path

from . import pipeline as pl
from .errors import (
    CamreidError,
    InvalidInputError,
    ManifestError,
    TrainingDivergenceError,
)

log = logging.getLogger(__name__)

_EXIT_CODES = {
    InvalidInputError: 2,
    ManifestError: 3,
    TrainingDivergenceError: 4,
}


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", type=Path, default=None, help="pipeline config JSON")
    p.add_argument("--seed", type=int, default=None, help="override the config seed")
    p.add_argument("--out", type=Path, required=True, help="output directory")
    p.add_argument("--precision", choices=("f32", "f64"), default=None)
    p.add_argument("--force", action="store_true", help="allow overwriting existing stage outputs")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="camreid",
        description="unsupervised multi-camera re-identification on synthetic streams",
    )
    parser.add_argument("-v", "--verbose", action="store_true")
    sub = parser.add_subparsers(dest="command", required=True)
    stages = {name: stage.help for name, stage in pl.STAGES.items()}
    commands = {**stages, "run": "run every stage in order", "ablate": pl.ABLATE.help}
    for name, help_text in commands.items():
        p = sub.add_parser(name, help=help_text)
        _add_common(p)
        if name == "evaluate":
            p.add_argument("--checkpoint", choices=("cid", "tsd"), default="tsd")
            p.add_argument("--no-ccr", dest="use_ccr", action="store_false", help="skip the camera reduction")
        if name == "ablate":
            p.add_argument("--axis", choices=tuple(pl.ABLATIONS), required=True)
            p.add_argument("--values", type=str, default=None, help="JSON list overriding the axis default values")
    return parser


def _resolve_config(args) -> pl.PipelineConfig:
    if args.config is not None:
        try:
            text = args.config.read_bytes()
        except OSError as e:
            raise ManifestError(f"cannot read config file {args.config} ({e.strerror})") from e
        try:
            payload = json.loads(text)
        except ValueError as e:  # a JSONDecodeError, or bytes that are no Unicode text
            raise InvalidInputError(f"{args.config} is not valid JSON ({e})") from e
        config = pl.PipelineConfig.from_payload(payload)
    else:
        config = pl.PipelineConfig()
    overrides = {k: getattr(args, k) for k in ("seed", "precision") if getattr(args, k) is not None}
    return dataclasses.replace(config, **overrides)


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    logging.basicConfig(
        level=logging.DEBUG if args.verbose else logging.INFO,
        format="%(levelname)s %(name)s: %(message)s",
    )
    try:
        config = _resolve_config(args)
        options = {k: v for k, v in vars(args).items() if k in ("checkpoint", "use_ccr", "axis")}
        if args.command == "evaluate":
            pl.check_evaluate(**options)
        if args.command == "ablate":
            try:
                options["values"] = None if args.values is None else json.loads(args.values)
            except json.JSONDecodeError as e:
                raise InvalidInputError(f"--values is not valid JSON ({e})") from e
        if args.out.exists() and not args.out.is_dir():
            raise InvalidInputError(f"--out {args.out} is not a directory")
        pl.write_config(args.out, config, force=args.force)
        stage = getattr(pl, "stage_" + args.command.replace("-", "_"))
        stage(args.out, config, force=args.force, **options)
        if args.command in ("evaluate", "run"):
            print(pl.stage_paths(args.out, "evaluate")["text"].read_text(), end="")
        elif args.command == "ablate":
            print(pl.stage_paths(args.out, "ablate", args.axis)["rows"].read_text(), end="")
        return 0
    except CamreidError as e:
        record = {"error": type(e).__name__, "message": str(e)}
        print(json.dumps(record, sort_keys=True), file=sys.stderr)
        for klass, code in _EXIT_CODES.items():
            if isinstance(e, klass):
                return code
        return 1


if __name__ == "__main__":
    sys.exit(main())
