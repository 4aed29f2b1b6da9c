"""Run the camreid command line from this checkout's src/ directory.

    python3 bench/launch.py [--probe FILE] [--trace FILE] [--setup-only] -- CAMREID_ARGS...

--probe writes {"first_stage": t}, the time.monotonic() at which the first
pipeline stage began, so a parent process that noted the clock before
starting this one gets the set-up time.  --setup-only stops right there,
before the stage does any work.  --trace wraps every public camreid function
in a span (see spans.py) and writes the spans to FILE when the run ends.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


class _SetupDone(BaseException):
    """Raised at the first stage by --setup-only; not an error of the program."""


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--probe", type=Path)
    parser.add_argument("--trace", type=Path)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("camreid_args", nargs=argparse.REMAINDER)
    args = parser.parse_args()
    argv = args.camreid_args[1:] if args.camreid_args[:1] == ["--"] else args.camreid_args
    if not (SRC / "camreid" / "cli.py").is_file():
        print(f"launch: no camreid sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from camreid import cli, pipeline

    if not Path(pipeline.__file__).resolve().is_relative_to(SRC):
        print(f"launch: camreid was imported from {pipeline.__file__}, not {SRC}", file=sys.stderr)
        return 2

    tracer = None
    if args.trace is not None:
        from spans import Tracer

        tracer = Tracer()
        tracer.install()

    first_stage: list[float] = []
    stage_simulate = pipeline.stage_simulate

    def probed(*a, **kw):
        if not first_stage:
            first_stage.append(time.monotonic())
            if args.setup_only:
                raise _SetupDone
        return stage_simulate(*a, **kw)

    pipeline.stage_simulate = probed
    try:
        rc = cli.main(argv)
    except _SetupDone:
        rc = 0
    if args.probe is not None:
        args.probe.write_text(json.dumps({"first_stage": first_stage[0] if first_stage else None}))
    if tracer is not None:
        tracer.dump(args.trace)
    return rc


if __name__ == "__main__":
    sys.exit(main())
