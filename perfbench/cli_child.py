"""Traced stand-in for ``python -m repro`` used by the traced run's CLI op.

    python -X importtime perfbench/cli_child.py SPANS.json table 2

Runs the repro CLI as ``python -m repro`` does, with the frontend parser
wrapped, then writes the parse seconds and calls to ``SPANS.json``.  The
parent reads import times from the ``-X importtime`` lines on stderr.
"""

import json
import runpy
import sys
from pathlib import Path

from layers import Tracer


def main() -> int:
    spans = Path(sys.argv[1])
    sys.argv = ["repro", *sys.argv[2:]]
    tracer = Tracer()
    tracer.install([("frontend.parse", "repro.frontend.parser:parse_source", None)])
    code = 0
    try:
        runpy.run_module("repro", run_name="__main__", alter_sys=True)
    except SystemExit as done:
        code = done.code if isinstance(done.code, int) else int(done.code is not None)
    finally:
        tracer.remove()
        spans.write_text(
            json.dumps({"parse_s": tracer.seconds["frontend.parse"],
                        "parse_calls": tracer.calls["frontend.parse"]})
        )
    return code


if __name__ == "__main__":
    sys.exit(main())
