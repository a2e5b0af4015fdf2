"""Traced stand-in for `python -m xpand`, used by the traced cli pass.

    PERFBENCH_TRACE_OUT=FILE python3 perfbench/xpand_shim.py ARGS...

Imports `xpand.cli`, installs the layer wrappers, runs `xpand.cli.main`
on ARGS and appends this invocation's spans as one JSON line to FILE.
"""

from __future__ import annotations

import json
import os
import sys
import time

t0 = time.perf_counter()
from xpand import cli  # noqa: E402

import_s = time.perf_counter() - t0

import tracing  # noqa: E402


def main() -> int:
    tracer = tracing.Tracer()
    tracing.install(tracer)
    tracer.add("cli.import_s", import_s)
    tracer.add("cli.invocations", 1)
    tracer.enabled = True
    try:
        return cli.main(sys.argv[1:])
    finally:
        tracer.enabled = False
        with open(os.environ["PERFBENCH_TRACE_OUT"], "a", encoding="utf-8") as fh:
            fh.write(json.dumps(tracer.snapshot()) + "\n")


if __name__ == "__main__":
    raise SystemExit(main())
