"""Run one soliton command line with spans around soliton2d's functions.

    PYTHONPATH=src python perfbench/cli_traced.py classify --lambda 0 --mu -1 --a0 1

Behaves like ``python -m soliton2d.cli`` (same stdout and exit code) and
appends one line to stderr: tracing.MARK followed by the JSON of the import
time and the recorded spans.
"""

import json
import sys
import time

t0 = time.perf_counter()
import soliton2d  # noqa: E402
import soliton2d.cli  # noqa: E402

import_ms = 1e3 * (time.perf_counter() - t0)

import tracing  # noqa: E402

tracer = tracing.Tracer()
tracer.install(soliton2d, with_export=True)
code = tracer.wrap("cli.run", soliton2d.cli.run, soliton2d.SolitonError)(sys.argv[1:])
sys.stdout.flush()
sys.stderr.write(tracing.MARK + json.dumps({"import_ms": import_ms, "spans": tracer.spans}) + "\n")
sys.exit(code)
