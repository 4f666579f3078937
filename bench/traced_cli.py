"""Run ``faultwave.cli.main`` with the benchmark's span wrappers installed.

Used in place of ``python -m faultwave`` by traced cli-pipeline runs. The
parent passes its ``time.monotonic()`` at spawn in ``FW_BENCH_T0`` (the clock
is shared by all processes of the machine) and a span file path in
``FW_BENCH_SPANS``; the spans, import time and command time are written there
however the command ends.
"""

import os
import sys
import time

import faultwave.cli

imported = time.monotonic()

import tracing  # noqa: E402  (after the timed import of faultwave.cli)

tracer = tracing.Tracer()
tracer.install()
started = time.monotonic()
try:
    faultwave.cli.main(args=sys.argv[1:], prog_name="faultwave")
finally:
    tracing.save(os.environ["FW_BENCH_SPANS"], tracer.log({
        "subcommand": sys.argv[1],
        "import_s": imported - float(os.environ["FW_BENCH_T0"]),
        "command_s": time.monotonic() - started,
    }))
