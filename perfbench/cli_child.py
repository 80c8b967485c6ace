"""Run one compulse CLI command with its public functions traced.

    python3 perfbench/cli_child.py SPANS_FILE ARG...

runs ``compulse ARG...`` and writes the spans to SPANS_FILE as JSON, also
when the command raises.  The exit code is the command's.  ``run.py`` uses
it for the traced rounds of ``cli-session``; untraced rounds run
``python3 -m compulse.cli`` directly.
"""

import json
import sys

import compulse.cli

from tracing import Tracer

tracer = Tracer()
tracer.install()
try:
    code = compulse.cli.main(sys.argv[2:])
finally:
    tracer.uninstall()
    with open(sys.argv[1], "w", encoding="utf-8") as fh:
        json.dump(tracer.spans, fh)
sys.exit(code)
