"""``python -m qmmp132.cli`` with span tracing, for traced cli requests.

Usage: ``python tracecli.py SPAN_FILE CLI_ARGS...`` with ``src`` on
``PYTHONPATH``.  Installs the wrappers, runs the command and writes the
span list to SPAN_FILE as JSON.  Stdout and the exit code are the
command's own.
"""

import json
import sys

import qmmp132.cli
import spans

tracer = spans.Tracer()
tracer.install()
try:
    code = qmmp132.cli.main(sys.argv[2:])
finally:
    sys.stdout.flush()
    with open(sys.argv[1], "w") as fh:
        json.dump(tracer.spans, fh)
sys.exit(code)
