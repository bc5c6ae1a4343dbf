"""Run one qnetcap command line with per-layer tracing on.

Usage: python3 perfbench/cli_child.py TRACE_JSON ARG...

Runs ``qnetcap.cli.main(ARG...)`` in this interpreter with the layer
wrappers installed, writes the counters, self times and spans to
TRACE_JSON, and exits with the command's exit code.  The traced pass of
the cli-readme workload uses it in place of ``python -m qnetcap.cli``.
"""

import json
import sys

from layertrace import Tracer


def main():
    trace_path, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    tracer.install()
    code = 1
    try:
        from qnetcap.cli import main as cli_main

        with tracer.span("cli"):
            code = cli_main(argv)
    except SystemExit as exc:
        code = exc.code
    finally:
        tracer.uninstall()
        with open(trace_path, "w") as fh:
            json.dump(tracer.dump(), fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
