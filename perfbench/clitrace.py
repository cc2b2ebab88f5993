"""Traced CLI child: weylsplit.cli.main(argv) in a fresh interpreter with spans.

Usage: clitrace.py TRACE_PATH ARG...

Imports weylsplit.cli (timed as cli.import_s), installs the span wrappers,
runs main(ARG...) with stdout captured and counted (cli.stdout_bytes), writes
the captured output to stdout and the spans to TRACE_PATH, and exits with
main's status.
"""

import contextlib
import io
import sys
import time

import tracing


def main(argv):
    trace_path, args = argv[0], argv[1:]
    t0 = time.perf_counter()
    from weylsplit import cli
    import_s = time.perf_counter() - t0
    tracer = tracing.install(tracing.Tracer())
    tracer.qid = 0
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = cli.main(args)
    text = buf.getvalue()
    tracer.add("cli.import_s", import_s)
    tracer.add("cli.stdout_bytes", len(text.encode()))
    tracer.dump(trace_path)
    sys.stdout.write(text)
    return rc


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
