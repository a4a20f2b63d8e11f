"""Run one ``cronon`` CLI command in this fresh interpreter, traced.

Usage: python cli_child.py SPANS_JSON -- CLI_ARGS...

Equivalent to ``python -m cronon.cli CLI_ARGS...`` (same output bytes,
same exit code) except that the package's public functions are wrapped
by the benchmark's tracer and the spans are written to SPANS_JSON when
the command returns.
"""

import json
import os
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from tracer import CLI_TARGETS, PACKAGE_TARGETS, Tracer  # noqa: E402


def main():
    spans_path = sys.argv[1]
    if sys.argv[2] != "--":
        raise SystemExit("usage: cli_child.py SPANS_JSON -- CLI_ARGS...")
    argv = sys.argv[3:]
    tracer = Tracer()
    t0 = time.perf_counter()
    import cronon.cli
    tracer.add("cli.import", t0, time.perf_counter())
    tracer.install(PACKAGE_TARGETS + CLI_TARGETS)
    code = 1
    rec = tracer.open("cli.main")
    try:
        code = cronon.cli.main(argv)
    except SystemExit as exc:  # argparse rejects bad flags with exit 2
        code = exc.code
    finally:
        tracer.close(rec)
        tracer.uninstall()
        with open(spans_path, "w", encoding="utf-8") as fh:
            json.dump(tracer.dump(), fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
