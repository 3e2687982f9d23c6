"""Start ``repro serve`` with the span wrappers installed.

Usage: ``python3 perfbench/serve_launcher.py SPANS.json serve SPEC
CHART...`` — everything after the spans path is handed to
``repro.cli.main``.  When the server stops (SIGINT), the spans, self
times and counters recorded in this process are written to SPANS.json.
"""

from __future__ import annotations

import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from common import SRC  # noqa: E402

sys.path.insert(0, SRC)


def main() -> int:
    from tracing import Tracer, install

    import repro.cli

    spans_path, argv = sys.argv[1], sys.argv[2:]
    # The unwrapped entry point: a span around the whole server life
    # would only measure how long it was left running.
    serve_main = repro.cli.main
    tracer = Tracer()
    install(tracer)
    try:
        return serve_main(argv)
    finally:
        tracer.dump(spans_path)


if __name__ == "__main__":
    sys.exit(main())
