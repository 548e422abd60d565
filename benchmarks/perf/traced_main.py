"""Harness-owned launcher for traced server processes.

``python traced_main.py <spans-out> <dlv args...>`` installs the span
shim, hands the remaining arguments to ``repro.dlv.cli.main`` unchanged,
and writes the recorded spans to ``<spans-out>`` when ``main`` returns
(for ``serve`` / ``hub-serve`` that is after SIGTERM and the drain).
"""

from __future__ import annotations

import sys
from pathlib import Path

PERF_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(PERF_DIR))
sys.path.insert(0, str(PERF_DIR.parent.parent / "src"))


def run(argv: list[str]) -> int:
    import spans

    spans_out, cli_args = argv[0], argv[1:]
    from repro.dlv import cli

    tracer = spans.install(spans.Tracer())
    try:
        return cli.main(cli_args)
    finally:
        tracer.dump(spans_out)


if __name__ == "__main__":
    sys.exit(run(sys.argv[1:]))
