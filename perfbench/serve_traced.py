"""``repro serve`` with layer spans recorded inside the server process.

    python3 perfbench/serve_traced.py SPANS.json [serve options]

Installs the span patches the library workloads use, runs the
``serve`` command until it is stopped (SIGTERM), then writes every span
to SPANS.json, with the serving index's counters and the kernel rows
noted as each campaign closed. The service workload starts this instead of
``python -m repro serve`` on a traced run.
"""

from __future__ import annotations

import os
import sys

sys.path.insert(
    0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
)

from repro.cli import main as cli_main  # noqa: E402

import layers  # noqa: E402
from trace import Tracer  # noqa: E402


def main(argv) -> int:
    out, serve_args = argv[0], argv[1:]
    tracer = Tracer()
    layers.install(tracer)
    try:
        return cli_main(["serve"] + serve_args)
    finally:
        tracer.unwrap_all()
        tracer.dump(out)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
