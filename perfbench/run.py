"""Product-path benchmark of the DOCS system.

Runs one workload against the public API, checks its outputs, and
prints every metric with its unit; the last line of standard output is
one JSON object ``{"correct", "attempted", "failed", "metrics"}``.

    python3 perfbench/run.py --workload campaign --seed 1 --seconds 45 --trace 0

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` records
spans at each layer boundary and reports the per-layer metrics (see
``perfbench/README.md``). Run from anywhere; working files go under
``.perfbench/`` at the repo root and are removed at exit, except the
span dumps of traced runs.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUTDIR = os.path.join(ROOT, ".perfbench")

WORKLOADS = ("campaign", "service")


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def host_metadata() -> dict:
    import numpy

    return {
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "numpy": numpy.__version__,
    }


def main(argv=None) -> int:
    args = _parse(argv)
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(
            f"perfbench: the repro package is missing under {SRC}; run "
            "from a full checkout of the repository",
            file=sys.stderr,
        )
        return 2
    sys.path.insert(0, SRC)

    import checks
    import metrics

    workdir = os.path.join(OUTDIR, f"run-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    started = time.perf_counter()
    try:
        if args.workload == "service":
            import service

            result = service.run(
                args.seed, args.seconds, bool(args.trace), workdir, OUTDIR
            )
        else:
            import library

            result = library.run(
                args.seed, args.seconds, bool(args.trace), workdir, OUTDIR
            )
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    failures = [f for o in result.outcomes for f in checks.verify(o)]
    chosen = metrics.PER_LAYER if args.trace else metrics.END_TO_END
    values = result.layers if args.trace else result.e2e
    missing = sorted(set(chosen) - set(values))
    if missing:
        failures.append(f"metrics not measured: {missing}")

    print(f"workload {args.workload}  seed {args.seed}  "
          f"trace {args.trace}  wall {time.perf_counter() - started:.1f} s")
    print(f"host {json.dumps(host_metadata())}")
    print(f"notes {json.dumps(result.notes, sort_keys=True)}")
    for name in chosen:
        if name in values:
            print(f"  {name:36s} {values[name]:>16.6g} {metrics.unit(name)}")
    for name in chosen:
        if name.startswith("recon.") and values.get(name):
            print(f"RECONCILIATION FLAG: {name} = {values[name]:g}")
    for failure in failures:
        print(f"CHECK FAILED: {failure}")
    report = {
        "correct": not failures,
        "attempted": int(result.attempted),
        "failed": int(result.failed),
        "metrics": {
            name: {"value": float(values[name]), "unit": metrics.unit(name)}
            for name in chosen
            if name in values
        },
    }
    print(json.dumps(report))
    return 0 if not failures else 1


if __name__ == "__main__":
    sys.exit(main())
