"""Run-to-run spread of the end-to-end metrics over several seeds.

    python3 perfbench/spread.py --workload campaign --seeds 1-10

Runs ``run.py`` once per seed (one after another, nothing else should
be running), then prints each end-to-end metric's median and its
quartile spread, ``(Q3 - Q1) / median``, next to the metric's bound
and a third of it. ``--json PATH`` also writes every run's values.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import metrics  # noqa: E402
from stats import median, quartile_spread  # noqa: E402


def _seeds(text: str):
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument(
        "--seconds", default=None,
        help="run length; default: run_seconds from BENCHMARK.json",
    )
    parser.add_argument("--json", default=None)
    args = parser.parse_args(argv)
    if args.seconds is None:
        with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json"),
                  encoding="utf-8") as handle:
            args.seconds = str(json.load(handle)["run_seconds"])

    runs = []
    for seed in _seeds(args.seeds):
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"),
             "--workload", args.workload, "--seed", str(seed),
             "--seconds", args.seconds, "--trace", "0"],
            capture_output=True, text=True, check=False,
        )
        last = proc.stdout.strip().splitlines()[-1] if proc.stdout else ""
        report = json.loads(last) if last.startswith("{") else None
        if proc.returncode != 0 or report is None or not report["correct"]:
            print(proc.stdout[-2000:], proc.stderr[-2000:], file=sys.stderr)
            return 1
        values = {k: v["value"] for k, v in report["metrics"].items()}
        runs.append({"seed": seed, "metrics": values})
        print(f"seed {seed}: " + " ".join(
            f"{k}={v:.4g}" for k, v in values.items()), flush=True)

    print(f"{'metric':18s} {'median':>12s} {'spread':>8s} "
          f"{'bound':>6s} {'third':>6s}")
    for name, (_, _, bound) in metrics.END_TO_END.items():
        values = [run["metrics"][name] for run in runs]
        spread = quartile_spread(values) if len(values) > 1 else 0.0
        flag = "" if spread < bound / 3 else "  <-- above a third"
        print(f"{name:18s} {median(values):12.5g} {spread:8.4f} "
              f"{bound:6.3f} {bound / 3:6.3f}{flag}")
    if args.json:
        with open(args.json, "w", encoding="utf-8") as handle:
            json.dump(runs, handle, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main())
