"""Smoke test of the benchmark itself, at tiny sizes (about a minute).

    python3 perfbench/smoke.py          # or: python3 -m pytest perfbench/smoke.py

Checks that every metric ``BENCHMARK.json`` names is emitted, with its
unit, by each workload on an untraced and a traced run; that the output
checks pass on a healthy run and trip on deliberately corrupted
outputs; that traced counts repeat for a fixed seed; and that
``run.py`` fails without printing a result when the repo's sources are
missing.

Tiny runs have too few samples for the tail rule, so the smoke test
lowers ``stats.MIN_BEYOND`` to 1 for its own runs.
"""

from __future__ import annotations

import contextlib
import copy
import io
import json
import os
import shutil
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import numpy as np  # noqa: E402

import checks  # noqa: E402
import library  # noqa: E402
import metrics  # noqa: E402
import run  # noqa: E402
import service  # noqa: E402
import stats  # noqa: E402

TINY = {
    library: {
        "TASKS_PER_DOMAIN": 25, "WORKERS": 8, "ANSWERS_PER_TASK": 4,
        "CAMPAIGNS": 2, "SETUPS_BETWEEN": 1, "FINALIZE_REPS": 2,
        "RESTART_REPS": 2,
    },
    service: {
        "TASKS_PER_DOMAIN": 25, "WORKERS": 6, "REFERENCE_RATE": 10.0,
        "ROUNDS": 2, "SATURATION_ARRIVALS": 10, "LADDER": (1.0, 2.0),
        "STEP_SECONDS": 2.5, "SETUPS_AROUND": 1, "FINALIZE_REPS": 2,
    },
    # Tiny runs have too few samples for the tail rule.
    stats: {"MIN_BEYOND": 1},
}


@contextlib.contextmanager
def tiny():
    """Shrink every workload for the duration of the block."""
    saved = {
        module: {key: getattr(module, key) for key in values}
        for module, values in TINY.items()
    }
    for module, values in TINY.items():
        for key, value in values.items():
            setattr(module, key, value)
    try:
        yield
    finally:
        for module, values in saved.items():
            for key, value in values.items():
                setattr(module, key, value)


def _run_main(workload: str, trace: int):
    out = io.StringIO()
    with tiny(), contextlib.redirect_stdout(out):
        code = run.main(
            ["--workload", workload, "--seed", "3", "--seconds", "2",
             "--trace", str(trace)]
        )
    lines = out.getvalue().strip().splitlines()
    return code, json.loads(lines[-1]), lines


def test_benchmark_json_matches_metrics():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        spec = json.load(f)
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    e2e = {m["name"]: m for m in spec["end_to_end"]}
    assert set(e2e) == set(metrics.END_TO_END)
    for name, (unit, better, bound) in metrics.END_TO_END.items():
        assert (e2e[name]["unit"], e2e[name]["better"], e2e[name]["bound"]) \
            == (unit, better, bound), name
    layer = {m["name"]: m for m in spec["per_layer"]}
    assert set(layer) == set(metrics.PER_LAYER)
    for name, (unit, better) in metrics.PER_LAYER.items():
        assert (layer[name]["unit"], layer[name]["better"]) == (unit, better)


def test_every_metric_emitted_with_its_unit():
    for workload in run.WORKLOADS:
        for trace, chosen in ((0, metrics.END_TO_END), (1, metrics.PER_LAYER)):
            code, report, lines = _run_main(workload, trace)
            assert code == 0, "\n".join(lines)
            assert report["correct"] is True
            assert set(report) == {"correct", "attempted", "failed", "metrics"}
            assert report["attempted"] >= 1 and report["failed"] == 0
            assert set(report["metrics"]) == set(chosen), workload
            for name, metric in report["metrics"].items():
                assert metric["unit"] == metrics.unit(name)
                assert np.isfinite(metric["value"])
            if trace:
                values = report["metrics"]
                assert values["recon.index_lookups"]["value"] == 0
                assert values["recon.count_mismatches"]["value"] == 0
                assert values["assignment.calls"]["value"] > 0
                assert values["assignment.kernel_rows"]["value"] > 0
                assert values["serving.cold_builds"]["value"] > 0
                assert values["trace.loop_s"]["value"] > 0
                if workload == "service":
                    assert values["capacity_rps"]["value"] > 0
            else:
                assert all(m["value"] > 0 for m in report["metrics"].values())


def _healthy_outcome() -> checks.Outcome:
    os.makedirs(run.OUTDIR, exist_ok=True)
    with tiny(), tempfile.TemporaryDirectory(dir=run.OUTDIR) as workdir:
        result = library.run(4, 1.0, False, workdir, workdir)
    assert len(result.outcomes) == TINY[library]["CAMPAIGNS"]
    for outcome in result.outcomes:
        assert checks.verify(outcome) == []
    return result.outcomes[0]


def test_corrupted_outputs_trip_the_checks():
    healthy = _healthy_outcome()
    healthy.acked = {(w, t) for w, hit in healthy.hits for t in hit}
    healthy.committed = set(healthy.acked)
    assert checks.verify(healthy) == []

    def corrupt(change):
        broken = copy.deepcopy(healthy)
        change(broken)
        return checks.verify(broken)

    cases = {
        "a task without a truth": lambda o: o.truths.pop(o.task_ids[0]),
        "a task assigned twice": lambda o: o.hits.append(o.hits[0]),
        "digest changed by resume": lambda o: o.digests_after.append("0"),
        "wrong restore path": lambda o: o.restore_paths.append(
            "archive-scan"),
        "an accepted answer not journaled": lambda o: setattr(
            o, "accepted_answers", o.accepted_answers + 1),
        "a bootstrap event lost": lambda o: setattr(
            o, "bootstrap_events", o.bootstrap_events + 1),
        "an acked answer not committed": lambda o: o.committed.pop(),
        "a 5xx response": lambda o: setattr(o, "server_errors", 1),
    }
    for label, change in cases.items():
        assert corrupt(change), f"checks missed: {label}"


def test_traced_counts_repeat_for_a_seed():
    counts = ("assignment.calls", "assignment.kernel_rows",
              "truth_inference.reruns", "truth_inference.iterations",
              "journal.flushes", "journal.rows", "serving.cold_builds",
              "sqlite_storage.snapshots")
    seen = []
    for _ in range(2):
        _, report, _ = _run_main("campaign", 1)
        seen.append({k: report["metrics"][k]["value"] for k in counts})
    assert seen[0] == seen[1]


def test_fails_without_the_sources():
    os.makedirs(run.OUTDIR, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=run.OUTDIR) as bare:
        shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "campaign",
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=180,
            env={k: v for k, v in os.environ.items() if k != "PYTHONPATH"},
        )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def main() -> int:
    tests = [v for k, v in sorted(globals().items()) if k.startswith("test_")]
    for test in tests:
        test()
        print(f"ok  {test.__name__}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
