"""Every metric the benchmark reports: name, unit, direction, bound.

``END_TO_END`` is what a requester or a worker sees, and each workload
reports all of it on an untraced run. ``PER_LAYER`` is what the traced
run reports; a layer a workload does not exercise reads 0 there (for
example the scheduler on ``campaign``). ``BENCHMARK.json`` at the repo
root lists the same names; the smoke test keeps the two equal.
"""

from __future__ import annotations

from typing import Dict, Tuple

from repro.analytics import QUERY_NAMES

#: name -> (unit, better, bound)
END_TO_END: Dict[str, Tuple[str, str, float]] = {
    "setup_s": ("s", "lower", 0.25),
    "answers_per_s": ("1/s", "higher", 0.25),
    "assign_p50_ms": ("ms", "lower", 0.25),
    "assign_tail_ms": ("ms", "lower", 0.25),
    "submit_p50_ms": ("ms", "lower", 0.25),
    "submit_tail_ms": ("ms", "lower", 0.25),
    "accuracy": ("share", "higher", 0.075),
    "peak_rss_mb": ("MB", "lower", 0.1),
}


def analytics_metric(query: str) -> str:
    """Per-layer metric name of one ``repro.analytics`` query."""
    return "analytics." + query.replace("-", "_") + "_s"


#: name -> (unit, better)
PER_LAYER: Dict[str, Tuple[str, str]] = {
    # End-to-end in nature, but unbounded: the final full TI's EM runs
    # a data-dependent number of iterations, so its time moved by a
    # third from seed to seed on the service's 300-task campaign.
    "finalize_s": ("s", "lower"),
    # Reads of the closed campaign file, and service-only outcomes.
    # These are end-to-end in nature but exist on some workloads only.
    "resume_s": ("s", "lower"),
    "analytics_s": ("s", "lower"),
    "db_bytes_per_answer": ("B", "lower"),
    "failed_share": ("share", "lower"),
    "capacity_rps": ("1/s", "higher"),
    # Ingest (IngestReport of IngestPipeline.ingest).
    "ingest.link_s": ("s", "lower"),
    "ingest.dve_s": ("s", "lower"),
    "ingest.store_s": ("s", "lower"),
    "ingest.register_s": ("s", "lower"),
    "ingest.entities": ("count", "lower"),
    # Eq. 8 assignment and the serving index.
    "assignment.calls": ("count", "lower"),
    "assignment.s": ("s", "lower"),
    "assignment.kernel_rows": ("count", "lower"),
    "serving.warm_hits": ("count", "higher"),
    "serving.cold_builds": ("count", "lower"),
    "serving.hit_ratio": ("share", "higher"),
    "serving.rows_repaired": ("count", "lower"),
    # Truth inference: incremental (Sec. 4.2) and the every-z rerun.
    "incremental.calls": ("count", "lower"),
    "incremental.s": ("s", "lower"),
    "truth_inference.reruns": ("count", "lower"),
    "truth_inference.s": ("s", "lower"),
    "truth_inference.iterations": ("count", "lower"),
    "truth_inference.answers_scanned": ("count", "lower"),
    # Durability.
    "journal.flushes": ("count", "lower"),
    "journal.rows": ("count", "lower"),
    "journal.flush_s": ("s", "lower"),
    "sqlite_storage.snapshots": ("count", "lower"),
    "sqlite_storage.snapshot_s": ("s", "lower"),
    "sqlite_storage.load_s": ("s", "lower"),
    # Service plane, from GET /metricsz and the load generator.
    "scheduler.max_depth": ("count", "lower"),
    "scheduler.rejected_429": ("count", "lower"),
    "scheduler.submit_batch_mean": ("count", "higher"),
    "scheduler.assign_p50_ms": ("ms", "lower"),
    "scheduler.submit_p50_ms": ("ms", "lower"),
    "http.overhead_ms": ("ms", "lower"),
    "loadgen.late_p50_ms": ("ms", "lower"),
    "loadgen.late_max_ms": ("ms", "lower"),
    # Self time per layer over the campaign loop.
    "docs_system.self_s": ("s", "lower"),
    "assignment.self_s": ("s", "lower"),
    "serving.self_s": ("s", "lower"),
    "incremental.self_s": ("s", "lower"),
    "truth_inference.self_s": ("s", "lower"),
    "journal.self_s": ("s", "lower"),
    "sqlite_storage.self_s": ("s", "lower"),
    "crowd.s": ("s", "lower"),
    # How much of the loop the layers explain, and what tracing costs.
    "trace.loop_s": ("s", "lower"),
    "trace.coverage": ("share", "higher"),
    "trace.overhead_answers_per_s": ("1/s", "higher"),
    # Reconciliation: 0 when the counters agree.
    "recon.index_lookups": ("count", "lower"),
    "recon.count_mismatches": ("count", "lower"),
}
PER_LAYER.update(
    {analytics_metric(q): ("s", "lower") for q in QUERY_NAMES}
)


def unit(name: str) -> str:
    if name in END_TO_END:
        return END_TO_END[name][0]
    return PER_LAYER[name][0]
