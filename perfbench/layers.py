"""Which entry points the traced run wraps, and the per-layer metrics
their spans give.

The same patches run in the benchmark process (library workloads) and
inside the server process (``serve_traced.py``), so both report layers
the same way.
"""

from __future__ import annotations

from typing import Dict

import repro.analytics as analytics_module
from repro.core.assignment import TaskAssigner, kernel_rows_evaluated
from repro.core.incremental import IncrementalTruthInference
from repro.core.serving import AssignmentIndex
from repro.core.truth_inference import TruthInference
from repro.platform.journal import AnswerJournal
from repro.platform.sqlite_storage import SqliteSystemDatabase
from repro.system import DocsSystem
from repro.system.ingest import IngestPipeline

from trace import Tracer

#: Layers whose self time is reported, by module name.
SELF_TIMED = (
    "docs_system", "assignment", "serving", "incremental",
    "truth_inference", "journal", "sqlite_storage",
)


def _ingest_note(report, *args, **kwargs) -> Dict[str, float]:
    return {
        "ingest.link_s": report.link_seconds,
        "ingest.dve_s": report.estimate_seconds,
        "ingest.store_s": report.store_seconds,
        "ingest.register_s": report.register_seconds,
        "ingest.entities": report.entities,
    }


def _close_note(_, system, *args, **kwargs) -> Dict[str, int]:
    """The serving index's counters, and the process's kernel rows so
    far, as a campaign closes: how a server reports them at exit."""
    stats = system.serving_index.stats()
    return {
        "serving.cold_builds": stats["cold_builds"],
        "serving.warm_hits": stats["warm_hits"],
        "serving.rows_repaired": stats["rows_repaired"],
        "assignment.kernel_rows": kernel_rows_evaluated(),
    }


def install(tracer: Tracer) -> None:
    """Patch each layer's public entry points to record spans."""
    for attr in (
        "prepare", "needs_bootstrap", "bootstrap", "assign", "assign_many",
        "submit", "finalize", "checkpoint", "flush_journal",
        "hot_state_digest", "analytics",
    ):
        tracer.wrap(DocsSystem, attr, f"docs_system.{attr}")
    tracer.wrap(DocsSystem, "close", "docs_system.close",
                on_result=_close_note)
    tracer.wrap(IngestPipeline, "ingest", "ingest.ingest",
                on_result=_ingest_note)
    tracer.wrap(TaskAssigner, "assign", "assignment.assign",
                on_result=lambda picks, *a, **k: 1)
    tracer.wrap(TaskAssigner, "assign_many", "assignment.assign_many",
                on_result=lambda picks, *a, **k: len(picks))
    tracer.wrap(AssignmentIndex, "select", "serving.select")
    tracer.wrap(IncrementalTruthInference, "submit", "incremental.submit")
    tracer.wrap(IncrementalTruthInference, "resync_from_arena_result",
                "incremental.resync")
    tracer.wrap(
        TruthInference, "infer_from_log", "truth_inference.infer_from_log",
        on_result=lambda result, self, log, *a, **k: [
            result.iterations, len(log)
        ],
    )
    tracer.wrap(AnswerJournal, "flush", "journal.flush",
                on_result=lambda rows, *a, **k: rows)
    tracer.wrap(AnswerJournal, "flush_in_transaction",
                "journal.flush_in_transaction",
                on_result=lambda rows, *a, **k: rows)
    tracer.wrap(SqliteSystemDatabase, "write_snapshot",
                "sqlite_storage.write_snapshot")
    tracer.wrap(SqliteSystemDatabase, "load_snapshot",
                "sqlite_storage.load_snapshot")
    tracer.wrap(analytics_module, "run_query", "analytics.run_query")


def span_metrics(tracer: Tracer) -> Dict[str, float]:
    """Counts, busy seconds and self times from one stretch of spans."""
    assigns = tracer.noted("assignment.assign") + tracer.noted(
        "assignment.assign_many"
    )
    reruns = tracer.noted("truth_inference.infer_from_log")
    flushed = tracer.noted("journal.flush") + tracer.noted(
        "journal.flush_in_transaction"
    )
    out = {
        "assignment.calls": sum(assigns),
        "assignment.s": tracer.total("assignment.assign")
        + tracer.total("assignment.assign_many"),
        "incremental.calls": tracer.count("incremental.submit"),
        "incremental.s": tracer.total("incremental.submit"),
        "truth_inference.reruns": len(reruns),
        "truth_inference.s": tracer.total("truth_inference.infer_from_log"),
        "truth_inference.iterations": sum(it for it, _ in reruns),
        "truth_inference.answers_scanned": sum(n for _, n in reruns),
        "journal.flushes": sum(1 for rows in flushed if rows),
        "journal.rows": sum(flushed),
        "journal.flush_s": tracer.total("journal.flush")
        + tracer.total("journal.flush_in_transaction"),
        "sqlite_storage.snapshots": tracer.count(
            "sqlite_storage.write_snapshot"
        ),
        "sqlite_storage.snapshot_s": tracer.total(
            "sqlite_storage.write_snapshot"
        ),
    }
    self_times = tracer.self_times()
    for layer in SELF_TIMED:
        out[f"{layer}.self_s"] = self_times.get(layer, 0.0)
    return out
