"""Serving-path and ingest-plane benchmarks against their snapshots.

**Serving path** (the arena PR's ≥5x criterion): drives an identical
simulated campaign — workers arrive round-robin, each gets a
benefit-ranked HIT, submits answers, and the full iterative TI re-runs
every ``z`` submissions — through two implementations:

- **arena**: the structure-of-arrays serving path
  (:class:`repro.core.incremental.IncrementalTruthInference` over a
  :class:`repro.core.arena.StateArena`, arena-direct assignment,
  :meth:`TruthInference.infer_from_log` re-runs);
- **legacy**: the pre-arena per-object path, snapshotted verbatim in
  :mod:`repro.core.reference` — per-object incremental updates,
  candidate-list assignment that stacks task state per arrival and
  evaluates the old 4-D benefit tensor, and full-TI re-runs that
  re-index the whole answer list per call.

Both paths make identical HIT selections and draw identical simulated
answers, so their inferred truths must match exactly — checked on every
run. Reported per path: mean/worst assign latency, submit throughput,
mean full-rerun time, and end-to-end wall time.

**Ingest plane** (the staged-pipeline PR's ≥3x criterion at n = 10K):
runs ``prepare`` — entity linking + DVE + task store + arena
registration — over a synthetic KB-linked task workload through:

- **pipeline**: :class:`repro.system.ingest.IngestPipeline` (batch
  linking over a shared candidate cache, vectorised DVE, bulk store,
  one arena block write);
- **legacy**: the pre-pipeline per-task loop — uncached sequential
  ``link``, the Algorithm 1 dictionary DP
  (:func:`repro.core.reference.reference_domain_vector`), per-task
  inserts and arena appends — exactly what ``DocsSystem.prepare`` did
  before the pipeline.

Both must produce numerically identical domain vectors — checked on
every run.

**Durability plane** (the sqlite-journal PR's <10% criterion at
n = 10K): runs the identical arena campaign twice, once writing every
answer to the in-memory :class:`repro.platform.storage.AnswerTable`
(what ``DocsSystem(storage="memory")`` does on submit) and once through
the write-behind :class:`repro.platform.journal.AnswerJournal` into a
real SQLite file (``DocsSystem(storage="sqlite")``), final checkpoint
included. Both runs must infer identical truths, and the journal must
pass its integrity check afterwards.

**Resume plane** (the snapshot PR's ≥5x criterion at n = 10K): runs a
journaled ``DocsSystem`` campaign to completion (final snapshot written
on close), then rebuilds it twice with ``DocsSystem.resume``: once from
the compacted snapshot (load + empty tail), and once by full journal
replay (the snapshot rows are deleted first). Both rebuilds must hold
identical hot state — checked on every run.

**Serve plane** (the AssignmentIndex PR's criteria: ≥5x per-arrival
assign at n = 100K with a warm index, never slower at n = 10K): builds
a campaign-warm arena at n, then measures per-arrival assign latency
for a stable-quality worker while a trickle of answers from other
workers dirties a handful of rows between arrivals — the steady-state
read-heavy serving shape. Each arrival runs through both the
brute-force path (full-pool `arena_benefits` + mask) and the warm
:class:`repro.core.serving.AssignmentIndex` (cached benefit column
repaired on only the dirty rows, lazy top-k frontier); the picks must
be identical on every arrival.

Usage::

    PYTHONPATH=src python benchmarks/bench_perf.py --smoke   # CI gate
    PYTHONPATH=src python benchmarks/bench_perf.py           # full, writes
                                                             # BENCH_perf.json
"""

from __future__ import annotations

import argparse
import json
import multiprocessing
import os
import pathlib
import platform
import sys
import tempfile
import time
from collections import defaultdict
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from repro.core.arena import AnswerLog
from repro.core.assignment import TaskAssigner
from repro.core.incremental import IncrementalTruthInference
from repro.core.quality_store import WorkerQualityStore
from repro.core.reference import (
    ReferenceIncrementalTruthInference,
    reference_assign,
    reference_domain_vector,
    reference_infer,
)
from repro.core.serving import AssignmentIndex
from repro.core.shared_arena import SharedStateArena
from repro.core.truth_inference import TruthInference
from repro.core.types import Answer, Task
from repro.kb.concept import Concept
from repro.kb.knowledge_base import KnowledgeBase
from repro.kb.taxonomy import DomainTaxonomy
from repro.linking import EntityLinker
from repro.platform.sqlite_storage import SqliteSystemDatabase
from repro.platform.storage import AnswerTable, SystemDatabase
from repro.system.ingest import IngestPipeline
from repro.system.parallel import ServingPool
from repro.utils.math import uniform_distribution
from repro.utils.rng import make_rng

NUM_DOMAINS = 20
NUM_CHOICES = 2
NUM_WORKERS = 60
#: Ingest workload shape: how many distinct entity surfaces the tasks
#: mention and how many senses each surface carries (ambiguity drives
#: candidate-set sizes, like the paper's top-c cutoffs).
NUM_SURFACES = 300
VOCABULARY = 600
DEFAULT_OUT = pathlib.Path(__file__).resolve().parent.parent / (
    "BENCH_perf.json"
)


def _make_tasks(n: int, rng) -> List[Task]:
    return [
        Task(
            task_id=i,
            text=f"bench task {i}",
            num_choices=NUM_CHOICES,
            domain_vector=rng.dirichlet(np.ones(NUM_DOMAINS)),
            ground_truth=1,
        )
        for i in range(n)
    ]


def _seed_store(rng) -> Dict[str, np.ndarray]:
    return {
        f"w{j}": rng.uniform(0.4, 0.95, size=NUM_DOMAINS)
        for j in range(NUM_WORKERS)
    }


def _make_ingest_kb(rng) -> KnowledgeBase:
    """A synthetic KB with ambiguous aliases and real context signal."""
    taxonomy = DomainTaxonomy(
        tuple(f"domain{k}" for k in range(NUM_DOMAINS))
    )
    kb = KnowledgeBase(taxonomy)
    concept_id = 0
    for s in range(NUM_SURFACES):
        senses = int(rng.integers(2, 7))
        for _ in range(senses):
            domains = frozenset(
                int(k)
                for k in rng.choice(
                    NUM_DOMAINS,
                    size=int(rng.integers(1, 4)),
                    replace=False,
                )
            )
            description = tuple(
                f"word{w}"
                for w in rng.choice(VOCABULARY, size=10, replace=False)
            )
            kb.add_concept(
                Concept(
                    concept_id=concept_id,
                    name=f"entity{s}",
                    domain_indices=domains,
                    description=description,
                    commonness=float(rng.uniform(0.1, 1.0)),
                )
            )
            concept_id += 1
    return kb


def _make_ingest_tasks(n: int, rng) -> List[Task]:
    """Tasks whose texts mention 2-4 KB entities plus context words."""
    tasks = []
    for i in range(n):
        mentions = rng.choice(
            NUM_SURFACES, size=int(rng.integers(2, 5)), replace=False
        )
        context = rng.choice(VOCABULARY, size=6, replace=False)
        words = [f"entity{m}" for m in mentions] + [
            f"word{c}" for c in context
        ]
        order = rng.permutation(len(words))
        tasks.append(
            Task(
                task_id=i,
                text=" ".join(words[j] for j in order),
                num_choices=NUM_CHOICES,
                ground_truth=1,
            )
        )
    return tasks


def run_prepare(
    path: str, kb: KnowledgeBase, tasks: List[Task], top_c: int = 20
) -> Dict[str, object]:
    """One full offline build (link + DVE + store + register)."""
    store = WorkerQualityStore(NUM_DOMAINS)
    engine = IncrementalTruthInference(store)
    db = SystemDatabase()
    started = time.perf_counter()
    if path == "pipeline":
        pipeline = IngestPipeline(
            db, engine, EntityLinker(kb, top_c=top_c)
        )
        report = pipeline.ingest(tasks)
        stages = {
            "link_s": report.link_seconds,
            "dve_s": report.estimate_seconds,
            "store_s": report.store_seconds,
            "register_s": report.register_seconds,
        }
    else:
        # The pre-pipeline prepare loop: one task at a time, uncached
        # linking, dictionary-DP DVE, per-row inserts.
        linker = EntityLinker(kb, top_c=top_c, candidate_cache=False)
        link_s = dve_s = store_s = register_s = 0.0
        for task in tasks:
            tic = time.perf_counter()
            entities = linker.link(task.text)
            link_s += time.perf_counter() - tic
            tic = time.perf_counter()
            if not entities:
                task.domain_vector = uniform_distribution(NUM_DOMAINS)
            else:
                raw = reference_domain_vector(entities)
                total = raw.sum()
                task.domain_vector = (
                    raw / total
                    if total > 1e-12
                    else uniform_distribution(NUM_DOMAINS)
                )
            dve_s += time.perf_counter() - tic
            tic = time.perf_counter()
            db.insert_task(task)
            store_s += time.perf_counter() - tic
            tic = time.perf_counter()
            engine.register_task(task)
            register_s += time.perf_counter() - tic
        stages = {
            "link_s": link_s,
            "dve_s": dve_s,
            "store_s": store_s,
            "register_s": register_s,
        }
    e2e_seconds = time.perf_counter() - started
    vectors = np.stack([t.domain_vector for t in tasks])
    return {"path": path, "e2e_s": e2e_seconds, **stages,
            "vectors": vectors}


def compare_prepare_at(n: int, seed: int = 11) -> Dict[str, object]:
    """Run both prepare paths on one workload size; verify agreement."""
    results = {}
    for path in ("pipeline", "legacy"):
        # Fresh KB and task objects per path: prepare mutates domain
        # vectors, and the pipeline run warms KB-level caches the
        # legacy baseline must not inherit.
        kb = _make_ingest_kb(make_rng(seed))
        tasks = _make_ingest_tasks(n, make_rng(seed + 1))
        results[path] = run_prepare(path, kb, tasks)
    if not np.allclose(
        results["pipeline"]["vectors"],
        results["legacy"]["vectors"],
        atol=1e-9,
    ):
        raise AssertionError(
            f"n={n}: pipeline and legacy prepare disagree on domain "
            "vectors"
        )
    summary = {
        "num_tasks": n,
        "num_domains": NUM_DOMAINS,
        "speedup_e2e": (
            results["legacy"]["e2e_s"] / results["pipeline"]["e2e_s"]
        ),
    }
    for path in ("pipeline", "legacy"):
        for key in ("e2e_s", "link_s", "dve_s", "store_s", "register_s"):
            summary[f"{key}_{path}"] = results[path][key]
    return summary


def _report_prepare(summary: Dict[str, object]) -> None:
    print(
        f"prepare n={summary['num_tasks']:>6d}  "
        f"link {summary['link_s_legacy']:7.2f} -> "
        f"{summary['link_s_pipeline']:6.2f} s   "
        f"dve {summary['dve_s_legacy']:7.2f} -> "
        f"{summary['dve_s_pipeline']:6.2f} s   "
        f"e2e {summary['e2e_s_legacy']:7.2f} -> "
        f"{summary['e2e_s_pipeline']:6.2f} s   "
        f"({summary['speedup_e2e']:.1f}x)"
    )


def run_campaign(
    path: str,
    tasks: List[Task],
    worker_qualities: Dict[str, np.ndarray],
    answers_per_task: int,
    hit_size: int,
    rerun_every: int,
    seed: int,
    answer_table_factory: Optional[Callable] = None,
    max_submissions: Optional[int] = None,
) -> Dict[str, object]:
    """One full campaign on the chosen implementation path.

    ``answer_table_factory(arena)`` optionally builds an answer store
    that every submit also writes to (mirroring ``DocsSystem.submit``'s
    database insert); its final ``checkpoint()``, if any, is counted in
    the end-to-end time.
    """
    rng = make_rng(seed)
    store = WorkerQualityStore(NUM_DOMAINS)
    for worker_id, quality in worker_qualities.items():
        store.set(worker_id, quality, np.full(NUM_DOMAINS, 2.0))
    golden_init = {w: q.copy() for w, q in worker_qualities.items()}

    if path == "arena":
        engine = IncrementalTruthInference(store)
    else:
        engine = ReferenceIncrementalTruthInference(store)
    for task in tasks:
        engine.register_task(task)
    log = AnswerLog(engine.arena) if path == "arena" else None
    answers: List[Answer] = []

    assigner = TaskAssigner(hit_size=hit_size)
    ti = TruthInference()
    pool = engine.arena if path == "arena" else engine.states()
    answer_table = (
        answer_table_factory(engine.arena)
        if answer_table_factory is not None
        else None
    )

    budget = len(tasks) * answers_per_task
    if max_submissions is not None:
        budget = min(budget, max_submissions)
    answered_by = defaultdict(set)
    assign_times: List[float] = []
    rerun_times: List[float] = []
    submit_seconds = 0.0
    submissions = 0
    arrival = 0
    consecutive_empty = 0
    started_e2e = time.perf_counter()

    while submissions < budget and consecutive_empty <= NUM_WORKERS:
        worker_id = f"w{arrival % NUM_WORKERS}"
        arrival += 1
        quality = store.blended_quality(worker_id)
        k = min(hit_size, budget - submissions)
        tic = time.perf_counter()
        if path == "arena":
            hit = assigner.assign(
                pool, quality,
                answered_by_worker=answered_by[worker_id], k=k,
            )
        else:
            hit = reference_assign(
                pool, quality,
                answered_by_worker=answered_by[worker_id], k=k,
            )
        assign_times.append(time.perf_counter() - tic)
        if not hit:
            consecutive_empty += 1
            continue
        consecutive_empty = 0
        for task_id in hit:
            choice = int(rng.integers(1, NUM_CHOICES + 1))
            answer = Answer(worker_id, task_id, choice)
            if answer_table is not None:
                answer_table.insert(answer)
            tic = time.perf_counter()
            engine.submit(answer)
            submit_seconds += time.perf_counter() - tic
            answered_by[worker_id].add(task_id)
            if log is not None:
                log.append(answer)
            else:
                answers.append(answer)
            submissions += 1
            if submissions % rerun_every == 0:
                tic = time.perf_counter()
                if log is not None:
                    result = ti.infer_from_log(
                        log, initial_qualities=golden_init
                    )
                    engine.resync_from_arena_result(result)
                else:
                    result = reference_infer(
                        tasks, answers, initial_qualities=golden_init
                    )
                    engine.resync_from_full_inference(
                        result.probabilistic_truths,
                        result.truth_matrices,
                        result.worker_qualities,
                        result.worker_weights,
                    )
                rerun_times.append(time.perf_counter() - tic)

    if answer_table is not None and hasattr(answer_table, "checkpoint"):
        answer_table.checkpoint()
    e2e_seconds = time.perf_counter() - started_e2e
    truths = {
        task_id: state.inferred_truth()
        for task_id, state in engine.states().items()
    }
    return {
        "path": path,
        "submissions": submissions,
        "arrivals": arrival,
        "reruns": len(rerun_times),
        "assign_mean_ms": 1e3 * float(np.mean(assign_times)),
        "assign_max_ms": 1e3 * float(np.max(assign_times)),
        "submit_per_s": (
            submissions / submit_seconds if submit_seconds else 0.0
        ),
        "rerun_mean_s": (
            float(np.mean(rerun_times)) if rerun_times else 0.0
        ),
        "e2e_s": e2e_seconds,
        "truths": truths,
    }


def compare_at(
    n: int,
    answers_per_task: int,
    hit_size: int,
    rerun_every: int,
    seed: int = 7,
    max_submissions: Optional[int] = None,
) -> Dict[str, object]:
    """Run both paths on one workload size; verify identical inference.

    ``max_submissions`` caps the campaign length: at n = 100K a full
    2-answers-per-task legacy campaign would run for hours, so the
    large point drives both paths through an identical *partial*
    campaign over the full-size pool (per-arrival costs are what scale
    with n; the cap is recorded in the summary).
    """
    rng = make_rng(seed)
    tasks = _make_tasks(n, rng)
    worker_qualities = _seed_store(rng)
    results = {}
    for path in ("arena", "legacy"):
        results[path] = run_campaign(
            path,
            tasks,
            worker_qualities,
            answers_per_task=answers_per_task,
            hit_size=hit_size,
            rerun_every=rerun_every,
            seed=seed + 1,
            max_submissions=max_submissions,
        )
    if results["arena"]["truths"] != results["legacy"]["truths"]:
        raise AssertionError(
            f"n={n}: arena and legacy paths disagree on inferred truths"
        )
    if results["arena"]["submissions"] != results["legacy"]["submissions"]:
        raise AssertionError(
            f"n={n}: campaign shapes diverged between paths"
        )
    summary = {
        "num_tasks": n,
        "num_domains": NUM_DOMAINS,
        "num_choices": NUM_CHOICES,
        "answers_per_task": answers_per_task,
        "hit_size": hit_size,
        "rerun_every": rerun_every,
        "submissions": results["arena"]["submissions"],
        "max_submissions": max_submissions,
        "speedup_e2e": (
            results["legacy"]["e2e_s"] / results["arena"]["e2e_s"]
        ),
    }
    for path in ("arena", "legacy"):
        for key in (
            "assign_mean_ms",
            "assign_max_ms",
            "submit_per_s",
            "rerun_mean_s",
            "e2e_s",
            "reruns",
        ):
            summary[f"{key}_{path}"] = results[path][key]
    return summary


def compare_durability_at(
    n: int,
    answers_per_task: int,
    hit_size: int,
    rerun_every: int,
    seed: int = 7,
    batch_size: int = 256,
) -> Dict[str, object]:
    """Measure the sqlite journal's overhead on the serving path.

    Identical arena campaigns, one writing answers to the in-memory
    table, one through the write-behind journal into a real file (final
    checkpoint included). Verifies identical truths and a valid journal.
    """
    rng = make_rng(seed)
    tasks = _make_tasks(n, rng)
    worker_qualities = _seed_store(rng)
    results = {}
    with tempfile.TemporaryDirectory() as tmp:
        db_holder: List[SqliteSystemDatabase] = []

        def memory_factory(arena):
            return AnswerTable()

        def sqlite_factory(arena):
            db = SqliteSystemDatabase(
                str(pathlib.Path(tmp) / "bench.db"),
                journal_batch_size=batch_size,
            )
            db.answers.bind_row_resolver(arena.global_row)
            db_holder.append(db)
            return db.answers

        for mode, factory in (
            ("memory", memory_factory),
            ("sqlite", sqlite_factory),
        ):
            results[mode] = run_campaign(
                "arena",
                tasks,
                worker_qualities,
                answers_per_task=answers_per_task,
                hit_size=hit_size,
                rerun_every=rerun_every,
                seed=seed + 1,
                answer_table_factory=factory,
            )
        db = db_holder[0]
        journal_rows = len(db.journal)
        db.journal.validate()
        db.close()
    if results["memory"]["truths"] != results["sqlite"]["truths"]:
        raise AssertionError(
            f"n={n}: journaled and in-memory campaigns disagree on truths"
        )
    if journal_rows != results["sqlite"]["submissions"]:
        raise AssertionError(
            f"n={n}: journal holds {journal_rows} rows for "
            f"{results['sqlite']['submissions']} submissions"
        )
    overhead = (
        results["sqlite"]["e2e_s"] / results["memory"]["e2e_s"] - 1.0
    )
    return {
        "num_tasks": n,
        "batch_size": batch_size,
        "submissions": results["sqlite"]["submissions"],
        "e2e_s_memory": results["memory"]["e2e_s"],
        "e2e_s_sqlite": results["sqlite"]["e2e_s"],
        "overhead_pct": 100.0 * overhead,
    }


def compare_resume_at(
    n: int,
    answers_per_task: int,
    rerun_every: int,
    seed: int = 7,
    batch_size: int = 256,
) -> Dict[str, object]:
    """Measure snapshot-load resume vs full journal replay.

    One journaled campaign is written (precomputed domain vectors, no
    golden pre-test — replay cost is the serving plane: per-answer
    incremental TI plus the every-z full re-runs), then resumed twice:
    from its close-time snapshot, and — after deleting the snapshot
    rows — by replaying every journal event. Both resumed systems must
    hold identical task states and worker qualities.
    """
    import sqlite3

    from repro.datasets.base import CrowdDataset, DatasetDomain
    from repro.kb.taxonomy import DomainTaxonomy
    from repro.system import DocsConfig, DocsSystem

    rng = make_rng(seed)
    tasks = _make_tasks(n, rng)
    taxonomy = DomainTaxonomy(
        tuple(f"domain{k}" for k in range(NUM_DOMAINS))
    )
    dataset = CrowdDataset(
        name="bench-resume",
        tasks=tasks,
        kb=KnowledgeBase(taxonomy),
        domains=[DatasetDomain("bench", "domain0", 0)],
        task_labels=["bench"] * n,
    )
    config = DocsConfig(
        golden_count=0,
        rerun_interval=rerun_every,
        journal_batch_size=batch_size,
        snapshot_every_batches=0,  # one snapshot, written on close
    )
    with tempfile.TemporaryDirectory() as tmp:
        path = str(pathlib.Path(tmp) / "resume.db")
        system = DocsSystem(config, storage="sqlite", path=path)
        system.prepare(dataset)
        submissions = 0
        for task in tasks:
            for j in range(answers_per_task):
                worker = f"w{(task.task_id + j) % NUM_WORKERS}"
                choice = 1 + (task.task_id * 3 + j) % NUM_CHOICES
                system.submit(Answer(worker, task.task_id, choice))
                submissions += 1
        system.close()

        tic = time.perf_counter()
        fast = DocsSystem.resume(path, config=config)
        snapshot_seconds = time.perf_counter() - tic
        if fast.resume_info["snapshot_seq"] is None:
            raise AssertionError(
                f"n={n}: close() left no usable snapshot to resume from"
            )

        conn = sqlite3.connect(path)
        for table in (
            "snapshot_meta", "snapshot_groups", "snapshot_workers",
            "snapshot_answer_index",
        ):
            conn.execute(f"DELETE FROM {table}")
        conn.commit()
        conn.close()
        tic = time.perf_counter()
        slow = DocsSystem.resume(path, config=config)
        replay_seconds = time.perf_counter() - tic
        if slow.resume_info["snapshot_seq"] is not None:
            raise AssertionError(
                f"n={n}: replay path unexpectedly found a snapshot"
            )

        for task in tasks:
            f_state = fast._incremental.state(task.task_id)
            s_state = slow._incremental.state(task.task_id)
            if not np.array_equal(f_state.s, s_state.s) or (
                not np.array_equal(f_state.M, s_state.M)
            ):
                raise AssertionError(
                    f"n={n}: snapshot and replay resume disagree on "
                    f"task {task.task_id}"
                )
        f_workers = sorted(fast.quality_store.known_workers())
        if f_workers != sorted(slow.quality_store.known_workers()):
            raise AssertionError(
                f"n={n}: snapshot and replay resume know different "
                "workers"
            )
        for worker in f_workers:
            if not np.array_equal(
                fast.quality_store.get(worker).quality,
                slow.quality_store.get(worker).quality,
            ):
                raise AssertionError(
                    f"n={n}: snapshot and replay resume disagree on "
                    f"worker {worker}"
                )
        fast.close()
        slow.close()
    return {
        "num_tasks": n,
        "submissions": submissions,
        "rerun_every": rerun_every,
        "batch_size": batch_size,
        "snapshot_load_s": snapshot_seconds,
        "full_replay_s": replay_seconds,
        "speedup_resume": replay_seconds / snapshot_seconds,
    }


def _build_archived_campaign(
    path: str,
    n_tasks: int,
    archived: int,
    tail: int,
    carry_index: bool,
    seed: int = 7,
):
    """Write a campaign file with ``archived`` answers behind the
    snapshot watermark and ``tail`` live journal rows after it.

    The archived prefix enters the journal, the answer table, and the
    arena log directly — skipping per-answer TI, whose cost is not what
    the resume benchmark measures; the snapshot written by
    ``checkpoint()`` captures exactly this state, so it is
    self-consistent. The tail runs through real ``submit`` calls. The
    file is then abandoned un-closed (journal flushed), so resume must
    replay the tail rather than find a close-time snapshot covering it.

    The tasks the tail lands on keep a **fixed** archived-answer
    density (2 per task) at every archive size; the rest of the
    archive spreads over the other tasks. Replaying a tail answer
    re-weights every prior answerer of its task — serving-path work a
    live campaign pays identically — so holding the tail's history
    density constant isolates what the sweep is after: how resume cost
    itself scales with the archived-answer count.

    Returns the :class:`DocsConfig` to resume with.
    """
    from repro.datasets.base import CrowdDataset, DatasetDomain
    from repro.system import DocsConfig, DocsSystem

    if tail > n_tasks:
        raise ValueError("tail must be <= n_tasks (unique pairs)")
    rng = make_rng(seed)
    tasks = _make_tasks(n_tasks, rng)
    for task in tasks:
        task.true_domain = task.task_id % NUM_DOMAINS
    taxonomy = DomainTaxonomy(
        tuple(f"domain{k}" for k in range(NUM_DOMAINS))
    )
    dataset = CrowdDataset(
        name="bench-archive",
        tasks=tasks,
        kb=KnowledgeBase(taxonomy),
        domains=[DatasetDomain("bench", "domain0", 0)],
        task_labels=["bench"] * n_tasks,
    )
    config = DocsConfig(
        golden_count=0,
        rerun_interval=10**9,  # no full re-runs; fixed-tail cost only
        journal_batch_size=1024,
        snapshot_every_batches=0,
        truncate_journal=True,
        snapshot_carry_index=carry_index,
    )
    system = DocsSystem(config, storage="sqlite", path=path)
    system.prepare(dataset)

    # Every answerer is known to the quality store in a real campaign
    # (its first submit merges it in); the snapshot's worker table must
    # carry the synthetic answerers too, or tail replay would touch
    # unknown workers while refreshing prior answers.
    store = system.quality_store
    for worker_id, quality in _seed_store(rng).items():
        store.set(worker_id, quality, np.full(NUM_DOMAINS, 2.0))

    answers = system.database.answers
    log = system._log
    tail_density = 2
    rest = archived - tail * tail_density
    if rest < 0:
        raise ValueError("archived must cover the tail tasks' density")
    per_task, extra = divmod(rest, n_tasks - tail)
    if per_task + 1 > NUM_WORKERS:
        raise ValueError("archived too large for unique worker pairs")
    for task in tasks:
        if task.task_id < tail:
            count = tail_density
        else:
            count = per_task + (
                1 if task.task_id - tail < extra else 0
            )
        for j in range(count):
            worker = f"w{(task.task_id + j) % NUM_WORKERS}"
            choice = 1 + (task.task_id * 3 + j) % NUM_CHOICES
            answer = Answer(worker, task.task_id, choice)
            answers.insert(answer)
            log.append(answer)
    system.checkpoint()  # snapshot + archive the prefix

    for i in range(tail):
        choice = 1 + (i * 5 + 1) % NUM_CHOICES
        system.submit(Answer(f"t{i % NUM_WORKERS}", i, choice))
    db = system.database
    db.journal.flush()
    db._conn.close()
    db._closed = True  # simulated kill: no close-time snapshot
    return config


def compare_archived_resume_at(
    n_tasks: int,
    archived_counts: Tuple[int, ...],
    tail: int,
    seed: int = 7,
) -> Dict[str, object]:
    """Resume cost vs archived-answer count at a fixed live tail.

    For each archived size, two identical campaigns are written — one
    whose snapshot carries the serialised answer-log index
    (``snapshot_carry_index=True``), one without — and each is resumed.
    The index-carrying resume must take the ``index-carry`` restore
    path (no ``committed_answers_through`` scan) and its cost must stay
    flat as the archive grows; the index-less snapshot falls back to
    ``archive-scan``, whose cost grows with the archive. Both resumed
    systems must hold identical hot state and identical answer views —
    checked on every run.
    """
    from repro.system import DocsSystem

    points: List[Dict[str, object]] = []
    with tempfile.TemporaryDirectory() as tmp:
        for archived in archived_counts:
            point: Dict[str, object] = {
                "num_tasks": n_tasks,
                "archived": archived,
                "tail": tail,
            }
            resumed: Dict[str, object] = {}
            for carry in (True, False):
                label = "carry" if carry else "scan"
                path = str(
                    pathlib.Path(tmp) / f"a{archived}_{label}.db"
                )
                config = _build_archived_campaign(
                    path, n_tasks, archived, tail, carry, seed=seed
                )
                tic = time.perf_counter()
                system = DocsSystem.resume(path, config=config)
                wall = time.perf_counter() - tic
                expected = "index-carry" if carry else "archive-scan"
                got = system.resume_info["restore_path"]
                if got != expected:
                    raise AssertionError(
                        f"archived={archived}: snapshot_carry_index="
                        f"{carry} resumed via {got!r}, expected "
                        f"{expected!r}"
                    )
                point[f"resume_s_{label}"] = wall
                point[f"restore_path_{label}"] = got
                resumed[label] = system
            fast, slow = resumed["carry"], resumed["scan"]
            for task_id in range(n_tasks):
                f_state = fast._incremental.state(task_id)
                s_state = slow._incremental.state(task_id)
                if not np.array_equal(f_state.s, s_state.s) or (
                    not np.array_equal(f_state.M, s_state.M)
                ):
                    raise AssertionError(
                        f"archived={archived}: restore paths disagree "
                        f"on task {task_id}"
                    )
            f_workers = sorted(fast.quality_store.known_workers())
            if f_workers != sorted(slow.quality_store.known_workers()):
                raise AssertionError(
                    f"archived={archived}: restore paths know "
                    "different workers"
                )
            # The lazily-hydrated answer views must read identically
            # to the eagerly rebuilt ones, order included.
            step = max(1, n_tasks // 50)
            for task_id in range(0, n_tasks, step):
                if fast.database.answers.for_task(task_id) != (
                    slow.database.answers.for_task(task_id)
                ):
                    raise AssertionError(
                        f"archived={archived}: answer views diverge "
                        f"on task {task_id}"
                    )
            if len(fast.database.answers) != len(slow.database.answers):
                raise AssertionError(
                    f"archived={archived}: answer counts diverge"
                )
            fast.close()
            slow.close()
            points.append(point)
    first, last = points[0], points[-1]
    summary: Dict[str, object] = {
        "num_tasks": n_tasks,
        "tail": tail,
        "points": points,
        "archive_growth": (
            last["archived"] / first["archived"]
        ),
        "carry_cost_ratio": (
            last["resume_s_carry"] / first["resume_s_carry"]
        ),
        "scan_cost_ratio": (
            last["resume_s_scan"] / first["resume_s_scan"]
        ),
    }
    return summary


def compare_analytics_at(
    n_tasks: int,
    archived: int,
    tail: int,
    seed: int = 7,
) -> Dict[str, object]:
    """SQL-pushdown analytics vs the naive Python reference.

    Builds one archived-plus-tail campaign file, then runs every
    registered analytics query both ways. Hard failures: a result that
    is not bit-identical to the reference, or a query plan touching
    ``answers_archive``/``answers_log`` without a covering index.
    """
    from repro.analytics import QUERY_NAMES, explain_query, run_query
    from repro.analytics.reference import run_reference

    with tempfile.TemporaryDirectory() as tmp:
        path = str(pathlib.Path(tmp) / "analytics.db")
        _build_archived_campaign(
            path, n_tasks, archived, tail, carry_index=True, seed=seed
        )
        db = SqliteSystemDatabase(path, journal_batch_size=256)
        queries: Dict[str, Dict[str, object]] = {}
        try:
            conn = db._conn
            for name in QUERY_NAMES:
                uncovered = [
                    line
                    for line in explain_query(conn, name)
                    if (
                        "answers_archive" in line
                        or "answers_log" in line
                    )
                    and "USING COVERING INDEX" not in line
                ]
                if uncovered:
                    raise AssertionError(
                        f"query {name!r} plan not covered: {uncovered}"
                    )
                tic = time.perf_counter()
                pushed = run_query(conn, name)
                sql_s = time.perf_counter() - tic
                tic = time.perf_counter()
                naive = run_reference(conn, name)
                reference_s = time.perf_counter() - tic
                if pushed != naive:
                    raise AssertionError(
                        f"query {name!r}: SQL result diverged from the "
                        "Python reference"
                    )
                queries[name] = {
                    "rows": len(pushed["rows"]),
                    "sql_s": sql_s,
                    "reference_s": reference_s,
                    "speedup": reference_s / sql_s,
                }
        finally:
            db.close()
    return {
        "num_tasks": n_tasks,
        "archived": archived,
        "tail": tail,
        "answers": archived + tail,
        "queries": queries,
    }


def compare_serve_at(
    n: int,
    seed: int = 7,
    pre_answers: Optional[int] = None,
    arrivals: int = 30,
    answers_per_arrival: int = 10,
    hit_size: int = 20,
) -> Dict[str, object]:
    """Per-arrival assign latency: warm AssignmentIndex vs brute force.

    The workload isolates the steady serving state: a large answered
    pool, one worker with a stable quality vector requesting HITs, and
    a small stream of answers from *other* workers between arrivals
    (each dirties one arena row). The warm index re-evaluates only the
    dirty rows and selects from its frontier; the brute path evaluates
    the whole pool. Every arrival's picks are compared — a mismatch is
    a hard failure, the speedup is only reported for identical picks.
    """
    rng = make_rng(seed)
    tasks = _make_tasks(n, rng)
    store = WorkerQualityStore(NUM_DOMAINS)
    for worker_id, quality in _seed_store(rng).items():
        store.set(worker_id, quality, np.full(NUM_DOMAINS, 2.0))
    engine = IncrementalTruthInference(store)
    engine.register_tasks(tasks)

    # Warm the pool: scattered answers so states and benefits vary.
    # Worker j answers tasks j, j+W, j+2W, ... (no duplicate pairs);
    # capped at half the pool so the measured arrivals still have
    # unanswered (worker, task) pairs to dirty rows with.
    counters = [0] * NUM_WORKERS
    if pre_answers is None:
        pre_answers = min(n // 2, 3000)
    for i in range(pre_answers):
        j = i % NUM_WORKERS
        task_id = counters[j] * NUM_WORKERS + j
        if task_id >= n:
            break
        counters[j] += 1
        engine.submit(
            Answer(
                f"w{j}",
                task_id,
                int(rng.integers(1, NUM_CHOICES + 1)),
            )
        )

    reader_quality = rng.uniform(0.4, 0.95, size=NUM_DOMAINS)
    brute = TaskAssigner(hit_size=hit_size, masked_fraction=0.0)
    served = TaskAssigner(hit_size=hit_size)
    index = AssignmentIndex(engine.arena)
    served.attach_index(index)

    tic = time.perf_counter()
    served.assign(engine.arena, reader_quality)  # cold column build
    cold_seconds = time.perf_counter() - tic

    brute_times: List[float] = []
    index_times: List[float] = []
    for arrival in range(arrivals):
        for i in range(answers_per_arrival):
            j = (arrival * answers_per_arrival + i) % NUM_WORKERS
            task_id = counters[j] * NUM_WORKERS + j
            if task_id >= n:
                continue
            counters[j] += 1
            engine.submit(
                Answer(
                    f"w{j}",
                    task_id,
                    int(rng.integers(1, NUM_CHOICES + 1)),
                )
            )
        # Level the shared cache state: whichever path runs first would
        # otherwise absorb the dirty-row entropy refresh for both.
        engine.arena.refresh_entropies()
        tic = time.perf_counter()
        expect = brute.assign(engine.arena, reader_quality)
        brute_times.append(time.perf_counter() - tic)
        tic = time.perf_counter()
        got = served.assign(engine.arena, reader_quality)
        index_times.append(time.perf_counter() - tic)
        if got != expect:
            raise AssertionError(
                f"n={n}: warm-index picks diverged from brute force at "
                f"arrival {arrival}"
            )
    stats = index.stats()
    if stats["warm_hits"] != arrivals:
        raise AssertionError(
            f"n={n}: expected {arrivals} warm index hits, saw "
            f"{stats['warm_hits']} — the scenario did not measure the "
            "warm path"
        )
    brute_mean = float(np.mean(brute_times))
    index_mean = float(np.mean(index_times))
    return {
        "num_tasks": n,
        "num_domains": NUM_DOMAINS,
        "hit_size": hit_size,
        "arrivals": arrivals,
        "answers_per_arrival": answers_per_arrival,
        "pre_answers": pre_answers,
        "assign_mean_ms_brute": 1e3 * brute_mean,
        "assign_mean_ms_index": 1e3 * index_mean,
        "assign_max_ms_brute": 1e3 * float(np.max(brute_times)),
        "assign_max_ms_index": 1e3 * float(np.max(index_times)),
        "cold_build_ms": 1e3 * cold_seconds,
        "rows_repaired": stats["rows_repaired"],
        "frontier_selections": stats["frontier_selections"],
        "full_selections": stats["full_selections"],
        "speedup_assign": brute_mean / index_mean,
    }


def machine_metadata() -> Dict[str, object]:
    """What this run ran on — parallel speedups are meaningless without
    it (a 1-core container cannot show a 4-worker win)."""
    return {
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "numpy": np.__version__,
    }


def compare_parallel_at(
    n: int,
    seed: int = 7,
    worker_counts: Tuple[int, ...] = (1, 2, 4),
    num_qualities: int = 8,
    requests_per_pass: int = 24,
    passes: int = 4,
    pre_answers: Optional[int] = None,
    hit_size: int = 20,
) -> Dict[str, object]:
    """Aggregate warm-assign throughput of the serving pool by cores.

    Builds one campaign-warm :class:`SharedStateArena` at n, computes
    the oracle picks for a fixed request batch with a local
    single-process :class:`AssignmentIndex` over the *same* arena, then
    serves the identical batch through a :class:`ServingPool` at each
    worker count. One untimed pass warms every worker's benefit
    columns (requests are dispatched round-robin, and the batch size is
    a multiple of every worker count, so each pass routes each request
    to the same worker); the timed passes measure steady-state
    throughput. Every pick of every pass must be bit-identical to the
    oracle — a mismatch is a hard failure, not a data point.
    """
    for workers in worker_counts:
        if requests_per_pass % workers:
            raise ValueError(
                "requests_per_pass must be a multiple of every worker "
                "count (round-robin warm routing)"
            )
    rng = make_rng(seed)
    tasks = _make_tasks(n, rng)
    store = WorkerQualityStore(NUM_DOMAINS)
    for worker_id, quality in _seed_store(rng).items():
        store.set(worker_id, quality, np.full(NUM_DOMAINS, 2.0))
    arena = SharedStateArena(NUM_DOMAINS)
    try:
        engine = IncrementalTruthInference(store, arena=arena)
        engine.register_tasks(tasks)
        if pre_answers is None:
            pre_answers = min(n // 2, 3000)
        counters = [0] * NUM_WORKERS
        for i in range(pre_answers):
            j = i % NUM_WORKERS
            task_id = counters[j] * NUM_WORKERS + j
            if task_id >= n:
                break
            counters[j] += 1
            engine.submit(
                Answer(
                    f"w{j}",
                    task_id,
                    int(rng.integers(1, NUM_CHOICES + 1)),
                )
            )
        arena.refresh_entropies()

        qualities = [
            rng.uniform(0.4, 0.95, size=NUM_DOMAINS)
            for _ in range(num_qualities)
        ]
        requests = [
            (qualities[i % num_qualities], hit_size, set(), None, n)
            for i in range(requests_per_pass)
        ]
        oracle = AssignmentIndex(arena)
        expected = [oracle.select(*request) for request in requests]

        throughput: Dict[int, float] = {}
        for workers in worker_counts:
            with ServingPool(arena, workers) as pool:
                warm = pool.select_many(requests)
                if warm != expected:
                    raise AssertionError(
                        f"n={n}: {workers}-worker pool picks diverged "
                        "from the single-process oracle (warm pass)"
                    )
                tic = time.perf_counter()
                for run in range(passes):
                    batches = pool.select_many(requests)
                    if batches != expected:
                        raise AssertionError(
                            f"n={n}: {workers}-worker pool picks "
                            f"diverged from the oracle (pass {run})"
                        )
                wall = time.perf_counter() - tic
            throughput[workers] = passes * requests_per_pass / wall
    finally:
        arena.close()

    summary: Dict[str, object] = {
        "num_tasks": n,
        "num_domains": NUM_DOMAINS,
        "hit_size": hit_size,
        "requests_per_pass": requests_per_pass,
        "passes": passes,
        "distinct_qualities": num_qualities,
        "pre_answers": pre_answers,
        "picks_bit_identical": True,
    }
    for workers, value in throughput.items():
        summary[f"assign_per_s_{workers}w"] = value
    base = throughput[worker_counts[0]]
    for workers in worker_counts[1:]:
        summary[f"speedup_{workers}w_vs_{worker_counts[0]}w"] = (
            throughput[workers] / base
        )
    return summary


def compare_parallel_link_at(
    n: int,
    workers: int = 4,
    seed: int = 11,
) -> Dict[str, object]:
    """Parallel batch linking vs the sequential cached batch path.

    Entity output is a pure function of the text: the parallel batch
    must match the sequential batch entity-for-entity.
    """
    kb = _make_ingest_kb(make_rng(seed))
    texts = [
        task.text for task in _make_ingest_tasks(n, make_rng(seed + 1))
    ]

    sequential_linker = EntityLinker(kb)
    tic = time.perf_counter()
    sequential = sequential_linker.link_batch(texts)
    sequential_s = time.perf_counter() - tic

    parallel_linker = EntityLinker(kb)
    tic = time.perf_counter()
    parallel = parallel_linker.link_batch(texts, workers=workers)
    parallel_s = time.perf_counter() - tic

    for left, right in zip(parallel, sequential):
        if len(left) != len(right) or any(
            a.surface != b.surface
            or a.concept_ids != b.concept_ids
            or not np.array_equal(a.probabilities, b.probabilities)
            for a, b in zip(left, right)
        ):
            raise AssertionError(
                f"n={n}: parallel linking diverged from sequential"
            )
    return {
        "num_texts": n,
        "link_workers": workers,
        "link_s_sequential": sequential_s,
        "link_s_parallel": parallel_s,
        "speedup_link": sequential_s / parallel_s,
    }


def _report_parallel(summary: Dict[str, object]) -> None:
    per_worker = "  ".join(
        f"{key.split('_')[-1]} {summary[key]:7.0f}/s"
        for key in sorted(summary)
        if key.startswith("assign_per_s_")
    )
    speedups = "  ".join(
        f"{key.removeprefix('speedup_')} {summary[key]:.2f}x"
        for key in sorted(summary)
        if key.startswith("speedup_")
    )
    tail = f"{speedups}, picks identical" if speedups else "picks identical"
    print(
        f"parallel n={summary['num_tasks']:>6d}  {per_worker}   ({tail})"
    )


def _report_parallel_link(summary: Dict[str, object]) -> None:
    print(
        f"p-link  n={summary['num_texts']:>6d}  "
        f"{summary['link_s_sequential']:7.2f} -> "
        f"{summary['link_s_parallel']:7.2f} s   "
        f"({summary['speedup_link']:.2f}x at "
        f"{summary['link_workers']} workers)"
    )


def _report_serve(summary: Dict[str, object]) -> None:
    print(
        f"serve  n={summary['num_tasks']:>6d}  "
        f"assign {summary['assign_mean_ms_brute']:8.2f} -> "
        f"{summary['assign_mean_ms_index']:7.3f} ms   "
        f"cold {summary['cold_build_ms']:7.2f} ms   "
        f"repaired {summary['rows_repaired']:>5d} rows   "
        f"({summary['speedup_assign']:.1f}x)"
    )


def _report_resume(summary: Dict[str, object]) -> None:
    print(
        f"resume n={summary['num_tasks']:>6d}  "
        f"replay {summary['full_replay_s']:7.2f} s -> "
        f"snapshot {summary['snapshot_load_s']:6.2f} s   "
        f"({summary['speedup_resume']:.1f}x, "
        f"{summary['submissions']} answers)"
    )


def _report_archive_resume(summary: Dict[str, object]) -> None:
    for point in summary["points"]:
        print(
            f"a-resume archived={point['archived']:>7d}  "
            f"tail={point['tail']:>5d}  "
            f"scan {point['resume_s_scan']:7.2f} s -> "
            f"carry {point['resume_s_carry']:6.2f} s"
        )
    print(
        f"a-resume carry cost x{summary['carry_cost_ratio']:.2f} over "
        f"x{summary['archive_growth']:.0f} archive growth "
        f"(scan x{summary['scan_cost_ratio']:.2f})"
    )


def _report_analytics(summary: Dict[str, object]) -> None:
    for name, stats in sorted(summary["queries"].items()):
        print(
            f"analytics {name:<16s} {summary['answers']:>7d} answers  "
            f"reference {stats['reference_s']:7.3f} s -> "
            f"sql {stats['sql_s']:7.3f} s   "
            f"({stats['speedup']:.1f}x, {stats['rows']} rows, "
            "bit-identical)"
        )


def _report_durability(summary: Dict[str, object]) -> None:
    print(
        f"journal n={summary['num_tasks']:>6d}  "
        f"e2e {summary['e2e_s_memory']:7.2f} -> "
        f"{summary['e2e_s_sqlite']:7.2f} s   "
        f"(+{summary['overhead_pct']:.1f}%, "
        f"batch {summary['batch_size']})"
    )


def _report(summary: Dict[str, object]) -> None:
    print(
        f"n={summary['num_tasks']:>6d}  "
        f"assign {summary['assign_mean_ms_legacy']:8.2f} -> "
        f"{summary['assign_mean_ms_arena']:7.2f} ms   "
        f"submit {summary['submit_per_s_legacy']:9.0f} -> "
        f"{summary['submit_per_s_arena']:9.0f} /s   "
        f"rerun {summary['rerun_mean_s_legacy']:7.3f} -> "
        f"{summary['rerun_mean_s_arena']:7.3f} s   "
        f"e2e {summary['e2e_s_legacy']:7.2f} -> "
        f"{summary['e2e_s_arena']:7.2f} s   "
        f"({summary['speedup_e2e']:.1f}x)"
    )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="small, fast correctness + sanity run (CI gate); no JSON",
    )
    parser.add_argument(
        "--out",
        type=pathlib.Path,
        default=DEFAULT_OUT,
        help="full-mode output path (default: repo-root BENCH_perf.json)",
    )
    args = parser.parse_args(argv)

    if args.smoke:
        summary = compare_at(
            300, answers_per_task=2, hit_size=5, rerun_every=150
        )
        _report(summary)
        prepare_summary = compare_prepare_at(300)
        _report_prepare(prepare_summary)
        durability_summary = compare_durability_at(
            300, answers_per_task=2, hit_size=5, rerun_every=150
        )
        _report_durability(durability_summary)
        resume_summary = compare_resume_at(
            300, answers_per_task=2, rerun_every=150
        )
        _report_resume(resume_summary)
        # Index-carrying resume must not grow superlinearly with the
        # archived-answer count at a fixed tail: 10x more archived
        # answers may cost at most half the naive 10x.
        archive_summary = compare_archived_resume_at(
            1000, (2000, 20000), tail=200
        )
        _report_archive_resume(archive_summary)
        superlinear_bar = 0.5 * archive_summary["archive_growth"]
        if archive_summary["carry_cost_ratio"] > superlinear_bar:
            print(
                f"FAIL: index-carry resume cost grew "
                f"x{archive_summary['carry_cost_ratio']:.2f} over a "
                f"x{archive_summary['archive_growth']:.0f} archive — "
                "the snapshot index is not decoupling resume from "
                "archive size",
                file=sys.stderr,
            )
            return 1
        analytics_summary = compare_analytics_at(500, 3000, 200)
        _report_analytics(analytics_summary)
        # The serve regression bar runs at full 10K even in smoke: the
        # warm index must never be slower than brute force there.
        serve_summary = compare_serve_at(10000, arrivals=10)
        _report_serve(serve_summary)
        if serve_summary["speedup_assign"] < 1.0:
            print(
                f"FAIL: warm-index assign at n=10K is "
                f"{serve_summary['speedup_assign']:.2f}x brute force — "
                "slower than the path it replaces",
                file=sys.stderr,
            )
            return 1
        cpu = os.cpu_count() or 1
        if "fork" in multiprocessing.get_all_start_methods():
            # Pick identity vs the single-process oracle is a hard
            # failure inside each compare_* — every smoke run proves
            # the parallel plane correct regardless of core count.
            counts = (1, 2) if cpu >= 2 else (1,)
            parallel_summary = compare_parallel_at(
                2000, worker_counts=counts, passes=2
            )
            _report_parallel(parallel_summary)
            link_summary = compare_parallel_link_at(200, workers=2)
            _report_parallel_link(link_summary)
            # Throughput is only gateable with a second core under the
            # pool; the 1-core containers still run the identity proof.
            if cpu >= 2 and (
                parallel_summary["speedup_2w_vs_1w"] < 1.0
            ):
                print(
                    f"FAIL: 2-worker serving pool at "
                    f"{parallel_summary['speedup_2w_vs_1w']:.2f}x "
                    "single-worker throughput on a multi-core host — "
                    "slower than the path it replaces",
                    file=sys.stderr,
                )
                return 1
        print(
            "smoke ok: serving paths agree on truths, prepare paths "
            "agree on domain vectors, journaled campaign agrees with "
            "in-memory, snapshot resume agrees with full replay, "
            "index-carry resume stays decoupled from archive size "
            "with state identical to the archive-scan path, analytics "
            "SQL matches the Python reference bit-for-bit on covered "
            "plans, "
            "warm-index assign beats brute force at n=10K with "
            "identical picks, and the parallel plane (pool picks, "
            "batch linking) matches its single-process oracles"
        )
        return 0

    points = []
    for n in (1000, 10000):
        summary = compare_at(
            n, answers_per_task=2, hit_size=10, rerun_every=max(n // 5, 100)
        )
        _report(summary)
        points.append(summary)
    # The 100K point caps the campaign at 2000 submissions: legacy
    # per-arrival costs scale with n, and a full 2-answers-per-task
    # campaign over 100K tasks would run for hours. Both paths drive
    # the identical partial campaign over the full-size pool, which is
    # exactly what per-arrival costs depend on; the cap lands in the
    # summary as ``max_submissions``.
    summary = compare_at(
        100000, answers_per_task=2, hit_size=10, rerun_every=2000,
        max_submissions=2000,
    )
    _report(summary)
    points.append(summary)
    prepare_points = []
    for n in (1000, 10000):
        prepare_summary = compare_prepare_at(n)
        _report_prepare(prepare_summary)
        prepare_points.append(prepare_summary)
    durability_points = []
    for n in (1000, 10000):
        durability_summary = compare_durability_at(
            n, answers_per_task=2, hit_size=10,
            rerun_every=max(n // 5, 100),
        )
        _report_durability(durability_summary)
        durability_points.append(durability_summary)
    resume_points = []
    for n in (1000, 10000):
        # A long campaign (5 answers/task): replay cost scales with
        # campaign length, snapshot load with n — the gap the snapshot
        # exists to open.
        resume_summary = compare_resume_at(
            n, answers_per_task=5, rerun_every=max(n // 5, 100)
        )
        _report_resume(resume_summary)
        resume_points.append(resume_summary)
    # Archive-heavy resume: fixed 20K-task pool and 400-answer tail,
    # archived count swept 50K -> 500K. The index-carrying snapshot
    # must hold resume cost flat across the sweep.
    archive_summary = compare_archived_resume_at(
        20000, (50000, 500000), tail=400
    )
    _report_archive_resume(archive_summary)
    analytics_summary = compare_analytics_at(5000, 100000, 500)
    _report_analytics(analytics_summary)
    serve_points = []
    for n in (1000, 10000, 100000):
        serve_summary = compare_serve_at(n)
        _report_serve(serve_summary)
        serve_points.append(serve_summary)
    parallel_summary = compare_parallel_at(100000)
    _report_parallel(parallel_summary)
    parallel_link = compare_parallel_link_at(10000, workers=4)
    _report_parallel_link(parallel_link)
    payload = {
        "benchmark": "arena_vs_legacy_serving_path",
        "workload": "synthetic round-robin campaign (see module docstring)",
        "machine": machine_metadata(),
        "points": points,
        "prepare": {
            "benchmark": "ingest_pipeline_vs_legacy_prepare",
            "workload": (
                "synthetic KB-linked tasks: "
                f"{NUM_SURFACES} ambiguous surfaces, 2-4 mentions/task "
                "(see module docstring)"
            ),
            "points": prepare_points,
        },
        "durability": {
            "benchmark": "sqlite_journal_vs_memory_serving_path",
            "workload": (
                "identical arena campaigns; sqlite path spills every "
                "answer through the write-behind journal to a file "
                "(final checkpoint included)"
            ),
            "points": durability_points,
        },
        "resume": {
            "benchmark": "snapshot_load_vs_full_journal_replay",
            "workload": (
                "journaled DocsSystem campaign (precomputed vectors, "
                "5 answers/task) resumed from its close-time snapshot "
                "vs by replaying every journal event"
            ),
            "points": resume_points,
            "archive": {
                "benchmark": (
                    "index_carrying_snapshot_vs_archive_scan_resume"
                ),
                "workload": (
                    "fixed task pool and live tail; archived-answer "
                    "count swept with the snapshot either carrying "
                    "the serialised answer-log index or not; resumed "
                    "states verified identical across both restore "
                    "paths"
                ),
                **{
                    k: archive_summary[k]
                    for k in (
                        "num_tasks", "tail", "points",
                        "archive_growth", "carry_cost_ratio",
                        "scan_cost_ratio",
                    )
                },
            },
        },
        "analytics": {
            "benchmark": "sql_pushdown_vs_python_reference",
            "workload": (
                "archived + tail campaign file; every registered "
                "analytics query run through the covering-index SQL "
                "plane and the naive Python reference, results "
                "verified bit-identical"
            ),
            **{
                k: analytics_summary[k]
                for k in (
                    "num_tasks", "archived", "tail", "answers",
                    "queries",
                )
            },
        },
        "serve": {
            "benchmark": "assignment_index_vs_brute_force_assign",
            "workload": (
                "campaign-warm arena; per-arrival assign for a "
                "stable-quality worker with 10 answers from other "
                "workers dirtying rows between arrivals; picks "
                "verified identical on every arrival"
            ),
            "points": serve_points,
        },
        "parallel": {
            "benchmark": "serving_pool_vs_single_process_oracle",
            "workload": (
                "campaign-warm shared arena at n=100K; a fixed batch "
                "of HIT requests served through the multi-process "
                "ServingPool at 1/2/4 workers, every pick verified "
                "bit-identical to the single-process AssignmentIndex; "
                "plus parallel batch linking vs the sequential cached "
                "path"
            ),
            "assign": parallel_summary,
            "link": parallel_link,
        },
    }
    args.out.write_text(json.dumps(payload, indent=2) + "\n")
    print(f"wrote {args.out}")
    failed = False
    at_10k = next(p for p in points if p["num_tasks"] == 10000)
    if at_10k["speedup_e2e"] < 5.0:
        print(
            f"WARNING: 10K e2e speedup {at_10k['speedup_e2e']:.1f}x "
            "below the 5x target",
            file=sys.stderr,
        )
        failed = True
    prepare_10k = next(
        p for p in prepare_points if p["num_tasks"] == 10000
    )
    if prepare_10k["speedup_e2e"] < 3.0:
        print(
            f"WARNING: 10K prepare speedup "
            f"{prepare_10k['speedup_e2e']:.1f}x below the 3x target",
            file=sys.stderr,
        )
        failed = True
    durability_10k = next(
        p for p in durability_points if p["num_tasks"] == 10000
    )
    if durability_10k["overhead_pct"] > 10.0:
        print(
            f"WARNING: 10K journal overhead "
            f"{durability_10k['overhead_pct']:.1f}% above the 10% target",
            file=sys.stderr,
        )
        failed = True
    resume_10k = next(
        p for p in resume_points if p["num_tasks"] == 10000
    )
    if resume_10k["speedup_resume"] < 5.0:
        print(
            f"WARNING: 10K resume speedup "
            f"{resume_10k['speedup_resume']:.1f}x below the 5x target",
            file=sys.stderr,
        )
        failed = True
    if archive_summary["carry_cost_ratio"] > 1.2:
        print(
            f"WARNING: index-carry resume cost grew "
            f"x{archive_summary['carry_cost_ratio']:.2f} over a "
            f"x{archive_summary['archive_growth']:.0f} archive sweep "
            "— above the 1.2x flatness target",
            file=sys.stderr,
        )
        failed = True
    serve_100k = next(
        p for p in serve_points if p["num_tasks"] == 100000
    )
    if serve_100k["speedup_assign"] < 5.0:
        print(
            f"WARNING: 100K warm-index assign speedup "
            f"{serve_100k['speedup_assign']:.1f}x below the 5x target",
            file=sys.stderr,
        )
        failed = True
    serve_10k = next(
        p for p in serve_points if p["num_tasks"] == 10000
    )
    if serve_10k["speedup_assign"] < 1.0:
        print(
            f"WARNING: warm-index assign at n=10K is slower than "
            f"brute force ({serve_10k['speedup_assign']:.2f}x)",
            file=sys.stderr,
        )
        failed = True
    # The parallel targets need the cores to exist: a 4-worker pool on
    # a 1-core host serialises on the CPU and can only show queueing
    # overhead. Speedups are recorded honestly either way (alongside
    # the machine metadata); the targets are enforced only on hosts
    # that can physically meet them.
    cpu = os.cpu_count() or 1
    if cpu >= 4:
        if parallel_summary["speedup_4w_vs_1w"] < 3.0:
            print(
                f"WARNING: 4-worker assign speedup "
                f"{parallel_summary['speedup_4w_vs_1w']:.2f}x below "
                "the 3x target",
                file=sys.stderr,
            )
            failed = True
        if parallel_link["speedup_link"] < 1.8:
            print(
                f"WARNING: 4-worker linking speedup "
                f"{parallel_link['speedup_link']:.2f}x below the "
                "1.8x target",
                file=sys.stderr,
            )
            failed = True
    if cpu >= 2:
        if parallel_summary["speedup_2w_vs_1w"] < 1.5:
            print(
                f"WARNING: 2-worker assign speedup "
                f"{parallel_summary['speedup_2w_vs_1w']:.2f}x below "
                "the 1.5x target",
                file=sys.stderr,
            )
            failed = True
    else:
        print(
            f"note: host has {cpu} core(s) — parallel speedup targets "
            "need >= 2 cores and were not enforced (identity checks "
            "still ran)",
        )
    return 1 if failed else 0


if __name__ == "__main__":
    raise SystemExit(main())
