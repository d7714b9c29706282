"""The ``campaign`` workload: a DOCS campaign driven in-process.

The loop is :meth:`repro.platform.PlatformSimulator.run`'s, with every
``DocsSystem`` call timed on its own so latencies are per-call samples:
workers arrive from :class:`~repro.crowd.WorkerArrivalProcess`, new
workers answer the golden tasks, each arrival gets a HIT from
``assign`` and answers it through ``sample_answer``, and each answer
goes to ``submit``. Set-up (``prepare``) runs from fresh inputs. A
restart phase follows the loop: close, resume, and the analytics
queries over the closed file.
"""

from __future__ import annotations

import os
import resource
import time
from typing import Dict, List, Optional, Tuple

from repro.core import assignment as assignment_module
from repro.core.types import Answer
from repro.crowd.answer_model import sample_answer
from repro.crowd.arrival import WorkerArrivalProcess
from repro.crowd.worker_pool import WorkerPool
from repro.datasets.base import CrowdDataset
from repro.platform.budget import Budget
from repro.system import DocsConfig, DocsSystem
from repro.utils.rng import make_rng

import layers
import metrics
from checks import Outcome, RunResult, restart_phase
from inputs import SIM_SEED_OFFSET, fresh_copy, make_4d, make_pool
from stats import latency_summary, median
from trace import Tracer

#: ``4d`` tasks per domain (4 domains, 2,000 tasks).
TASKS_PER_DOMAIN = 500
WORKERS = 50
#: The budget is this many answers per task.
ANSWERS_PER_TASK = 5
#: Campaigns per untraced run, each with its own arrivals and answers;
#: their samples are pooled. One loop takes about 14 s, and the host's
#: speed drifts over tens of seconds.
CAMPAIGNS = 2
#: Discarded set-ups before each campaign and after the last one. With
#: each campaign's own set-up, ``setup_s`` is the median of
#: ``(CAMPAIGNS + 1) * SETUPS_BETWEEN + CAMPAIGNS`` set-ups, spread over
#: the whole run so that it averages over the host's drift.
SETUPS_BETWEEN = 3
#: Finalize calls of a traced run; ``finalize_s`` is their median. One
#: call takes about 0.15 s, so many are needed to outlast the host's
#: second-to-second speed changes.
FINALIZE_REPS = 10
#: Resume / analytics repetitions of a traced run's restart phase;
#: each reported time is their median.
RESTART_REPS = 9


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def prepare(
    dataset: CrowdDataset, path: str
) -> Tuple[DocsSystem, CrowdDataset, float]:
    """``prepare`` a sqlite campaign at ``path`` from a fresh copy of
    the inputs; returns the system, the copy and the seconds it took."""
    inputs = fresh_copy(dataset)
    system = DocsSystem(DocsConfig(workers=0), storage="sqlite", path=path)
    started = time.perf_counter()
    system.prepare(inputs)
    return system, inputs, time.perf_counter() - started


def setup_samples(
    dataset: CrowdDataset, workdir: str, reps: int
) -> List[float]:
    """The times of ``reps`` set-ups whose campaigns are discarded."""
    times = []
    for rep in range(reps):
        path = os.path.join(workdir, f"setup-{rep}.db")
        system, _, took = prepare(dataset, path)
        system.close()
        _remove_db(path)
        times.append(took)
    return times


class Campaign:
    """One library campaign from set-up to the restart phase."""

    def __init__(
        self,
        dataset: CrowdDataset,
        pool: WorkerPool,
        seed: int,
        workdir: str,
        tracer: Optional[Tracer] = None,
    ):
        self.pool = pool
        self.seed = seed
        self.tracer = tracer
        self.path = os.path.join(workdir, f"campaign-{seed}.db")
        self.system, self.dataset, self.setup_s = prepare(dataset, self.path)
        self.config = self.system.config

    # -- the campaign loop ----------------------------------------------

    def run_loop(self) -> Dict[str, object]:
        """Drive the crowd through the system until the budget is spent."""
        system, tracer = self.system, self.tracer
        rng = make_rng(self.seed + SIM_SEED_OFFSET)
        arrival_rng, answer_rng = rng.spawn(2)
        tasks_by_id = {t.task_id: t for t in self.dataset.tasks}
        budget = Budget(len(self.dataset.tasks) * ANSWERS_PER_TASK)
        arrivals = WorkerArrivalProcess(self.pool, seed=arrival_rng)
        golden = system.golden_task_ids()
        hit_size = self.config.hit_size
        assign_s: List[float] = []
        submit_s: List[float] = []
        hits: List[Tuple[str, List[int]]] = []
        bootstrap_events = 0
        consecutive_empty = 0
        clock = time.perf_counter
        rows_before = assignment_module.kernel_rows_evaluated()

        loop_span = tracer.begin("bench.loop") if tracer else -1
        started = clock()
        while not budget.exhausted():
            span = tracer.begin("crowd.arrive") if tracer else -1
            worker_id = next(arrivals, None)
            profile = (
                self.pool.profile(worker_id) if worker_id else None
            )
            if tracer:
                tracer.end(span)
            if worker_id is None:
                break
            if system.needs_bootstrap(worker_id):
                span = tracer.begin("crowd.golden") if tracer else -1
                answers = [
                    Answer(
                        worker_id,
                        task_id,
                        sample_answer(
                            tasks_by_id[task_id], profile, answer_rng
                        ),
                    )
                    for task_id in golden
                ]
                if tracer:
                    tracer.end(span)
                system.bootstrap(worker_id, answers)
                bootstrap_events += len(answers) + 1
            k = min(hit_size, budget.remaining)
            tic = clock()
            assigned = system.assign(worker_id, k)
            assign_s.append(clock() - tic)
            if not assigned:
                consecutive_empty += 1
                if consecutive_empty > 2 * len(self.pool):
                    break
                continue
            consecutive_empty = 0
            hits.append((worker_id, assigned))
            for task_id in assigned:
                span = tracer.begin("crowd.answer") if tracer else -1
                answer = Answer(
                    worker_id,
                    task_id,
                    sample_answer(tasks_by_id[task_id], profile, answer_rng),
                )
                if tracer:
                    tracer.end(span)
                tic = clock()
                system.submit(answer)
                submit_s.append(clock() - tic)
                budget.consume(1)
        loop_s = clock() - started
        if tracer:
            tracer.end(loop_span)
        return {
            "loop_s": loop_s,
            "assign_s": assign_s,
            "submit_s": submit_s,
            "hits": hits,
            "bootstrap_events": bootstrap_events,
            "answers": budget.used,
            "kernel_rows": (
                assignment_module.kernel_rows_evaluated() - rows_before
            ),
        }

    # -- after the loop --------------------------------------------------

    def finalize(self, reps: int) -> Tuple[List[float], Dict[int, int]]:
        """The requester's final full TI, ``reps`` times (idempotent)."""
        times, truths = [], {}
        for _ in range(reps):
            started = time.perf_counter()
            truths = self.system.finalize()
            times.append(time.perf_counter() - started)
        return times, truths

    def submit_slow_share(self) -> float:
        """Share of submits that do a slow mode's work: one in z runs
        the full rerun and one per journal batch flushes it."""
        return (
            1.0 / self.config.rerun_interval
            + 1.0 / self.config.journal_batch_size
        )

    def accuracy(self, truths: Dict[int, int]) -> float:
        tasks = [t for t in self.dataset.tasks if t.ground_truth is not None]
        right = sum(1 for t in tasks if truths.get(t.task_id) == t.ground_truth)
        return right / len(tasks)

    def counters(self) -> Dict[str, int]:
        """Counts that need no tracing and repeat for a fixed seed."""
        stats = self.system.serving_index.stats()
        out = {
            "serving.cold_builds": stats["cold_builds"],
            "serving.warm_hits": stats["warm_hits"],
            "serving.rows_repaired": stats["rows_repaired"],
        }
        journal = getattr(self.system.database, "journal", None)
        if journal is not None:
            out["journal.batches"] = journal.flushed_batches
            out["journal.last_seq"] = journal.last_committed_seq
        return out

    def restart(self, reps: int, outcome: Outcome) -> Dict[str, object]:
        """Close, then resume and query the closed file ``reps`` times."""
        outcome.digest_before = self.system.hot_state_digest()
        self.system.close()
        return restart_phase(self.path, self.dataset.kb, reps, outcome)

    def discard(self) -> None:
        self.system.close()
        _remove_db(self.path)


def _remove_db(path: str) -> None:
    for suffix in ("", "-wal", "-shm", "-journal"):
        if os.path.exists(path + suffix):
            os.remove(path + suffix)


def run_pass(
    dataset: CrowdDataset,
    pool: WorkerPool,
    seed: int,
    workdir: str,
    tracer: Optional[Tracer] = None,
    restart: bool = True,
) -> Dict[str, object]:
    """One campaign: set-up, loop, finalize, and (with ``restart``) the
    restart phase. A traced pass finalizes ``FINALIZE_REPS`` times and
    repeats the restart phase ``RESTART_REPS`` times."""
    campaign = Campaign(dataset, pool, seed, workdir, tracer)
    try:
        loop = campaign.run_loop()
        finalize_times, truths = campaign.finalize(
            FINALIZE_REPS if tracer else 1
        )
        # The campaign's high-water mark, before the restart phase
        # holds a second copy of the campaign state.
        peak_rss_mb = _peak_rss_mb()
        counters = campaign.counters()
        counters["assignment.kernel_rows"] = loop["kernel_rows"]
        counters["assignment.calls"] = len(loop["assign_s"])
        outcome = Outcome(
            task_ids=[t.task_id for t in campaign.dataset.tasks],
            truths=truths,
            hits=loop["hits"],
            accepted_answers=loop["answers"],
            bootstrap_events=loop["bootstrap_events"],
        )
        reopened = (
            campaign.restart(RESTART_REPS if tracer else 1, outcome)
            if restart else None
        )
        return {
            "setup_s": campaign.setup_s,
            "loop": loop,
            "finalize_s": finalize_times,
            "accuracy": campaign.accuracy(truths),
            "peak_rss_mb": peak_rss_mb,
            "counters": counters,
            "outcome": outcome,
            "restart": reopened,
            "submit_slow_share": campaign.submit_slow_share(),
        }
    finally:
        campaign.discard()


def _end_to_end(
    results: List[Dict[str, object]], setup_s: List[float]
) -> Tuple[Dict[str, float], Dict[str, Dict[str, float]]]:
    """The end-to-end metrics of a run's pooled campaigns and set-ups,
    plus the latency summaries behind them."""
    loops = [r["loop"] for r in results]
    assign = latency_summary([1e3 * s for l in loops for s in l["assign_s"]])
    submit = latency_summary(
        [1e3 * s for l in loops for s in l["submit_s"]],
        results[0]["submit_slow_share"],
    )
    return {
        "setup_s": median(setup_s),
        "answers_per_s": sum(l["answers"] for l in loops)
        / sum(l["loop_s"] for l in loops),
        "assign_p50_ms": assign["p50"],
        "assign_tail_ms": assign["tail"],
        "submit_p50_ms": submit["p50"],
        "submit_tail_ms": submit["tail"],
        "accuracy": sum(r["accuracy"] for r in results) / len(results),
        "peak_rss_mb": max(r["peak_rss_mb"] for r in results),
    }, {"assign": assign, "submit": submit}


def _layers(
    result: Dict[str, object], tracer: Tracer, untraced: Dict[str, object]
) -> Dict[str, float]:
    """Per-layer metrics of a traced pass.

    Ingest covers set-up, ``sqlite_storage.load_s`` and the analytics
    queries cover the restart phase, and everything else covers the
    campaign loop.
    """
    out = {name: 0.0 for name in metrics.PER_LAYER}
    loop = result["loop"]
    counters = result["counters"]
    out.update(tracer.noted("ingest.ingest")[0])
    out["finalize_s"] = median(result["finalize_s"])
    out["sqlite_storage.load_s"] = tracer.total("sqlite_storage.load_snapshot")
    inner = tracer.subtree("bench.loop")
    out.update(layers.span_metrics(inner))
    warm, cold = counters["serving.warm_hits"], counters["serving.cold_builds"]
    out.update(
        {
            "assignment.kernel_rows": counters["assignment.kernel_rows"],
            "serving.warm_hits": warm,
            "serving.cold_builds": cold,
            "serving.hit_ratio": warm / (warm + cold) if warm + cold else 0.0,
            "serving.rows_repaired": counters["serving.rows_repaired"],
        }
    )
    restart = result["restart"]
    if restart is not None:
        out["resume_s"] = restart["resume_s"]
        out["analytics_s"] = restart["analytics_s"]
        out["db_bytes_per_answer"] = restart["db_bytes"] / loop["answers"]
        for query, seconds in restart["per_query"].items():
            out[metrics.analytics_metric(query)] = seconds

    self_times = inner.self_times()
    out["crowd.s"] = self_times.get("crowd", 0.0)
    out["trace.loop_s"] = loop["loop_s"]
    out["trace.coverage"] = 1.0 - self_times.get("bench", 0.0) / loop["loop_s"]
    out["trace.overhead_answers_per_s"] = (
        loop["answers"] / loop["loop_s"]
        - untraced["loop"]["answers"] / untraced["loop"]["loop_s"]
    )
    out["recon.index_lookups"] = abs(
        warm + cold - inner.count("serving.select")
    )
    out["recon.count_mismatches"] = sum(
        1
        for key, value in counters.items()
        if untraced["counters"].get(key) != value
    ) + int(untraced["accuracy"] != result["accuracy"])
    return out


def run(
    seed: int, seconds: float, trace: bool, workdir: str, outdir: str
) -> RunResult:
    """Run the ``campaign`` workload; see the module docstring.

    An untraced run measures ``CAMPAIGNS`` campaigns of a fixed size,
    seeded ``seed * CAMPAIGNS + i``, with discarded set-ups before,
    between and after them; ``seconds`` is not used (one campaign loop
    alone outlasts it). A traced run measures one campaign twice,
    untraced and traced, and writes the spans to ``outdir``.
    """
    dataset = make_4d(TASKS_PER_DOMAIN)
    pool = make_pool(dataset, WORKERS)
    if not trace:
        setup_s: List[float] = []
        results = []
        for i in range(CAMPAIGNS):
            setup_s += setup_samples(dataset, workdir, SETUPS_BETWEEN)
            results.append(
                run_pass(dataset, pool, seed * CAMPAIGNS + i, workdir)
            )
            setup_s.append(results[-1]["setup_s"])
        setup_s += setup_samples(dataset, workdir, SETUPS_BETWEEN)
        per_layer = {}
    else:
        # Untraced first, for the overhead and the repeat check; then
        # the same seed again with every layer's spans recorded.
        untraced = run_pass(dataset, pool, seed, workdir, restart=False)
        tracer = Tracer()
        layers.install(tracer)
        try:
            results = [run_pass(dataset, pool, seed, workdir, tracer)]
        finally:
            tracer.unwrap_all()
        tracer.dump(os.path.join(outdir, f"trace-campaign-{seed}.json"))
        per_layer = _layers(results[0], tracer, untraced)
        setup_s = [results[0]["setup_s"]]
    e2e, latency = _end_to_end(results, setup_s)
    loops = [r["loop"] for r in results]
    return RunResult(
        e2e=e2e,
        layers=per_layer,
        outcomes=[r["outcome"] for r in results],
        attempted=sum(len(l["assign_s"]) + len(l["submit_s"]) for l in loops),
        failed=0,
        notes={
            "tail_percentiles": {
                kind: latency[kind]["tail_q"] for kind in latency
            },
            "samples": {kind: latency[kind]["count"] for kind in latency},
            "campaigns": len(results),
            "setups": len(setup_s),
            "answers": sum(l["answers"] for l in loops),
            "loop_s": sum(l["loop_s"] for l in loops),
        },
    )
