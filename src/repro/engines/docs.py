"""DocsEngine — the DOCS inference core as a first-class engine.

This is the serving heart that used to live hard-wired inside the
1,700-line :class:`repro.system.DocsSystem`: DVE-backed ingest, the
:class:`~repro.core.arena.StateArena` (heap or shared-memory) hot
state, incremental truth inference (Section 4.2), the every-z full
iterative TI re-run, golden-task selection and the quality pre-test
(Section 5.2), and Eq. 8 entropy-reduction assignment served through
the :class:`~repro.core.assignment.TaskAssigner` strategy ladder
(row-subset kernel -> serving pool -> assignment index -> brute force,
all bit-identical).

Factored out, it is *one engine among several*: it implements
:class:`repro.engines.base.Engine`, registers as ``"docs"`` (and, with
the index/pool ladder disabled, as the ``"oracle"`` brute-force
regression oracle), runs standalone under the platform simulator, and
plugs into the campaign shell — :class:`repro.system.DocsSystem`
hosts it and layers journaling, snapshots, degraded mode, and the
shared cross-campaign worker store around the capability hooks below.

Host seams (the shell's contract, beyond the :class:`Engine` ABC):

- :meth:`build` / :meth:`rebuild` — run the ingest plane into a
  host-supplied database (sqlite for durable campaigns; standalone
  :meth:`prepare` uses an in-memory
  :class:`~repro.platform.storage.SystemDatabase`).
- :meth:`arena_write` / :meth:`apply_answer` /
  :meth:`restore_bootstrap` — the write paths, callable separately so
  the shell can wrap its own durability (journal, degraded mode)
  around them; live serving and journal replay share them.
- :meth:`snapshot_payload` / :meth:`check_snapshot` /
  :meth:`install_snapshot` / :meth:`hot_state_digest` — the
  :data:`~repro.engines.base.CAP_HOT_STATE` capability: export and
  reinstall the complete hot state, bit-identically.
- :attr:`on_rerun` — invoked with each full-TI result; the shell uses
  it for durable-first shared-store delta exports. Standalone, deltas
  merge straight into an attached shared store.
"""

from __future__ import annotations

import logging
import multiprocessing
from contextlib import contextmanager
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Set, Tuple

import numpy as np

from repro.core.arena import AnswerLog
from repro.core.assignment import TaskAssigner
from repro.core.golden import select_golden_tasks
from repro.core.incremental import IncrementalTruthInference
from repro.core.quality_store import WorkerQualityStore
from repro.core.serving import AssignmentIndex
from repro.core.shared_arena import SharedStateArena
from repro.core.truth_inference import TruthInference
from repro.core.types import Answer, Task
from repro.datasets.base import CrowdDataset
from repro.engines.base import (
    CAP_BATCH_ASSIGN,
    CAP_HOT_STATE,
    CAP_LIVE_GROWTH,
    Engine,
)
from repro.errors import ServingPoolError, ValidationError
from repro.kb.knowledge_base import KnowledgeBase
from repro.linking import EntityLinker
from repro.platform.sqlite_storage import CampaignSnapshot
from repro.platform.storage import SystemDatabase
from repro.system.config import DocsConfig
from repro.system.ingest import IngestPipeline, IngestReport
from repro.system.parallel import ServingPool

logger = logging.getLogger(__name__)


class DocsEngine(Engine):
    """The domain-aware serving core behind DOCS.

    Args:
        config: system configuration (defaults follow the paper). The
            serving knobs (``serve_index``, ``workers``, the frontier/
            bucket sizes, ``rerun_interval``, ...) are honoured here;
            the durability knobs are the host shell's business.
        worker_store: optional shared cross-campaign worker model (see
            :class:`repro.system.DocsSystem`); workers it knows skip
            the golden pre-test and seed from it.
    """

    name = "DOCS"

    def __init__(
        self,
        config: Optional[DocsConfig] = None,
        *,
        worker_store: Optional[WorkerQualityStore] = None,
    ):
        super().__init__()
        self._config = config or DocsConfig()
        self._config.validate()
        self._db = None
        self._incremental: Optional[IncrementalTruthInference] = None
        self._log: Optional[AnswerLog] = None
        self._store: Optional[WorkerQualityStore] = None
        self._assigner = TaskAssigner(hit_size=self._config.hit_size)
        #: The serving-plane index (built on build/rebuild when
        #: ``config.serve_index``); row-wise invalidation rides the
        #: arena's write epochs, so add_tasks/submit/re-runs need no
        #: explicit hooks here.
        self._serving_index: Optional[AssignmentIndex] = None
        #: The multi-process serving pool (built when ``config.workers``
        #: >= 1 over a shared-memory arena); arena mutations quiesce it
        #: through :meth:`arena_write`.
        self._pool: Optional[ServingPool] = None
        self._bootstrapped: Set[str] = set()
        self._golden_truths: Dict[int, int] = {}
        #: Pristine golden-bootstrap qualities: the full iterative TI is
        #: (re)initialised from these, never from the incrementally
        #: drifted store (Section 4.1 initialises from golden tasks).
        self._golden_qualities: Dict[str, np.ndarray] = {}
        self._submissions_since_rerun = 0
        self._pipeline: Optional[IngestPipeline] = None
        #: The shared cross-campaign worker model (None = campaign-local
        #: qualities only).
        self._shared_store = worker_store
        #: Workers whose campaign stats were seeded from the shared store.
        self._seeded: Set[str] = set()
        #: Per-worker (quality, weight) last derived from a full-TI
        #: re-run — the Theorem-1 baseline for shared-store delta
        #: exports. Maintained even without a shared store so one can be
        #: attached mid-campaign.
        self._exported_log: Dict[str, Tuple[np.ndarray, np.ndarray]] = {}
        #: True while a host replays a journal: suppresses shared-store
        #: exports (the original run already made them).
        self._replaying = False
        #: Host hook: called with each full-TI result instead of the
        #: direct shared-store merge (the shell's durable-first export).
        self.on_rerun: Optional[Callable[[object], None]] = None

    # -- accessors (the host shell's and the tests' surface) -------------

    @property
    def config(self) -> DocsConfig:
        """The active configuration."""
        return self._config

    @property
    def database(self):
        """The task/answer storage this engine was built into."""
        if self._db is None:
            raise ValidationError("system not prepared; call prepare()")
        return self._db

    @property
    def prepared(self) -> bool:
        return self._db is not None

    @property
    def incremental(self) -> Optional[IncrementalTruthInference]:
        return self._incremental

    @property
    def log(self) -> Optional[AnswerLog]:
        return self._log

    @property
    def quality_store(self) -> WorkerQualityStore:
        """The campaign-local worker model."""
        if self._store is None:
            raise ValidationError("system not prepared; call prepare()")
        return self._store

    @property
    def assigner(self) -> TaskAssigner:
        return self._assigner

    @property
    def serving_index(self) -> Optional[AssignmentIndex]:
        return self._serving_index

    @property
    def pool(self) -> Optional[ServingPool]:
        return self._pool

    @property
    def pipeline(self) -> Optional[IngestPipeline]:
        return self._pipeline

    @property
    def bootstrapped(self) -> Set[str]:
        return self._bootstrapped

    @property
    def seeded(self) -> Set[str]:
        return self._seeded

    @property
    def golden_truths(self) -> Dict[int, int]:
        return self._golden_truths

    @property
    def golden_qualities(self) -> Dict[str, np.ndarray]:
        return self._golden_qualities

    @property
    def exported_log(self) -> Dict[str, Tuple[np.ndarray, np.ndarray]]:
        return self._exported_log

    @property
    def shared_store(self) -> Optional[WorkerQualityStore]:
        return self._shared_store

    @property
    def submissions_since_rerun(self) -> int:
        return self._submissions_since_rerun

    @submissions_since_rerun.setter
    def submissions_since_rerun(self, value: int) -> None:
        self._submissions_since_rerun = value

    @property
    def replaying(self) -> bool:
        return self._replaying

    @replaying.setter
    def replaying(self, value: bool) -> None:
        self._replaying = value

    def capabilities(self) -> frozenset:
        return frozenset(
            {CAP_HOT_STATE, CAP_BATCH_ASSIGN, CAP_LIVE_GROWTH}
        )

    def attach_shared_store(
        self, worker_store: WorkerQualityStore
    ) -> None:
        """Attach a shared cross-campaign worker model mid-campaign.

        Raises:
            ValidationError: if a store is already attached, or the
                store's taxonomy size disagrees with the campaign's.
        """
        if self._shared_store is not None:
            raise ValidationError(
                "a shared worker store is already attached"
            )
        if self._incremental is not None and (
            worker_store.num_domains
            != self._incremental.arena.num_domains
        ):
            raise ValidationError(
                f"shared worker store covers "
                f"{worker_store.num_domains} domains but the campaign "
                f"taxonomy has {self._incremental.arena.num_domains}"
            )
        self._shared_store = worker_store

    # -- build plane -----------------------------------------------------

    def prepare(self, dataset: CrowdDataset) -> None:
        """Standalone preparation into a fresh in-memory database.

        Hosts with their own storage call :meth:`build` +
        :meth:`build_serving_plane` instead. Single-shot either way.
        """
        self.build(SystemDatabase(), dataset)
        self.build_serving_plane()

    def build(self, db, dataset: CrowdDataset) -> None:
        """Run the ingest plane over ``dataset`` into ``db`` and select
        golden tasks.

        ``build`` is single-shot by design: the golden selection, the
        worker-quality store, and the arena all key off the initial
        batch, so rebuilding them silently would discard campaign
        state. The database is the caller's to close — on failure this
        method releases only what it created (the shared arena).

        Raises:
            ValidationError: if the engine is already prepared (use
                :meth:`add_tasks` to grow the pool, or build a new
                engine), or the dataset carries duplicate task ids
                (deduplicate it first).
        """
        if self._db is not None:
            raise ValidationError(
                "prepare() already ran for this engine; use add_tasks() "
                "to ingest more tasks, or build a new engine"
            )
        m = dataset.taxonomy.size
        if self._shared_store is not None and (
            self._shared_store.num_domains != m
        ):
            raise ValidationError(
                f"shared worker store covers "
                f"{self._shared_store.num_domains} domains but the "
                f"dataset taxonomy has {m}"
            )
        linker = EntityLinker(dataset.kb, top_c=self._config.top_c)

        # Build everything in locals and commit only after the ingest
        # succeeds: a rejected dataset (e.g. duplicate ids) must leave
        # the engine un-prepared and retryable.
        shared_arena = self._make_arena(m)
        try:
            store = WorkerQualityStore(
                m, default_quality=self._config.default_quality
            )
            incremental = IncrementalTruthInference(
                store, arena=shared_arena
            )
            pipeline = IngestPipeline(
                db, incremental, linker,
                link_workers=self.link_workers(),
            )
            pipeline.ingest(dataset.tasks)

            golden_count = min(
                self._config.golden_count, len(dataset.tasks)
            )
            golden_indices = select_golden_tasks(
                [t.domain_vector for t in dataset.tasks], golden_count
            )
            golden_ids = []
            golden_truths: Dict[int, int] = {}
            for idx in golden_indices:
                task = dataset.tasks[idx]
                if task.ground_truth is None:
                    continue
                golden_ids.append(task.task_id)
                golden_truths[task.task_id] = task.ground_truth
            db.mark_golden(golden_ids)
        except Exception:
            if shared_arena is not None:
                shared_arena.close()
            raise

        self._db = db
        self._store = store
        self._incremental = incremental
        self._log = AnswerLog(incremental.arena)
        self._pipeline = pipeline
        self._bootstrapped = set()
        self._golden_qualities = {}
        self._golden_truths = golden_truths
        self._submissions_since_rerun = 0

    def rebuild(
        self,
        db,
        tasks: Sequence[Task],
        kb: Optional[KnowledgeBase] = None,
    ) -> None:
        """Re-register a persisted task catalogue (the resume path).

        Linking and DVE are skipped — domain vectors persisted with the
        tasks — and the golden registry is restored from ``db``. The
        hot state afterwards is pristine; the host overlays a snapshot
        and/or replays its journal through :meth:`restore_bootstrap` /
        :meth:`apply_answer`.
        """
        if self._db is not None:
            raise ValidationError(
                "prepare() already ran for this engine; build a new "
                "engine to resume into"
            )
        m = int(tasks[0].domain_vector.shape[0])
        if self._shared_store is not None and (
            self._shared_store.num_domains != m
        ):
            raise ValidationError(
                f"shared worker store covers "
                f"{self._shared_store.num_domains} domains but the "
                f"campaign taxonomy has {m}"
            )
        shared_arena = self._make_arena(m)
        try:
            store = WorkerQualityStore(
                m, default_quality=self._config.default_quality
            )
            incremental = IncrementalTruthInference(
                store, arena=shared_arena
            )
            linker = (
                EntityLinker(kb, top_c=self._config.top_c)
                if kb is not None
                else None
            )
            pipeline = IngestPipeline(
                db, incremental, linker,
                link_workers=self.link_workers(),
            )
            pipeline.ingest(tasks, store=False)
        except Exception:
            if shared_arena is not None:
                shared_arena.close()
            raise

        by_id = {t.task_id: t for t in tasks}
        golden_truths: Dict[int, int] = {}
        for task_id in db.golden_ids:
            task = by_id.get(task_id)
            if task is not None and task.ground_truth is not None:
                golden_truths[task_id] = task.ground_truth

        self._db = db
        self._store = store
        self._incremental = incremental
        self._log = AnswerLog(incremental.arena)
        self._pipeline = pipeline
        self._golden_truths = golden_truths

    def build_serving_plane(self) -> None:
        """Stand up the AssignmentIndex over the freshly built arena.

        Lifecycle note: this runs once per build/rebuild. Later state
        changes — ``add_tasks`` growth blocks, per-answer incremental
        updates, full-TI resyncs, snapshot overlays — invalidate the
        index row-wise through the arena's write epochs, so nothing
        else needs to call back in here.

        With ``config.workers`` >= 1 (and the arena in shared memory —
        see :meth:`_make_arena`) this also forks the
        :class:`repro.system.parallel.ServingPool`. The owner-side
        index stays attached as the degradation fallback: a pool whose
        worker dies is detached on the spot and arrivals keep being
        served single-process with identical picks.
        """
        if not self._config.serve_index:
            return
        arena = self._incremental.arena
        self._serving_index = AssignmentIndex(
            arena,
            bucket_granularity=self._config.serve_bucket_granularity,
            frontier_size=self._config.serve_frontier_size,
            max_buckets=self._config.serve_max_buckets,
        )
        self._assigner.attach_index(self._serving_index)
        if self._config.workers >= 1 and isinstance(
            arena, SharedStateArena
        ):
            self._pool = ServingPool(
                arena,
                self._config.workers,
                bucket_granularity=(
                    self._config.serve_bucket_granularity
                ),
                frontier_size=self._config.serve_frontier_size,
                max_buckets=self._config.serve_max_buckets,
            )
            self._assigner.attach_pool(self._pool)

    def _make_arena(self, num_domains: int) -> Optional[SharedStateArena]:
        """A shared-memory arena when ``config.workers`` asks for one.

        Returns ``None`` — let the incremental engine build its
        ordinary heap arena — when workers are off or the platform
        lacks the ``fork`` start method the pool needs (logged; the
        campaign serves single-process rather than failing).
        """
        if self._config.workers < 1:
            return None
        if "fork" not in multiprocessing.get_all_start_methods():
            logger.warning(
                "config.workers=%d needs the 'fork' start method, "
                "which this platform lacks; serving single-process",
                self._config.workers,
            )
            return None
        return SharedStateArena(num_domains)

    def link_workers(self) -> int:
        """Stage-1 ingest linking fan-out (``0`` below two workers —
        one forked child would only add fork overhead)."""
        workers = self._config.workers
        return workers if workers >= 2 else 0

    # -- parallel-plane lifecycle ---------------------------------------

    @contextmanager
    def arena_write(self) -> Iterator[None]:
        """Run an arena mutation under the pool's writer barrier.

        Without a pool — or nested inside an outer write section (a
        full-TI resync triggered by a submit already inside one) —
        this is a plain pass-through. A pool that cannot quiesce (a
        worker died) is detached and closed, and the mutation proceeds
        single-process: the write itself must happen regardless of
        pool health.
        """
        pool = self._pool
        if pool is None or pool.state != "serving":
            yield
            return
        try:
            section = pool.write_section()
            section.__enter__()
        except ServingPoolError as exc:
            logger.warning(
                "serving pool failed to quiesce (%s); detaching and "
                "continuing single-process", exc,
            )
            self.detach_pool()
            yield
            return
        try:
            yield
        finally:
            section.__exit__(None, None, None)

    def detach_pool(self) -> None:
        """Drop and close the serving pool (idempotent, ``None``-safe)."""
        pool, self._pool = self._pool, None
        if pool is None:
            return
        self._assigner.attach_pool(None)
        try:
            pool.close()
        except Exception:  # pragma: no cover - shutdown best effort
            logger.exception("serving pool close failed")

    def shutdown_parallel(self) -> None:
        """Stop the pool and unlink the shared arena. Idempotent.

        Ordering matters: workers detach before the owner unlinks, so
        no select can race the teardown. After this the engine no
        longer serves (its arena views are gone).
        """
        self.detach_pool()
        incremental = self._incremental
        if incremental is not None and isinstance(
            incremental.arena, SharedStateArena
        ):
            incremental.arena.close()

    # -- growth ----------------------------------------------------------

    def add_tasks(self, tasks: Sequence[Task]) -> IngestReport:
        """Ingest new tasks mid-campaign (live task growth).

        Runs the same staged pipeline as :meth:`prepare`, so the new
        tasks are immediately eligible for assignment. Golden tasks
        and existing worker qualities are unchanged.

        Raises:
            ValidationError: if called before :meth:`prepare`, or on
                duplicate task ids.
        """
        if self._pipeline is None:
            raise ValidationError(
                "system not prepared; call prepare() before add_tasks()"
            )
        # Growth re-maps arena segments; serving workers must be parked
        # at their queues while it happens (they follow the new
        # generation on their next request).
        with self.arena_write():
            return self._pipeline.ingest(tasks)

    # -- worker lifecycle ------------------------------------------------

    def golden_task_ids(self) -> List[int]:
        """Golden tasks assigned to every new worker."""
        return self.database.golden_ids

    def needs_bootstrap(self, worker_id: str) -> bool:
        """New workers are quality-tested before real assignments.

        Workers already known to the shared cross-campaign store are
        *not* new: they skip the golden pre-test and enter this
        campaign seeded with their stored statistics (Section 4.2's
        worker model maintained across requesters).
        """
        if self.seed_from_shared(worker_id):
            return False
        return (
            bool(self._golden_truths)
            and worker_id not in self._bootstrapped
            and worker_id not in self.quality_store
        )

    def seed_from_shared(self, worker_id: str) -> bool:
        """Seed a shared-store worker into the campaign model (once).

        Returns:
            True if the worker is covered by the shared store (seeded
            now or earlier); False if there is nothing to seed from.
        """
        if self._shared_store is None or self._store is None:
            return False
        if worker_id in self._seeded:
            return True
        if (
            worker_id in self._bootstrapped
            or worker_id in self._store
        ):
            # The campaign already has its own evidence for this
            # worker; never clobber it with the shared prior.
            return False
        if worker_id not in self._shared_store:
            return False
        stats = self._shared_store.get(worker_id)
        self._store.set(worker_id, stats.quality, stats.weight)
        # The shared prior plays the golden-test role for full-TI
        # (re)initialisation, exactly like a pre-test quality would.
        self._golden_qualities[worker_id] = (
            self._shared_store.quality_or_default(worker_id)
        )
        self._bootstrapped.add(worker_id)
        self._seeded.add(worker_id)
        return True

    def bootstrap(self, worker_id: str, answers: Sequence[Answer]) -> None:
        """Initialise a new worker's quality from golden-task answers.

        Standalone spelling: the golden pre-test is also campaign
        evidence an attached shared store would otherwise never see
        (full-TI re-runs cover only the answer log), so it merges
        straight in. The campaign shell wraps
        :meth:`restore_bootstrap` with its own durable-first export
        instead.
        """
        self.restore_bootstrap(worker_id, answers)
        if self._shared_store is not None and answers:
            stats = self.quality_store.get(worker_id)
            self._shared_store.apply_batch_delta(
                worker_id,
                stats.quality * stats.weight,
                stats.weight.copy(),
            )

    def restore_bootstrap(
        self, worker_id: str, answers: Sequence[Answer]
    ) -> None:
        """Apply a golden bootstrap without any export (shared by the
        live path and the host's journal replay)."""
        self._bootstrapped.add(worker_id)
        if not answers:
            return
        domain_vectors = {
            a.task_id: self.database.task(a.task_id).domain_vector
            for a in answers
        }
        self.quality_store.initialize_from_golden(
            worker_id,
            {a.task_id: a.choice for a in answers},
            self._golden_truths,
            domain_vectors,
        )
        self._golden_qualities[worker_id] = (
            self.quality_store.quality_or_default(worker_id)
        )

    # -- serving ---------------------------------------------------------

    def assign(self, worker_id: str, k: Optional[int] = None) -> List[int]:
        """OTA: the k highest-benefit tasks this worker has not answered.

        Benefits are computed directly against the arena's persistent
        buffers; no per-arrival task state is materialised. With
        ``config.serve_index`` (the default) the arrival is served from
        the :class:`repro.core.serving.AssignmentIndex`'s cached
        benefit columns — only rows dirtied since the worker's last
        identical-quality arrival are re-evaluated, and the picks are
        bit-identical to a full-pool evaluation.

        Raises:
            ValidationError: if the engine is not prepared.
            UnknownWorkerError: if the campaign runs a golden pre-test
                and this worker has not completed it (and no shared
                store knows her) — bootstrap discipline; callers (and
                the HTTP service, which maps it to 404) route the
                worker to :meth:`bootstrap` first.
        """
        if self._incremental is None:
            raise ValidationError("system not prepared; call prepare()")
        self._require_bootstrapped(worker_id)
        answered = self.database.answers.tasks_answered_by(worker_id)
        quality = self.quality_store.blended_quality(worker_id)
        return self._assigner.assign(
            self._incremental.arena,
            quality,
            answered_by_worker=answered,
            k=k,
        )

    def assign_many(
        self, worker_ids: Sequence[str], k: Optional[int] = None
    ) -> List[List[int]]:
        """One HIT per arriving worker, served as a single batch.

        With ``config.workers`` the selects fan out across the serving
        pool's processes and evaluate concurrently; without one the
        arrivals run through the same strategy ladder :meth:`assign`
        uses. Picks are bit-identical to calling :meth:`assign` per
        worker in order, either way.
        """
        if self._incremental is None:
            raise ValidationError("system not prepared; call prepare()")
        arrivals = []
        for worker_id in worker_ids:
            self._require_bootstrapped(worker_id)
            answered = self.database.answers.tasks_answered_by(
                worker_id
            )
            quality = self.quality_store.blended_quality(worker_id)
            arrivals.append((quality, answered))
        return self._assigner.assign_many(
            self._incremental.arena, arrivals, k=k
        )

    def validate_choice(self, answer: Answer) -> None:
        """Reject an out-of-range choice before any store is touched,
        so a bad answer cannot leave the answer table, the incremental
        state, and the answer log disagreeing with each other."""
        ell = self._incremental.state(answer.task_id).num_choices
        if not 1 <= answer.choice <= ell:
            raise ValidationError(
                f"choice {answer.choice} outside [1, {ell}] for task "
                f"{answer.task_id}"
            )

    def submit(self, answer: Answer) -> None:
        """Ingest an answer: store it, update TI incrementally, and
        re-run the full iterative TI every z submissions."""
        if self._incremental is None:
            raise ValidationError("system not prepared; call prepare()")
        self.validate_choice(answer)
        self.seed_from_shared(answer.worker_id)
        self.database.answers.insert(answer)
        with self.arena_write():
            self.apply_answer(answer)

    def apply_answer(self, answer: Answer) -> None:
        """Drive one answer through the serving plane: incremental TI,
        the answer log, and the every-z full re-run (shared by the live
        submit path and the host's journal replay)."""
        self._incremental.submit(answer)
        self._log.append(answer)
        self._submissions_since_rerun += 1
        if self._submissions_since_rerun >= self._config.rerun_interval:
            self.run_full_inference()
            self._submissions_since_rerun = 0

    def current_truths(self) -> Dict[int, int]:
        """Current incremental truth estimates, task id -> choice.

        A read-only inspection surface (the service's ``/truths``
        endpoint): reports what incremental TI believes *now*, without
        the full iterative re-run :meth:`finalize` performs — so
        calling it mid-campaign perturbs nothing.
        """
        if self._incremental is None:
            raise ValidationError("system not prepared; call prepare()")
        return {
            task.task_id: self._incremental.state(
                task.task_id
            ).inferred_truth()
            for task in self.database.tasks()
        }

    def finalize(self) -> Dict[int, int]:
        """Final full TI; returns task id -> inferred truth.

        Tasks without a single answer are included via their prior
        state (for the usual uniform prior that is choice 1, the
        uninformed default) and recorded for
        :meth:`unanswered_task_ids`.
        """
        with self.arena_write():
            result = self.run_full_inference()
        truths = result.truths() if result is not None else {}
        complete: Dict[int, int] = {}
        unanswered: List[int] = []
        for task in self.database.tasks():
            if task.task_id in truths:
                complete[task.task_id] = truths[task.task_id]
            else:
                state = self._incremental.state(task.task_id)
                complete[task.task_id] = state.inferred_truth()
            if self.database.answers.count_for_task(task.task_id) == 0:
                unanswered.append(task.task_id)
        self._unanswered = sorted(unanswered)
        return complete

    # -- full inference + shared-store deltas ----------------------------

    def run_full_inference(self):
        """The every-z full iterative TI over the append-only log."""
        if self._log is None or len(self._log) == 0:
            return None
        ti = TruthInference(
            max_iterations=self._config.ti_max_iterations,
            default_quality=self._config.default_quality,
        )
        # Initialise from the pristine golden-test qualities: warm
        # starts from the incrementally updated store would anchor EM to
        # the drift the incremental pass accumulates on low-weight
        # domains.
        initial = dict(self._golden_qualities)
        # The append-only log already holds the solver's index arrays;
        # no answer re-indexing or domain-vector re-stacking per re-run.
        result = ti.infer_from_log(self._log, initial_qualities=initial)
        self._incremental.resync_from_arena_result(
            result, precision=self._config.serve_resync_precision
        )
        if self.on_rerun is not None:
            self.on_rerun(result)
        else:
            for worker_id, delta_mass, delta_u in (
                self.export_deltas(result)
            ):
                self._shared_store.apply_batch_delta(
                    worker_id, delta_mass, delta_u
                )
        return result

    def export_deltas(
        self, result
    ) -> List[Tuple[str, np.ndarray, np.ndarray]]:
        """Theorem-1 shared-store deltas for one full-TI result.

        A full-TI re-run's per-worker (quality, weight) is the exact
        batch estimate over this campaign's answer log. Exporting the
        *delta* since the previous re-run — in mass form, via
        :meth:`~repro.core.quality_store.WorkerQualityStore.apply_batch_delta`
        — makes repeated exports telescope to exactly one export of the
        final campaign estimate, so re-run boundaries can sync as often
        as they like without double counting. Baselines advance even
        without a shared store (and while :attr:`replaying`, when the
        original run's exports must not repeat) so a store attached
        later starts from the right boundary.

        A worker the store does not know receives the campaign's *full
        cumulative* estimate, not the delta since the baseline — a
        delta against a store that never got the base mass can encode
        a pure revision and land out of [0, 1].

        Returns:
            ``(worker_id, delta_mass, delta_u)`` triples to merge, in
            result order; empty when nothing is exporting.
        """
        exporting = (
            self._shared_store is not None and not self._replaying
        )
        deltas: List[Tuple[str, np.ndarray, np.ndarray]] = []
        for worker_row, worker_id in enumerate(result.worker_ids):
            quality = np.asarray(
                result.qualities[worker_row], dtype=float
            )
            weight = np.asarray(result.weights[worker_row], dtype=float)
            previous = self._exported_log.get(worker_id)
            if previous is None or (
                exporting and worker_id not in self._shared_store
            ):
                # First export for this worker, or a baseline advanced
                # before any store saw this worker (a store attached
                # mid-campaign): ship the whole campaign estimate.
                delta_mass = quality * weight
                delta_u = weight.copy()
            else:
                prev_q, prev_u = previous
                delta_mass = quality * weight - prev_q * prev_u
                # Weights only grow (u_k = sum of r_k over answered
                # tasks); clip guards floating-point drift.
                delta_u = np.clip(weight - prev_u, 0.0, None)
            self._exported_log[worker_id] = (
                quality.copy(), weight.copy()
            )
            if exporting and (
                np.any(delta_u > 0) or np.any(delta_mass != 0)
            ):
                deltas.append((worker_id, delta_mass, delta_u))
        return deltas

    # -- hot-state capability (CAP_HOT_STATE) ----------------------------

    def hot_state_digest(self) -> str:
        """SHA-256 over the campaign's hot state, as a hex string.

        Covers exactly the state a resume promises to rebuild
        bit-identically: the arena's choice-group buffers (R/M/S/logN),
        the campaign worker model, the pristine golden qualities, the
        bootstrapped-worker set, and the rerun cursor. Two engines
        with equal digests will serve identical assignments and infer
        identical truths — the kill-and-resume suites (and operators
        comparing a resumed service against a reference) rely on this
        instead of diffing buffers by hand.
        """
        if self._incremental is None:
            raise ValidationError("system not prepared; call prepare()")
        import hashlib

        digest = hashlib.sha256()
        arena = self._incremental.arena
        # Settle the lazy entropy cache first: a live system with dirty
        # rows and its freshly resumed twin must hash identically.
        arena.refresh_entropies()
        groups = arena.export_hot_state()
        for ell in sorted(groups):
            group = groups[ell]
            digest.update(f"group:{ell}:{group.count}".encode())
            for buffer in (group.R, group.M, group.S, group.logN):
                digest.update(np.ascontiguousarray(buffer).tobytes())
        store = self.quality_store
        for worker_id in sorted(store.known_workers()):
            stats = store.get(worker_id)
            digest.update(worker_id.encode())
            digest.update(stats.quality.tobytes())
            digest.update(stats.weight.tobytes())
        for worker_id in sorted(self._golden_qualities):
            digest.update(worker_id.encode())
            digest.update(self._golden_qualities[worker_id].tobytes())
        digest.update(
            ",".join(sorted(self._bootstrapped)).encode()
        )
        digest.update(str(self._submissions_since_rerun).encode())
        return digest.hexdigest()

    def snapshot_payload(self) -> CampaignSnapshot:
        """The complete hot state as a snapshot image the host can
        persist (and later hand back to :meth:`install_snapshot`).

        With ``config.snapshot_carry_index`` the image also carries the
        answer log's columnar index arrays, so resume can skip the
        archived-prefix read entirely (the index-carry path)."""
        store = self.quality_store
        return CampaignSnapshot(
            answer_index=(
                self._log.export_state()
                if self._config.snapshot_carry_index
                else None
            ),
            num_domains=self._incremental.arena.num_domains,
            rerun_cursor=self._submissions_since_rerun,
            groups=self._incremental.arena.export_hot_state(),
            workers={
                worker_id: store.get(worker_id)
                for worker_id in store.known_workers()
            },
            golden_qualities={
                worker_id: quality.copy()
                for worker_id, quality in self._golden_qualities.items()
            },
            bootstrapped=set(self._bootstrapped),
            exported={
                worker_id: (quality.copy(), weight.copy())
                for worker_id, (quality, weight) in (
                    self._exported_log.items()
                )
            },
        )

    def check_snapshot(
        self, snapshot: CampaignSnapshot, last_committed_seq: int
    ) -> Optional[str]:
        """Is this snapshot consistent with the catalogue and journal?

        Returns a human-readable problem (the caller logs it and falls
        back to full replay), or ``None`` when the snapshot is usable.
        """
        arena = self._incremental.arena
        if snapshot.num_domains != arena.num_domains:
            return (
                f"snapshot taxonomy size {snapshot.num_domains} != "
                f"catalogue taxonomy size {arena.num_domains}"
            )
        if snapshot.journal_seq > last_committed_seq:
            return (
                f"snapshot watermark seq {snapshot.journal_seq} is "
                f"beyond the journal's last committed seq "
                f"{last_committed_seq} (journal rows were deleted "
                "after the snapshot)"
            )
        if snapshot.rerun_cursor < 0:
            return f"negative rerun cursor {snapshot.rerun_cursor}"
        for worker_id, stats in snapshot.workers.items():
            if stats.quality.shape != (arena.num_domains,):
                return f"worker {worker_id} stats have a wrong shape"
        index = snapshot.answer_index
        if index is not None:
            count = index.task_rows.shape[0]
            if (
                index.worker_rows.shape[0] != count
                or index.choices.shape[0] != count
            ):
                return "answer-index columns disagree on length"
            if count:
                if (
                    int(index.task_rows.min()) < 0
                    or int(index.task_rows.max()) >= len(arena)
                ):
                    return (
                        "answer index references an arena row outside "
                        "the catalogue"
                    )
                if (
                    int(index.worker_rows.min()) < 0
                    or int(index.worker_rows.max())
                    >= len(index.worker_ids)
                ):
                    return (
                        "answer index references a worker row outside "
                        "its worker table"
                    )
                if int(index.choices.min()) < 0:
                    return "answer index holds a negative choice"
        return arena.check_hot_state(snapshot.groups)

    def install_snapshot(self, snapshot: CampaignSnapshot) -> None:
        """Overlay a validated snapshot onto the freshly registered
        engine (arena rows, worker model, bootstrap + export state)."""
        with self.arena_write():
            self._incremental.arena.load_hot_state(snapshot.groups)
        for worker_id, stats in snapshot.workers.items():
            self._store.set(worker_id, stats.quality, stats.weight)
        self._golden_qualities = {
            worker_id: quality.copy()
            for worker_id, quality in snapshot.golden_qualities.items()
        }
        self._bootstrapped = set(snapshot.bootstrapped)
        self._exported_log = {
            worker_id: (quality.copy(), weight.copy())
            for worker_id, (quality, weight) in snapshot.exported.items()
        }
        self._submissions_since_rerun = snapshot.rerun_cursor
