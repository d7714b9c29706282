"""DocsSystem — the campaign shell of Figure 1 behind one facade.

Since the engine-plane refactor this class is a *host*, not the
inference core: the DOCS serving heart (DVE ingest, arena, incremental
TI, Eq. 8 OTA, the AssignmentIndex/ServingPool ladder) lives in
:class:`repro.engines.docs.DocsEngine`, one entry of the engine
registry (:mod:`repro.engines`). ``DocsSystem`` hosts **any** registered
engine — ``DocsConfig.engine`` names it — and layers the campaign
surface around it: storage, the write-behind answer journal, compacted
snapshots, graceful degradation, resume, and the shared cross-campaign
worker store.

Lifecycle (mirroring the architecture figure's numbered flows):

1. ``prepare(dataset)`` — the ingest plane: with the default ``"docs"``
   engine, batch-link every task against the KB, compute all domain
   vectors with the vectorised DVE, bulk-store the tasks, register
   their arena rows, then select golden tasks. ``prepare`` runs exactly
   once per system; a second call raises.
2. New worker arrives -> ``bootstrap`` with her golden-task answers
   (quality pre-test, Section 5.2).
3. Worker requests tasks -> ``assign`` (for DOCS: OTA entropy-reduction
   benefit, Theorems 2-4, linear top-k).
4. Worker submits -> ``submit`` (for DOCS: incremental TI, Section 4.2,
   with the full iterative TI re-run every z submissions).
5. At any point after ``prepare``, ``add_tasks`` ingests *new* tasks
   mid-campaign (engines advertising the live-growth capability).
6. ``finalize`` — the engine's final inference; inferred truths
   returned to the requester.

**Capability-driven hosting.** The shell consults
:meth:`repro.engines.Engine.capabilities` instead of type checks. An
engine advertising :data:`~repro.engines.CAP_HOT_STATE` (the DOCS core
and its brute-force oracle) gets the full durability plane below —
snapshots, ``hot_state_digest``, snapshot-accelerated resume. Any
other registered engine (the Figure 8 baselines, ``batched-em``) runs
**memory-only inference** behind the same campaign surface: with
sqlite storage its raw events (golden bootstraps, answers) still spill
to the durable journal, and :meth:`resume` rebuilds the campaign by
replaying them through the engine from scratch (pass the original
``dataset=``).

**Durability.** With ``storage="sqlite"`` the campaign runs on
:class:`repro.platform.sqlite_storage.SqliteSystemDatabase`: the task
catalogue and golden registry persist at ingest time, and every
campaign event (submits, golden bootstraps) spills to the durable
``answers_log`` journal through a batched write-behind buffer
(:class:`repro.platform.journal.AnswerJournal`) — flushed every
``config.journal_batch_size`` events, on :meth:`checkpoint`, and on
:meth:`close`. A crashed campaign is rebuilt by
:meth:`DocsSystem.resume`, which replays the journal through the same
ingest and serving code paths a live campaign uses, reproducing the
arena buffers, incremental-TI posteriors, worker qualities, and rerun
cursor exactly as they stood at the last flush.

**Compacted snapshots.** Full replay is O(campaign length). Every
``config.snapshot_every_batches`` flushed journal batches — and on
every :meth:`checkpoint` / :meth:`close` — the system also serialises
the engine's hot state (arena buffers, campaign worker model, golden
qualities, rerun cursor) into ``snapshot_*`` tables, atomically with a
journal flush and compacted to the single newest image.
:meth:`resume` then loads the snapshot and replays only the journal
tail beyond its watermark — O(n + tail) instead of O(campaign). A
missing or corrupt snapshot is never fatal: resume falls back to full
replay. (Hot-state engines only.)

**Graceful degradation.** Durability failures on serving paths —
exhausted lock-contention retries on a journal flush, a snapshot or
shared-store export hitting ``sqlite3.Error`` — do not take the
campaign down. The system drops to an explicit **degraded** mode
(:meth:`durability_status`): accepted answers keep serving from the
in-memory indexes and stay buffered in the journal's pending queue,
shared-store export deltas queue in a backlog, and every entry into
degraded mode is logged loudly. :meth:`checkpoint` retries the durable
write; on success it drains the backlog and restores ``durable`` mode
with zero accepted answers lost. Only ``sqlite3.Error`` degrades —
anything else (validation errors, an injected
:class:`~repro.platform.faults.CrashPoint`) propagates unchanged.

**Cross-requester worker model.** The paper's Section 4.2 maintains
worker quality *in the database across requesters*. Passing
``worker_store=`` (typically a durable
:class:`repro.platform.sqlite_storage.SqliteWorkerQualityStore` shared
by many campaigns) turns that on for hot-state engines: workers
already known to the shared store skip the golden pre-test and enter
the campaign seeded with their stored (quality, weight) statistics,
and the campaign merges its own batch estimates back into the shared
store — Theorem-1 deltas at every full-TI re-run boundary, plus each
worker's golden-test estimate at bootstrap time.
"""

from __future__ import annotations

import logging
import sqlite3
from typing import Dict, List, Optional, Sequence, Set, Tuple

import numpy as np

from repro.core.quality_store import WorkerQualityStore
from repro.core.serving import AssignmentIndex
from repro.core.types import Answer, Task
from repro.datasets.base import CrowdDataset
from repro.errors import (
    JournalCorruptionError,
    ValidationError,
)
from repro.kb.knowledge_base import KnowledgeBase
from repro.platform.journal import (
    KIND_ANSWER,
    KIND_BOOTSTRAP_ANSWER,
    KIND_BOOTSTRAP_DONE,
)
from repro.platform.retry import RetryPolicy
from repro.platform.sqlite_storage import SqliteSystemDatabase
from repro.platform.storage import (
    RestoredAnswerColumns,
    SystemDatabase,
)
from repro.system.config import DocsConfig
from repro.system.ingest import IngestReport
from repro.system.parallel import ServingPool

logger = logging.getLogger(__name__)

#: Supported storage backends.
STORAGE_MODES = ("memory", "sqlite")


class DocsSystem:
    """The campaign shell: any registered engine behind one facade.

    With the default ``config.engine == "docs"`` this is the
    domain-aware crowdsourcing system of the paper, bit-identical to
    the pre-refactor monolith; with any other registry name the same
    surface hosts that engine (see the module docstring for what the
    capability hooks change). Implements the
    :class:`repro.engines.Engine` lifecycle, so it can be driven by
    :class:`repro.platform.PlatformSimulator` alongside bare engines.

    Args:
        config: system configuration (defaults follow the paper);
            ``config.engine`` names the hosted inference engine.
        storage: ``"memory"`` (default; fastest, nothing survives the
            process) or ``"sqlite"`` (durable: tasks, golden registry,
            the answer journal, and — for hot-state engines —
            compacted snapshots live in one SQLite file, and the
            campaign can be resumed from it with :meth:`resume`).
        path: the SQLite database path; required with
            ``storage="sqlite"`` (pass ``":memory:"`` explicitly for an
            ephemeral throwaway database).
        worker_store: an optional *shared, cross-campaign* worker model
            (any object with the
            :class:`repro.core.quality_store.WorkerQualityStore`
            interface, typically a durable
            :class:`repro.platform.sqlite_storage.SqliteWorkerQualityStore`
            shared by many campaigns). Workers it knows skip the golden
            pre-test and are seeded from it; the campaign merges its
            Theorem-1 batch estimates back at re-run boundaries. The
            campaign does not own the store and never closes it.
            Hot-state engines only.
    """

    def __init__(
        self,
        config: Optional[DocsConfig] = None,
        *,
        storage: str = "memory",
        path: Optional[str] = None,
        worker_store: Optional[WorkerQualityStore] = None,
    ):
        self._config = config or DocsConfig()
        self._config.validate()
        if storage not in STORAGE_MODES:
            raise ValidationError(
                f"unknown storage mode {storage!r}; expected one of "
                f"{STORAGE_MODES}"
            )
        if storage == "sqlite" and path is None:
            raise ValidationError(
                "storage='sqlite' requires a database path; pass "
                "path=... (use ':memory:' explicitly for an ephemeral "
                "database)"
            )
        self._storage = storage
        self._path = path
        self._db: Optional[SystemDatabase] = None

        # The hosted inference engine (lazy import: the registry's
        # factories reach back into repro.system).
        from repro.engines.base import (
            CAP_HOT_STATE,
            CAP_LIVE_GROWTH,
        )
        from repro.engines.registry import make_engine

        self._engine = make_engine(
            self._config.engine,
            seed=self._config.seed,
            config=self._config,
        )
        caps = self._engine.capabilities()
        #: Hot-state capability: the engine exposes the DocsEngine host
        #: seam (build/rebuild, arena_write, snapshots, digests). The
        #: shell's durability plane keys off this, never off types.
        self._hot = CAP_HOT_STATE in caps
        self._live_growth = CAP_LIVE_GROWTH in caps
        if self._hot:
            # The shell owns durable-first export ordering around the
            # engine's full-TI re-runs.
            self._engine.on_rerun = self._export_to_shared
        if worker_store is not None:
            if not self._hot:
                raise ValidationError(
                    f"engine {self._engine.name!r} has no hot-state "
                    "capability and cannot maintain a shared "
                    "cross-campaign worker store"
                )
            self._engine.attach_shared_store(worker_store)

        #: Task id -> journal row, for engines without an arena to
        #: resolve rows (bound to the journal with sqlite storage).
        self._task_rows: Dict[int, int] = {}
        #: journal.flushed_batches as of the last snapshot (the
        #: auto-snapshot trigger's baseline).
        self._last_snapshot_batch = 0
        #: True while resume() replays the journal: suppresses
        #: shared-store exports (the original run already made them)
        #: and snapshot writes.
        self._replaying = False
        #: Filled by resume(): {"snapshot_seq": int | None,
        #: "tail_entries": int} (plus "salvage" under repair=True).
        self._resume_info: Optional[Dict[str, object]] = None
        #: How the archived answer prefix was rebuilt on resume:
        #: "index-carry" (snapshot-carried columns), "archive-scan"
        #: (the committed_answers_through read), or None (fresh
        #: campaign / full replay / nothing archived).
        self._restore_path: Optional[str] = None
        #: True while durable writes are failing: answers buffer in
        #: memory (journal pending), exports queue in
        #: ``_pending_shared_exports``, serving continues.
        self._degraded = False
        #: Why the campaign degraded (first failure's description).
        self._degraded_reason: Optional[str] = None
        #: Shared-store deltas (worker_id, Δmass, Δu) that could not be
        #: merged while degraded; drained by :meth:`checkpoint`.
        self._pending_shared_exports: List[
            Tuple[str, np.ndarray, np.ndarray]
        ] = []

    # -- identity & accessors --------------------------------------------

    @property
    def name(self) -> str:
        """The hosted engine's display name (``"DOCS"`` by default)."""
        return self._engine.name

    @property
    def engine(self):
        """The hosted :class:`repro.engines.Engine` instance."""
        return self._engine

    @property
    def config(self) -> DocsConfig:
        """The active configuration."""
        return self._config

    @property
    def storage(self) -> str:
        """The storage mode: ``"memory"`` or ``"sqlite"``."""
        return self._storage

    @property
    def path(self) -> Optional[str]:
        """The SQLite database path (``None`` in memory mode)."""
        return self._path

    @property
    def database(self) -> SystemDatabase:
        """The system's storage (tasks, answers, golden registry)."""
        if self._db is None:
            raise ValidationError("system not prepared; call prepare()")
        return self._db

    @property
    def quality_store(self) -> WorkerQualityStore:
        """The campaign-local worker model (hot-state engines)."""
        self._require_hot("a campaign worker model")
        return self._engine.quality_store

    @property
    def shared_worker_store(self) -> Optional[WorkerQualityStore]:
        """The shared cross-campaign worker model, if attached."""
        return self._shared_store

    @property
    def serving_index(self) -> Optional[AssignmentIndex]:
        """The serving-plane benefit index (``None`` before
        :meth:`prepare`, when ``config.serve_index`` is off, or for
        engines without the hot-state serving plane)."""
        return self._engine.serving_index if self._hot else None

    @property
    def serving_pool(self) -> Optional[ServingPool]:
        """The multi-process serving pool (``None`` before
        :meth:`prepare`, with ``config.workers == 0``, after the
        pool degraded/closed, or for engines without one)."""
        return self._engine.pool if self._hot else None

    @property
    def resume_info(self) -> Optional[Dict[str, object]]:
        """How the system was rebuilt, on a resumed system.

        ``{"snapshot_seq": watermark or None, "tail_entries": n}`` —
        ``snapshot_seq`` is ``None`` when resume fell back to full
        journal replay (always, for engines without snapshots).
        ``None`` on systems that were never resumed.
        """
        return self._resume_info

    # Backward-compatible views of the engine-owned hot state (tests
    # and the durability plane read these; the engine owns the truth).

    @property
    def _incremental(self):
        return self._engine.incremental if self._hot else None

    @property
    def _log(self):
        return self._engine.log if self._hot else None

    @property
    def _bootstrapped(self) -> Set[str]:
        if self._hot:
            return self._engine.bootstrapped
        return getattr(self._engine, "_bootstrapped", set())

    @property
    def _exported_log(self):
        return self._engine.exported_log if self._hot else {}

    @property
    def _submissions_since_rerun(self) -> int:
        return (
            self._engine.submissions_since_rerun if self._hot else 0
        )

    @property
    def _shared_store(self) -> Optional[WorkerQualityStore]:
        return self._engine.shared_store if self._hot else None

    def _require_hot(self, what: str) -> None:
        """Reject a hot-state-only operation for engines without the
        capability, naming the engine and the missing surface."""
        if not self._hot:
            raise ValidationError(
                f"engine {self._engine.name!r} has no hot-state "
                f"capability and therefore no {what}"
            )

    def attach_worker_store(self, worker_store: WorkerQualityStore) -> None:
        """Attach a shared cross-campaign worker model mid-campaign.

        Useful after :meth:`resume`, which needs the task catalogue to
        know the taxonomy size a store must match. Export semantics on
        first contact: a worker the store does not know receives the
        campaign's *full current estimate* (a bare post-attachment
        delta could encode an out-of-range revision against a store
        with no base mass); a worker the store already knows receives
        deltas from the attachment-time baseline onward.

        Raises:
            ValidationError: if a store is already attached, the
                store's taxonomy size disagrees with the campaign's,
                or the hosted engine has no hot-state capability.
        """
        self._require_hot("shared worker store")
        self._engine.attach_shared_store(worker_store)

    # -- Engine lifecycle (hosted) ---------------------------------------

    def prepare(self, dataset: CrowdDataset) -> None:
        """Build the hosted engine over the dataset, persisting the
        task catalogue and golden registry into this campaign's storage.

        With a hot-state engine this runs its full ingest plane into
        the campaign database; other engines prepare their own
        in-memory state while the shell stores the catalogue (and, with
        sqlite, journals every later event for replay-based resume).

        ``prepare`` is single-shot by design: the golden selection, the
        worker model, and the serving state all key off the initial
        batch, so rebuilding them silently would discard campaign state.

        Raises:
            ValidationError: if the system is already prepared (use
                :meth:`add_tasks` to grow the pool, or build a new
                system), or the dataset carries duplicate task ids
                (deduplicate it first).
        """
        if self._db is not None:
            raise ValidationError(
                "prepare() already ran for this DocsSystem; use "
                "add_tasks() to ingest more tasks, or build a new system"
            )
        db = self._make_database()
        try:
            if self._hot:
                self._engine.build(db, dataset)
            else:
                db.add_tasks(dataset.tasks)
                self._engine.prepare(dataset)
                db.mark_golden(self._engine.golden_task_ids())
                self._task_rows = {
                    t.task_id: i
                    for i, t in enumerate(dataset.tasks)
                }
        except Exception:
            if hasattr(db, "close"):
                db.close()
            raise
        if getattr(db, "journal", None) is not None:
            db.answers.bind_row_resolver(self._row_resolver())
        self._db = db
        if self._hot:
            self._engine.build_serving_plane()

    def _row_resolver(self):
        """task id -> journal row: the arena's registration row for
        hot-state engines, the ingest position otherwise."""
        if self._hot:
            return self._engine.incremental.arena.global_row
        return self._task_rows.__getitem__

    def _task_row(self, task_id: int) -> int:
        return self._row_resolver()(task_id)

    def _commit_retry_policy(self) -> RetryPolicy:
        """The config-derived backoff policy for durable commits."""
        return RetryPolicy(
            attempts=self._config.commit_retry_attempts,
            base_delay=self._config.commit_retry_base_delay,
            max_delay=self._config.commit_retry_max_delay,
        )

    def _make_database(self) -> SystemDatabase:
        if self._storage == "memory":
            return SystemDatabase()
        db = SqliteSystemDatabase(
            self._path,
            journal_batch_size=self._config.journal_batch_size,
            busy_timeout_ms=self._config.busy_timeout_ms,
            retry=self._commit_retry_policy(),
        )
        if len(db) > 0:
            db.close()
            raise ValidationError(
                f"database at {self._path!r} already holds a campaign; "
                f"continue it with DocsSystem.resume({self._path!r}) or "
                "choose a fresh path"
            )
        return db

    def add_tasks(self, tasks: Sequence[Task]) -> IngestReport:
        """Ingest new tasks mid-campaign (live task growth).

        Runs the hot-state engine's staged pipeline — batch linking,
        vectorised DVE, bulk store, arena block registration — so the
        new tasks are immediately eligible for assignment and their
        answers flow through the same incremental/full TI as the
        initial batch. Golden tasks and existing worker qualities are
        unchanged.

        Args:
            tasks: the new tasks; ids must not collide with anything
                already ingested.

        Returns:
            The pipeline's :class:`repro.system.ingest.IngestReport`.

        Raises:
            ValidationError: if called before :meth:`prepare`, on
                duplicate task ids (the message names the offending id;
                deduplicate the batch or assign fresh ids), or when the
                hosted engine does not advertise the live-growth
                capability.
        """
        if not self._live_growth:
            raise ValidationError(
                f"engine {self._engine.name!r} does not advertise the "
                "live-growth capability; its task set is fixed at "
                "prepare()"
            )
        return self._engine.add_tasks(tasks)

    def golden_task_ids(self) -> List[int]:
        """Golden tasks assigned to every new worker."""
        return self._engine.golden_task_ids()

    def needs_bootstrap(self, worker_id: str) -> bool:
        """New workers are quality-tested before real assignments.

        Workers already known to the shared cross-campaign store are
        *not* new: they skip the golden pre-test and enter this
        campaign seeded with their stored statistics (Section 4.2's
        worker model maintained across requesters).
        """
        return self._engine.needs_bootstrap(worker_id)

    def bootstrap(self, worker_id: str, answers: Sequence[Answer]) -> None:
        """Initialise a new worker's quality from golden-task answers.

        Durability failures (``sqlite3.Error`` on the journal flush or
        the shared-store merge) degrade the campaign instead of failing
        the bootstrap: the worker's quality is live in memory, the
        journal retains the bootstrap events in its pending buffer, and
        the shared-store delta queues for :meth:`checkpoint` to drain.
        """
        if self._hot:
            self._engine.restore_bootstrap(worker_id, answers)
        else:
            self._engine.bootstrap(worker_id, answers)
        journal = getattr(self.database, "journal", None)
        if journal is not None:
            rows = [self._task_row(a.task_id) for a in answers]
            try:
                journal.record_bootstrap(worker_id, answers, rows)
            except sqlite3.Error as exc:
                # The bootstrap events are retained in the pending
                # buffer; only the batch-full flush failed.
                self._enter_degraded("journal flush during bootstrap", exc)
        if self._shared_store is not None and answers:
            # The golden pre-test is campaign evidence the shared store
            # would otherwise never see (full-TI re-runs cover only the
            # answer log). Durable-first: flush the just-recorded
            # bootstrap before merging, so a crash cannot leave golden
            # evidence in the store for a bootstrap the campaign file
            # never recorded. While the flush is failing the merge is
            # queued, not applied — same rule, degraded spelling. The
            # merge itself goes through the atomic delta primitive —
            # other campaigns may be exporting to the same file
            # concurrently.
            durable = True
            if journal is not None:
                try:
                    journal.flush()
                except sqlite3.Error as exc:
                    self._enter_degraded(
                        "journal flush during bootstrap", exc
                    )
                    durable = False
            stats = self.quality_store.get(worker_id)
            delta_mass = stats.quality * stats.weight
            delta_u = stats.weight.copy()
            if durable:
                try:
                    self._shared_store.apply_batch_delta(
                        worker_id, delta_mass, delta_u
                    )
                except sqlite3.Error as exc:
                    self._enter_degraded(
                        "shared-store bootstrap export", exc
                    )
                    self._pending_shared_exports.append(
                        (worker_id, delta_mass, delta_u)
                    )
            else:
                self._pending_shared_exports.append(
                    (worker_id, delta_mass, delta_u)
                )
        self._maybe_auto_snapshot()

    def assign(self, worker_id: str, k: Optional[int] = None) -> List[int]:
        """The engine's pick of up to k tasks for this arrival.

        With the DOCS engine this is OTA — the k highest-benefit tasks
        the worker has not answered, served from the AssignmentIndex's
        cached benefit columns with picks bit-identical to a full-pool
        evaluation; other engines apply their own policy.

        Raises:
            ValidationError: if the system is not prepared.
            UnknownWorkerError: if the campaign runs a golden pre-test
                and this worker has not completed it (and no shared
                store knows her) — bootstrap discipline, uniform across
                every engine; callers (and the HTTP service, which maps
                it to 404) route the worker to :meth:`bootstrap` first.
        """
        if self._hot:
            return self._engine.assign(worker_id, k)
        return self._engine.assign(
            worker_id, k if k is not None else self._config.hit_size
        )

    def assign_many(
        self, worker_ids: Sequence[str], k: Optional[int] = None
    ) -> List[List[int]]:
        """One HIT per arriving worker, served as a single batch.

        With the DOCS engine and ``config.workers`` the selects fan out
        across the serving pool's processes and evaluate concurrently;
        engines without the batch-assign capability are served one
        arrival at a time. Picks are identical to calling
        :meth:`assign` per worker in order, either way.

        Args:
            worker_ids: the arriving workers (duplicates allowed; each
                occurrence is served independently).
            k: HIT size override applied to every arrival.

        Returns:
            One task-id list per worker id, order preserved.
        """
        if self._hot:
            return self._engine.assign_many(worker_ids, k)
        return self._engine.assign_many(
            worker_ids, k if k is not None else self._config.hit_size
        )

    def submit(self, answer: Answer) -> None:
        """Ingest an answer: store it durably and drive it through the
        engine's inference (for DOCS: incremental TI, with the full
        iterative re-run every z submissions)."""
        if self._hot:
            engine = self._engine
            if engine.incremental is None:
                raise ValidationError(
                    "system not prepared; call prepare()"
                )
            # Validate against the task before touching any store, so a
            # bad answer cannot leave the answer table, the incremental
            # state, and the answer log disagreeing with each other.
            engine.validate_choice(answer)
            engine.seed_from_shared(answer.worker_id)
            try:
                self.database.answers.insert(answer)
            except sqlite3.Error as exc:
                # The in-memory index accepted the answer and the
                # journal retained it in the pending buffer before the
                # batch-full flush failed — nothing is dropped, the
                # event is just not durable yet. Serve on, degraded.
                self._enter_degraded("journal flush during submit", exc)
            with engine.arena_write():
                engine.apply_answer(answer)
        else:
            # The engine validates and indexes first (its own answer
            # table enforces at-most-once); only accepted answers reach
            # the journal.
            self._engine.submit(answer)
            try:
                self.database.answers.insert(answer)
            except sqlite3.Error as exc:
                self._enter_degraded("journal flush during submit", exc)
        self._maybe_auto_snapshot()

    def current_truths(self) -> Dict[int, int]:
        """Current truth estimates, task id -> choice, if the engine
        exposes them live.

        A read-only inspection surface (the service's ``/truths``
        endpoint): with the DOCS engine it reports what incremental TI
        believes *now*, without the full iterative re-run
        :meth:`finalize` performs — so calling it mid-campaign perturbs
        nothing.

        Raises:
            ValidationError: if the system is not prepared, or the
                engine only infers at finalize time.
        """
        return self._engine.current_truths()

    def finalize(self) -> Dict[int, int]:
        """The engine's final inference; returns task id -> truth,
        covering every task (unanswered tasks get the engine's
        documented uninformed default; see
        :meth:`unanswered_task_ids`)."""
        return self._engine.finalize()

    def unanswered_task_ids(self) -> List[int]:
        """Tasks finalized without a single answer (after
        :meth:`finalize`; see
        :meth:`repro.engines.Engine.unanswered_task_ids`)."""
        return self._engine.unanswered_task_ids()

    # -- durability ------------------------------------------------------

    def checkpoint(self) -> int:
        """Flush the write-behind answer journal and (for hot-state
        engines) snapshot the hot state.

        Bounds the crash-loss window to zero as of this call; between
        checkpoints a crash can lose at most the unflushed tail (under
        ``config.journal_batch_size`` events). With journaled sqlite
        storage and a hot-state engine the flush and a compacted
        hot-state snapshot commit in one transaction, so a later
        :meth:`resume` loads the snapshot and replays nothing.
        Idempotent; a no-op (0) with in-memory storage.

        This is also the **degraded-mode recovery path**: a campaign
        that dropped to degraded mode (see :meth:`durability_status`)
        retries the durable write here — on success every buffered
        event commits, the queued shared-store deltas drain, and the
        campaign returns to ``durable`` with zero accepted answers
        lost. On continued failure the error propagates (the campaign
        stays degraded and keeps serving).

        Returns:
            The number of journal rows made durable.

        Raises:
            ValidationError: if the system is not prepared.
            sqlite3.Error: if the durable write is still failing.
        """
        db = self.database
        if getattr(db, "journal", None) is not None:
            try:
                if self._hot:
                    flushed = self.snapshot()
                else:
                    flushed = db.journal.flush()
            except sqlite3.Error as exc:
                self._enter_degraded("checkpoint", exc)
                raise
            self._drain_shared_backlog()
            self._exit_degraded()
            return flushed
        if hasattr(db, "checkpoint"):
            return db.checkpoint()
        return 0

    def flush_journal(self) -> int:
        """Make every accepted-but-buffered event durable, without the
        snapshot a full :meth:`checkpoint` would also write.

        The HTTP service's submit coalescing acknowledges a whole batch
        of answers behind **one** such flush — cheaper than a
        per-answer fsync, durable by ack time, and far lighter than
        snapshotting per batch. A failing flush degrades the campaign
        exactly like the serving paths do (the answers stay accepted
        and buffered; :meth:`checkpoint` recovers) rather than raising.

        Returns:
            Journal rows made durable (0 with in-memory storage, with
            nothing pending, or when the flush failed into degraded
            mode).
        """
        journal = (
            getattr(self._db, "journal", None)
            if self._db is not None
            else None
        )
        if journal is None:
            return 0
        try:
            return journal.flush()
        except sqlite3.Error as exc:
            self._enter_degraded("service batch flush", exc)
            return 0

    def durability_status(self) -> Dict[str, object]:
        """Where this campaign's durability stands, as a plain dict.

        Keys:

        - ``mode`` — ``"memory"`` (nothing durable by design),
          ``"durable"`` (journaled sqlite, healthy), or ``"degraded"``
          (durable writes failing; serving continues from memory).
        - ``degraded`` — convenience boolean for ``mode ==
          "degraded"``.
        - ``reason`` — the first failure that degraded the campaign
          (``None`` when healthy).
        - ``buffered_events`` — journal events accepted but not yet
          durable (the crash-loss window; bounded by
          ``config.journal_batch_size`` when healthy, unbounded while
          degraded).
        - ``queued_exports`` — shared-store deltas waiting for
          :meth:`checkpoint` to drain.
        """
        journal = (
            getattr(self._db, "journal", None)
            if self._db is not None
            else None
        )
        if journal is None:
            mode = "memory"
        elif self._degraded:
            mode = "degraded"
        else:
            mode = "durable"
        return {
            "mode": mode,
            "degraded": self._degraded,
            "reason": self._degraded_reason,
            "buffered_events": (
                journal.pending if journal is not None else 0
            ),
            "queued_exports": len(self._pending_shared_exports),
        }

    def analytics(
        self,
        query: str,
        params: Optional[Dict[str, object]] = None,
    ) -> Dict[str, object]:
        """Run one SQL-pushdown analytics query over this campaign.

        Delegates to :func:`repro.analytics.run_query` on the
        campaign's own sqlite connection: the query ranges over the
        **durable** answer prefix (``answers_archive`` plus committed
        ``answers_log`` rows) through the covering analytics indexes,
        building zero ``Answer``/``Task`` objects. Read-only — answers
        accepted but still buffered in the journal are invisible until
        the next flush/checkpoint, which is exactly the crash-surviving
        view.

        Args:
            query: a :data:`repro.analytics.QUERY_NAMES` entry.
            params: optional query parameters (ints, numeric strings,
                or ``parse_qs``-style one-element lists).

        Returns:
            ``{"query", "params", "rows"}`` of plain JSON-ready values.

        Raises:
            ValidationError: with in-memory storage (there is no
                durable relation to query), for an unknown query name
                (:class:`repro.analytics.UnknownAnalyticsQueryError`),
                or for a malformed parameter.
        """
        from repro.analytics import run_query

        conn = (
            getattr(self._db, "_conn", None)
            if self._db is not None
            else None
        )
        if conn is None or getattr(self._db, "journal", None) is None:
            raise ValidationError(
                "analytics needs journaled sqlite storage; this "
                f"campaign uses storage={self._storage!r}"
            )
        return run_query(conn, query, params)

    def _enter_degraded(
        self, description: str, exc: BaseException
    ) -> None:
        """Flip to degraded mode (idempotent), loudly on first entry."""
        if not self._degraded:
            self._degraded = True
            self._degraded_reason = f"{description}: {exc}"
            logger.error(
                "durable write failed (%s: %s); campaign at %r is now "
                "DEGRADED — serving continues from memory, accepted "
                "answers stay buffered, shared-store exports queue; "
                "call checkpoint() to retry the durable write",
                description, exc, self._path, exc_info=True,
            )
        else:
            logger.warning(
                "durable write failed again while degraded (%s: %s)",
                description, exc,
            )

    def _exit_degraded(self) -> None:
        """Return to durable mode after a successful checkpoint."""
        if not self._degraded:
            return
        self._degraded = False
        reason, self._degraded_reason = self._degraded_reason, None
        logger.warning(
            "campaign at %r recovered from degraded mode (was: %s); "
            "buffered events are durable and queued exports drained",
            self._path, reason,
        )

    def _drain_shared_backlog(self) -> None:
        """Merge queued shared-store deltas, oldest first.

        A delta is popped only after its merge commits, so a failure
        mid-drain keeps the remainder queued (and the campaign
        degraded) — Theorem 1's fold is order-insensitive but losing a
        queued delta would permanently under-count the campaign's
        evidence.
        """
        while self._pending_shared_exports:
            if self._shared_store is None:
                return
            worker_id, delta_mass, delta_u = (
                self._pending_shared_exports[0]
            )
            try:
                self._shared_store.apply_batch_delta(
                    worker_id, delta_mass, delta_u
                )
            except sqlite3.Error as exc:
                self._enter_degraded("shared-store backlog drain", exc)
                raise
            self._pending_shared_exports.pop(0)

    def hot_state_digest(self) -> str:
        """SHA-256 over the campaign's hot state, as a hex string.

        Covers exactly the state :meth:`resume` promises to rebuild
        bit-identically — see
        :meth:`repro.engines.docs.DocsEngine.hot_state_digest`. Two
        systems with equal digests will serve identical assignments and
        infer identical truths.

        Raises:
            ValidationError: if the system is not prepared, or the
                hosted engine has no hot-state capability.
        """
        self._require_hot("hot-state digest")
        return self._engine.hot_state_digest()

    def snapshot(self) -> int:
        """Write a compacted hot-state snapshot (journaled sqlite,
        hot-state engines only).

        Serialises the engine's hot state — arena choice-group buffers,
        the campaign worker model, the pristine golden qualities, the
        bootstrapped-worker set, the shared-store export baselines, and
        the rerun cursor — into the campaign file's ``snapshot_*``
        tables, in the same transaction as a journal flush, replacing
        any older snapshot. :meth:`resume` then loads this image and
        replays only the journal tail written after it.

        Returns:
            Journal rows made durable by the embedded flush.

        Raises:
            ValidationError: if the system is not prepared, storage is
                not journaled sqlite (in-memory campaigns have nothing
                durable to snapshot into), or the hosted engine has no
                hot state to snapshot.
        """
        db = self.database
        if getattr(db, "journal", None) is None:
            raise ValidationError(
                "snapshots require storage='sqlite'; in-memory "
                "campaigns have no durable file to snapshot into"
            )
        self._require_hot("snapshot image")
        payload = self._engine.snapshot_payload()
        flushed = db.write_snapshot(payload)
        self._last_snapshot_batch = db.journal.flushed_batches
        if self._config.truncate_journal:
            # The snapshot just committed covers every row at or below
            # its watermark; archive them so later resumes validate and
            # replay only the tail.
            db.journal.truncate_through(payload.journal_seq)
        return flushed

    def _maybe_auto_snapshot(self) -> None:
        """Snapshot when enough journal batches accrued since the last."""
        every = self._config.snapshot_every_batches
        if every <= 0 or self._replaying or not self._hot:
            return
        journal = getattr(self._db, "journal", None)
        if journal is None:
            return
        if journal.flushed_batches - self._last_snapshot_batch >= every:
            try:
                self.snapshot()
            except sqlite3.Error as exc:
                # The snapshot transaction rolled back and the journal's
                # cursors/pending buffer were restored; the campaign
                # serves on degraded until a checkpoint succeeds.
                self._enter_degraded("auto-snapshot", exc)

    def close(self) -> None:
        """Checkpoint (flush + snapshot where supported) and release
        the storage backend (idempotent).

        After ``close`` the campaign file holds everything needed by
        :meth:`resume` — for hot-state engines including a snapshot of
        the final hot state. A no-op with in-memory storage or before
        :meth:`prepare`.

        A degraded campaign whose final durable write still fails
        raises instead of closing: silently releasing the connection
        would drop the buffered (accepted but not yet durable) events —
        and the parallel serving plane stays up, so the still-degraded
        campaign keeps serving.

        With ``config.workers`` the close also stops the serving pool
        and unlinks the shared-memory arena (after the durability
        work, which reads the arena buffers) — so even an in-memory
        campaign with workers must be closed to release ``/dev/shm``.
        """
        if self._db is not None and hasattr(self._db, "close"):
            if (
                getattr(self._db, "journal", None) is not None
                and not getattr(self._db, "closed", False)
            ):
                if self._hot:
                    self.snapshot()
                else:
                    self._db.journal.flush()
            self._db.close()
        if self._hot:
            self._engine.shutdown_parallel()

    # -- resume ----------------------------------------------------------

    @classmethod
    def resume(
        cls,
        path: str,
        config: Optional[DocsConfig] = None,
        kb: Optional[KnowledgeBase] = None,
        worker_store: Optional[WorkerQualityStore] = None,
        repair: bool = False,
        dataset: Optional[CrowdDataset] = None,
    ) -> "DocsSystem":
        """Rebuild a sqlite-backed campaign from its database file.

        With a hot-state engine (``config.engine`` of ``"docs"`` /
        ``"oracle"``): loads the task catalogue in its original arena
        registration order, re-registers every task through the
        bulk-ingest plane (linking and DVE are skipped — domain vectors
        persisted with the tasks), restores the golden registry, then
        rebuilds the hot state: if the file holds a valid snapshot, its
        image is loaded and only the journal tail beyond its watermark
        is replayed — O(n + tail) instead of O(campaign); otherwise (no
        snapshot, or one that fails its checksum / shape / watermark
        checks, logged as a warning) the whole journal replays through
        the same bootstrap/submit code paths a live campaign uses.
        Either way the resumed system's hot state — arena buffers,
        incremental-TI posteriors, worker qualities, rerun cursor — is
        identical to the original's at its last flush, and the campaign
        continues from there: ``assign`` / ``submit`` / ``add_tasks`` /
        ``finalize`` all work. :attr:`resume_info` records which path
        ran. One caveat scopes the identical-state guarantee: with a
        shared ``worker_store``, the *full-replay fallback* re-seeds
        returning workers from the store's **current** values (seeding
        is not a journal event), so if the store moved on since the
        original seed the rebuilt campaign tracks the newer prior; the
        snapshot path restores the exact seeded values.

        With any other engine the campaign has no snapshot image:
        resume re-prepares the engine from the original ``dataset``
        (required — the catalogue alone lacks the KB/taxonomy an
        engine's ``prepare`` needs) and replays the **entire** journal
        — every golden bootstrap and answer — through the engine's own
        bootstrap/submit paths, rebuilding its in-memory inference
        state event for event.

        Args:
            path: the SQLite file a ``DocsSystem(storage="sqlite")``
                campaign ran on.
            config: configuration for the resumed system; must match
                the original run's engine and inference knobs
                (``rerun_interval``, ``default_quality``,
                ``ti_max_iterations``) for the replay to reproduce it
                exactly.
            kb: optional knowledge base, re-attached to the ingest
                pipeline so :meth:`add_tasks` can link *new* task texts
                after the resume. Without it, added tasks must carry
                precomputed domain vectors. Hot-state engines only.
            worker_store: optional shared cross-campaign worker model
                (see the constructor). Exports made before the crash
                are not repeated during replay.
            repair: salvage a torn journal tail before validating —
                :meth:`repro.platform.journal.AnswerJournal.salvage`
                truncates back to the last CRC-consistent batch
                boundary, so a file whose final write was cut mid-batch
                resumes at the longest replayable prefix instead of
                raising :class:`~repro.errors.JournalCorruptionError`.
                The salvage report (what was dropped, and why) lands in
                :attr:`resume_info` under ``"salvage"``. Committed
                batches are never touched; default off, because
                truncation is irreversible.
            dataset: the campaign's original dataset, required when the
                configured engine has no hot-state capability (its task
                ids must match the persisted catalogue).

        Returns:
            The resumed, ready-to-serve system.

        Raises:
            ValidationError: if the database holds no campaign, or a
                non-hot-state engine is resumed without ``dataset``.
            JournalCorruptionError: if the journal fails its integrity
                check (partial/corrupt final batch) and ``repair`` is
                off — or fails it even after a salvage.
        """
        system = cls(
            config, storage="sqlite", path=path,
            worker_store=worker_store,
        )
        cfg = system._config
        db = SqliteSystemDatabase(
            path,
            journal_batch_size=cfg.journal_batch_size,
            busy_timeout_ms=cfg.busy_timeout_ms,
            retry=system._commit_retry_policy(),
        )
        try:
            tasks = db.tasks_in_ingest_order()
            if not tasks:
                raise ValidationError(
                    f"nothing to resume at {path!r}: the database holds "
                    "no tasks; run a campaign with "
                    "DocsSystem(storage='sqlite', path=...) first"
                )
            salvage_report = None
            if repair:
                salvage_report = db.journal.salvage()
            db.journal.validate()
            if system._hot:
                snapshot = system._resume_hot(db, tasks, kb)
            else:
                snapshot = None
                system._resume_generic(db, tasks, dataset)
            db.answers.bind_row_resolver(system._row_resolver())
            tail = system._replay_journal(
                from_seq=(
                    snapshot.journal_seq if snapshot is not None else -1
                ),
                snapshot=snapshot,
            )
            system._resume_info = {
                "snapshot_seq": (
                    snapshot.journal_seq
                    if snapshot is not None
                    else None
                ),
                "tail_entries": tail,
                "restore_path": system._restore_path,
            }
            if repair:
                system._resume_info["salvage"] = salvage_report
            system._last_snapshot_batch = db.journal.flushed_batches
            if system._hot:
                system._engine.build_serving_plane()
        except Exception:
            db.close()
            system._db = None
            if system._hot:
                system._engine.shutdown_parallel()
            raise
        return system

    def _resume_hot(self, db, tasks: Sequence[Task], kb):
        """Rebuild a hot-state engine's catalogue registration and pick
        the resume path (snapshot tail-replay vs full replay).

        Returns the snapshot to replay beyond, or ``None`` for full
        replay.
        """
        missing = [
            t.task_id for t in tasks if t.domain_vector is None
        ]
        if missing:
            raise ValidationError(
                f"task {missing[0]} has no persisted domain vector; "
                "the file was not written by a DocsSystem campaign "
                "and cannot be resumed"
            )
        self._engine.rebuild(db, tasks, kb=kb)
        self._db = db
        snapshot = db.load_snapshot()
        if snapshot is not None:
            problem = self._engine.check_snapshot(
                snapshot, db.journal.last_committed_seq
            )
            if problem is not None:
                logger.warning(
                    "snapshot at %r rejected (%s); falling back to "
                    "full journal replay", self._path, problem,
                )
                snapshot = None
        if snapshot is None and db.journal.archived_through >= 0:
            # config.truncate_journal moved the pre-watermark rows
            # into the archive; without a usable snapshot their
            # serving-plane effect cannot be reproduced.
            raise JournalCorruptionError(
                f"the journal at {self._path!r} was truncated through "
                f"seq {db.journal.archived_through} after a snapshot, "
                "but no usable snapshot remains — full replay "
                "cannot rebuild the truncated prefix; restore the "
                "file from a backup"
            )
        if snapshot is not None:
            self._engine.install_snapshot(snapshot)
        return snapshot

    def _resume_generic(
        self,
        db,
        tasks: Sequence[Task],
        dataset: Optional[CrowdDataset],
    ) -> None:
        """Re-prepare a memory-only engine for full journal replay."""
        if dataset is None:
            raise ValidationError(
                f"engine {self._engine.name!r} has no hot-state "
                "capability; resuming it needs the campaign's original "
                "dataset — pass dataset=..."
            )
        catalogue_ids = sorted(t.task_id for t in tasks)
        dataset_ids = sorted(t.task_id for t in dataset.tasks)
        if catalogue_ids != dataset_ids:
            raise ValidationError(
                "the provided dataset's task ids do not match the "
                f"campaign catalogue at {self._path!r}; resume needs "
                "the same dataset the campaign ran on"
            )
        if db.journal.archived_through >= 0:
            raise JournalCorruptionError(
                f"the journal at {self._path!r} was truncated through "
                f"seq {db.journal.archived_through}, but engine "
                f"{self._engine.name!r} resumes by full replay only — "
                "the truncated prefix cannot be rebuilt; restore the "
                "file from a backup"
            )
        self._engine.prepare(dataset)
        self._task_rows = {
            t.task_id: i for i, t in enumerate(tasks)
        }
        self._db = db

    def _restore_compacted(self, through_seq: int) -> None:
        """Rebuild the indexes the snapshot cannot carry, in bulk.

        Answers at or before the watermark are already applied to the
        snapshot's numeric state; what replay cannot skip is the
        in-memory answer table, the append-only answer log, and the
        per-task answer histories. They are rebuilt from one columnar
        journal read with no per-answer inference arithmetic and no
        full-TI re-runs — the O(tail-free) part of snapshot resume.
        Pre-watermark bootstrap events need nothing at all: their whole
        effect lives in the snapshot's worker tables.
        """
        rows = self.database.journal.committed_answers_through(
            through_seq
        )
        if not rows:
            return
        arena = self._incremental.arena
        order = np.asarray(arena.task_ids(), dtype=np.int64)
        task_rows = np.fromiter(
            (row[1] for row in rows), dtype=np.int64, count=len(rows)
        )
        task_ids = np.fromiter(
            (row[2] for row in rows), dtype=np.int64, count=len(rows)
        )
        out_of_range = (task_rows < 0) | (task_rows >= order.shape[0])
        mismatch = out_of_range.copy()
        valid = ~out_of_range
        mismatch[valid] = order[task_rows[valid]] != task_ids[valid]
        if mismatch.any():
            first = int(np.flatnonzero(mismatch)[0])
            raise JournalCorruptionError(
                f"journal entry {rows[first][0]}: task "
                f"{int(task_ids[first])} does not register at the "
                f"recorded arena row {int(task_rows[first])}; the "
                "journal and the task catalogue disagree — restore the "
                "file from a backup"
            )
        choices = np.fromiter(
            (row[4] for row in rows), dtype=np.int64, count=len(rows)
        )
        worker_ids = [row[3] for row in rows]
        answers = [
            Answer(worker_id, int(task_id), int(choice))
            for worker_id, task_id, choice in zip(
                worker_ids, task_ids, choices
            )
        ]
        self.database.answers.restore_batch(answers)
        self._log.extend_restored(task_rows, worker_ids, choices)
        self._incremental.restore_answers(answers)
        self._restore_path = "archive-scan"

    def _restore_from_index(self, index) -> None:
        """Install the snapshot-carried answer columns — the
        O(snapshot + tail) resume path.

        The snapshot's :class:`repro.core.arena.AnswerLogState` holds
        the whole pre-watermark answer relation as int64 columns in
        arrival order, so nothing here reads ``answers_archive`` or
        ``answers_log`` and nothing loops over archived answers in
        Python: the answer log adopts the columns as block writes, and
        the answer table + per-task histories adopt them as a lazy
        :class:`repro.platform.storage.RestoredAnswerColumns` base that
        hydrates per key on first touch.
        """
        self._log.install_restored(index)
        self._restore_path = "index-carry"
        if index.task_rows.shape[0] == 0:
            return
        arena = self._incremental.arena
        order = np.asarray(arena.task_ids(), dtype=np.int64)
        columns = RestoredAnswerColumns(
            task_ids=order[index.task_rows],
            worker_rows=index.worker_rows,
            choices=index.choices + 1,
            worker_ids=index.worker_ids,
        )
        self.database.answers.install_restored_base(columns)
        self._incremental.install_restored_history(columns)

    def _replay_journal(self, from_seq: int = -1, snapshot=None) -> int:
        """Re-apply committed journal events in commit order.

        Entries with ``seq <= from_seq`` are already baked into the
        installed snapshot's numeric state and only rebuild indexes —
        from the snapshot's own answer-index columns when it carries
        them (:meth:`_restore_from_index`; no archived-prefix read), or
        by the :meth:`_restore_compacted` archive scan for snapshots
        written without an index (hot-state engines only). Entries
        beyond the watermark replay through the same bootstrap/submit
        code paths a live campaign uses.

        Returns:
            The number of tail entries fully re-applied.
        """
        engine = self._engine
        pending_bootstrap: Dict[str, List[Answer]] = {}
        tail_entries = 0
        self._replaying = True
        if self._hot:
            engine.replaying = True
        try:
            if from_seq >= 0:
                if (
                    snapshot is not None
                    and snapshot.answer_index is not None
                ):
                    self._restore_from_index(snapshot.answer_index)
                else:
                    self._restore_compacted(from_seq)
            for entry in self.database.journal.replay(
                after_seq=from_seq
            ):
                tail_entries += 1
                if entry.kind == KIND_BOOTSTRAP_ANSWER:
                    pending_bootstrap.setdefault(
                        entry.worker_id, []
                    ).append(
                        Answer(
                            entry.worker_id, entry.task_id, entry.choice
                        )
                    )
                elif entry.kind == KIND_BOOTSTRAP_DONE:
                    answers = pending_bootstrap.pop(entry.worker_id, [])
                    if self._hot:
                        engine.restore_bootstrap(
                            entry.worker_id, answers
                        )
                    else:
                        engine.bootstrap(entry.worker_id, answers)
                elif entry.kind == KIND_ANSWER:
                    expected_row = self._task_row(entry.task_id)
                    if entry.task_row != expected_row:
                        raise JournalCorruptionError(
                            f"journal entry {entry.seq}: task "
                            f"{entry.task_id} registers at arena row "
                            f"{expected_row} but the journal recorded "
                            f"row {entry.task_row}; the journal and the "
                            "task catalogue disagree — restore the file "
                            "from a backup"
                        )
                    answer = Answer(
                        entry.worker_id, entry.task_id, entry.choice
                    )
                    if self._hot:
                        # A shared-store worker's seeding is not a
                        # journal event (the shared store is durable on
                        # its own); re-seed here so her replayed answers
                        # use the stored prior, as the live run did.
                        # Note the store may have moved on since the
                        # original seed — the snapshot path restores
                        # the exact seeded values.
                        engine.seed_from_shared(entry.worker_id)
                        self.database.answers.restore(answer)
                        engine.apply_answer(answer)
                    else:
                        self.database.answers.restore(answer)
                        engine.submit(answer)
                else:
                    raise JournalCorruptionError(
                        f"journal entry {entry.seq} has unknown kind "
                        f"{entry.kind}; the file is newer than this "
                        "code or corrupt"
                    )
        finally:
            self._replaying = False
            if self._hot:
                engine.replaying = False
        if pending_bootstrap:
            workers = ", ".join(sorted(pending_bootstrap))
            raise JournalCorruptionError(
                "journal ends inside an unfinished bootstrap for "
                f"worker(s) {workers}: the final batch is partial; "
                "restore the file from a backup, or delete the dangling "
                "rows to fall back to the last consistent checkpoint"
            )
        return tail_entries

    # -- shared-store export (the engine's on_rerun hook) ----------------

    def _export_to_shared(self, result) -> None:
        """Merge campaign evidence into the shared store (Theorem 1),
        durable-first.

        The engine computes the telescoping per-worker deltas
        (:meth:`repro.engines.docs.DocsEngine.export_deltas`); the
        shell owns the crash-boundary ordering:

        - the journal is flushed before the first merge, so the
          evidence being exported is durable in the campaign file
          first. A crash right after the flush loses at most one
          un-merged delta (bounded under-count); re-run-boundary
          exports are never double-merged, because replay re-derives
          their baselines without exporting. One bounded exception
          remains: a ``finalize()`` export past the last re-run
          boundary is not a journal event, so if the final snapshot is
          lost (full-replay fallback) and the resumed campaign is
          finalized again, that one tail delta can repeat.
        - while the flush (or a merge) is failing, deltas queue in the
          degraded backlog instead of merging, so the store never sees
          evidence the campaign file lost.
        """
        engine = self._engine
        exporting = (
            engine.shared_store is not None and not engine.replaying
        )
        durable = True
        if exporting:
            journal = getattr(self._db, "journal", None)
            if journal is not None:
                try:
                    journal.flush()
                except sqlite3.Error as exc:
                    # Durable-first still holds under degradation: the
                    # deltas queue instead of merging, so the store
                    # never sees evidence the campaign file lost.
                    self._enter_degraded(
                        "journal flush before shared export", exc
                    )
                    durable = False
        for worker_id, delta_mass, delta_u in engine.export_deltas(
            result
        ):
            if durable:
                try:
                    engine.shared_store.apply_batch_delta(
                        worker_id, delta_mass, delta_u
                    )
                except sqlite3.Error as exc:
                    self._enter_degraded("shared-store export", exc)
                    self._pending_shared_exports.append(
                        (worker_id, delta_mass, delta_u)
                    )
                    # Queue the remaining workers too, preserving
                    # export order against the same stuck store.
                    durable = False
            else:
                self._pending_shared_exports.append(
                    (worker_id, delta_mass, delta_u)
                )
