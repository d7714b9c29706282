"""Configuration of the assembled DOCS system."""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ValidationError
from repro.utils.rng import SeedLike


@dataclass(frozen=True)
class DocsConfig:
    """Knobs of :class:`repro.system.DocsSystem`.

    Defaults follow the paper: HITs of k = 20 tasks, 20 golden tasks,
    full TI re-run every z = 100 submissions, top-20 linking candidates.

    Attributes:
        hit_size: tasks per HIT (k).
        golden_count: golden tasks selected after DVE (n').
        rerun_interval: run the full iterative TI every this many
            submissions (z); the incremental updater covers the gaps.
        top_c: linking candidates kept per entity in DVE.
        default_quality: cold-start per-domain worker quality.
        ti_max_iterations: iteration cap of the full TI.
        journal_batch_size: with sqlite storage, flush the write-behind
            answer journal every this many campaign events (a crash can
            lose at most one unflushed batch; ``checkpoint()`` flushes
            eagerly). Ignored with in-memory storage.
        snapshot_every_batches: with sqlite storage, write a compacted
            hot-state snapshot every this many flushed journal batches
            (``0`` disables the automatic trigger; ``checkpoint()`` and
            ``close()`` always snapshot). Snapshots turn resume's
            O(campaign) journal replay into an O(n) load plus a short
            tail replay. Ignored with in-memory storage.
        truncate_journal: with sqlite storage, archive journal rows at
            or below each snapshot's watermark after the snapshot
            commits (``AnswerJournal.truncate_through``): pre-watermark
            answers move to a compact archive table, so resume-time CRC
            validation and replay walk only the tail. Once truncated,
            a campaign can only be resumed through a snapshot — the
            full-replay fallback needs the journal rows the truncation
            removed — so this trades the fallback for O(tail) resume.
        snapshot_carry_index: with sqlite storage, serialise the
            ``AnswerLog``'s per-answer index columns inside every
            snapshot (schema v2), so ``resume()`` installs them
            directly instead of re-reading the archived answer prefix
            — O(snapshot + tail) regardless of campaign age
            (``resume_info["restore_path"] == "index-carry"``).
            Disable to write v1-shaped snapshots readable by older
            builds; resume then falls back to the archive scan.
        busy_timeout_ms: with sqlite storage, ``PRAGMA busy_timeout``
            (and the connection-open timeout) in milliseconds — SQLite
            spin-waits this long on a held write lock below the
            statement before surfacing ``database is locked``. ``0``
            surfaces contention immediately (the configuration the
            retry tests use to exercise the Python-level backoff).
        commit_retry_attempts: total tries (including the first) the
            journal-flush / snapshot / shared-store-export retry policy
            makes against a transient ``database is locked`` before the
            error propagates (and, on serving paths, the campaign drops
            to degraded mode).
        commit_retry_base_delay: first backoff delay in seconds of the
            commit retry policy (doubles per attempt, jittered).
        commit_retry_max_delay: backoff ceiling in seconds of the
            commit retry policy.
        serve_index: maintain an
            :class:`repro.core.serving.AssignmentIndex` over the arena
            and serve ``assign`` through it (cached per-quality benefit
            columns repaired on dirty rows only; picks stay
            bit-identical to the brute-force path). Disable to always
            evaluate the full pool per arrival.
        serve_bucket_granularity: quality quantisation step for the
            index's bucket keys (bounds how many distinct cached
            columns stay live; reuse still requires an exact quality
            match).
        serve_frontier_size: rows kept in each cached column's lazy
            top-k frontier; must comfortably exceed ``hit_size``.
        serve_max_buckets: cached benefit columns kept alive (LRU
            eviction beyond it).
        workers: multi-process scale-out degree. ``0`` (default) keeps
            everything single-process. ``>= 1`` moves the hot state
            into a :class:`repro.core.shared_arena.SharedStateArena`
            and serves arrivals from a
            :class:`repro.system.parallel.ServingPool` of this many
            worker processes (picks bit-identical at every count);
            ``>= 2`` additionally fans stage-1 ingest linking across
            this many link workers. Requires the ``fork`` start method
            (Linux/macOS); needs ``serve_index``.
        serve_resync_precision: full-TI resyncs skip re-stamping arena
            rows whose ``(M, S)`` moved by at most this much (so the
            serving index skips repairing them). ``0.0`` skips only
            bit-unchanged rows — exact; positive values trade bounded
            benefit staleness for fewer post-rerun repairs.
        engine: registry name of the inference engine the campaign
            shell hosts (see :mod:`repro.engines`). The default
            ``"docs"`` is the production serving core; any other
            registered engine (baselines, ``"batched-em"``, the
            brute-force ``"oracle"``) runs through the same campaign
            surface — engines without the hot-state capability run
            memory-only, with raw answers journaled for replay-based
            resume under sqlite storage.
        seed: seed for any internal randomness.
    """

    hit_size: int = 20
    golden_count: int = 20
    rerun_interval: int = 100
    top_c: int = 20
    default_quality: float = 0.7
    ti_max_iterations: int = 20
    journal_batch_size: int = 256
    snapshot_every_batches: int = 16
    truncate_journal: bool = False
    snapshot_carry_index: bool = True
    busy_timeout_ms: int = 5000
    commit_retry_attempts: int = 5
    commit_retry_base_delay: float = 0.05
    commit_retry_max_delay: float = 1.0
    serve_index: bool = True
    serve_bucket_granularity: float = 0.05
    serve_frontier_size: int = 64
    serve_max_buckets: int = 16
    workers: int = 0
    serve_resync_precision: float = 0.0
    engine: str = "docs"
    seed: SeedLike = 0

    def validate(self) -> None:
        """Check every knob's range.

        Raises:
            ValidationError: naming the first out-of-range field.
        """
        if self.hit_size < 1:
            raise ValidationError("hit_size must be >= 1")
        if self.golden_count < 0:
            raise ValidationError("golden_count must be >= 0")
        if self.rerun_interval < 1:
            raise ValidationError("rerun_interval must be >= 1")
        if self.top_c < 1:
            raise ValidationError("top_c must be >= 1")
        if not 0.0 < self.default_quality < 1.0:
            raise ValidationError("default_quality must be in (0, 1)")
        if self.ti_max_iterations < 1:
            raise ValidationError("ti_max_iterations must be >= 1")
        if self.journal_batch_size < 1:
            raise ValidationError("journal_batch_size must be >= 1")
        if self.snapshot_every_batches < 0:
            raise ValidationError(
                "snapshot_every_batches must be >= 0 (0 disables the "
                "automatic trigger)"
            )
        if self.busy_timeout_ms < 0:
            raise ValidationError("busy_timeout_ms must be >= 0")
        if self.commit_retry_attempts < 1:
            raise ValidationError("commit_retry_attempts must be >= 1")
        if self.commit_retry_base_delay < 0:
            raise ValidationError(
                "commit_retry_base_delay must be >= 0"
            )
        if self.commit_retry_max_delay < self.commit_retry_base_delay:
            raise ValidationError(
                "commit_retry_max_delay must be >= commit_retry_base_delay"
            )
        if self.serve_bucket_granularity <= 0:
            raise ValidationError(
                "serve_bucket_granularity must be positive"
            )
        if self.serve_frontier_size < 1:
            raise ValidationError("serve_frontier_size must be >= 1")
        if self.serve_max_buckets < 1:
            raise ValidationError("serve_max_buckets must be >= 1")
        if self.workers < 0:
            raise ValidationError("workers must be >= 0")
        if self.workers and not self.serve_index:
            raise ValidationError(
                "workers requires serve_index (the pool's workers each "
                "hold an AssignmentIndex)"
            )
        if self.serve_resync_precision < 0:
            raise ValidationError(
                "serve_resync_precision must be >= 0"
            )
        if not self.engine or not isinstance(self.engine, str):
            raise ValidationError(
                "engine must be a non-empty registry name"
            )
