"""The parallel serving plane: pool picks, coherence, degradation.

Three layers of guarantees:

1. **Bit-identity** — a :class:`repro.system.parallel.ServingPool`
   serves the same picks as the single-process
   :class:`repro.core.serving.AssignmentIndex` at every worker count,
   and a ``workers >= 1`` campaign replays a ``workers = 0`` campaign
   pick for pick.
2. **Coherence** — the quiesce/write-section state machine keeps
   workers out of the arena while the owner writes, and selects pick up
   the writes afterwards.
3. **Degradation** — this file owns the dedicated scenarios for the
   two ``parallel.*`` fault points the crash matrix delegates here
   (``tests/integration/test_crash_matrix.py``, ``DEDICATED``): armed
   pre-fork, each point kills a child process, and the parent degrades
   to the single-process path with identical outputs — no exception
   reaches the caller, no shared-memory segment leaks.
"""

import os

import numpy as np
import pytest

from repro.core.arena import AnswerLog
from repro.core.incremental import IncrementalTruthInference
from repro.core.quality_store import WorkerQualityStore
from repro.core.serving import AssignmentIndex
from repro.core.shared_arena import SharedStateArena
from repro.core.truth_inference import TruthInference
from repro.core.types import Answer, Task
from repro.datasets import make_dataset
from repro.errors import ServingPoolError, ValidationError
from repro.linking import EntityLinker
from repro.platform import faults
from repro.system import DocsConfig, DocsSystem
from repro.system.parallel import ServingPool
from repro.utils.rng import make_rng

M_DOMAINS = 4
NUM_WORKERS = 5
WORKERS = [f"w{i}" for i in range(6)]

pytestmark = pytest.mark.skipif(
    "fork" not in __import__("multiprocessing").get_all_start_methods(),
    reason="the serving pool requires the fork start method",
)


def shm_leaks():
    """Parallel-plane /dev/shm entries still alive."""
    if not os.path.isdir("/dev/shm"):  # pragma: no cover - non-Linux
        return []
    return [
        f
        for f in os.listdir("/dev/shm")
        if f.startswith(("docsarena", "docscols"))
    ]


# -- core-level pool fixtures ------------------------------------------------


def _make_tasks(rng, count, base_id=0):
    return [
        Task(
            task_id=base_id + i,
            text=f"task {base_id + i}",
            num_choices=int(rng.integers(2, 5)),
            domain_vector=rng.dirichlet(np.ones(M_DOMAINS)),
            ground_truth=1,
        )
        for i in range(count)
    ]


def _make_engine(arena=None, seed=2, count=30):
    rng = make_rng(seed)
    store = WorkerQualityStore(M_DOMAINS)
    for j in range(NUM_WORKERS):
        store.set(
            f"w{j}",
            rng.uniform(0.4, 0.95, size=M_DOMAINS),
            np.full(M_DOMAINS, 2.0),
        )
    engine = IncrementalTruthInference(store, arena=arena)
    engine.register_tasks(_make_tasks(make_rng(seed + 1), count))
    seen = set()
    for _ in range(60):
        task_id = int(rng.integers(count))
        worker = f"w{int(rng.integers(NUM_WORKERS))}"
        if (worker, task_id) in seen:
            continue
        seen.add((worker, task_id))
        ell = engine.arena.view(task_id).num_choices
        engine.submit(
            Answer(worker, task_id, int(rng.integers(1, ell + 1)))
        )
    return engine


def _requests(arena, seed, count=6):
    """Select-level requests: (quality, take, excluded, eligible,
    available) — what the assigner hands the pool after translation."""
    rng = make_rng(seed)
    n = len(arena)
    out = []
    for _ in range(count):
        quality = rng.uniform(0.4, 0.95, size=M_DOMAINS)
        excluded = {
            int(r) for r in rng.choice(n, size=4, replace=False)
        }
        out.append((quality, 3, excluded, None, n - len(excluded)))
    return out


class TestServingPoolPicks:
    @pytest.mark.parametrize("num_workers", [1, 2, 3])
    def test_bit_identical_to_local_index(self, num_workers):
        engine = _make_engine(arena=SharedStateArena(M_DOMAINS))
        arena = engine.arena
        try:
            arena.refresh_entropies()
            oracle = AssignmentIndex(arena)
            with ServingPool(arena, num_workers) as pool:
                for request in _requests(arena, seed=40):
                    assert pool.select(*request) == oracle.select(
                        *request
                    )
        finally:
            arena.close()

    def test_select_many_preserves_request_order(self):
        engine = _make_engine(arena=SharedStateArena(M_DOMAINS))
        arena = engine.arena
        try:
            oracle = AssignmentIndex(arena)
            requests = _requests(arena, seed=41, count=9)
            with ServingPool(arena, 3) as pool:
                batches = pool.select_many(requests)
            assert batches == [oracle.select(*r) for r in requests]
        finally:
            arena.close()

    def test_writes_visible_after_write_section(self):
        """Owner-side mutations inside a write section are served by
        the workers afterwards, still matching the local oracle."""
        engine = _make_engine(arena=SharedStateArena(M_DOMAINS))
        arena = engine.arena
        try:
            oracle = AssignmentIndex(arena)
            request = _requests(arena, seed=42, count=1)[0]
            with ServingPool(arena, 2) as pool:
                assert pool.select(*request) == oracle.select(*request)
                with pool.write_section():
                    for choice in (1, 2):
                        engine.submit(
                            Answer(f"w{choice}", 0, choice)
                        )
                    engine.register_tasks(
                        _make_tasks(make_rng(9), 40, base_id=700)
                    )
                grown = _requests(arena, seed=42, count=1)[0]
                assert pool.select(*grown) == oracle.select(*grown)
        finally:
            arena.close()

    def test_rejects_workerless_pool_and_heap_arena(self):
        engine = _make_engine(arena=SharedStateArena(M_DOMAINS))
        try:
            with pytest.raises(ValidationError):
                ServingPool(engine.arena, 0)
        finally:
            engine.arena.close()


class TestServingPoolStateMachine:
    def test_selects_illegal_mid_write(self):
        engine = _make_engine(arena=SharedStateArena(M_DOMAINS))
        arena = engine.arena
        try:
            request = _requests(arena, seed=43, count=1)[0]
            with ServingPool(arena, 2) as pool:
                assert pool.state == "serving"
                with pool.write_section():
                    assert pool.state == "writing"
                    with pytest.raises(ServingPoolError):
                        pool.select(*request)
                assert pool.state == "serving"
                assert pool.select(*request)
        finally:
            arena.close()

    def test_quiesce_returns_per_worker_stats(self):
        engine = _make_engine(arena=SharedStateArena(M_DOMAINS))
        arena = engine.arena
        try:
            with ServingPool(arena, 2) as pool:
                pool.select_many(_requests(arena, seed=44))
                stats = pool.quiesce()
                assert len(stats) == 2
                assert all(isinstance(s, dict) for s in stats)
                assert pool.state == "serving"
        finally:
            arena.close()

    def test_closed_pool_refuses_and_close_is_idempotent(self):
        engine = _make_engine(arena=SharedStateArena(M_DOMAINS))
        arena = engine.arena
        try:
            pool = ServingPool(arena, 2)
            request = _requests(arena, seed=45, count=1)[0]
            pool.close()
            pool.close()
            with pytest.raises(ServingPoolError):
                pool.select(*request)
        finally:
            arena.close()
        assert shm_leaks() == []


# -- campaign-level equivalence ----------------------------------------------


@pytest.fixture()
def dataset():
    return make_dataset("4d", seed=21, tasks_per_domain=6)


def _campaign_config(workers, **overrides):
    knobs = dict(
        golden_count=6,
        hit_size=3,
        rerun_interval=10_000,
        ti_max_iterations=10,
        workers=workers,
        seed=7,
    )
    knobs.update(overrides)
    return DocsConfig(**knobs)


def _golden_answers(system, dataset, worker):
    return [
        Answer(worker, tid, dataset.task_by_id(tid).ground_truth)
        for tid in system.golden_task_ids()
    ]


def _drive_campaign(system, dataset, arrivals=12):
    """The deterministic campaign script; returns the pick record."""
    record = []
    for arrival in range(arrivals):
        worker = WORKERS[arrival % len(WORKERS)]
        if system.needs_bootstrap(worker):
            system.bootstrap(
                worker, _golden_answers(system, dataset, worker)
            )
        picks = system.assign(worker, 2)
        record.append((worker, tuple(picks)))
        for task_id in picks:
            ell = dataset.task_by_id(task_id).num_choices
            system.submit(
                Answer(
                    worker, task_id, 1 + (task_id * 3 + arrival) % ell
                )
            )
    return record


class TestCampaignEquivalence:
    def test_single_worker_campaign_is_bit_identical(self, dataset):
        """workers=1 (shared arena + pool) replays
        workers=0 exactly — mid-campaign full-TI reruns included."""
        records = {}
        truths = {}
        for workers in (0, 1):
            system = DocsSystem(
                _campaign_config(workers, rerun_interval=20)
            )
            system.prepare(dataset)
            assert (system.serving_pool is not None) == (workers >= 1)
            records[workers] = _drive_campaign(system, dataset)
            truths[workers] = system.finalize()
            system.close()
        assert records[0] == records[1]
        assert truths[0] == truths[1]
        assert shm_leaks() == []

    def test_two_worker_campaign_matches_picks_and_truths(self, dataset):
        """workers=2 adds parallel linking; picks stay identical
        (every pool worker's index is exact) and so do the finalize
        truths."""
        records = {}
        truths = {}
        for workers in (0, 2):
            system = DocsSystem(_campaign_config(workers))
            system.prepare(dataset)
            records[workers] = _drive_campaign(system, dataset)
            truths[workers] = system.finalize()
            system.close()
        assert records[0] == records[2]
        assert truths[0] == truths[2]
        assert shm_leaks() == []

    def test_assign_many_matches_per_arrival_assign(self, dataset):
        system = DocsSystem(_campaign_config(2))
        system.prepare(dataset)
        try:
            _drive_campaign(system, dataset, arrivals=8)
            cohort = WORKERS[:4]
            batched = system.assign_many(cohort, 2)
            assert batched == [system.assign(w, 2) for w in cohort]
        finally:
            system.close()
        assert shm_leaks() == []

    def test_resume_rebuilds_the_pool(self, dataset, tmp_path):
        path = str(tmp_path / "campaign.db")
        config = _campaign_config(2)
        system = DocsSystem(config, storage="sqlite", path=path)
        system.prepare(dataset)
        _drive_campaign(system, dataset, arrivals=8)
        expected = system.assign(WORKERS[0], 2)
        system.close()
        assert shm_leaks() == []

        resumed = DocsSystem.resume(path, config=config)
        try:
            assert resumed.serving_pool is not None
            assert resumed.assign(WORKERS[0], 2) == expected
        finally:
            resumed.close()
        assert shm_leaks() == []


# -- dedicated fault scenarios (see crash matrix DEDICATED) ------------------


class TestWorkerServeCrash:
    def test_dead_worker_degrades_to_identical_picks(self, dataset):
        """``parallel.worker.serve``: the fault is armed pre-fork, so
        every pool worker inherits it and dies on its first request.
        The campaign never sees an exception: picks match the
        single-process reference, the write path detaches the broken
        pool, and close leaks nothing."""
        reference = DocsSystem(_campaign_config(0))
        reference.prepare(dataset)
        with faults.injected() as injector:
            injector.arm("parallel.worker.serve", "crash", times=-1)
            victim = DocsSystem(_campaign_config(2))
            victim.prepare(dataset)
            assert victim.serving_pool is not None

            worker = WORKERS[0]
            for system in (victim, reference):
                system.bootstrap(
                    worker, _golden_answers(system, dataset, worker)
                )
            victim_picks = victim.assign(worker, 2)
            assert victim_picks == reference.assign(worker, 2)
            # The injected crash fires in the forked children (the
            # parent's trigger counter stays 0) — the observable proof
            # is that every pool worker is now dead.
            pool = victim.serving_pool
            assert pool is not None
            with pytest.raises(ServingPoolError, match="died"):
                pool._check_alive()

            # The next write quiesces the (dead) pool, fails, and
            # detaches it; serving continues single-process.
            choice_of = dataset.task_by_id(victim_picks[0])
            victim.submit(
                Answer(worker, victim_picks[0], choice_of.ground_truth)
            )
            assert victim.serving_pool is None
            reference.submit(
                Answer(worker, victim_picks[0], choice_of.ground_truth)
            )
            assert victim.assign(worker, 2) == reference.assign(
                worker, 2
            )
            victim.close()
        reference.close()
        assert shm_leaks() == []


class TestLinkWorkerCrash:
    TEXTS = [
        "Does Michael Jordan win more NBA championships than Kobe?",
        "Michael Jordan published machine learning papers",
        "Kobe Bryant and Michael Jordan are NBA legends",
        "nothing linkable in this text",
        "NBA finals",
        "Michael Jordan NBA Michael Jordan",
    ]

    @staticmethod
    def _assert_identical(left, right):
        assert len(left) == len(right)
        for a, b in zip(left, right):
            assert len(a) == len(b)
            for x, y in zip(a, b):
                assert x.surface == y.surface
                assert x.concept_ids == y.concept_ids
                np.testing.assert_array_equal(
                    x.probabilities, y.probabilities
                )

    def test_parallel_linking_matches_sequential(self, paper_kb):
        sequential = EntityLinker(paper_kb).link_batch(self.TEXTS)
        parallel = EntityLinker(paper_kb).link_batch(
            self.TEXTS, workers=2
        )
        self._assert_identical(parallel, sequential)

    def test_dead_link_worker_degrades_to_sequential(self, paper_kb):
        """``parallel.link.worker``: a dead link child degrades the
        batch to the sequential path with identical entities."""
        sequential = EntityLinker(paper_kb).link_batch(self.TEXTS)
        with faults.injected() as injector:
            injector.arm("parallel.link.worker", "crash", times=-1)
            degraded = EntityLinker(paper_kb).link_batch(
                self.TEXTS, workers=2
            )
        self._assert_identical(degraded, sequential)


class TestResyncPrecision:
    def test_resync_skips_rows_below_serve_precision(self):
        """Satellite: the delta-aware resync stamps only rows whose
        (M, S) moved past the precision — unmoved rows keep their
        epoch, so the serving index repairs nothing for them."""
        engine = _make_engine(seed=8)
        log = AnswerLog(engine.arena)
        rng = make_rng(80)
        seen = {
            (worker, task_id)
            for task_id in engine.arena.task_ids()
            for worker, _ in engine.answered_workers(task_id)
        }
        for _ in range(40):
            task_id = int(rng.integers(30))
            worker = f"w{int(rng.integers(NUM_WORKERS))}"
            if (worker, task_id) in seen:
                continue
            seen.add((worker, task_id))
            ell = engine.arena.view(task_id).num_choices
            answer = Answer(
                worker, task_id, int(rng.integers(1, ell + 1))
            )
            engine.submit(answer)
            log.append(answer)
        result = TruthInference(max_iterations=10).infer_from_log(log)

        epochs_before = engine.arena.row_epochs().copy()
        engine.resync_from_arena_result(result)
        moved = engine.arena.row_epochs() != epochs_before

        # A second, identical resync moves nothing: every row is
        # already at the full-TI fixpoint, so no epoch may advance.
        epochs_mid = engine.arena.row_epochs().copy()
        engine.resync_from_arena_result(result)
        np.testing.assert_array_equal(
            engine.arena.row_epochs(), epochs_mid
        )
        # And a huge precision skips everything even on moved state.
        worker, task_id = next(
            (w, t)
            for t in engine.arena.task_ids()
            for w in (f"w{j}" for j in range(NUM_WORKERS))
            if (w, t) not in seen
        )
        seen.add((worker, task_id))
        engine.submit(Answer(worker, task_id, 1))
        epochs_late = engine.arena.row_epochs().copy()
        engine.resync_from_arena_result(result, precision=1e9)
        np.testing.assert_array_equal(
            engine.arena.row_epochs(), epochs_late
        )
        assert moved.any()
