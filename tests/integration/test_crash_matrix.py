"""Crash-safety matrix: kill a live campaign at every fault point.

Every named fault point in :mod:`repro.platform.faults` gets a matrix
entry: a campaign is driven with ``journal_batch_size=1`` (one committed
batch per event-producing operation), killed by an injected
:class:`~repro.platform.faults.CrashPoint` at the armed instant, and
rebuilt with :meth:`DocsSystem.resume`. The oracle:

1. the committed event count read from the crashed file must land on an
   *operation boundary* (a bootstrap's answers + marker commit as one
   batch; each submit as another) — a mid-operation count means a torn
   batch, which the journal's atomicity forbids;
2. a reference campaign driven through exactly that operation prefix —
   same deterministic script, no faults — must fingerprint
   bit-identically to the resumed system: a crash loses at most the
   in-flight (uncommitted) operation, never a committed one;
3. the resumed campaign keeps serving (assignments come back).

``journal.flush.pre-commit`` additionally pins the committed count to
exactly the pre-crash boundary (the in-flight batch rolled back);
``journal.flush.post-commit`` pins it one operation later (the batch
committed before the kill).
"""

import sqlite3

import numpy as np
import pytest

from repro.core.types import Answer
from repro.datasets import make_dataset
from repro.platform import faults
from repro.platform.faults import FAULT_POINTS, CrashPoint
from repro.platform.sqlite_storage import SqliteWorkerQualityStore
from repro.system import DocsConfig, DocsSystem

WORKERS = [f"w{i}" for i in range(6)]
ARRIVALS = 30

#: skip = how many hits pass before the kill, placing the crash
#: mid-campaign. expect_ops: exact committed-operation count, when the
#: point's semantics pin it (None = derive from the file alone).
MATRIX = {
    "journal.flush.pre-commit": {"skip": 20, "expect_ops": 20},
    "journal.flush.post-commit": {"skip": 20, "expect_ops": 21},
    "snapshot.write.post-crc": {"skip": 1, "expect_ops": None},
    "snapshot.write.mid-transaction": {"skip": 1, "expect_ops": None},
    "snapshot.write.post-commit": {"skip": 1, "expect_ops": None},
}

#: Points whose crash semantics need a dedicated scenario instead of
#: the kill-mid-campaign template. The ``parallel.*`` points fire in
#: forked children and degrade, not crash — their scenarios live in
#: ``tests/system/test_parallel.py``.
DEDICATED = {
    "db.connect",
    "worker_store.apply_delta",
    "parallel.worker.serve",
    "parallel.link.worker",
}


def test_matrix_covers_every_fault_point():
    """Adding a fault point without a crash test must fail loudly."""
    assert set(MATRIX) | DEDICATED == set(FAULT_POINTS)


@pytest.fixture()
def dataset():
    return make_dataset("4d", seed=31, tasks_per_domain=8)


def _config():
    return DocsConfig(
        golden_count=6,
        rerun_interval=20,
        hit_size=3,
        journal_batch_size=1,
        snapshot_every_batches=6,
        commit_retry_attempts=2,
        commit_retry_base_delay=0.0,
    )


def _golden_answers(system, dataset, worker):
    return [
        Answer(worker, tid, dataset.task_by_id(tid).ground_truth)
        for tid in system.golden_task_ids()
    ]


def _drive_ops(system, dataset, arrivals, stop_after_events=None):
    """The deterministic campaign script, one journal-visible operation
    at a time.

    Returns ``(events, ops)``: total journal events produced and the
    number of operations performed. With ``stop_after_events`` the
    drive stops at the first operation boundary at or past the target —
    the caller asserts the boundary landed *exactly* on it.
    """
    events = 0
    ops = 0
    for arrival in range(arrivals):
        worker = WORKERS[arrival % len(WORKERS)]
        if system.needs_bootstrap(worker):
            golden = _golden_answers(system, dataset, worker)
            system.bootstrap(worker, golden)
            events += len(golden) + 1  # answers + completion marker
            ops += 1
            if stop_after_events is not None and (
                events >= stop_after_events
            ):
                return events, ops
        for task_id in system.assign(worker, 2):
            ell = dataset.task_by_id(task_id).num_choices
            choice = 1 + (task_id * 3 + arrival) % ell
            system.submit(Answer(worker, task_id, choice))
            events += 1
            ops += 1
            if stop_after_events is not None and (
                events >= stop_after_events
            ):
                return events, ops
    return events, ops


def _committed_events(path):
    """Journal events durable in the (crashed) campaign file."""
    conn = sqlite3.connect(path)
    try:
        (live,) = conn.execute(
            "SELECT COUNT(*) FROM answers_log"
        ).fetchone()
        (archived,) = conn.execute(
            "SELECT COUNT(*) FROM answers_archive"
        ).fetchone()
        return int(live) + int(archived)
    finally:
        conn.close()


def _fingerprint(system):
    states = {
        tid: (
            system._incremental.state(tid).s.copy(),
            system._incremental.state(tid).M.copy(),
        )
        for tid in system.database.task_ids()
    }
    qualities = {
        w: system.quality_store.get(w)
        for w in sorted(system.quality_store.known_workers())
    }
    return states, qualities


def _assert_same_state(left, right):
    l_states, l_quals = _fingerprint(left)
    r_states, r_quals = _fingerprint(right)
    assert set(l_states) == set(r_states)
    for tid in l_states:
        assert np.array_equal(l_states[tid][0], r_states[tid][0]), tid
        assert np.array_equal(l_states[tid][1], r_states[tid][1]), tid
    assert set(l_quals) == set(r_quals)
    for w in l_quals:
        assert np.array_equal(l_quals[w].quality, r_quals[w].quality), w
        assert np.array_equal(l_quals[w].weight, r_quals[w].weight), w
    assert len(left._log) == len(right._log)
    assert (
        left._submissions_since_rerun == right._submissions_since_rerun
    )
    assert left._bootstrapped == right._bootstrapped


class TestCrashMatrix:
    @pytest.mark.parametrize("point", sorted(MATRIX))
    def test_kill_at_fault_point_then_resume(
        self, point, dataset, tmp_path
    ):
        entry = MATRIX[point]
        crash_path = str(tmp_path / "crash.db")

        victim = DocsSystem(
            _config(), storage="sqlite", path=crash_path
        )
        with faults.injected() as injector:
            victim.prepare(dataset)
            injector.arm(point, "crash", skip=entry["skip"])
            with pytest.raises(CrashPoint):
                _drive_ops(victim, dataset, ARRIVALS)
            assert injector.triggered(point) == 1
        # Simulated kill: the victim is abandoned, never closed.

        committed = _committed_events(crash_path)
        assert committed > 0, "the kill fired before any durable work"

        # Oracle 2: a fault-free reference driven to exactly the
        # committed prefix...
        reference = DocsSystem(
            _config(), storage="sqlite", path=":memory:"
        )
        reference.prepare(dataset)
        ref_events, ref_ops = _drive_ops(
            reference, dataset, ARRIVALS, stop_after_events=committed
        )
        # ...Oracle 1: which must land exactly on an operation
        # boundary, or the crash tore a batch.
        assert ref_events == committed, (
            f"committed event count {committed} is not an operation "
            f"boundary (nearest boundary past it: {ref_events})"
        )
        if entry["expect_ops"] is not None:
            assert ref_ops == entry["expect_ops"]

        resumed = DocsSystem.resume(crash_path, config=_config())
        _assert_same_state(reference, resumed)

        # Oracle 3: the resumed campaign serves.
        picks = resumed.assign(WORKERS[0], 2)
        assert picks == reference.assign(WORKERS[0], 2)
        resumed.close()
        reference.close()


class TestDbConnectCrash:
    def test_crash_on_connect_leaves_file_resumable(
        self, dataset, tmp_path
    ):
        path = str(tmp_path / "campaign.db")
        system = DocsSystem(_config(), storage="sqlite", path=path)
        system.prepare(dataset)
        _drive_ops(system, dataset, 8)
        system.checkpoint()
        # Abandoned (killed) with a healthy file on disk.

        with faults.injected() as injector:
            injector.arm("db.connect", "crash")
            with pytest.raises(CrashPoint):
                DocsSystem.resume(path, config=_config())
        # The kill hit before the connection opened: nothing changed,
        # a later resume succeeds against the intact file.
        resumed = DocsSystem.resume(path, config=_config())
        _assert_same_state(system, resumed)
        resumed.close()


class TestWorkerStoreCrash:
    def test_crash_in_shared_export_undercounts_never_corrupts(
        self, dataset, tmp_path
    ):
        """Durable-first export: a kill inside the shared store's delta
        transaction loses that one delta (bounded under-count) but the
        campaign file already holds the flushed evidence, and both
        files stay consistent."""
        store_path = str(tmp_path / "store.db")
        campaign_path = str(tmp_path / "campaign.db")
        m = dataset.taxonomy.size
        store = SqliteWorkerQualityStore(m, path=store_path)
        victim = DocsSystem(
            _config(), storage="sqlite", path=campaign_path,
            worker_store=store,
        )
        with faults.injected() as injector:
            victim.prepare(dataset)
            # The first bootstrap's golden-evidence export dies inside
            # the store transaction.
            injector.arm("worker_store.apply_delta", "crash")
            with pytest.raises(CrashPoint):
                _drive_ops(victim, dataset, ARRIVALS)
            assert injector.triggered("worker_store.apply_delta") == 1
        store.close()
        # Both processes die. The store rolled its transaction back:
        # the worker is absent, not half-written.
        store2 = SqliteWorkerQualityStore(m, path=store_path)
        assert WORKERS[0] not in store2

        # The campaign file is consistent and resumable — the bootstrap
        # was flushed before the export was attempted.
        resumed = DocsSystem.resume(
            campaign_path, config=_config(), worker_store=store2
        )
        assert WORKERS[0] in resumed._bootstrapped
        assert resumed.assign(WORKERS[0], 2)
        resumed.close()
        store2.close()
