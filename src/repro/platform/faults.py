"""Fault injection for the durability plane.

The storage layer's crash-safety claims — "a batch commits atomically
or not at all", "a snapshot never claims events the journal does not
hold", "lock contention is retried, never fatal" — are only claims
until something *drives* the code through the failures. This module is
that something: a :class:`FaultInjector` with **named fault points**
compiled into the durable paths (:mod:`repro.platform.journal`,
:mod:`repro.platform.sqlite_storage`), inert in production and armed by
the crash-matrix and degradation test suites.

Fault points (:data:`FAULT_POINTS`) mark the instants a real crash or
contention event would be most damaging:

``db.connect``
    entering :class:`~repro.platform.sqlite_storage.SqliteSystemDatabase`
    / :class:`~repro.platform.sqlite_storage.SqliteWorkerQualityStore`
    construction, before the SQLite connection opens.
``journal.flush.pre-commit``
    inside a journal flush transaction, after every row statement has
    executed but **before** the commit — a crash here must roll the
    whole batch back.
``journal.flush.post-commit``
    immediately after a flush batch committed — a crash here must lose
    nothing; resume replays the batch.
``snapshot.write.post-crc``
    after a snapshot's payload and checksum are serialised, before its
    transaction opens.
``snapshot.write.mid-transaction``
    inside the snapshot transaction, between the meta row and the bulk
    tables — a crash here must roll back the snapshot *and* its
    embedded journal flush together.
``snapshot.write.post-commit``
    after the snapshot transaction committed.
``worker_store.apply_delta``
    inside a shared worker store's
    :meth:`~repro.platform.sqlite_storage.SqliteWorkerQualityStore.apply_batch_delta`
    transaction — the cross-campaign contention hot spot.

Failure modes: ``"crash"`` raises :class:`CrashPoint` (the simulated
process kill — deliberately **not** a :class:`repro.errors.ReproError`
nor a ``sqlite3.Error``, so no production handler can swallow it),
``"locked"`` raises ``sqlite3.OperationalError: database is locked``
(the contention signal the retry policy recognises), and any exception
instance is raised as-is.

Usage::

    from repro.platform import faults

    with faults.injected() as injector:
        injector.arm("journal.flush.pre-commit", "crash", skip=3)
        ...  # the 4th flush dies mid-transaction

The module-level :func:`fire` consulted by the instrumented code hits a
process-global injector that is inert (a dict lookup and a counter
bump) unless a test armed it — the production overhead is what
``BENCH_perf.json``'s "durability" scenario measures.
"""

from __future__ import annotations

import sqlite3
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Dict, Iterator, Optional, Union

#: Every fault point compiled into the storage plane. ``arm``/``fire``
#: reject names outside this set, so a typo cannot silently disarm a
#: crash-matrix case.
FAULT_POINTS = frozenset(
    {
        "db.connect",
        "journal.flush.pre-commit",
        "journal.flush.post-commit",
        "snapshot.write.post-crc",
        "snapshot.write.mid-transaction",
        "snapshot.write.post-commit",
        "worker_store.apply_delta",
        # Parallel serving plane (PR 7). Armed pre-fork, these fire in
        # the child process (the injector state is fork-inherited) and
        # surface to the parent as a dead worker — exercising the
        # degradation paths, not exception plumbing.
        "parallel.worker.serve",
        "parallel.link.worker",
    }
)

#: Built-in failure modes (an exception instance is also accepted).
FAILURE_MODES = ("crash", "locked")


class CrashPoint(Exception):
    """A simulated process kill at a named fault point.

    Deliberately derives from neither :class:`repro.errors.ReproError`
    nor ``sqlite3.Error``: production error handling (graceful
    degradation catches ``sqlite3.Error``; callers catch
    ``ReproError``) must never absorb a simulated crash — the test
    harness expects it to unwind the whole campaign like a real kill
    would.

    Attributes:
        point: the fault point that fired.
    """

    def __init__(self, point: str):
        super().__init__(f"injected crash at fault point {point!r}")
        self.point = point


@dataclass
class _Arming:
    """One armed fault: what to raise, and when."""

    failure: Union[str, BaseException]
    times: int  #: fire this many hits, then fall inert (<0 = forever)
    skip: int  #: let this many hits pass before the first firing
    triggered: int = 0  #: how often this arming has actually raised


@dataclass
class FaultInjector:
    """Armable fault points for the durability plane.

    Inert by default: :meth:`fire` on an unarmed point only counts the
    hit. Arm a point to make the next ``skip``-skipped hits raise.
    """

    _armed: Dict[str, _Arming] = field(default_factory=dict)
    #: Times each point was reached (armed or not) — the crash matrix
    #: uses this to prove every point is actually exercised.
    hits: Dict[str, int] = field(default_factory=dict)

    @staticmethod
    def _check_point(point: str) -> None:
        if point not in FAULT_POINTS:
            raise ValueError(
                f"unknown fault point {point!r}; registered points: "
                f"{sorted(FAULT_POINTS)}"
            )

    def arm(
        self,
        point: str,
        failure: Union[str, BaseException] = "crash",
        *,
        times: int = 1,
        skip: int = 0,
    ) -> None:
        """Make a fault point raise on its next (``skip``-skipped) hits.

        Args:
            point: a name from :data:`FAULT_POINTS`.
            failure: ``"crash"`` (raise :class:`CrashPoint`),
                ``"locked"`` (raise ``sqlite3.OperationalError:
                database is locked``), or an exception instance to
                raise as-is.
            times: raise on this many hits, then fall inert (pass a
                negative value to raise forever — the persistent-outage
                shape the degradation suite uses).
            skip: let this many hits pass unharmed first, so a fault
                can be planted mid-campaign.
        """
        self._check_point(point)
        if isinstance(failure, str) and failure not in FAILURE_MODES:
            raise ValueError(
                f"unknown failure mode {failure!r}; expected one of "
                f"{FAILURE_MODES} or an exception instance"
            )
        if times == 0:
            raise ValueError("times must be non-zero (negative = forever)")
        if skip < 0:
            raise ValueError("skip must be >= 0")
        self._armed[point] = _Arming(failure=failure, times=times, skip=skip)

    def disarm(self, point: Optional[str] = None) -> None:
        """Disarm one point, or every point when none is given."""
        if point is None:
            self._armed.clear()
            return
        self._check_point(point)
        self._armed.pop(point, None)

    def hit_count(self, point: str) -> int:
        """How many times a point was reached (armed or not)."""
        self._check_point(point)
        return self.hits.get(point, 0)

    def triggered(self, point: str) -> int:
        """How many times an arming at this point actually raised."""
        self._check_point(point)
        arming = self._armed.get(point)
        return arming.triggered if arming is not None else 0

    def fire(self, point: str) -> None:
        """Consulted by instrumented code: raise if the point is armed.

        Raises:
            CrashPoint: for the ``"crash"`` failure mode.
            sqlite3.OperationalError: for ``"locked"``.
            BaseException: an armed exception instance, as-is.
        """
        self._check_point(point)
        self.hits[point] = self.hits.get(point, 0) + 1
        arming = self._armed.get(point)
        if arming is None:
            return
        if arming.skip > 0:
            arming.skip -= 1
            return
        if arming.times >= 0 and arming.triggered >= arming.times:
            return
        arming.triggered += 1
        if isinstance(arming.failure, BaseException):
            raise arming.failure
        if arming.failure == "locked":
            raise sqlite3.OperationalError("database is locked")
        raise CrashPoint(point)


#: The process-global injector the instrumented code consults. Inert
#: until a test swaps it via :func:`injected` (or arms it directly).
_ACTIVE = FaultInjector()


def active() -> FaultInjector:
    """The currently installed injector."""
    return _ACTIVE


def fire(point: str) -> None:
    """Hit a fault point on the active injector (the instrumentation
    hook — a counter bump when nothing is armed)."""
    _ACTIVE.fire(point)


@contextmanager
def injected(
    injector: Optional[FaultInjector] = None,
) -> Iterator[FaultInjector]:
    """Install a fresh (or given) injector for the duration of a block.

    The previous injector — normally the inert default — is restored on
    exit, armed faults and hit counters included, so tests cannot leak
    faults into each other.
    """
    global _ACTIVE
    replacement = injector if injector is not None else FaultInjector()
    previous = _ACTIVE
    _ACTIVE = replacement
    try:
        yield replacement
    finally:
        _ACTIVE = previous
