"""What a run hands back, the output checks that fail it, and the
restart phase that reads the closed campaign file for them."""

from __future__ import annotations

import os
import sqlite3
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

from repro.analytics import QUERY_NAMES
from repro.platform.journal import KIND_ANSWER
from repro.system import DocsConfig, DocsSystem

from stats import median

#: The resume path a closed campaign must take: snapshot-carried
#: answer index, no archive scan, no full replay.
EXPECTED_RESTORE_PATH = "index-carry"


@dataclass
class Outcome:
    """The outputs of one workload run that the checks look at.

    Attributes:
        task_ids: every task of the campaign.
        truths: the final truths, task id -> choice.
        hits: every HIT issued, as (worker id, task ids).
        accepted_answers: answers the system accepted (2xx-acked over
            HTTP).
        bootstrap_events: journal events the bootstraps should have
            written (golden answers plus one marker per worker).
        digest_before: ``hot_state_digest()`` just before close.
        digests_after: the digest after each ``resume``.
        restore_paths: ``resume_info["restore_path"]`` of each resume.
        journal_kinds: committed journal rows per kind, read from the
            closed campaign file.
        acked: (worker, task) pairs acknowledged with a 2xx.
        committed: (worker, task) answer pairs committed to the file.
        server_errors: responses with a 5xx status.
    """

    task_ids: List[int]
    truths: Dict[int, int]
    hits: List[Tuple[str, List[int]]]
    accepted_answers: int
    bootstrap_events: int = 0
    digest_before: Optional[str] = None
    digests_after: List[str] = field(default_factory=list)
    restore_paths: List[Optional[str]] = field(default_factory=list)
    journal_kinds: Optional[Dict[int, int]] = None
    acked: Optional[Set[Tuple[str, int]]] = None
    committed: Optional[Set[Tuple[str, int]]] = None
    server_errors: int = 0


@dataclass
class RunResult:
    """Metrics plus what the checks need, from one workload run."""

    e2e: Dict[str, float]
    layers: Dict[str, float]
    outcomes: List[Outcome]
    attempted: int
    failed: int
    notes: Dict[str, object] = field(default_factory=dict)


def verify(outcome: Outcome) -> List[str]:
    """Every check that fails, as one line each (empty when correct)."""
    failures: List[str] = []
    missing = set(outcome.task_ids) - set(outcome.truths)
    if missing:
        failures.append(
            f"truths miss {len(missing)} task(s), e.g. {min(missing)}"
        )
    seen: Set[Tuple[str, int]] = set()
    repeats = 0
    for worker_id, task_ids in outcome.hits:
        for task_id in task_ids:
            pair = (worker_id, task_id)
            if pair in seen:
                repeats += 1
            seen.add(pair)
    if repeats:
        failures.append(f"{repeats} task(s) assigned to a worker twice")
    if outcome.digest_before is not None:
        if not outcome.digests_after:
            failures.append("the closed campaign was never resumed")
        for digest in outcome.digests_after:
            if digest != outcome.digest_before:
                failures.append(
                    "hot_state_digest after resume differs from the "
                    "digest before close"
                )
                break
        for path in outcome.restore_paths:
            if path != EXPECTED_RESTORE_PATH:
                failures.append(
                    f"resume took restore path {path!r}, expected "
                    f"{EXPECTED_RESTORE_PATH!r}"
                )
                break
    if outcome.journal_kinds is not None:
        answers = outcome.journal_kinds.get(KIND_ANSWER, 0)
        bootstrap = sum(
            count
            for kind, count in outcome.journal_kinds.items()
            if kind != KIND_ANSWER
        )
        if answers != outcome.accepted_answers:
            failures.append(
                f"journal holds {answers} answers, "
                f"{outcome.accepted_answers} were accepted"
            )
        if bootstrap != outcome.bootstrap_events:
            failures.append(
                f"journal holds {bootstrap} bootstrap events, "
                f"{outcome.bootstrap_events} were recorded"
            )
    if outcome.acked is not None:
        lost = outcome.acked - (outcome.committed or set())
        if lost:
            failures.append(
                f"{len(lost)} acknowledged answer(s) are not committed"
            )
    if outcome.server_errors:
        failures.append(f"{outcome.server_errors} response(s) were 5xx")
    return failures


def read_journal(path: str) -> Tuple[Dict[int, int], Set[Tuple[str, int]]]:
    """Committed rows per kind, and the committed answer pairs, of a
    closed campaign file."""
    conn = sqlite3.connect(f"file:{path}?mode=ro", uri=True)
    try:
        kinds = {
            int(kind): int(count)
            for kind, count in conn.execute(
                "SELECT kind, COUNT(*) FROM answers_log GROUP BY kind"
            )
        }
        pairs = {
            (str(worker), int(task))
            for worker, task in conn.execute(
                "SELECT worker_id, task_id FROM answers_log "
                "WHERE kind = ?",
                (KIND_ANSWER,),
            )
        }
        archived = conn.execute(
            "SELECT worker_id, task_id FROM answers_archive"
        ).fetchall()
    finally:
        conn.close()
    if archived:
        kinds[KIND_ANSWER] = kinds.get(KIND_ANSWER, 0) + len(archived)
        pairs.update((str(w), int(t)) for w, t in archived)
    return kinds, pairs


def restart_phase(
    path: str, kb, reps: int, outcome: Outcome
) -> Dict[str, object]:
    """Read a closed campaign file: its size and journal, then resume
    it and run the four analytics queries, ``reps`` times.

    Fills the outcome's journal counts, committed answers, digests and
    restore paths for :func:`verify`. Every time is the median of the
    ``reps`` repetitions.
    """
    size = sum(
        os.path.getsize(path + suffix)
        for suffix in ("", "-wal")
        if os.path.exists(path + suffix)
    )
    outcome.journal_kinds, outcome.committed = read_journal(path)
    resume_s: List[float] = []
    analytics_s: List[float] = []
    per_query: Dict[str, List[float]] = {q: [] for q in QUERY_NAMES}
    for _ in range(reps):
        started = time.perf_counter()
        resumed = DocsSystem.resume(path, config=DocsConfig(workers=0), kb=kb)
        resume_s.append(time.perf_counter() - started)
        outcome.digests_after.append(resumed.hot_state_digest())
        outcome.restore_paths.append(resumed.resume_info.get("restore_path"))
        total = 0.0
        for query in QUERY_NAMES:
            started = time.perf_counter()
            resumed.analytics(query)
            per_query[query].append(time.perf_counter() - started)
            total += per_query[query][-1]
        analytics_s.append(total)
        resumed.close()
    return {
        "resume_s": median(resume_s),
        "analytics_s": median(analytics_s),
        "per_query": {q: median(v) for q, v in per_query.items()},
        "db_bytes": size,
    }
