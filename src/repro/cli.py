"""Command-line interface: ``python -m repro <command>``.

Commands:

- ``demo`` — run a full DOCS campaign on one dataset and print the
  outcome (the quickstart, parameterised).
- ``run`` — run a campaign with a chosen storage backend
  (``--store sqlite --db PATH`` persists it), or ``--resume`` a
  persisted campaign from its database file.
- ``datasets`` — list the built-in dataset generators with their sizes.
- ``engines`` — list the registered inference engines (the names
  ``run --engine``, ``DocsConfig.engine``, and the service's campaign
  ``engine`` field accept).
- ``detect`` — run DVE over a dataset and report domain-detection
  accuracy.
- ``compare-ti`` — the Figure 5 comparison on one dataset.
- ``compare-ota`` — the Figure 8 end-to-end comparison on one dataset.
- ``check-db`` — integrity-check a campaign database: journal CRC
  validation, snapshot checksum, and a salvage dry-run (``--salvage``
  actually truncates a torn tail to the last consistent batch).
- ``analyze`` — run one SQL-pushdown analytics report
  (worker-accuracy, convergence, leaderboard, spam) over a campaign
  database and print JSON; ``--explain`` prints the query plan
  instead.
- ``serve`` — run the asyncio HTTP service: campaign lifecycle, task
  upload, assignment, and answer submission over the network, with a
  bounded arrival queue (429 backpressure) and coalesced journal
  flushes. ``--resume`` reopens every campaign in ``--db-dir``.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

import numpy as np


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--dataset",
        default="4d",
        choices=("item", "4d", "qa", "sfv"),
        help="which of the paper's datasets to use",
    )
    parser.add_argument(
        "--seed", type=int, default=7, help="master random seed"
    )


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Reproduction of DOCS: Domain-Aware Crowdsourcing System "
            "(VLDB 2016)"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    demo = sub.add_parser("demo", help="run a full DOCS campaign")
    _add_common(demo)
    demo.add_argument(
        "--answers-per-task",
        type=int,
        default=10,
        help="budget in answers per task",
    )
    demo.add_argument(
        "--hit-size", type=int, default=3, help="tasks per HIT (k)"
    )
    demo.add_argument(
        "--workers",
        type=int,
        default=0,
        metavar="N",
        help=(
            "serve from N forked worker processes over a shared-memory "
            "arena (0 = single-process; >= 2 also fans ingest linking "
            "out N ways; requires fork)"
        ),
    )

    run = sub.add_parser(
        "run",
        help="run (or resume) a campaign with durable storage",
    )
    _add_common(run)
    run.add_argument(
        "--answers-per-task",
        type=int,
        default=10,
        help="budget in answers per task",
    )
    run.add_argument(
        "--hit-size", type=int, default=3, help="tasks per HIT (k)"
    )
    run.add_argument(
        "--workers",
        type=int,
        default=0,
        metavar="N",
        help=(
            "serve from N forked worker processes over a shared-memory "
            "arena (0 = single-process; >= 2 also fans ingest linking "
            "out N ways; requires fork)"
        ),
    )
    run.add_argument(
        "--store",
        default="memory",
        choices=("memory", "sqlite"),
        help="storage backend for the campaign state",
    )
    run.add_argument(
        "--db",
        default=None,
        help="SQLite database path (required with --store sqlite)",
    )
    run.add_argument(
        "--resume",
        action="store_true",
        help=(
            "resume the campaign persisted at --db (loads the latest "
            "snapshot and replays the journal tail; full replay when "
            "no snapshot is usable) and report its current inference"
        ),
    )
    run.add_argument(
        "--snapshot-every",
        type=int,
        default=None,
        metavar="N",
        help=(
            "with --store sqlite, write a compacted hot-state snapshot "
            "every N flushed journal batches (default: config's "
            "snapshot_every_batches; 0 = only on checkpoint/close)"
        ),
    )
    run.add_argument(
        "--worker-db",
        default=None,
        metavar="PATH",
        help=(
            "SQLite file holding the shared cross-campaign worker "
            "model; known workers skip the golden pre-test and this "
            "campaign's quality estimates merge back into it"
        ),
    )
    run.add_argument(
        "--engine",
        default=None,
        metavar="NAME",
        help=(
            "inference engine the campaign shell hosts (see 'repro "
            "engines'; default: docs). Engines without the hot-state "
            "capability run memory-only inference behind the same "
            "campaign surface"
        ),
    )

    sub.add_parser("datasets", help="list built-in datasets")

    sub.add_parser(
        "engines",
        help=(
            "list registered inference engines (usable with run "
            "--engine, DocsConfig.engine, and the service's campaign "
            "'engine' field)"
        ),
    )

    detect = sub.add_parser(
        "detect", help="DVE domain-detection accuracy on a dataset"
    )
    _add_common(detect)

    compare_ti = sub.add_parser(
        "compare-ti", help="Figure 5 truth-inference comparison"
    )
    _add_common(compare_ti)

    compare_ota = sub.add_parser(
        "compare-ota", help="Figure 8 end-to-end OTA comparison"
    )
    _add_common(compare_ota)

    check = sub.add_parser(
        "check-db",
        help=(
            "integrity-check a campaign database (journal CRC, "
            "snapshot checksum, salvage dry-run)"
        ),
    )
    check.add_argument(
        "path", help="SQLite campaign database file to check"
    )
    check.add_argument(
        "--salvage",
        action="store_true",
        help=(
            "truncate a torn journal tail back to the last consistent "
            "batch (IRREVERSIBLE: drops the rows the dry-run reports; "
            "committed consistent batches are never touched)"
        ),
    )

    analyze = sub.add_parser(
        "analyze",
        help=(
            "run a SQL-pushdown analytics report over a campaign "
            "database (worker-accuracy, convergence, leaderboard, "
            "spam)"
        ),
    )
    analyze.add_argument(
        "path", help="SQLite campaign database file to analyze"
    )
    analyze.add_argument(
        "query",
        help=(
            "analytics query name; see docs/api.md for the registry "
            "and per-query parameters"
        ),
    )
    analyze.add_argument(
        "--param",
        action="append",
        default=[],
        metavar="KEY=VALUE",
        help=(
            "query parameter (repeatable), e.g. --param window=50"
        ),
    )
    analyze.add_argument(
        "--explain",
        action="store_true",
        help=(
            "print the EXPLAIN QUERY PLAN lines instead of running "
            "the query (covering-index sanity check)"
        ),
    )

    serve = sub.add_parser(
        "serve",
        help=(
            "serve DOCS campaigns over HTTP (stdlib asyncio; see "
            "docs/api.md for the endpoint table)"
        ),
    )
    serve.add_argument(
        "--host", default="127.0.0.1", help="bind address"
    )
    serve.add_argument(
        "--port",
        type=int,
        default=8080,
        help="bind port (0 picks a free one and prints it)",
    )
    serve.add_argument(
        "--db-dir",
        default=None,
        help=(
            "directory for campaign databases and the shared worker "
            "store; omitted = everything in memory"
        ),
    )
    serve.add_argument(
        "--worker-db",
        default=None,
        help=(
            "shared worker-store path (default: <db-dir>/workers.db)"
        ),
    )
    serve.add_argument(
        "--queue-limit",
        type=int,
        default=128,
        help=(
            "bounded arrival-queue capacity; beyond it requests get "
            "429 + Retry-After"
        ),
    )
    serve.add_argument(
        "--coalesce-max",
        type=int,
        default=64,
        help=(
            "max requests drained per scheduling round (submit "
            "batch size per journal flush)"
        ),
    )
    serve.add_argument(
        "--resume",
        action="store_true",
        help=(
            "reopen every campaign whose <name>.meta.json sidecar "
            "lives in --db-dir before accepting traffic"
        ),
    )

    report = sub.add_parser(
        "report",
        help="assemble benchmarks/results/*.txt into one markdown report",
    )
    report.add_argument(
        "--results-dir",
        default="benchmarks/results",
        help="directory the benchmarks wrote their tables to",
    )
    report.add_argument(
        "--output",
        default=None,
        help="write the report here instead of stdout",
    )
    return parser


def _cmd_demo(args) -> int:
    from repro.datasets import make_dataset
    from repro.system import DocsConfig, run_campaign

    dataset = make_dataset(args.dataset, seed=args.seed)
    print(dataset.summary())
    result = run_campaign(
        dataset,
        config=DocsConfig(seed=args.seed, workers=args.workers),
        answers_per_task=args.answers_per_task,
        hit_size=args.hit_size,
        seed=args.seed,
    )
    report = result.report
    print(f"answers collected : {report.total_answers}")
    print(f"HITs issued       : {len(report.hit_log)}")
    print(f"spend             : ${report.hit_log.total_spend():.2f}")
    print(f"worst assignment  : {report.max_assign_seconds * 1e3:.2f} ms")
    print(f"accuracy          : {result.accuracy():.1%}")
    return 0


def _cmd_run(args) -> int:
    from repro.datasets import make_dataset
    from repro.platform.sqlite_storage import SqliteWorkerQualityStore
    from repro.system import DocsConfig, DocsSystem, run_campaign

    if args.store == "sqlite" and not args.db:
        print("--store sqlite requires --db PATH", file=sys.stderr)
        return 2

    if args.resume:
        if not args.db:
            print("--resume requires --db PATH", file=sys.stderr)
            return 2
        config = DocsConfig(seed=args.seed, workers=args.workers)
        if args.snapshot_every is not None:
            from dataclasses import replace

            config = replace(
                config, snapshot_every_batches=args.snapshot_every
            )
        if args.engine:
            from dataclasses import replace

            config = replace(config, engine=args.engine)
        worker_db = None
        if args.worker_db:
            # The store must be attached *during* resume so a
            # full-replay fallback re-seeds returning workers from it;
            # its taxonomy size comes from the persisted domain
            # vectors (float64 blobs).
            import sqlite3

            conn = sqlite3.connect(args.db)
            try:
                row = conn.execute(
                    "SELECT LENGTH(domain_vector) FROM tasks "
                    "WHERE domain_vector IS NOT NULL LIMIT 1"
                ).fetchone()
            except sqlite3.OperationalError:
                row = None
            finally:
                conn.close()
            if row is None:
                print(
                    f"{args.db} holds no resumable campaign",
                    file=sys.stderr,
                )
                return 2
            worker_db = SqliteWorkerQualityStore(
                int(row[0]) // 8, path=args.worker_db
            )
        # Engines without the hot-state capability resume by full
        # replay through a re-prepared engine, which needs the
        # campaign's original dataset (same generator, same seed).
        from repro.engines import CAP_HOT_STATE, make_engine

        probe = make_engine(
            config.engine, seed=args.seed, config=config
        )
        hot = CAP_HOT_STATE in probe.capabilities()
        system = DocsSystem.resume(
            args.db,
            config=config,
            worker_store=worker_db,
            dataset=(
                None
                if hot
                else make_dataset(args.dataset, seed=args.seed)
            ),
        )
        truths = system.finalize()
        tasks = system.database.tasks()
        scored = [t for t in tasks if t.ground_truth is not None]
        info = system.resume_info or {}
        snapshot_seq = info.get("snapshot_seq")
        source = (
            f"snapshot@seq {snapshot_seq} + "
            f"{info.get('tail_entries', 0)} tail event(s)"
            if snapshot_seq is not None
            else f"full replay ({info.get('tail_entries', 0)} event(s))"
        )
        print(f"resumed campaign   : {args.db}")
        print(f"rebuilt from       : {source}")
        print(f"tasks restored     : {len(tasks)}")
        print(f"answers replayed   : {len(system.database.answers)}")
        if hot:
            print(
                "workers known      : "
                f"{len(list(system.quality_store.known_workers()))}"
            )
        if scored:
            correct = sum(
                truths[t.task_id] == t.ground_truth for t in scored
            )
            print(
                f"accuracy           : {correct / len(scored):.1%} "
                f"({correct}/{len(scored)})"
            )
        system.close()
        if worker_db is not None:
            worker_db.close()
        return 0

    dataset = make_dataset(args.dataset, seed=args.seed)
    print(dataset.summary())
    config = DocsConfig(seed=args.seed, workers=args.workers)
    if args.snapshot_every is not None:
        from dataclasses import replace

        config = replace(
            config, snapshot_every_batches=args.snapshot_every
        )
    if args.engine:
        from dataclasses import replace

        config = replace(config, engine=args.engine)
    worker_db = None
    if args.worker_db:
        worker_db = SqliteWorkerQualityStore(
            dataset.taxonomy.size, path=args.worker_db
        )
    result = run_campaign(
        dataset,
        config=config,
        answers_per_task=args.answers_per_task,
        hit_size=args.hit_size,
        seed=args.seed,
        storage=args.store,
        path=args.db,
        worker_store=worker_db,
    )
    report = result.report
    print(f"answers collected : {report.total_answers}")
    print(f"accuracy          : {result.accuracy():.1%}")
    if worker_db is not None:
        print(
            "worker model       : "
            f"{len(list(worker_db.known_workers()))} worker(s) in "
            f"{args.worker_db}"
        )
        worker_db.close()
    if args.store == "sqlite":
        print(f"campaign persisted: {args.db}")
        print(
            "resume with       : python -m repro run --store sqlite "
            f"--db {args.db} --resume"
        )
    return 0


def _cmd_datasets(args) -> int:
    from repro.datasets import DATASET_NAMES, make_dataset

    for name in DATASET_NAMES:
        dataset = make_dataset(name, seed=0)
        print(dataset.summary())
    return 0


def _cmd_engines(args) -> int:
    from repro.engines import ENGINES

    width = max(len(name) for name in ENGINES)
    for spec in ENGINES.values():
        print(f"{spec.name:<{width}}  {spec.summary}")
    return 0


def _cmd_detect(args) -> int:
    from repro.core.dve import DomainVectorEstimator
    from repro.datasets import make_dataset
    from repro.linking import EntityLinker

    dataset = make_dataset(args.dataset, seed=args.seed)
    estimator = DomainVectorEstimator(
        EntityLinker(dataset.kb), dataset.taxonomy.size
    )
    vectors = estimator.estimate_batch([t.text for t in dataset.tasks])
    correct = sum(
        int(np.argmax(vector)) == task.true_domain
        for task, vector in zip(dataset.tasks, vectors)
    )
    print(
        f"{args.dataset}: domain detection "
        f"{correct}/{dataset.num_tasks} "
        f"({correct / dataset.num_tasks:.1%})"
    )
    return 0


def _cmd_compare_ti(args) -> int:
    from repro.experiments import build_context
    from repro.experiments.fig5 import (
        format_ti_comparison,
        run_ti_comparison,
    )

    context = build_context(args.dataset, seed=args.seed)
    result = run_ti_comparison(context)
    print(format_ti_comparison([result]))
    return 0


def _cmd_compare_ota(args) -> int:
    from repro.experiments.fig8 import (
        format_ota_comparison,
        run_ota_comparison,
    )

    result = run_ota_comparison(args.dataset, seed=args.seed)
    print(format_ota_comparison([result]))
    return 0


def _cmd_check_db(args) -> int:
    import os

    from repro.errors import JournalCorruptionError, SchemaVersionError
    from repro.platform.sqlite_storage import (
        SCHEMA_VERSION,
        SqliteSystemDatabase,
    )

    if not os.path.exists(args.path):
        print(f"no such file: {args.path}", file=sys.stderr)
        return 2
    try:
        db = SqliteSystemDatabase(args.path, journal_batch_size=256)
    except SchemaVersionError as exc:
        print(f"schema version     : REFUSED — {exc}", file=sys.stderr)
        return 2
    try:
        journal = db.journal
        print(f"database           : {args.path}")
        print(
            "schema version     : supported "
            f"(this build reads <= {SCHEMA_VERSION})"
        )
        print(f"tasks              : {len(db)}")
        archived = journal.archived_through
        archive_note = (
            f", archived through seq {archived}" if archived >= 0 else ""
        )
        print(
            f"journal            : {len(journal)} committed row(s) in "
            f"{journal.flushed_batches} batch(es){archive_note}"
        )

        report = journal.salvage(dry_run=True)
        if report.clean:
            print("journal integrity  : OK")
            print("salvage (dry run)  : nothing to drop")
        else:
            print(f"journal integrity  : CORRUPT — {report.problem}")
            print(
                "salvage (dry run)  : would drop "
                f"{report.dropped_rows} row(s) "
                f"({report.dropped_answers} answer(s)) across "
                f"{report.dropped_batches} batch record(s), keeping "
                f"seq <= {report.valid_through_seq}"
            )
            if args.salvage:
                applied = journal.salvage()
                print(
                    "salvage            : dropped "
                    f"{applied.dropped_rows} row(s); journal truncated "
                    f"to seq {applied.valid_through_seq}"
                )
                journal.validate()
                print("journal integrity  : OK after salvage")

        snapshot = db.load_snapshot()
        if snapshot is not None:
            print(
                "snapshot           : OK, covers journal through seq "
                f"{snapshot.journal_seq}"
            )
        else:
            print(
                "snapshot           : none usable (resume falls back "
                "to full journal replay)"
            )

        if not report.clean and not args.salvage:
            print(
                "\nthe journal tail is torn; re-run with --salvage to "
                "truncate it, or resume with "
                "DocsSystem.resume(path, repair=True)",
                file=sys.stderr,
            )
            return 1
        return 0
    except JournalCorruptionError as exc:
        print(f"journal integrity  : CORRUPT — {exc}", file=sys.stderr)
        return 1
    finally:
        db.close()


def _cmd_report(args) -> int:
    import pathlib

    from repro.experiments.report import build_report

    output = pathlib.Path(args.output) if args.output else None
    text = build_report(pathlib.Path(args.results_dir), output=output)
    if output is None:
        print(text)
    else:
        print(f"report written to {output}")
    return 0


def _cmd_serve(args) -> int:
    import asyncio
    import os
    import signal

    from repro.platform import faults
    from repro.service import DocsService, ServiceConfig, ServiceServer

    fault_spec = os.environ.get("REPRO_SERVE_FAULT")
    if fault_spec:
        # "<point>[:<skip>]" — arm a simulated kill at a named fault
        # point (the kill-and-resume test plants one mid-load); the
        # process dies there like a SIGKILL would.
        point, _, skip_text = fault_spec.partition(":")
        faults.active().arm(point, "crash", skip=int(skip_text or 0))

    if args.db_dir:
        os.makedirs(args.db_dir, exist_ok=True)
    config = ServiceConfig(
        queue_limit=args.queue_limit,
        coalesce_max=args.coalesce_max,
        db_dir=args.db_dir,
        worker_db=args.worker_db,
    )

    def _die(crash: BaseException) -> None:
        # Emulate SIGKILL at the armed point: no flush, no cleanup,
        # no atexit — the crash-safety matrix's assumptions exactly.
        print(f"fatal (simulated kill): {crash}", file=sys.stderr,
              flush=True)
        os._exit(137)

    app = DocsService(config, on_fatal=_die)
    # Start the scheduler before resuming: SQLite connections are
    # thread-affine, so campaigns must be reopened on the thread that
    # will serve them.
    app.start()
    if args.resume:
        resumed = app.resume_campaigns()
        print(f"resumed campaigns: {resumed}", flush=True)

    server = ServiceServer(app, host=args.host, port=args.port)

    async def _serve() -> None:
        await server.start()
        print(
            f"serving on http://{server.host}:{server.port}",
            flush=True,
        )
        stop = asyncio.Event()
        loop = asyncio.get_running_loop()
        for signum in (signal.SIGINT, signal.SIGTERM):
            try:
                loop.add_signal_handler(signum, stop.set)
            except NotImplementedError:
                pass
        await stop.wait()
        await server.stop()

    try:
        asyncio.run(_serve())
    except KeyboardInterrupt:
        pass
    app.stop()
    print(
        "server stopped; campaigns checkpointed and closed",
        flush=True,
    )
    return 0


def _cmd_analyze(args) -> int:
    import json
    import os

    from repro.analytics import explain_query, run_query
    from repro.errors import ReproError, SchemaVersionError
    from repro.platform.sqlite_storage import SqliteSystemDatabase

    if not os.path.exists(args.path):
        print(f"no such file: {args.path}", file=sys.stderr)
        return 2
    params = {}
    for item in args.param:
        key, sep, value = item.partition("=")
        if not sep or not key:
            print(
                f"bad --param {item!r}; expected KEY=VALUE",
                file=sys.stderr,
            )
            return 2
        params[key] = value
    try:
        # Opening through the platform layer validates the schema
        # version and runs the covering-index migration on old files.
        db = SqliteSystemDatabase(args.path, journal_batch_size=256)
    except SchemaVersionError as exc:
        print(f"REFUSED — {exc}", file=sys.stderr)
        return 2
    try:
        if args.explain:
            for line in explain_query(db._conn, args.query, params):
                print(line)
        else:
            result = run_query(db._conn, args.query, params)
            print(json.dumps(result, indent=2))
    except ReproError as exc:
        print(str(exc), file=sys.stderr)
        return 2
    finally:
        db.close()
    return 0


_COMMANDS = {
    "demo": _cmd_demo,
    "run": _cmd_run,
    "datasets": _cmd_datasets,
    "engines": _cmd_engines,
    "detect": _cmd_detect,
    "compare-ti": _cmd_compare_ti,
    "compare-ota": _cmd_compare_ota,
    "check-db": _cmd_check_db,
    "analyze": _cmd_analyze,
    "serve": _cmd_serve,
    "report": _cmd_report,
}


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns a process exit code."""
    args = _build_parser().parse_args(argv)
    return _COMMANDS[args.command](args)


if __name__ == "__main__":
    sys.exit(main())
