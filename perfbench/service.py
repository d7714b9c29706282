"""The ``service`` workload: ``repro serve`` under open-loop worker load.

The server is a ``python -m repro serve --port 0 --db-dir ...``
subprocess with one sqlite campaign. Load comes from this one process
over at most ``nproc`` keep-alive connections, in one asyncio thread.
Worker arrivals are due at a fixed rate, whoever arrives is drawn by
:class:`~repro.crowd.WorkerArrivalProcess`, and at most one arrival per
worker is in flight. An arrival is one ``GET …/assignment?k=K``, then
one ``POST …/answers`` per task in order, with choices drawn by
``sample_answer``. Each request is timed from when it was due: the
arrival's slot for the assignment, the previous response for a submit.
The time a due request waits for a free connection is the generator's
lateness.

An untraced run offers ``REFERENCE_RATE`` for ``--seconds`` in all
(the latencies), in rounds that alternate with closed loops of
``SATURATION_ARRIVALS`` arrivals over every connection, where each
client sends its next request as soon as its last one is answered
(``answers_per_s``: the server's own speed). A traced run starts the server with layer spans recorded, then climbs a
fixed ladder of rates to find ``capacity_rps``.
"""

from __future__ import annotations

import asyncio
import json
import os
import signal
import sys
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

from repro.crowd.answer_model import sample_answer
from repro.crowd.arrival import WorkerArrivalProcess
from repro.utils.rng import make_rng

import metrics
from checks import Outcome, RunResult, restart_phase
from inputs import DATASET_SEED, SIM_SEED_OFFSET, make_4d, make_pool
from layers import span_metrics
from stats import latency_summary, median, percentile
from trace import Tracer

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")

CAMPAIGN = "bench"
#: 300 tasks: at the reference rate a 45 s run collects 7.5 answers
#: per task, and the closed loops 13.5 more.
TASKS_PER_DOMAIN = 75
WORKERS = 50
#: Tasks per assignment request.
HIT_SIZE = 5
#: Worker arrivals per second of the untraced run: about a fifth of
#: capacity on a 2-core host, so stalls seldom overlap arrivals.
REFERENCE_RATE = 10.0
#: An untraced run alternates ``ROUNDS`` open-loop stretches of
#: ``--seconds / ROUNDS`` with closed-loop stretches of
#: ``SATURATION_ARRIVALS`` arrivals each, so that both sample the host
#: across the whole run. The closed loops' 4,050 answers in all take
#: about 10 s on a 2-core host and span 40 reruns and some 250
#: snapshots.
ROUNDS = 3
SATURATION_ARRIVALS = 270
#: The traced run's ladder, as multiples of ``REFERENCE_RATE``.
LADDER = (1.0, 2.0, 3.0, 4.0, 6.0, 8.0)
#: Seconds per ladder step.
STEP_SECONDS = 10.0
#: The assign p95, stalls included, a ladder step must stay under.
ASSIGN_TAIL_LIMIT_MS = 100.0
#: Discarded set-ups before the measured server's and after its load;
#: ``setup_s`` is the median of all ``2 * SETUPS_AROUND + 1``, spread
#: over the run so that it averages over the host's drift.
SETUPS_AROUND = 2
#: Finalize calls of a traced run; ``finalize_s`` is their median.
FINALIZE_REPS = 15
#: Shares of the slow modes, from the default config (z = 100 submits
#: per rerun, a snapshot every 16 journal batches) and traced runs. The
#: scheduler runs one request at a time and flushes the journal once per
#: coalesced batch, which at this load is one submit:
#: - the submit that triggers a rerun and the request in flight on the
#:   other connection wait it out (2 in z), and the submit whose flush
#:   triggers a snapshot waits for it (1 in 16);
#: - an arrival's assignment comes right after its previous HIT's
#:   submits, so one arrival in z / HIT_SIZE waits out a rerun, and
#:   snapshots hold the scheduler about 4% of the time.
SUBMIT_SLOW_SHARE = 2 / 100 + 1 / 16
ASSIGN_SLOW_SHARE = HIT_SIZE / 100 + 0.04
CONNECTIONS = max(1, min(2, os.cpu_count() or 1))
REQUEST_TIMEOUT_S = 30.0
START_TIMEOUT_S = 60.0


# -- HTTP over asyncio streams ------------------------------------------


class Connection:
    """One keep-alive HTTP/1.1 connection; JSON in and out."""

    def __init__(self, host: str, port: int):
        self.host, self.port = host, port
        self._reader: Optional[asyncio.StreamReader] = None
        self._writer: Optional[asyncio.StreamWriter] = None

    async def _open(self) -> None:
        self._reader, self._writer = await asyncio.open_connection(
            self.host, self.port
        )

    async def request(
        self, method: str, path: str, body: Optional[dict] = None
    ) -> Tuple[int, dict]:
        """Send one request; a failed exchange drops the socket."""
        try:
            return await asyncio.wait_for(
                self._exchange(method, path, body), REQUEST_TIMEOUT_S
            )
        except BaseException:
            self.close()
            raise

    async def _exchange(self, method, path, body):
        if self._writer is None:
            await self._open()
        data = json.dumps(body).encode() if body is not None else b""
        head = (
            f"{method} {path} HTTP/1.1\r\nHost: {self.host}\r\n"
            f"Content-Type: application/json\r\n"
            f"Content-Length: {len(data)}\r\n\r\n"
        )
        self._writer.write(head.encode("latin-1") + data)
        await self._writer.drain()
        status_line = await self._reader.readline()
        if not status_line:
            raise ConnectionError("server closed the connection")
        status = int(status_line.split()[1])
        length = 0
        while True:
            line = await self._reader.readline()
            if line in (b"\r\n", b"\n", b""):
                break
            key, _, value = line.decode("latin-1").partition(":")
            if key.strip().lower() == "content-length":
                length = int(value.strip())
        payload = await self._reader.readexactly(length) if length else b""
        return status, (json.loads(payload) if payload else {})

    def close(self) -> None:
        if self._writer is not None:
            self._writer.close()
        self._reader = self._writer = None


class ConnectionPool:
    """At most ``size`` connections; a request waits for a free one."""

    def __init__(self, host: str, port: int, size: int):
        self._free: asyncio.Queue = asyncio.Queue()
        for _ in range(size):
            self._free.put_nowait(Connection(host, port))

    async def request(self, method, path, body=None):
        """``(status, body, sent_at, done_at)``; status 0 on a timeout
        or a refused or broken connection."""
        conn = await self._free.get()
        sent = time.perf_counter()
        try:
            status, payload = await conn.request(method, path, body)
        except (OSError, ConnectionError, asyncio.TimeoutError,
                asyncio.IncompleteReadError, ValueError):
            status, payload = 0, {}
        finally:
            self._free.put_nowait(conn)
        return status, payload, sent, time.perf_counter()

    async def close(self) -> None:
        while not self._free.empty():
            self._free.get_nowait().close()


# -- the server process --------------------------------------------------


class Server:
    """A ``repro serve`` subprocess on a free port."""

    def __init__(self, workdir: str, name: str, trace_out: Optional[str]):
        self.db_dir = os.path.join(workdir, name)
        self.stdout = os.path.join(workdir, f"{name}.out")
        self.trace_out = trace_out
        self.proc: Optional[asyncio.subprocess.Process] = None
        self.port = 0

    async def start(self) -> None:
        env = dict(os.environ)
        env["PYTHONPATH"] = SRC + (
            os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
        )
        args = ["--port", "0", "--db-dir", self.db_dir]
        if self.trace_out is None:
            command = [sys.executable, "-m", "repro", "serve"] + args
        else:
            command = [
                sys.executable, os.path.join(HERE, "serve_traced.py"),
                self.trace_out,
            ] + args
        with open(self.stdout, "wb") as out:
            self.proc = await asyncio.create_subprocess_exec(
                *command, stdout=out, stderr=asyncio.subprocess.STDOUT,
                env=env,
            )
        deadline = time.perf_counter() + START_TIMEOUT_S
        while time.perf_counter() < deadline:
            with open(self.stdout, "rb") as out:
                for line in out.read().decode(errors="replace").splitlines():
                    if line.startswith("serving on http://"):
                        self.port = int(line.rsplit(":", 1)[1])
                        return
            if self.proc.returncode is not None:
                break
            await asyncio.sleep(0.005)
        raise RuntimeError(f"server did not start; see {self.stdout}")

    def peak_rss_mb(self) -> float:
        with open(f"/proc/{self.proc.pid}/status", encoding="ascii") as f:
            for line in f:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise RuntimeError("VmHWM missing from /proc status")

    async def kill(self) -> None:
        """SIGKILL a server still running, and wait for it."""
        if self.proc is not None and self.proc.returncode is None:
            self.proc.kill()
            await self.proc.wait()

    async def stop(self) -> None:
        """SIGTERM (the server checkpoints and closes), then wait."""
        if self.proc is None or self.proc.returncode is not None:
            return
        self.proc.send_signal(signal.SIGTERM)
        try:
            await asyncio.wait_for(self.proc.wait(), 60.0)
        except asyncio.TimeoutError:
            self.proc.kill()
            await self.proc.wait()
        if self.proc.returncode != 0:
            raise RuntimeError(
                f"server exited with {self.proc.returncode}; "
                f"see {self.stdout}"
            )


# -- load ----------------------------------------------------------------


@dataclass
class Step:
    """The outcome of one constant-rate stretch of load."""

    rate: float
    seconds: float
    assign_ms: List[float] = field(default_factory=list)
    submit_ms: List[float] = field(default_factory=list)
    #: (due offset in the step, ms late getting a connection)
    late: List[Tuple[float, float]] = field(default_factory=list)
    statuses: Dict[int, int] = field(default_factory=dict)
    hits: List[Tuple[str, List[int]]] = field(default_factory=list)
    acked: Set[Tuple[str, int]] = field(default_factory=set)
    start: float = 0.0
    wall_s: float = 0.0
    crowd_s: float = 0.0

    def record(
        self, kind: str, status: int, due: float, sent: float, done: float
    ) -> None:
        """Count one response; keep its latency if it was a 2xx."""
        self.statuses[status] = self.statuses.get(status, 0) + 1
        self.late.append((due - self.start, 1e3 * (sent - due)))
        if 200 <= status < 300:
            (self.assign_ms if kind == "assign" else self.submit_ms).append(
                1e3 * (done - due)
            )

    @property
    def attempted(self) -> int:
        return sum(self.statuses.values())

    @property
    def failed(self) -> int:
        return sum(n for s, n in self.statuses.items() if not 200 <= s < 300)

    @property
    def server_errors(self) -> int:
        return sum(n for s, n in self.statuses.items() if s >= 500)


class Crowd:
    """The simulated workforce behind the load."""

    def __init__(self, seed: int):
        self.dataset = make_4d(TASKS_PER_DOMAIN)
        self.pool = make_pool(self.dataset, WORKERS)
        self.tasks = {t.task_id: t for t in self.dataset.tasks}
        rng = make_rng(seed + SIM_SEED_OFFSET)
        arrival_rng, self.answer_rng = rng.spawn(2)
        self.arrivals = WorkerArrivalProcess(self.pool, seed=arrival_rng)

    def answer(self, worker_id: str, task_id: int) -> int:
        return sample_answer(
            self.tasks[task_id], self.pool.profile(worker_id),
            self.answer_rng,
        )


async def serve_arrival(
    pool: ConnectionPool, crowd: Crowd, step: Step, worker_id: str,
    due: float, lock: asyncio.Lock,
) -> None:
    """One arrival: its assignment, then one submit per task, in order;
    ``lock`` keeps one arrival per worker in flight."""
    clock = time.perf_counter
    async with lock:
        status, body, sent, done = await pool.request(
            "GET",
            f"/campaigns/{CAMPAIGN}/workers/{worker_id}"
            f"/assignment?k={HIT_SIZE}",
        )
        step.record("assign", status, due, sent, done)
        if status != 200:
            return
        task_ids = body["task_ids"]
        step.hits.append((worker_id, task_ids))
        for task_id in task_ids:
            tic = clock()
            choice = crowd.answer(worker_id, task_id)
            due = clock()
            step.crowd_s += due - tic
            status, _, sent, done = await pool.request(
                "POST",
                f"/campaigns/{CAMPAIGN}/answers",
                {"worker_id": worker_id, "task_id": task_id,
                 "choice": choice},
            )
            step.record("submit", status, due, sent, done)
            if 200 <= status < 300:
                step.acked.add((worker_id, task_id))


async def run_step(
    pool: ConnectionPool, crowd: Crowd, rate: float, seconds: float,
    locks: Dict[str, asyncio.Lock],
) -> Step:
    """Offer ``rate`` arrivals/s for ``seconds``; wait for all to end."""
    step = Step(rate=rate, seconds=seconds)
    clock = time.perf_counter
    count = int(round(rate * seconds))
    workers = [next(crowd.arrivals) for _ in range(count)]
    tasks = []
    step.start = clock()
    for index, worker_id in enumerate(workers):
        due = step.start + index / rate
        delay = due - clock()
        if delay > 0:
            await asyncio.sleep(delay)
        tasks.append(asyncio.ensure_future(
            serve_arrival(pool, crowd, step, worker_id, due, locks[worker_id])
        ))
    await asyncio.gather(*tasks)
    step.wall_s = clock() - step.start
    return step


async def run_saturation(
    pool: ConnectionPool, crowd: Crowd, arrivals: int,
    locks: Dict[str, asyncio.Lock],
) -> Step:
    """A closed loop of ``arrivals`` arrivals: one client per
    connection, each starting the next arrival as soon as its last
    request is answered."""
    step = Step(rate=0.0, seconds=0.0)
    clock = time.perf_counter
    queue = iter([next(crowd.arrivals) for _ in range(arrivals)])

    async def client() -> None:
        for worker_id in queue:
            await serve_arrival(
                pool, crowd, step, worker_id, clock(), locks[worker_id]
            )

    step.start = clock()
    await asyncio.gather(*(client() for _ in range(CONNECTIONS)))
    step.wall_s = clock() - step.start
    return step


def step_served(step: Step) -> bool:
    """Whether a ladder step held: the assign p95, stalls included,
    under its limit, nothing failed, and lateness did not grow across
    the step."""
    if step.failed or len(step.assign_ms) < 20:
        return False
    if percentile(step.assign_ms, 95.0) > ASSIGN_TAIL_LIMIT_MS:
        return False
    third = step.seconds / 3.0
    first = [ms for at, ms in step.late if at < third]
    last = [ms for at, ms in step.late if at >= 2 * third]
    if not first or not last:
        return False
    return percentile(last, 50.0) <= 2.0 * percentile(first, 50.0) + 5.0


# -- the run -------------------------------------------------------------


async def _setup(
    workdir: str, name: str, crowd: Crowd, trace_out: Optional[str]
) -> Tuple[Server, float, List[int]]:
    """Server start -> /healthz OK -> POST /campaigns -> workers
    bootstrapped; returns the server, the seconds it took, and the
    golden task ids."""
    server = Server(workdir, name, trace_out)
    started = time.perf_counter()
    conn = None
    try:
        await server.start()
        conn = Connection("127.0.0.1", server.port)
        while True:
            try:
                status, _ = await conn.request("GET", "/healthz")
            except OSError:
                status = 0
            if status == 200:
                break
            await asyncio.sleep(0.005)
        status, created = await conn.request(
            "POST",
            "/campaigns",
            {
                "name": CAMPAIGN,
                "dataset": "4d",
                "seed": DATASET_SEED,
                "storage": "sqlite",
                "dataset_overrides": {"tasks_per_domain": TASKS_PER_DOMAIN},
            },
        )
        if status != 201:
            raise RuntimeError(f"campaign creation answered {status}: {created}")
        golden = created["golden_task_ids"]
        for worker_id in crowd.pool.worker_ids:
            answers = [
                {"task_id": t, "choice": crowd.answer(worker_id, t)}
                for t in golden
            ]
            status, body = await conn.request(
                "POST",
                f"/campaigns/{CAMPAIGN}/workers/{worker_id}/bootstrap",
                {"answers": answers},
            )
            if status != 200:
                raise RuntimeError(f"bootstrap answered {status}: {body}")
    except BaseException:
        await server.kill()
        raise
    finally:
        if conn is not None:
            conn.close()
    return server, time.perf_counter() - started, golden


async def _measure(
    seed: int, seconds: float, trace: bool, workdir: str, outdir: str
) -> Dict[str, object]:
    crowd = Crowd(seed)
    servers: List[Server] = []
    setup_s: List[float] = []

    async def setup(trace_out: Optional[str] = None):
        server, took, golden = await _setup(
            workdir, f"server-{len(servers)}", crowd, trace_out
        )
        servers.append(server)
        setup_s.append(took)
        return server, golden

    async def discarded_setups() -> None:
        for _ in range(0 if trace else SETUPS_AROUND):
            server, _ = await setup()
            await server.stop()

    try:
        await discarded_setups()
        server, golden = await setup(
            os.path.join(outdir, f"trace-service-{seed}-server.json")
            if trace else None
        )
        pool = ConnectionPool("127.0.0.1", server.port, CONNECTIONS)
        locks = {w: asyncio.Lock() for w in crowd.pool.worker_ids}
        steps: List[Step] = []
        saturations: List[Step] = []
        scrape = None
        load_start = time.perf_counter()
        if not trace:
            for _ in range(ROUNDS):
                steps.append(await run_step(
                    pool, crowd, REFERENCE_RATE, seconds / ROUNDS, locks
                ))
                saturations.append(await run_saturation(
                    pool, crowd, SATURATION_ARRIVALS, locks
                ))
        else:
            for multiple in LADDER:
                step = await run_step(
                    pool, crowd, REFERENCE_RATE * multiple, STEP_SECONDS,
                    locks,
                )
                steps.append(step)
                if scrape is None:
                    # The scheduler's latency ring holds this step only.
                    _, scrape, _, _ = await pool.request("GET", "/metricsz")
                if not step_served(step):
                    break
        load_end = time.perf_counter()

        finalize_s, truths = [], {}
        for _ in range(FINALIZE_REPS if trace else 1):
            status, body, sent, done = await pool.request(
                "POST", f"/campaigns/{CAMPAIGN}/finalize"
            )
            if status != 200:
                raise RuntimeError(f"finalize answered {status}")
            finalize_s.append(done - sent)
            truths = {int(t): int(v) for t, v in body["truths"].items()}
        _, info, _, _ = await pool.request("GET", f"/campaigns/{CAMPAIGN}")
        peak_rss = server.peak_rss_mb()
        await pool.close()
        await server.stop()
        await discarded_setups()
    finally:
        for started in servers:
            await started.kill()
    return {
        "crowd": crowd,
        "setup_s": setup_s,
        "steps": steps,
        "saturations": saturations,
        "scrape": scrape,
        "finalize_s": finalize_s,
        "truths": truths,
        "digest": info["hot_state_digest"],
        "peak_rss_mb": peak_rss,
        "bootstrap_events": WORKERS * (len(golden) + 1),
        "db_path": os.path.join(server.db_dir, f"{CAMPAIGN}.db"),
        "load_start": load_start,
        "load_end": load_end,
    }


def run(
    seed: int, seconds: float, trace: bool, workdir: str, outdir: str
) -> RunResult:
    """Run the service workload; see the module docstring."""
    measured = asyncio.run(_measure(seed, seconds, trace, workdir, outdir))
    crowd: Crowd = measured["crowd"]
    steps: List[Step] = measured["steps"]
    saturations: List[Step] = measured["saturations"]
    every = steps + saturations
    # The reference rate's latencies: every step of an untraced run,
    # the ladder's first step on a traced one.
    reference = steps if not trace else steps[:1]
    acked = set().union(*(s.acked for s in every))
    outcome = Outcome(
        task_ids=[t.task_id for t in crowd.dataset.tasks],
        truths=measured["truths"],
        hits=[hit for s in every for hit in s.hits],
        accepted_answers=len(acked),
        bootstrap_events=measured["bootstrap_events"],
        digest_before=measured["digest"],
        acked=acked,
        server_errors=sum(s.server_errors for s in every),
    )
    # One resume: it validates every journal batch, and with one flush
    # per submit a traced ladder leaves ~20,000 of them (about 10 s).
    restart = restart_phase(measured["db_path"], crowd.dataset.kb, 1, outcome)

    late = [ms for s in reference for _, ms in s.late]
    notes = {
        "connections": CONNECTIONS,
        "late_ms": {"p50": percentile(late, 50.0), "max": max(late)},
        "rates": [s.rate for s in steps],
        "served": [step_served(s) for s in steps],
    }
    if trace:
        e2e = {}
        assign_p50 = percentile(reference[0].assign_ms, 50.0)
        layers = _layers(measured, restart, assign_p50, late, seed, outdir)
    else:
        assign = latency_summary(
            [ms for s in reference for ms in s.assign_ms], ASSIGN_SLOW_SHARE
        )
        submit = latency_summary(
            [ms for s in reference for ms in s.submit_ms], SUBMIT_SLOW_SHARE
        )
        tasks = [t for t in crowd.dataset.tasks if t.ground_truth is not None]
        accuracy = sum(
            1 for t in tasks
            if measured["truths"].get(t.task_id) == t.ground_truth
        ) / len(tasks)
        e2e = {
            "setup_s": median(measured["setup_s"]),
            "answers_per_s": sum(len(s.acked) for s in saturations)
            / sum(s.wall_s for s in saturations),
            "assign_p50_ms": assign["p50"],
            "assign_tail_ms": assign["tail"],
            "submit_p50_ms": submit["p50"],
            "submit_tail_ms": submit["tail"],
            "accuracy": accuracy,
            "peak_rss_mb": measured["peak_rss_mb"],
        }
        layers = {}
        notes["tail_percentiles"] = {
            "assign": assign["tail_q"], "submit": submit["tail_q"],
        }
        notes["samples"] = {
            "assign": assign["count"], "submit": submit["count"],
        }
        notes["saturation"] = {
            "arrivals": sum(len(s.assign_ms) for s in saturations),
            "answers": sum(len(s.acked) for s in saturations),
            "wall_s": [s.wall_s for s in saturations],
        }
    return RunResult(
        e2e=e2e,
        layers=layers,
        outcomes=[outcome],
        attempted=sum(s.attempted for s in every),
        failed=sum(s.failed for s in every),
        notes=notes,
    )


def _layers(measured, restart, assign_p50, late, seed, outdir):
    """Per-layer metrics of a traced service run."""
    layers = {name: 0.0 for name in metrics.PER_LAYER}
    steps: List[Step] = measured["steps"]
    reference = steps[0]
    served = [s for s in steps if step_served(s)]
    layers["capacity_rps"] = (
        max(s.rate for s in served) * (1 + HIT_SIZE) if served else 0.0
    )
    layers["failed_share"] = reference.failed / reference.attempted
    layers["finalize_s"] = median(measured["finalize_s"])
    layers["resume_s"] = restart["resume_s"]
    layers["analytics_s"] = restart["analytics_s"]
    layers["db_bytes_per_answer"] = restart["db_bytes"] / max(
        1, len(set().union(*(s.acked for s in steps)))
    )
    for query, seconds in restart["per_query"].items():
        layers[metrics.analytics_metric(query)] = seconds

    scheduler = measured["scrape"]["scheduler"]
    latency = scheduler["latency"]
    batches = scheduler["batches"].get("submit", 0)
    layers.update(
        {
            "scheduler.max_depth": scheduler["max_depth"],
            "scheduler.rejected_429": scheduler["rejected_429"],
            "scheduler.submit_batch_mean": (
                scheduler["completed"].get("submit", 0) / batches
                if batches else 0.0
            ),
            "scheduler.assign_p50_ms": latency["assign"]["p50_ms"],
            "scheduler.submit_p50_ms": latency["submit"]["p50_ms"],
            "http.overhead_ms": assign_p50 - latency["assign"]["p50_ms"],
        }
    )
    layers["loadgen.late_p50_ms"] = percentile(late, 50.0)
    layers["loadgen.late_max_ms"] = max(late)
    layers["crowd.s"] = sum(s.crowd_s for s in steps)
    layers["trace.loop_s"] = sum(s.wall_s for s in steps)

    # Server-side layers, from the spans the traced server wrote at
    # exit, over the load only (monotonic clocks are host-wide).
    server = Tracer.load(
        os.path.join(outdir, f"trace-service-{seed}-server.json")
    )
    layers.update(server.noted("ingest.ingest")[0])
    load = span_metrics(
        server.window(measured["load_start"], measured["load_end"])
    )
    layers.update(load)

    # The serving index's counters and the kernel rows, as the server
    # closed the campaign: over the server's life, in which only the
    # load assigns.
    counters = server.noted("docs_system.close")[-1]
    layers.update(counters)
    warm, cold = counters["serving.warm_hits"], counters["serving.cold_builds"]
    layers["serving.hit_ratio"] = warm / (warm + cold) if warm + cold else 0.0
    layers["recon.index_lookups"] = abs(
        warm + cold - server.count("serving.select")
    )
    # The load is timed by the host, so the server's counts do not
    # repeat from run to run; they must match what the client saw.
    layers["recon.count_mismatches"] = int(
        load["assignment.calls"] != sum(len(s.assign_ms) for s in steps)
    ) + int(
        load["incremental.calls"] != sum(len(s.submit_ms) for s in steps)
    )
    return layers
