"""stream-window: a sliding window of lap evidence on one journaled stream.

``gdatalog serve --http --shards 1 --journal DIR`` (default ``fsync
always``).  One connection runs a closed loop on one named stream over the
telemetry program of ``repro.workloads.streaming`` with 6 drivers (64
outcomes).  Each ``/v1/update`` inserts the newest lap's ``lap``/``gate*``
facts and retracts the oldest lap's, so the database keeps two laps, and
asks ``completed(d, L)`` for the newest lap and ``strong(3)``: the answers
must be exactly ``[1.0, 0.5]``.

The traced run adds an in-process replay of the same stream: the worker's
``server.protocol.answer`` on a fresh ``InferenceService(validate=True)``
followed by the front end's ``StreamJournal.record_delta`` under the same
fsync policy.
"""

from __future__ import annotations

import asyncio
import json
import os
import random
import time

from common import (
    Connection,
    Outcome,
    ServerProcess,
    Timer,
    answer_ok,
    closed_loop,
    median,
    put_server_counters,
    scrape,
    wait_healthy,
)
from tracing import Recorder, answer_timed, summarize, traced

#: The telemetry program of ``repro.workloads.streaming.telemetry_program(3)``.
PROGRAM = """\
form(X, flip<0.5>[X]) :- driver(X).
strong(X) :- form(X, 1).
weak(X) :- driver(X), not strong(X).
sector1(X, L) :- lap(X, L), gate1(L).
sector2(X, L) :- sector1(X, L), gate2(L).
sector3(X, L) :- sector2(X, L), gate3(L).
completed(X, L) :- sector3(X, L).
"""
DRIVERS = 6
WINDOW = 2
EXPECTED = [1.0, 0.5]
#: Updates before timing: each one caches its post-delta state, so the
#: 32-entry service LRU is full (and evicting) from update 32 on.
WARMUP = 34
SERVER_ARGS = ["--shards", "1"]

LAYERS = {
    "parse": "logic.parser.parse",
    "check": "gdatalog.checker.check",
    "lookup": "runtime.service.lookup",
    "root": "gdatalog.grounders.root",
    "materialize": "gdatalog.outcomes.materialize",
    "solve": "stable.solver.solve",
    "scan": "runtime.batch.scan",
    "encode": "server.protocol.encode",
    "journal": "server.journal.append",
    "answer": "server.protocol.answer",
    "update": "runtime.service.update",
    "evaluate": "runtime.service.post_update_eval",
}


def lap_facts(lap: int) -> list[str]:
    return [f"lap({driver}, {lap})" for driver in range(1, DRIVERS + 1)] + [
        f"gate{sector}({lap})" for sector in (1, 2, 3)
    ]


class Stream:
    """The seeded request sequence: where the window starts, which driver is asked."""

    def __init__(self, seed: int):
        self._rng = random.Random(seed)
        self.name = f"laps-{seed}"
        self.first_lap = self._rng.randrange(1, 100_000)
        self.updates = 0

    def opening(self) -> dict:
        facts = [f"driver({driver})." for driver in range(1, DRIVERS + 1)]
        for lap in range(self.first_lap, self.first_lap + WINDOW):
            facts += [f"{fact}." for fact in lap_facts(lap)]
        return {"id": "open", "stream": self.name, "program": PROGRAM,
                "database": "\n".join(facts), "queries": ["strong(3)"]}

    def next_update(self) -> dict:
        oldest = self.first_lap + self.updates
        newest = oldest + WINDOW
        self.updates += 1
        driver = self._rng.randint(1, DRIVERS)
        return {
            "id": self.updates,
            "stream": self.name,
            "delta": {"insert": lap_facts(newest), "retract": lap_facts(oldest)},
            "queries": [f"completed({driver}, {newest})", "strong(3)"],
        }


async def _serve_phase(
    server: ServerProcess, seed: int, seconds: float, trace: bool, setup: Timer,
    out: Outcome, journal_file, cpu: int,
) -> dict:
    port = server.wait_port()
    await wait_healthy(port)
    setup.segment()
    stream = Stream(seed)
    connection = await Connection.open(port)
    reports: list[dict] = []

    async def send(request: dict, path: str, expected: list[float]) -> float:
        body = json.dumps(request).encode("utf-8")
        begin = time.perf_counter()
        status, response = await connection.post_json(path, body, "bench")
        elapsed = time.perf_counter() - begin
        out.check(answer_ok(status, response, request["id"], expected), f"{status} {response}")
        if isinstance(response, dict) and "update" in response:
            reports.append(response["update"])
        return elapsed

    try:
        await send(stream.opening(), "/v1/query", [0.5])
        setup.segment()
        for _ in range(WARMUP):
            await send(stream.next_update(), "/v1/update", EXPECTED)
            setup.segment()
        measured = {"peak": server.peak_rss_mb()}
        before = await scrape(port)
        journal_before = os.path.getsize(journal_file)
        reports.clear()
        timer = Timer(cpu)
        budget = seconds / 2 if trace else seconds
        start = time.perf_counter()
        while time.perf_counter() - start < budget:
            timer.segment([await send(stream.next_update(), "/v1/update", EXPECTED)])
        after = await scrape(port)
        journal_bytes = os.path.getsize(journal_file) - journal_before
    finally:
        await connection.close()
    measured.update(
        timer=timer, before=before, after=after,
        reports=list(reports), journal_bytes=journal_bytes,
    )
    return measured


def run(seed: int, seconds: float, trace: bool, workdir) -> Outcome:
    # The server handles one update at a time (front end, then worker, then
    # journal), so it loses nothing on one CPU, and the calibration slices
    # can then measure the CPU it actually runs on.
    cpu = max(os.sched_getaffinity(0))
    setup = Timer(cpu)
    out = Outcome()
    journal_dir = workdir / "journal"
    server = ServerProcess([*SERVER_ARGS, "--journal", str(journal_dir)], seed, workdir, cpu)
    try:
        measured = asyncio.run(
            _serve_phase(server, seed, seconds, trace, setup, out, journal_dir / "streams.wal", cpu)
        )
    finally:
        survivors = server.stop()
    if survivors:
        out.problems.append(f"server processes outlived the run: {survivors}")
    timer = measured["timer"]
    latencies = timer.raw
    if not trace:
        setup.put_setup(out)
        timer.put_requests(out)
        out.put("peak_rss_mb", measured["peak"], "MiB")
        return out

    put_server_counters(out, measured["before"], measured["after"], len(latencies))
    reports = measured["reports"]
    for mode in ("patch", "component", "rebuild"):
        share = sum(report.get("mode") == mode for report in reports) / max(len(reports), 1)
        out.put(f"gdatalog.incremental.mode_{mode}", share, "ratio")
    reused = sum(report.get("reused_subtrees", 0) for report in reports)
    invalidated = sum(report.get("invalidated_subtrees", 0) for report in reports)
    total = reused + invalidated
    out.put("gdatalog.incremental.reuse_ratio", reused / total if total else 0.0, "ratio")
    out.put("server.journal.bytes", measured["journal_bytes"] / max(len(latencies), 1), "B/append")
    roundtrip = median(latencies) * 1000
    out.put("server.http.roundtrip_ms", roundtrip, "ms")
    # No transport_ms here: a few milliseconds of transport would be the
    # difference of two ~450 ms medians taken in different processes.
    records = replay(seed, seconds, out, workdir / "replay-journal")
    out.report.append(f"replay: {len(records)} traced in-process updates")
    return out


def replay(seed: int, seconds: float, out: Outcome, journal_dir) -> list[dict]:
    """The same stream in-process: worker answer plus journal append per update."""
    from repro.runtime.service import InferenceService
    from repro.server import protocol
    from repro.server.journal import StreamJournal

    service = InferenceService(validate=True)
    journal = StreamJournal(journal_dir, fsync="always")
    stream = Stream(seed)
    opening = stream.opening()
    database = opening["database"]
    journal.record_open(stream.name, PROGRAM, database)
    response = protocol.answer(service, {**opening, "stream": None})
    out.check(answer_ok(200, response, opening["id"], [0.5]), f"replay {response}")
    recorder = Recorder()
    records: list[dict] = []

    def ask(recording: bool = False) -> float:
        nonlocal database
        request = stream.next_update()
        forwarded = {"op": "update", "id": request["id"], "program": PROGRAM,
                     "database": database, "delta": request["delta"],
                     "queries": request["queries"]}

        def handle() -> dict:
            response = protocol.answer(service, forwarded)
            if response.get("ok"):
                journal.record_delta(stream.name, request["delta"],
                                     database_after=response["database"])
            return response

        response, elapsed = answer_timed(handle, recorder if recording else None, records)
        out.check(answer_ok(200, response, request["id"], EXPECTED), f"replay {response}")
        database = response.get("database", database)
        return elapsed

    try:
        for _ in range(3):
            ask()
        plain, plain_elapsed = closed_loop(ask, seconds / 4)
        with traced(recorder):
            spanned, spanned_elapsed = closed_loop(lambda: ask(True), seconds / 2)
    finally:
        journal.close()
    summarize(recorder, records, out, LAYERS)
    out.put(
        "trace.overhead",
        (len(plain) / plain_elapsed) / (len(spanned) / spanned_elapsed) - 1.0,
        "ratio",
    )
    return records
