"""warm-http: a cached 1024-outcome space served over HTTP to two clients.

``gdatalog serve --http --shards 1`` with the default batch window; two
keep-alive connections from this one asyncio process run a closed loop,
each request asking for two seeded ``hit{c}(1)`` atoms of the 10-coin hot
program (cached during setup).  Every answer must be exactly 0.5.  The
server's per-client rate limit is raised out of reach so the run measures
serving, not the admission policy.

The traced run adds an in-process replay of the same requests through
``server.protocol.answer`` on a fresh ``InferenceService(validate=True)``,
which times the worker-side layers the HTTP client cannot see.
"""

from __future__ import annotations

import asyncio
import itertools
import json
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

COLUMNS = 10
PROGRAM = "\n".join(
    f"coin{c}(X, flip<0.5>[{c}, X]) :- src{c}(X).\nhit{c}(X) :- coin{c}(X, 1)."
    for c in range(1, COLUMNS + 1)
)
DATABASE = " ".join(f"src{c}(1)." for c in range(1, COLUMNS + 1))
EXPECTED = [0.5, 0.5]
CONNECTIONS = 2
#: Untimed rounds after the first chase, each of so many requests per
#: connection (each round adds a calibration slice to the setup's median).
WARMUP_ROUNDS = 5
WARMUP_PER_CONNECTION = 10
#: The timed phase runs in rounds with a calibration slice before each.
ROUND_SECONDS = 0.5
SERVER_ARGS = ["--shards", "1", "--client-rate", "1000000", "--client-burst", "1000000"]

LAYERS = {
    "parse": "logic.parser.parse",
    "check": "gdatalog.checker.check",
    "lookup": "runtime.service.lookup",
    "solve": "stable.solver.solve",
    "scan": "runtime.batch.scan",
    "encode": "server.protocol.encode",
    "answer": "server.protocol.answer",
}


def requests(seed: int) -> list[bytes]:
    rng = random.Random(seed)
    bodies = []
    for number in range(512):
        first, second = rng.randint(1, COLUMNS), rng.randint(1, COLUMNS)
        bodies.append(
            json.dumps(
                {
                    "id": number,
                    "program": PROGRAM,
                    "database": DATABASE,
                    "queries": [f"hit{first}(1)", f"hit{second}(1)"],
                }
            ).encode("utf-8")
        )
    return bodies


async def closed_loops(
    connections: list[Connection],
    bodies: list[bytes],
    out: Outcome,
    seconds: float | None = None,
    count: int | None = None,
    offset: int = 0,
) -> list[float]:
    """Every connection sends back to back until *seconds* pass or *count* each."""
    latencies: list[float] = []
    start = time.perf_counter()

    async def client(index: int, connection: Connection) -> None:
        sent = 0
        while True:
            if count is not None and sent >= count:
                return
            if seconds is not None and time.perf_counter() - start >= seconds:
                return
            number = (offset + index + CONNECTIONS * sent) % len(bodies)
            begin = time.perf_counter()
            status, response = await connection.post_json(
                "/v1/query", bodies[number], f"bench-{index}"
            )
            latencies.append(time.perf_counter() - begin)
            out.check(answer_ok(status, response, number, EXPECTED), f"{status} {response}")
            sent += 1

    await asyncio.gather(*(client(i, c) for i, c in enumerate(connections)))
    return latencies


async def _serve_phase(
    server: ServerProcess, seed: int, seconds: float, trace: bool, setup: Timer, out: Outcome
) -> dict:
    port = server.wait_port()
    await wait_healthy(port)
    setup.segment()
    bodies = requests(seed)
    connections = [await Connection.open(port) for _ in range(CONNECTIONS)]
    try:
        await closed_loops(connections[:1], bodies, out, count=1)
        setup.segment()
        for _ in range(WARMUP_ROUNDS):
            await closed_loops(connections, bodies, out, count=WARMUP_PER_CONNECTION)
            setup.segment()
        measured = {"peak": server.peak_rss_mb()}
        before = await scrape(port)
        # Rounds end when both connections are idle, so a calibration
        # slice never delays a request.
        timer = Timer()
        budget = seconds / 2 if trace else seconds
        start = time.perf_counter()
        while time.perf_counter() - start < budget:
            round_seconds = min(ROUND_SECONDS, budget - (time.perf_counter() - start))
            done = await closed_loops(
                connections, bodies, out, seconds=max(round_seconds, 0.0), offset=len(timer.raw)
            )
            timer.segment(done)
        after = await scrape(port)
    finally:
        for connection in connections:
            await connection.close()
    measured.update(timer=timer, before=before, after=after)
    return measured


def run(seed: int, seconds: float, trace: bool, workdir) -> Outcome:
    setup = Timer()
    out = Outcome()
    server = ServerProcess(SERVER_ARGS, seed, workdir)
    try:
        measured = asyncio.run(_serve_phase(server, seed, seconds, trace, setup, out))
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
    roundtrip = median(latencies) * 1000
    out.put("server.http.roundtrip_ms", roundtrip, "ms")
    records = replay(requests(seed), seconds, out)
    out.put("server.http.transport_ms", roundtrip - out.metrics["server.protocol.answer_ms"][0], "ms")
    out.report.append(f"replay: {len(records)} traced in-process answers")
    return out


def replay(bodies: list[bytes], seconds: float, out: Outcome) -> list[dict]:
    """Answer the same requests in-process: a quarter untraced, then half traced."""
    from repro.runtime.service import InferenceService
    from repro.server import protocol

    service = InferenceService(validate=True)
    parsed = [json.loads(body) for body in bodies]
    protocol.answer(service, parsed[0])
    numbers = itertools.count()
    recorder = Recorder()
    records: list[dict] = []

    def ask(recording: bool = False) -> float:
        request = parsed[next(numbers) % len(parsed)]
        response, elapsed = answer_timed(
            lambda: protocol.answer(service, request), recorder if recording else None, records
        )
        out.check(answer_ok(200, response, request["id"], EXPECTED), f"replay {response}")
        return elapsed

    plain, plain_elapsed = closed_loop(ask, seconds / 4)
    with traced(recorder):
        spanned, spanned_elapsed = closed_loop(lambda: ask(True), seconds / 2)
    summarize(recorder, records, out, LAYERS)
    out.put(
        "trace.overhead",
        (len(plain) / plain_elapsed) / (len(spanned) / spanned_elapsed) - 1.0,
        "ratio",
    )
    return records
