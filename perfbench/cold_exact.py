"""cold-exact: the paper's running example, every request a network never seen.

One long-lived ``InferenceService(validate=True)`` (a shard worker's
configuration) answers JSON request lines through
``server.protocol.answer_line`` in a closed loop with one caller.  Each
request is the resilience program on a 5-router cycle whose router ids are
fresh (derived from the seed and the request number), so the service LRU,
the solver memo and the interners never hold its answer; the answers are
invariant under renaming, so every one must equal :data:`EXPECTED`.
"""

from __future__ import annotations

import itertools
import json
import random
import time

from common import Outcome, Timer, answer_ok, closed_loop, self_peak_rss_mb
from tracing import Recorder, answer_timed, summarize, traced

#: The running example (``examples/programs/resilience.dl``), Examples 1.1/3.1/3.6.
PROGRAM = """\
infected(Y, flip<0.1>[X, Y]) :- infected(X, 1), connected(X, Y).
uninfected(X) :- router(X), not infected(X, 1).
:- uninfected(X), uninfected(Y), connected(X, Y).
"""
ROUTERS = 5
#: P(has a stable model) and brave P(infected(r2, 1)) on a 5-cycle infected
#: at r0: math.fsum-exact sums over the 241 outcomes, compared bit for bit.
EXPECTED = [0.0037000000000000015, 0.002890000000000001]
#: Requests before timing.  The 32-entry service LRU is full after 32 and
#: the 8192-entry solver memo (241 programs a request) overflows on the
#: 34th, so every timed request evicts as much as it adds.
WARMUP = 34

LAYERS = {
    "parse": "logic.parser.parse",
    "check": "gdatalog.checker.check",
    "lookup": "runtime.service.lookup",
    "root": "gdatalog.grounders.root",
    "chase": "gdatalog.chase.run",
    "expand": "gdatalog.chase.expand",
    "materialize": "gdatalog.outcomes.materialize",
    "solve": "stable.solver.solve",
    "scan": "runtime.batch.scan",
    "encode": "server.protocol.encode",
    "answer": "server.protocol.answer",
}


def request_line(number: int, first_router: int) -> str:
    """One request: a fresh 5-cycle ``first_router .. first_router + 4``."""
    routers = list(range(first_router, first_router + ROUTERS))
    facts = [f"router({r})." for r in routers]
    for index, here in enumerate(routers):
        there = routers[(index + 1) % ROUTERS]
        facts += [f"connected({here}, {there}).", f"connected({there}, {here})."]
    facts.append(f"infected({routers[0]}, 1).")
    return json.dumps(
        {
            "id": number,
            "program": PROGRAM,
            "database": "\n".join(facts),
            "queries": [
                {"type": "has_stable_model"},
                {"type": "atom", "atom": f"infected({routers[2]}, 1)", "mode": "brave"},
            ],
        }
    )


def run(seed: int, seconds: float, trace: bool, workdir) -> Outcome:
    setup = Timer()
    from repro.runtime.service import InferenceService
    from repro.server.protocol import answer_line
    from repro.stable.solver import solver_cache_stats

    out = Outcome()
    # Seven-digit ids, eight apart per request: never reused within a run.
    base = random.Random(seed).randrange(2_000_000, 8_000_000)
    service = InferenceService(validate=True)
    numbers = itertools.count()
    records: list[dict] = []

    def ask(recorder: Recorder | None = None) -> float:
        number = next(numbers)
        line = request_line(number, base + 8 * number)

        def handle() -> dict:
            if recorder is None:
                return answer_line(service, line)
            before = service.stats.snapshot()
            response = answer_line(service, line)
            after = service.stats.snapshot()
            for counter in ("hits", "misses", "evictions"):
                recorder.counts[f"service_{counter}"] += after[counter] - before[counter]
            return response

        response, elapsed = answer_timed(handle, recorder, records)
        out.check(answer_ok(200, response, number, EXPECTED), f"request {number}: {response}")
        return elapsed

    for _ in range(WARMUP):
        ask()
        setup.segment()
    peak = self_peak_rss_mb()
    out.report.append(
        f"setup: {WARMUP} warm-up requests, {len(service)} cached entries, "
        f"solver memo {solver_cache_stats()['entries']} programs"
    )

    if not trace:
        timer = Timer()
        start = time.perf_counter()
        while time.perf_counter() - start < seconds:
            timer.segment([ask()])
        setup.put_setup(out)
        timer.put_requests(out)
        out.put("peak_rss_mb", peak, "MiB")
        return out

    plain, plain_elapsed = closed_loop(ask, seconds / 2)
    recorder = Recorder()
    with traced(recorder):
        spanned, spanned_elapsed = closed_loop(lambda: ask(recorder), seconds / 2)
    summarize(recorder, records, out, LAYERS)
    count = max(len(records), 1)
    for counter in ("hits", "misses", "evictions"):
        total = sum(record["counts"].get(f"service_{counter}", 0) for record in records)
        out.put(f"runtime.service.{counter}", total / count, "1/req")
    out.put(
        "trace.overhead",
        (len(plain) / plain_elapsed) / (len(spanned) / spanned_elapsed) - 1.0,
        "ratio",
    )
    out.report.append(
        f"traced: {len(plain)} plain and {len(spanned)} traced requests"
    )
    return out

