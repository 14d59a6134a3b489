"""What the process-wide solver memo costs and what it buys.

The memo is keyed on each outcome's rule set (``frozenset`` of shared rule
objects), so an entry must stay small: the cold exact workload fills all
8192 entries of both memos.  And the key must not lose hits that the
sampler — the memo's real customer — relies on.
"""

from __future__ import annotations

import gc
import tracemalloc

import pytest

from repro import GDatalogEngine
from repro.stable.solver import shared_solver

#: The running example (Examples 1.1/3.1/3.6).
PROGRAM = """\
infected(Y, flip<0.1>[X, Y]) :- infected(X, 1), connected(X, Y).
uninfected(X) :- router(X), not infected(X, 1).
:- uninfected(X), uninfected(Y), connected(X, Y).
"""

#: Bytes one memo entry (key and value) may retain.
ENTRY_BUDGET = 8 * 1024


def _cycle(first: int, size: int = 5) -> tuple[str, list[int]]:
    """A *size*-router cycle with ids ``first ..``, infected at its first router."""
    routers = list(range(first, first + size))
    facts = [f"router({r})." for r in routers]
    for index, here in enumerate(routers):
        there = routers[(index + 1) % size]
        facts += [f"connected({here}, {there}).", f"connected({there}, {here})."]
    facts.append(f"infected({routers[0]}, 1).")
    return "\n".join(facts), routers


@pytest.fixture
def empty_memo():
    solver = shared_solver()
    solver.clear_cache()
    yield solver
    solver.clear_cache()


def test_memo_entries_stay_small(empty_memo):
    """Fresh router ids each request, so every outcome is a new memo entry in both memos."""
    gc.collect()
    tracemalloc.start()
    try:
        for request in range(2):
            database, routers = _cycle(9_100_000 + 8 * request)
            engine = GDatalogEngine.from_source(PROGRAM, database)
            assert engine.probability_has_stable_model() == 0.0037000000000000015
            assert engine.marginal(f"infected({routers[2]}, 1)") == 0.002890000000000001
            del engine
        gc.collect()
        stats = empty_memo.cache_stats()
        entries = stats["entries"] + stats["existence_entries"]
        with_memo = tracemalloc.get_traced_memory()[0]
        empty_memo.clear_cache()
        gc.collect()
        retained = with_memo - tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert entries == 2 * 2 * 241
    assert retained / entries <= ENTRY_BUDGET


def test_rule_set_key_keeps_the_sampler_hits(resilience_engine, empty_memo):
    """Seeded sampler runs (``test_engine_sampler.py``) hit the memo exactly as often as before.

    The counts were recorded with the memo keyed on sorted per-rule
    ``sort_key`` tuples; keying on the rule set must give the same ones.
    """
    estimate = resilience_engine.estimate_has_stable_model(n=800, seed=42)
    assert estimate.value == 0.2025
    stats = empty_memo.cache_stats()
    assert (stats["hits"], stats["misses"], stats["existence_entries"]) == (785, 15, 15)

    empty_memo.clear_cache()
    estimate = resilience_engine.estimate_marginal("infected(2, 1)", n=800, seed=7)
    assert estimate.value == 0.11375
    stats = empty_memo.cache_stats()
    assert (stats["hits"], stats["misses"], stats["entries"]) == (786, 14, 14)
