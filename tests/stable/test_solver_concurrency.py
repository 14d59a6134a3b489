"""The process-wide solver under concurrent use: memo LRU and counters stay consistent.

Per-entry service locks let two chases solve at once, so ``shared_solver()``
sees concurrent ``enumerate`` / ``has_stable_model`` calls.  With a tiny
memo nearly every call evicts, which races an unlocked ``get`` →
``move_to_end`` (``KeyError`` once another thread popped the key in
between) and the hit/miss ``+=`` counters (lost counts).  The memo's
lookups give up the GIL, so the interleaving that breaks an unlocked memo
happens on every run instead of once in a while.
"""

from __future__ import annotations

import sys
import threading
import time
from collections import OrderedDict

import pytest

from repro.logic.atoms import atom
from repro.logic.rules import Rule, fact_rule
from repro.stable import solver as solver_module
from repro.stable.grounding import GroundProgram
from repro.stable.solver import SolverConfig, StableModelSolver, shared_solver

THREADS = 16
ROUNDS = 60


def _programs() -> list[tuple[GroundProgram, set[frozenset]]]:
    """Small distinct programs with known models: an even loop plus up to two facts."""
    programs = []
    for i in range(4):
        p, q = atom("p", i), atom("q", i)
        facts = [atom("f", i, j) for j in range(i % 3)]
        rules = (Rule(p, (), (q,)), Rule(q, (), (p,)), *(fact_rule(f) for f in facts))
        models = {frozenset({p, *facts}), frozenset({q, *facts})}
        programs.append((GroundProgram(rules), models))
    return programs


class _YieldingMemo(OrderedDict):
    """An LRU memo whose lookups let other threads run right after they return."""

    def get(self, key, default=None):
        value = super().get(key, default)
        time.sleep(0)
        return value


@pytest.fixture
def tiny_shared_solver(monkeypatch):
    """``shared_solver()`` returns a solver with a two-entry memo; thread switches are frequent."""
    solver = StableModelSolver(SolverConfig(cache_size=2))
    solver._cache = _YieldingMemo()
    solver._has_model_cache = _YieldingMemo()
    monkeypatch.setattr(solver_module, "_shared_solver", solver)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        yield shared_solver()
    finally:
        sys.setswitchinterval(interval)


def test_shared_solver_memo_is_race_free(tiny_shared_solver):
    programs = _programs()
    errors: list[BaseException] = []
    start = threading.Barrier(THREADS)

    def worker(offset: int) -> None:
        start.wait()
        try:
            for round_ in range(ROUNDS):
                program, models = programs[(offset + round_) % len(programs)]
                # Fresh program objects, so every call computes and looks up its own key.
                program = GroundProgram(program.rules)
                assert set(shared_solver().enumerate(program)) == models
                assert shared_solver().has_stable_model(GroundProgram(program.rules))
        except BaseException as error:  # noqa: BLE001 - reported by the main thread
            errors.append(error)

    threads = [threading.Thread(target=worker, args=(offset,)) for offset in range(THREADS)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=60)
        assert not thread.is_alive()

    assert not errors, repr(errors[:3])
    stats = tiny_shared_solver.cache_stats()
    assert stats["hits"] + stats["misses"] == 2 * THREADS * ROUNDS
    assert stats["entries"] <= 2
    assert stats["existence_entries"] <= 2
