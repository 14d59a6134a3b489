"""Outside-in layer trace: spans recorded around calls into the program's layers.

The program carries no tracer of its own, so the traced phase wraps the
public entry points of each layer (module functions, methods and cached
properties) with span recorders and puts the originals back afterwards.
Spans nest: a layer's *self* time is its duration minus the spans it
caused, so the self times of one request add up to the part of its wall
time that some layer accounts for (``trace.coverage``).
"""

from __future__ import annotations

import functools
import gc
import importlib
import json
import sys
import time
from collections import defaultdict
from contextlib import contextmanager, nullcontext

from common import median

#: ``(module[:Class], attribute, layer)``: every call into *attribute* is a
#: span of *layer*.  Module functions are also replaced wherever another
#: ``repro`` module imported them by name.
PATCH_POINTS: tuple[tuple[str, str, str], ...] = (
    ("repro.logic.parser", "tokenize", "parse"),
    ("repro.logic.parser", "parse_statement_tokens", "parse"),
    ("repro.logic.parser", "parse_gdatalog_program", "parse"),
    ("repro.logic.parser", "parse_database", "parse"),
    ("repro.logic.parser", "parse_atom", "parse"),
    ("repro.gdatalog.checker.analysis", "check_source", "check"),
    ("repro.runtime.service:InferenceService", "_lookup", "lookup"),
    ("repro.runtime.service:InferenceService", "evaluate", "evaluate"),
    ("repro.runtime.service:InferenceService", "update", "update"),
    ("repro.gdatalog.grounders:Grounder", "initial_state", "root"),
    ("repro.gdatalog.grounders:SimpleGrounder", "delta_root_state", "root"),
    ("repro.gdatalog.chase:ChaseEngine", "run", "chase"),
    ("repro.gdatalog.chase:ChaseEngine", "expand", "expand"),
    ("repro.gdatalog.outcomes:PossibleOutcome", "full_rules", "materialize"),
    ("repro.gdatalog.outcomes:PossibleOutcome", "stable_models", "solve"),
    ("repro.gdatalog.outcomes:PossibleOutcome", "has_stable_model", "solve"),
    ("repro.runtime.batch:QueryBatch", "evaluate", "scan"),
    ("repro.server.protocol", "answer", "answer"),
    ("repro.server.journal:StreamJournal", "record_delta", "journal"),
)

#: Spans that only wrap other layers; their self time is not attributed.
ENVELOPES = frozenset({"request", "answer", "evaluate"})
#: Spans reported with their inclusive time (everything the call caused).
INCLUSIVE = frozenset({"answer", "evaluate", "update"})


class Recorder:
    """Per-request span accounting: self and inclusive nanoseconds per layer."""

    def __init__(self):
        self._stack: list[list] = []
        self.self_ns: dict[str, int] = defaultdict(int)
        self.inclusive_ns: dict[str, int] = defaultdict(int)
        self.counts: dict[str, int] = defaultdict(int)
        self.gc_pause_ns = 0
        self.gc_gen2 = 0
        self._gc_start = 0
        self.missing: list[str] = []

    def enter(self, name: str) -> None:
        self._stack.append([name, time.perf_counter_ns(), 0])

    def exit(self) -> None:
        name, start, children = self._stack.pop()
        duration = time.perf_counter_ns() - start
        self.self_ns[name] += duration - children
        if all(frame[0] != name for frame in self._stack):
            self.inclusive_ns[name] += duration
        if self._stack:
            self._stack[-1][2] += duration

    @contextmanager
    def span(self, name: str):
        self.enter(name)
        try:
            yield
        finally:
            self.exit()

    @contextmanager
    def request(self):
        """The root span of one request, with its solver-memo hits and misses."""
        from repro.stable.solver import solver_cache_stats

        before = solver_cache_stats()
        with self.span("request"):
            yield
        after = solver_cache_stats()
        self.counts["memo_hits"] += after["hits"] - before["hits"]
        self.counts["memo_misses"] += after["misses"] - before["misses"]

    def on_gc(self, phase: str, info: dict) -> None:
        if phase == "start":
            self._gc_start = time.perf_counter_ns()
        else:
            self.gc_pause_ns += time.perf_counter_ns() - self._gc_start
            if info.get("generation") == 2:
                self.gc_gen2 += 1

    def take(self) -> dict:
        """This request's totals (milliseconds), then reset for the next one."""
        record = {
            "self": {name: ns / 1e6 for name, ns in self.self_ns.items()},
            "inclusive": {name: ns / 1e6 for name, ns in self.inclusive_ns.items()},
            "counts": dict(self.counts),
            "gc_pause": self.gc_pause_ns / 1e6,
            "gc_gen2": self.gc_gen2,
        }
        self.self_ns.clear()
        self.inclusive_ns.clear()
        self.counts.clear()
        self.gc_pause_ns = 0
        self.gc_gen2 = 0
        return record


def answer_timed(handle, recorder: Recorder | None = None, records: list | None = None):
    """``(response, seconds)`` of ``handle()`` plus encoding its response.

    With a *recorder*, the request is one span tree and its totals are
    appended to *records*.
    """
    start = time.perf_counter()
    with recorder.request() if recorder else nullcontext():
        response = handle()
        with recorder.span("encode") if recorder else nullcontext():
            json.dumps(response)
    elapsed = time.perf_counter() - start
    if recorder is not None and records is not None:
        records.append(recorder.take())
    return response, elapsed


def _wrap_function(function, recorder: Recorder, layer: str):
    @functools.wraps(function)
    def spanned(*args, **kwargs):
        recorder.enter(layer)
        try:
            result = function(*args, **kwargs)
        finally:
            recorder.exit()
        if layer == "chase":
            recorder.counts["outcomes"] += len(result.outcomes)
        return result

    return spanned


def _resolve(target: str, attribute: str):
    """``(module, owning class or None, original)``; raises if the point is gone."""
    module_name, _, class_name = target.partition(":")
    module = importlib.import_module(module_name)
    if class_name:
        owner = getattr(module, class_name)
        return module, owner, owner.__dict__[attribute]
    return module, None, getattr(module, attribute)


@contextmanager
def traced(recorder: Recorder):
    """Install every patch point and a GC callback; restore all on exit.

    A patch point that no longer exists (renamed by a refactoring) is
    skipped and listed in ``recorder.missing``; its layer then reads 0 and
    ``trace.coverage`` falls, which shows where the trace needs updating.
    """
    restore: list[tuple[object, str, object]] = []
    try:
        for target, attribute, layer in PATCH_POINTS:
            try:
                module, owner, original = _resolve(target, attribute)
            except (ImportError, AttributeError, KeyError):
                recorder.missing.append(f"{target}.{attribute}")
                continue
            if owner is not None:
                if isinstance(original, functools.cached_property):
                    replacement = functools.cached_property(
                        _wrap_function(original.func, recorder, layer)
                    )
                    replacement.__set_name__(owner, attribute)
                else:
                    replacement = _wrap_function(original, recorder, layer)
                restore.append((owner, attribute, original))
                setattr(owner, attribute, replacement)
                continue
            replacement = _wrap_function(original, recorder, layer)
            for name, loaded in list(sys.modules.items()):
                if loaded is None or not (name == "repro" or name.startswith("repro.")):
                    continue
                for key, value in list(vars(loaded).items()):
                    if value is original:
                        restore.append((loaded, key, original))
                        setattr(loaded, key, replacement)
        gc.callbacks.append(recorder.on_gc)
        yield recorder
    finally:
        if recorder.on_gc in gc.callbacks:
            gc.callbacks.remove(recorder.on_gc)
        for owner, attribute, original in reversed(restore):
            setattr(owner, attribute, original)


def summarize(recorder: Recorder, records: list[dict], out, layer_names: dict[str, str]) -> None:
    """Per-layer medians and shares of request wall time, plus coverage.

    *layer_names* maps span names to metric stems (``solve`` →
    ``stable.solver.solve``).  Times are self times, with a share of the
    summed request wall time, except for :data:`INCLUSIVE` spans, which
    are reported with everything they caused and no share.
    """
    if recorder.missing:
        out.report.append(f"trace: patch points not found: {', '.join(recorder.missing)}")
    wall = sum(record["inclusive"].get("request", 0.0) for record in records)
    for span, stem in layer_names.items():
        kind = "inclusive" if span in INCLUSIVE else "self"
        per_request = [record[kind].get(span, 0.0) for record in records]
        out.put(f"{stem}_ms", median(per_request), "ms")
        if span not in INCLUSIVE:
            share = sum(per_request) / wall if wall else 0.0
            out.put(f"{stem}_share", share, "ratio")
    attributed = sum(
        value
        for record in records
        for span, value in record["self"].items()
        if span not in ENVELOPES
    )
    out.put("trace.coverage", attributed / wall if wall else 0.0, "ratio")
    out.put("python.gc.pause_ms", median([r["gc_pause"] for r in records]), "ms")
    gc_total = sum(r["gc_pause"] for r in records)
    out.put("python.gc.pause_share", gc_total / wall if wall else 0.0, "ratio")
    count = max(len(records), 1)
    out.put("python.gc.gen2_collections", sum(r["gc_gen2"] for r in records) / count, "1/req")
    hits = sum(r["counts"].get("memo_hits", 0) for r in records)
    misses = sum(r["counts"].get("memo_misses", 0) for r in records)
    out.put("stable.solver.memo_hits", hits / count, "1/req")
    out.put("stable.solver.memo_misses", misses / count, "1/req")
    out.put("stable.solver.memo_hit_ratio", hits / (hits + misses) if hits + misses else 0.0, "ratio")
    out.put(
        "gdatalog.chase.outcomes",
        median([float(r["counts"].get("outcomes", 0)) for r in records]),
        "count",
    )
