"""Complete stable-model enumeration for ground Datalog¬ programs.

The solver is a two-phase procedure tailored to the small ground programs
that arise as possible outcomes of generative Datalog¬ programs:

1. **Well-founded pruning.**  The well-founded model fixes the truth value of
   every atom that is decided in all stable models.  If it leaves no
   negative-body atom undecided, the single candidate is checked directly.

2. **Branching over negative-body atoms.**  Stable models of a ground
   program are uniquely determined by their intersection with the set ``N``
   of atoms occurring in negative bodies: for a guess ``S ⊆ N`` the GL
   reduct only depends on ``S``, and a guess is *stable* iff the least model
   ``M`` of the reduct satisfies ``M ∩ N = S``.  The solver enumerates the
   guesses compatible with the well-founded model, checks each, and filters
   candidates violating an integrity constraint.

Both phases run on an integer encoding of the program (:class:`_Compiled`):
atoms get local ids, each rule becomes a head id, a positive-body counter and
a tuple of negative-body ids, constraints are kept apart, and every atom
carries the list of rules waiting on it.  ``Γ(I)`` — the least model of the
reduct ``P^I`` — is then one pass of counter-based Horn propagation (Dowling &
Gallier 1984): a rule fires when its counter reaches zero unless one of its
negative-body atoms is in ``I``, so no reduct rule is ever built.
Interpretations are ``bytearray``s indexed by atom id and become
``frozenset[Atom]`` only when a model is yielded.  The rule-level modules
(:mod:`~repro.stable.reduct`, :mod:`~repro.stable.fixpoint`,
:mod:`~repro.stable.wellfounded`) stay the reference semantics that
:meth:`StableModelSolver.is_stable` and the tests use.

The branching step is exponential in the number of *undecided* negative-body
atoms, which is the expected complexity class (deciding stable-model
existence is NP-complete); a configurable guess limit guards against
accidentally huge instances.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass
from itertools import combinations, compress
from typing import Iterable, Iterator

from repro.exceptions import SolverLimitError
from repro.logic.atoms import Atom
from repro.logic.database import Database
from repro.logic.program import DatalogProgram
from repro.logic.rules import FALSE_ATOM, Rule
from repro.stable.grounding import GroundProgram, ground_program
from repro.stable.reduct import is_stable_model

__all__ = [
    "SolverConfig",
    "StableModelSolver",
    "stable_models",
    "has_stable_model",
    "shared_solver",
    "solver_cache_stats",
]


@dataclass(frozen=True)
class SolverConfig:
    """Tuning knobs for the stable-model solver.

    Attributes
    ----------
    max_guesses:
        Upper bound on the number of branching guesses explored
        (``2**len(undecided negative atoms)``); exceeded → :class:`SolverLimitError`.
    use_well_founded:
        Whether to run the well-founded pruning phase (disable only in tests
        that exercise the raw branching procedure).
    memoize:
        Whether :meth:`StableModelSolver.enumerate` caches its results keyed
        on the ground program's rule set
        (:meth:`~repro.stable.grounding.GroundProgram.canonical_key`, a
        ``frozenset`` of the program's rules).  Equal rule sets — e.g. the
        same chase configuration re-sampled by the Monte-Carlo sampler, or
        outcomes re-queried under several marginals — are then solved
        exactly once per process; the key shares the rule objects of the
        program, so an entry costs a hash table, not a copy of the program.
        A miss compiles the program to integer atom ids (see the module
        docstring) and solves it there.  ``has_stable_model`` never pays
        the eager materialization of a memoized ``enumerate``: on a
        model-cache miss it enumerates lazily, stops at the first model,
        and records the boolean in a separate existence memo so repeated
        checks stay O(1).  Both memos and their hit/miss counters are
        guarded by one lock, held only around dictionary and counter
        access, never while solving.
    cache_size:
        Maximum number of memoized programs (LRU eviction).
    """

    max_guesses: int = 1 << 20
    use_well_founded: bool = True
    memoize: bool = True
    cache_size: int = 8192


class _Numbering(dict):
    """Atom -> local id, handing out the next id (and an empty watch list) on first sight."""

    def __init__(self) -> None:
        super().__init__()
        self.atoms: list[Atom] = [FALSE_ATOM]
        self.watch: list[list[int]] = [[]]

    def __missing__(self, atom_: Atom) -> int:
        index = self[atom_] = len(self.atoms)
        self.atoms.append(atom_)
        self.watch.append([])
        return index


class _Compiled:
    """A ground program over local integer atom ids: the solver's working form.

    Id 0 is a sentinel that every rule with an empty positive body waits on;
    it starts each propagation and is never true in a model.
    """

    __slots__ = ("atoms", "heads", "counts", "negatives", "watch", "constraints", "negative_ids")

    def __init__(self, rules: Iterable[Rule]):
        ids = _Numbering()
        #: Id -> atom; id 0 holds a placeholder for the sentinel.
        self.atoms: list[Atom] = ids.atoms
        #: Atom id -> indices of the rules whose positive body contains it.
        self.watch: list[list[int]] = ids.watch
        self.heads: list[int] = []
        #: Rule index -> number of distinct positive-body atoms (at least 1,
        #: counting the sentinel for an empty body).
        self.counts: list[int] = []
        self.negatives: list[tuple[int, ...]] = []
        self.constraints: list[tuple[tuple[int, ...], tuple[int, ...]]] = []
        negative_ids: set[int] = set()
        for r in rules:
            positive = {ids[b] for b in r.positive_body}
            negative = tuple(ids[b] for b in r.negative_body)
            negative_ids.update(negative)
            if r.is_constraint:
                self.constraints.append((tuple(positive), negative))
                continue
            index = len(self.heads)
            self.heads.append(ids[r.head])
            self.counts.append(len(positive) or 1)
            self.negatives.append(negative)
            for b in positive or (0,):
                self.watch[b].append(index)
        #: The ids of ``N``, the atoms occurring in some negative body.
        self.negative_ids: tuple[int, ...] = tuple(negative_ids)

    def gamma(self, interpretation: bytearray) -> bytearray:
        """``Γ(I)``: the least model of the reduct ``P^I``, by counter propagation.

        A rule is blocked by ``I`` when a negative-body atom is in ``I``;
        blocked rules never fire, which is exactly the reduct's deletion.
        """
        heads, negatives, watch = self.heads, self.negatives, self.watch
        remaining = self.counts.copy()
        model = bytearray(len(self.atoms))
        stack = [0]
        while stack:
            for index in watch[stack.pop()]:
                remaining[index] -= 1
                if remaining[index]:
                    continue
                head = heads[index]
                if model[head]:
                    continue
                for b in negatives[index]:
                    if interpretation[b]:
                        break
                else:
                    model[head] = 1
                    stack.append(head)
        return model

    def well_founded(self) -> tuple[bytearray, bytearray]:
        """Van Gelder's alternating fixpoint: ``(K∞, U∞)``, the true and the not-false atoms.

        Keeps ``upper = Γ(lower)`` throughout.  It stops when ``Γ(upper)``
        repeats ``lower`` (then ``Γ(lower)`` repeats ``upper`` too) or when
        ``lower == upper`` (then ``Γ(upper) = Γ(lower) = lower``), which saves
        the confirming passes of the textbook loop in
        :func:`~repro.stable.wellfounded.well_founded_model`.
        """
        lower = bytearray(len(self.atoms))
        upper = self.gamma(lower)
        while lower != upper:
            new_lower = self.gamma(upper)
            if new_lower == lower:
                break
            lower = new_lower
            upper = self.gamma(lower)
        return lower, upper

    def violates_constraint(self, model: bytearray) -> bool:
        return any(
            all(model[b] for b in positive) and not any(model[b] for b in negative)
            for positive, negative in self.constraints
        )

    def decode(self, model: bytearray) -> frozenset[Atom]:
        return frozenset(compress(self.atoms, model))


class StableModelSolver:
    """Enumerates the stable models of ground Datalog¬ programs.

    Safe to share between threads: the memos and counters are only touched
    under :attr:`_lock`, and solving runs outside it.
    """

    def __init__(self, config: SolverConfig | None = None):
        self.config = config or SolverConfig()
        self._lock = threading.Lock()
        self._cache: OrderedDict[frozenset[Rule], tuple[frozenset[Atom], ...]] = OrderedDict()
        #: Existence-only memo: canonical key -> whether a stable model exists.
        #: Fed by :meth:`has_stable_model`, which must stay lazy (a partial
        #: enumeration is not cacheable in ``_cache``).
        self._has_model_cache: OrderedDict[frozenset[Rule], bool] = OrderedDict()
        self.cache_hits = 0
        self.cache_misses = 0

    # -- public API ---------------------------------------------------------

    def enumerate(self, program: GroundProgram | Iterable[Rule]) -> Iterator[frozenset[Atom]]:
        """Yield every stable model of the ground program, each exactly once."""
        ground = program if isinstance(program, GroundProgram) else GroundProgram(tuple(program))
        if not self.config.memoize:
            yield from self._enumerate_uncached(ground)
            return
        key = ground.canonical_key
        with self._lock:
            cached = self._cache.get(key)
            if cached is not None:
                self.cache_hits += 1
                self._cache.move_to_end(key)
            else:
                self.cache_misses += 1
        if cached is None:
            cached = tuple(self._enumerate_uncached(ground))
            with self._lock:
                self._cache[key] = cached
                if len(self._cache) > self.config.cache_size:
                    self._cache.popitem(last=False)
        yield from cached

    def cache_stats(self) -> dict[str, int]:
        """Memo-cache counters for profiling reports."""
        with self._lock:
            return {
                "entries": len(self._cache),
                "existence_entries": len(self._has_model_cache),
                "hits": self.cache_hits,
                "misses": self.cache_misses,
            }

    def clear_cache(self) -> None:
        with self._lock:
            self._cache.clear()
            self._has_model_cache.clear()
            self.cache_hits = 0
            self.cache_misses = 0

    def _enumerate_uncached(self, ground: GroundProgram) -> Iterator[frozenset[Atom]]:
        program = _Compiled(ground.rules)
        negative_ids = program.negative_ids
        if self.config.use_well_founded:
            # Every guess S compatible with the well-founded model contains
            # its true atoms of N and avoids its false ones (N \ U∞).  The
            # smallest such guess, K∞ ∩ N, reduces like K∞ itself, so its
            # reduct model is Γ(K∞) = U∞, already computed.
            lower, upper = program.well_founded()
            undecided = [a for a in negative_ids if upper[a] and not lower[a]]
            first = upper
        else:
            lower = bytearray(len(program.atoms))
            undecided = list(negative_ids)
            first = program.gamma(lower)
        undecided.sort(key=lambda a: str(program.atoms[a]))

        guess_count = 1 << len(undecided)
        if guess_count > self.config.max_guesses:
            raise SolverLimitError(
                f"{len(undecided)} undecided negative-body atoms would require {guess_count} guesses "
                f"(limit {self.config.max_guesses})"
            )

        # Distinct guesses S pass the stability test M ∩ N = S with distinct
        # models M, so no model is yielded twice.
        forced = bytearray(len(program.atoms))
        for a in negative_ids:
            forced[a] = lower[a]
        for size in range(len(undecided) + 1):
            for extra in combinations(undecided, size):
                guess = forced
                model = first
                if extra:
                    guess = forced.copy()
                    for a in extra:
                        guess[a] = 1
                    model = program.gamma(guess)
                if any(model[a] != guess[a] for a in negative_ids):
                    continue
                if program.violates_constraint(model):
                    continue
                yield program.decode(model)

    def all_stable_models(self, program: GroundProgram | Iterable[Rule]) -> list[frozenset[Atom]]:
        """All stable models, sorted for reproducible output."""
        return sorted(self.enumerate(program), key=lambda m: sorted(str(a) for a in m))

    def has_stable_model(self, program: GroundProgram | Iterable[Rule]) -> bool:
        """Whether at least one stable model exists.

        Answers from the memo cache when the program was already enumerated;
        otherwise enumerates *lazily* and stops at the first model (a partial
        enumeration is not cacheable in the model cache, so existence checks
        never pay the eager-materialization cost of a memoized
        :meth:`enumerate`).  The boolean itself is memoized in a separate
        existence cache, so repeated existence checks of the same program
        cost one dictionary lookup.
        """
        ground = program if isinstance(program, GroundProgram) else GroundProgram(tuple(program))
        if not self.config.memoize:
            return next(self._enumerate_uncached(ground), None) is not None
        key = ground.canonical_key
        with self._lock:
            cached = self._cache.get(key)
            if cached is not None:
                self.cache_hits += 1
                self._cache.move_to_end(key)
                return bool(cached)
            known = self._has_model_cache.get(key)
            if known is not None:
                self.cache_hits += 1
                self._has_model_cache.move_to_end(key)
                return known
            self.cache_misses += 1
        exists = next(self._enumerate_uncached(ground), None) is not None
        with self._lock:
            self._has_model_cache[key] = exists
            if len(self._has_model_cache) > self.config.cache_size:
                self._has_model_cache.popitem(last=False)
        return exists

    def count(self, program: GroundProgram | Iterable[Rule]) -> int:
        """The number of stable models."""
        return sum(1 for _ in self.enumerate(program))

    def brave_consequences(self, program: GroundProgram | Iterable[Rule]) -> frozenset[Atom]:
        """Atoms true in *some* stable model."""
        result: set[Atom] = set()
        for model in self.enumerate(program):
            result |= model
        return frozenset(result)

    def cautious_consequences(self, program: GroundProgram | Iterable[Rule]) -> frozenset[Atom] | None:
        """Atoms true in *every* stable model, or ``None`` if there are no stable models."""
        result: set[Atom] | None = None
        for model in self.enumerate(program):
            result = set(model) if result is None else result & model
        return frozenset(result) if result is not None else None

    def is_stable(self, program: GroundProgram | Iterable[Rule], candidate: Iterable[Atom]) -> bool:
        """Direct stability check of a candidate interpretation (GL reduct test)."""
        rules = program.rules if isinstance(program, GroundProgram) else tuple(program)
        return is_stable_model(rules, frozenset(candidate))


# -- module-level conveniences ------------------------------------------------

#: Process-wide memoizing solver shared by all possible-outcome evaluations.
_shared_solver: StableModelSolver | None = None


def shared_solver() -> StableModelSolver:
    """The process-wide memoizing solver (created on first use).

    Keyed on canonicalized ground programs, its cache persists across
    engines, samplers and output spaces, so repeated evaluations of
    structurally equal outcome programs are free after the first.
    """
    global _shared_solver
    if _shared_solver is None:
        _shared_solver = StableModelSolver(SolverConfig())
    return _shared_solver


def solver_cache_stats() -> dict[str, int]:
    """Cache counters of the shared solver (zeros before first use)."""
    if _shared_solver is None:
        return {"entries": 0, "existence_entries": 0, "hits": 0, "misses": 0}
    return _shared_solver.cache_stats()


def stable_models(
    program: DatalogProgram,
    database: Database | Iterable[Atom] = (),
    config: SolverConfig | None = None,
) -> list[frozenset[Atom]]:
    """Ground ``Π[D]`` and enumerate ``sms(D, Π)``."""
    ground = ground_program(program, database)
    return StableModelSolver(config).all_stable_models(ground)


def has_stable_model(
    program: DatalogProgram,
    database: Database | Iterable[Atom] = (),
    config: SolverConfig | None = None,
) -> bool:
    """Whether ``Π[D]`` has at least one stable model."""
    ground = ground_program(program, database)
    return StableModelSolver(config).has_stable_model(ground)
