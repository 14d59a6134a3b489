"""Brute-force stable models: every subset of the Herbrand base, checked by the GL reduct.

``{S ⊆ HB : is_stable_model(rules, S)}`` straight from the definition, with
no well-founded pruning, no branching on negative-body atoms and no integer
encoding.  Exponential in ``|HB|``, so only for small random programs.
"""

from __future__ import annotations

from itertools import chain, combinations
from typing import Iterable

from repro.logic.atoms import Atom
from repro.logic.rules import Rule
from repro.stable.grounding import GroundProgram
from repro.stable.reduct import is_stable_model

__all__ = ["brute_force_stable_models"]


def brute_force_stable_models(rules: Iterable[Rule]) -> set[frozenset[Atom]]:
    """Every stable model of the ground program *rules*, by exhaustive search."""
    rule_list = tuple(rules)
    base = sorted(GroundProgram(rule_list).herbrand_base(), key=str)
    subsets = chain.from_iterable(combinations(base, size) for size in range(len(base) + 1))
    return {frozenset(subset) for subset in subsets if is_stable_model(rule_list, subset)}
