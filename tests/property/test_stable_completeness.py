"""Completeness of the stable-model solver against a brute-force oracle.

``test_property_stable.py`` checks soundness (every enumerated model passes
the reduct test).  This suite checks the other direction on random ground
programs over at most ten atoms, with constraints (including constraints
with negative bodies), even and odd negative loops and chains of negation:
the solver finds *exactly* the stable models that exhaustive search over
the Herbrand base finds, in every solver configuration, and its guess limit
trips at the guess count the rule-level well-founded model predicts.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles.stable_models import brute_force_stable_models

from repro.exceptions import SolverLimitError
from repro.logic.atoms import Atom, Predicate
from repro.logic.rules import FALSE_ATOM, Rule
from repro.stable.grounding import GroundProgram
from repro.stable.solver import SolverConfig, StableModelSolver
from repro.stable.wellfounded import well_founded_model

#: The Herbrand base the programs draw from: ten nullary atoms a..j.
ATOMS = [Atom(Predicate(name, 0), ()) for name in "abcdefghij"]

CONFIGS = [
    SolverConfig(use_well_founded=use_well_founded, memoize=memoize)
    for use_well_founded in (True, False)
    for memoize in (True, False)
]


def _atoms(size: int):
    return st.lists(st.sampled_from(ATOMS), min_size=0, max_size=size).map(tuple)


@st.composite
def normal_rules(draw) -> Rule:
    return Rule(draw(st.sampled_from(ATOMS)), draw(_atoms(2)), draw(_atoms(2)))


@st.composite
def constraints(draw) -> Rule:
    """``:- body``: positive atoms, negative atoms or both (never empty)."""
    positive = draw(_atoms(2))
    negative = draw(_atoms(2).filter(lambda atoms: bool(atoms or positive)))
    return Rule(FALSE_ATOM, positive, negative)


@st.composite
def negative_loops(draw) -> list[Rule]:
    """An even loop ``p :- not q. q :- not p.`` or an odd loop ``p :- not p.``."""
    p, q = draw(st.sampled_from(ATOMS)), draw(st.sampled_from(ATOMS))
    if draw(st.booleans()):
        return [Rule(p, (), (q,)), Rule(q, (), (p,))]
    return [Rule(p, (), (p,))]


@st.composite
def negation_chains(draw) -> list[Rule]:
    """``x1 :- not x2.  x2 :- not x3. ...``: each link costs the well-founded fixpoint a round."""
    chain = draw(st.lists(st.sampled_from(ATOMS), min_size=2, max_size=6, unique=True))
    return [Rule(head, (), (below,)) for head, below in zip(chain, chain[1:])]


@st.composite
def ground_programs(draw) -> GroundProgram:
    rules = draw(st.lists(normal_rules(), min_size=0, max_size=8))
    rules += draw(st.lists(constraints(), min_size=0, max_size=3))
    for loop in draw(st.lists(st.one_of(negative_loops(), negation_chains()), min_size=0, max_size=2)):
        rules += loop
    rules += [Rule(head, (), ()) for head in draw(_atoms(2))]
    return GroundProgram(tuple(dict.fromkeys(rules)))


def _undecided_count(program: GroundProgram, use_well_founded: bool) -> int:
    """The number of negative-body atoms the solver branches on, from the rule-level semantics."""
    negative = program.negative_body_atoms()
    if not use_well_founded:
        return len(negative)
    wf = well_founded_model(program.rules)
    return len(negative - wf.true - wf.false)


@settings(max_examples=150, deadline=None)
@given(ground_programs())
def test_enumerate_equals_the_brute_force_oracle(program):
    expected = brute_force_stable_models(program.rules)
    for config in CONFIGS:
        solver = StableModelSolver(config)
        models = list(solver.enumerate(program))
        assert len(models) == len(set(models)), config
        assert set(models) == expected, config
        # A memoized solver answers the second call from its memo.
        assert set(solver.enumerate(program)) == expected, config


@settings(max_examples=150, deadline=None)
@given(ground_programs())
def test_has_stable_model_agrees_with_the_oracle(program):
    expected = bool(brute_force_stable_models(program.rules))
    for config in CONFIGS:
        solver = StableModelSolver(config)
        assert solver.has_stable_model(program) is expected, config
        assert solver.has_stable_model(program) is expected, config


@settings(max_examples=150, deadline=None)
@given(ground_programs(), st.booleans())
def test_guess_limit_trips_at_the_predicted_guess_count(program, use_well_founded):
    guesses = 1 << _undecided_count(program, use_well_founded)
    at_limit = SolverConfig(max_guesses=guesses, use_well_founded=use_well_founded, memoize=False)
    assert set(StableModelSolver(at_limit).enumerate(program)) == brute_force_stable_models(program.rules)
    below = SolverConfig(max_guesses=guesses - 1, use_well_founded=use_well_founded, memoize=False)
    with pytest.raises(SolverLimitError):
        list(StableModelSolver(below).enumerate(program))
    with pytest.raises(SolverLimitError):
        StableModelSolver(below).has_stable_model(program)
