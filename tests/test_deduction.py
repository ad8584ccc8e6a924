import random
from itertools import combinations

import pytest

from residuelab import (
    CurrentSymbol,
    PoleConstraint,
    blowup_example,
    combine,
    deduce,
    diagonal_scenario,
    equality_terms,
    initial_constraint,
    mellin_exact,
)
from residuelab.deduction import IncompleteContextError


def sym(dbar, pv):
    return CurrentSymbol.of(dbar, pv)


def fam(*members):
    return PoleConstraint(frozenset(frozenset(m) for m in members))


def test_initial_constraint_pair():
    assert initial_constraint(sym({1, 2}, {3})) == fam({1, 2})


def test_initial_constraint_single_derivative_analytic():
    assert initial_constraint(sym({1}, {2, 3})).is_analytic


def test_initial_constraint_full():
    assert initial_constraint(sym({1, 2, 3}, set())) == fam({1, 2, 3})


def test_equality_terms():
    assert equality_terms(sym({1, 2}, {3, 4})) == [
        sym({1, 2, 3}, {4}),
        sym({1, 2, 4}, {3}),
    ]
    assert equality_terms(sym({1}, {2})) == [sym({1, 2}, set())]
    with pytest.raises(ValueError):
        equality_terms(sym({1, 2}, set()))


def test_combine_first_reduction():
    # intersecting a full-support prior with a mixed family keeps the overlap
    base = sym({1, 2}, {3, 4})
    target = sym({1, 2, 3}, {4})
    sibling = sym({1, 2, 4}, {3})
    known = {
        base: PoleConstraint.analytic(),
        target: fam({1, 2, 3}),
        sibling: fam({1, 2}, {1, 2, 4}),
    }
    assert combine(target, base, known) == fam({1, 2})


def test_combine_retains_derived_singletons():
    base = sym({2}, {1, 3})
    target = sym({1, 2}, {3})
    sibling = sym({2, 3}, {1})
    known = {
        base: PoleConstraint.analytic(),
        target: fam({1, 2}),
        sibling: fam({2, 3}),
    }
    # {1,2} meets {2,3} in the singleton {2}; a later intersection must empty it
    assert combine(target, base, known) == fam({2})


def test_combine_full_context_unchanged():
    base = sym({1}, {2, 3})
    target = sym({1, 2}, {3})
    sibling = sym({1, 3}, {2})
    known = {
        base: PoleConstraint.analytic(),
        target: fam({1, 2}),
        sibling: fam({1, 2, 3}),
    }
    assert combine(target, base, known) == fam({1, 2})


def test_combine_requires_context():
    base = sym({1}, {2, 3})
    target = sym({1, 2}, {3})
    with pytest.raises(IncompleteContextError):
        combine(target, base, {base: PoleConstraint.analytic(), target: fam({1, 2})})
    with pytest.raises(IncompleteContextError):
        combine(target, base, {target: fam({1, 2}), sym({1, 3}, {2}): fam({1, 3})})


def test_combine_monotone():
    rng = random.Random(51)
    universe = list(range(1, 6))
    for _ in range(50):
        dbar = set(rng.sample(universe, rng.randint(2, 4)))
        pv = set(universe) - dbar
        if not pv:
            continue
        target_dbar = dbar | {rng.choice(sorted(pv))}
        base = sym(dbar, pv)
        target = sym(target_dbar, set(universe) - target_dbar)
        prior = fam(*(rng.sample(universe, rng.randint(1, 3)) for _ in range(2)))
        known = {base: PoleConstraint.analytic(), target: prior}
        for sib in equality_terms(base):
            if sib != target:
                known[sib] = fam(*(rng.sample(universe, rng.randint(1, 3)) for _ in range(2)))
        new = combine(target, base, known)
        for member in new.allowed_supports:
            assert any(member <= m for m in prior.allowed_supports)


def test_deduce_trivial():
    trace = deduce(1, 0)
    assert trace.analytic
    assert trace.steps == ()
    assert deduce(1, 5).analytic


def test_deduce_2_1_two_step_elimination_trace():
    trace = deduce(2, 1)
    assert trace.analytic
    steps = trace.steps_for({1, 2})
    assert len(steps) == 2
    first, second = steps
    # first equality: context from the {1,3} symbol, leaving only the first axis
    assert first.base.dbar_set == frozenset({1})
    assert first.context.allowed_supports == frozenset({frozenset({1, 3})})
    assert first.result == fam({1})
    # swapped equality: context from the {2,3} symbol empties the constraint
    assert second.base.dbar_set == frozenset({2})
    assert second.context.allowed_supports == frozenset({frozenset({2, 3})})
    assert second.result.is_analytic


def test_deduce_grid_small():
    for p in range(1, 4):
        for q in range(0, 4):
            assert deduce(p, q).analytic


def test_deduce_permutation_equivariant():
    # the deduction never looks at labels, only at set sizes and memberships;
    # traces for equal (p, q) are identical under relabeling
    a = deduce(3, 2)
    b = deduce(3, 2)
    assert [s.to_obj() for s in a.steps] == [s.to_obj() for s in b.steps]
    assert a.analytic and b.analytic


def test_soundness_hook_blowup_and_diagonal():
    sc = blowup_example()
    total = (mellin_exact(sc, "z") + mellin_exact(sc, "zeta")).reduced()
    final = deduce(sc.signature.p, sc.signature.q)
    assert final.analytic
    assert total.hyperplane_forms() == frozenset()
    diag = diagonal_scenario([2, 1, 3], p=2)
    v = mellin_exact(diag, diag.charts[0]).reduced()
    assert deduce(2, 1).analytic
    assert v.hyperplane_forms() == frozenset()


def test_deduce_trace_replays_through_combine():
    # every recorded step is the public rule applied to the constraints known
    # at that point, so `deduce` and `combine` cannot drift apart
    for p in range(1, 5):
        for q in range(0, 5):
            universe = frozenset(range(1, p + q + 1))
            known = {}
            for level in range(1, p + 1):
                for dbar in combinations(sorted(universe), level):
                    s = sym(dbar, universe - set(dbar))
                    known[s] = initial_constraint(s)
            for step in deduce(p, q).steps:
                siblings = [t for t in equality_terms(step.base) if t != step.target]
                union = frozenset().union(*(known[t].allowed_supports for t in siblings))
                assert step.context == PoleConstraint(union)
                assert combine(step.target, step.base, known) == step.result
                known[step.target] = step.result
            assert all(c.is_analytic for c in known.values()), (p, q)
