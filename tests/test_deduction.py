import hashlib
import json
import random
from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st

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
from residuelab.deduction import IncompleteContextError, _antichain

from engine_reference import antichain_comprehension


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
    steps = [s for s in trace.steps if s.target.dbar_set == {1, 2}]
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


# SHA-256 of json.dumps(deduce(p, q).to_obj(), sort_keys=True) as the plain
# comprehension-based core wrote it: the README fixes the trace order, and the
# benchmark digests hash these traces, so a faster core must keep every byte
DEDUCE_DIGESTS = {
    (1, 0): "5118050e34d3ed78569a8d8198100d18b86862a73b3cd72611bb9226ca4c9a8c",
    (1, 1): "be85b9f78257fa71cbf331f175e1e11e900ae8d4fcb1a9b956758190ffb8aa7f",
    (1, 2): "99085fd16bdc3d56224fac7ab65df2180c5be357d16f59103fb41989f367da77",
    (1, 3): "11cf949fc0ff1beb936924c093ec738e6529c4f240787c8f26cd67af3a318bce",
    (1, 4): "0de49326af8b292e8d5978b1ae1be2c936f25e5526bcac8d478a69b8b74b6821",
    (1, 5): "425c7b51d6c0ebf3c78faa08d355d923a8d22f2648397206ee47c395947d2e14",
    (1, 6): "2c9082eb05791b79006cedab1c5c7fa2a4971cfdda109597f75efa1d8b7f7122",
    (2, 0): "3f256272e4ea2a69ff6c05e4c00b058459f086b15f538cc1013edc3fd08a67d6",
    (2, 1): "f24acb073d0db83ced465f13b0c2e78b21428f51031ff19a7d1d3002e3e30ee6",
    (2, 2): "38b30316816b448a298a0202d73ade53bb0b96a4ce08379b6552bea1e663bb0d",
    (2, 3): "a6dd0613bb1075a4900e2f4b6510ed360b35a739e0be1ea93b5c2ba90f876690",
    (2, 4): "8136ff97bf05fd1592c6f9f5b045faffce1b04b64a14ba37a467e97cc641cdc6",
    (2, 5): "f1e2e1e016898e97fc2ccbce8528a2714624662c8da560ad63b2db9050203f5f",
    (2, 6): "0417238533b8b7465136e9b4bc85e44492e610464979b856701e0509a2f3899b",
    (3, 0): "2d61fd0226612b82ab37fce5378c17d06e03662fd5820accc341d845eef1840c",
    (3, 1): "582cae01218369bd5017917dee7577ad7774926d215a80ec67fd08e8fa47a501",
    (3, 2): "a922a28d15b5e5c6c8ff0d2f00ead2e17509b1d176799eb1614d4f96fd630827",
    (3, 3): "7930e2052f2b4421ad5eb355d1e4ecbf2f47b3ec7f13864405279535cf806463",
    (3, 4): "3c54f84d734f0a52957f0f2c72af5300afbfc54e43bf2cc272a3532752d02756",
    (3, 5): "3a7355df23b4335d11da270d9a761797029095a8417f80286dc1dc2995e6b15f",
    (3, 6): "ea010dbc1757ec04fb4a2682c25c470107b7b5c8da591efee4bb474272d99ce4",
    (4, 0): "177505a43d9bfde41ef90dc2b4f81a3a10a5dd1b2cd14b0a7fe5e331ce120017",
    (4, 1): "07f5c7098a2557ac3fbb51d82be80ac3679afde6ca768f75b106b7d632e95506",
    (4, 2): "1a89aeb54836326d110066325a4eb7e6db41cd04fd07302fee1ad1ae015f62c4",
    (4, 3): "fb0eb12d83331f3360347776fcb93135f6e7bd08c8b43e7e8f1bcae099e403ec",
    (4, 4): "c8c1ba6c326ed867201d136545a1ffc6a7a07ba6ca2f8f4a8df14f1101ff6d19",
    (4, 5): "4591121899fd2ef0d442aad9517f02fe0ffa7d26a96f76fbbc763b87c3944626",
    (4, 6): "d16ed64305418c44ec7c4947c30c6baa1bab990f4628153fce8a65ced0db93b7",
    (5, 0): "cf49327f4afcc5fb175f38a9f3efa863a7185890dd95995eaa80935c48d69a20",
    (5, 1): "722ed940eecc428ea962f10f1d6867bbda1053a0db9fa76ba96b6af9579586c7",
    (5, 2): "59a8bb316b1f55fc749f9208c456867937ca4a7c376b0504f2cca3dbf44c27ff",
    (5, 3): "0614ed357ff1777fe57d6514e8be531674d844102cfd685a1d65d55f37a5ece8",
    (5, 4): "58b265fe031f78378ea7beb5e9fb8de58c07d64ac5142fe35290da47b612f7b7",
    (5, 5): "94f73d2774c6cbf33a368f1d4da4973d08d58140d393ef5bbb0726f6cc50b522",
    (5, 6): "55e6eadd105a9b56c78f79187316a8debb8211b9d403d80f39f3dfa9059369cc",
    (6, 0): "9169cbdb562d8e3fe3b117fed6f713c738dd3696392230da5667b27b2585027f",
    (6, 1): "b5059c201baf0c4220af9a4073d9435c37d10931cbb0bdac4874822cc58a98a1",
    (6, 2): "2c8fc0ff9d77d054b25af49083ebc7ed33e2db8f234b8f8860563e84cc09500b",
    (6, 3): "5d9f95135df738912b368473ced62d8734a15a50c3c94167b9ad25be8f6aa958",
    (6, 4): "617222439f8ce5043db5d65fbc848a7bb1f3b83fdb87f03c13d947b1f470ce8c",
    (6, 5): "b76a1b01c07ce85cd55b3c9bda0a573d6424ebe28c6f836b380a0ad2c6660def",
    (6, 6): "10d4f28706ec670d298279d0e54a7e21fca09ade92d7c9d417d9b7598bdd6a9d",
}


def test_deduce_traces_are_pinned():
    got = {
        pq: hashlib.sha256(json.dumps(deduce(*pq).to_obj(), sort_keys=True).encode()).hexdigest()
        for pq in DEDUCE_DIGESTS
    }
    assert got == DEDUCE_DIGESTS


masks_st = st.lists(st.integers(0, 63), max_size=12)


@settings(derandomize=True, max_examples=300, deadline=None)
@given(masks_st)
def test_antichain_matches_the_comprehension_on_masks_and_sets(masks):
    assert _antichain(masks) == antichain_comprehension(masks)
    sets = [frozenset(i + 1 for i in range(6) if m >> i & 1) for m in masks]
    assert _antichain(sets) == antichain_comprehension(sets)
