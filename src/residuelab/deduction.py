"""Support-level pole deduction.

A current symbol records which factor indices sit under the antiholomorphic
derivative.  Every symbol obeys an a-priori constraint: its poles near the
origin lie on hyperplanes whose support pairs at least two derivative
indices.  Moving one principal-value index under the derivative yields a
current equality whose left side is analytic once the smaller symbols are
settled, so intersecting support families level by level eliminates every
candidate hyperplane.  The trace records each equality and intersection,
making the deduction auditable.

`deduce` holds index sets as int bitmasks (bit i-1 for index i) and
constraints as frozensets of support masks; `_antichain` and `_meet` use only
`&`, `|` and `==`, so `combine` runs the same rule on frozensets.  The trace
order is fixed and byte-reproducible: targets per level in `combinations`
order, bases by decreasing moved index, sweeps until nothing changes.
"""

from __future__ import annotations

from functools import cache
from itertools import combinations
from typing import Dict, Iterable, List, Mapping, Sequence, Tuple

from .frozen import Frozen, _set


class IncompleteContextError(ValueError):
    pass


class StalledError(RuntimeError):
    """The deduction schedule failed to empty a constraint; this would point at
    an implementation bug, not at the mathematics."""

    def __init__(self, symbol, residual):
        self.symbol = symbol
        self.residual = residual
        super().__init__(f"Stalled: {symbol} retains supports {sorted(map(sorted, residual))}")


class CurrentSymbol(Frozen):
    """Partition of factor indices: dbar_set under the derivative, pv_set not."""

    def __init__(self, dbar_set: frozenset, pv_set: frozenset):
        _set(self, "dbar_set", frozenset(dbar_set))
        _set(self, "pv_set", frozenset(pv_set))
        if self.dbar_set & self.pv_set:
            raise ValueError("index sets must be disjoint")
        if not self.dbar_set:
            raise ValueError("residue symbols need a nonempty derivative set")

    @staticmethod
    def of(dbar: Sequence[int], pv: Sequence[int]) -> "CurrentSymbol":
        return CurrentSymbol(frozenset(dbar), frozenset(pv))

    def __str__(self):
        d = ",".join(map(str, sorted(self.dbar_set)))
        p = ",".join(map(str, sorted(self.pv_set)))
        return f"sym({{{d}}};{{{p}}})"


def _antichain(members: Iterable) -> frozenset:
    """Drop empty members and members strictly inside another (redundant)."""
    mems = set(members)
    kept = []
    for m in mems:
        if not m:
            continue
        for o in mems:
            if m & o == m and m != o:
                break
        else:
            kept.append(m)
    return frozenset(kept)


def _meet(prior: frozenset, siblings: Iterable[frozenset]) -> Tuple[frozenset, frozenset]:
    """The siblings' union (the context) and its intersection with `prior`;
    an empty context leaves nothing, so the target becomes analytic."""
    context = _antichain(frozenset().union(*siblings))
    return context, _antichain({a & b for a in prior for b in context})


class PoleConstraint(Frozen):
    """Family of allowed supports: every pole hyperplane's support is
    contained in some member.  Empty family = analytic."""

    def __init__(self, allowed_supports: frozenset):
        _set(self, "allowed_supports", _antichain(map(frozenset, allowed_supports)))

    @staticmethod
    def analytic() -> "PoleConstraint":
        return PoleConstraint(frozenset())

    @property
    def is_analytic(self) -> bool:
        return not self.allowed_supports

    def sorted_members(self) -> List[Tuple[int, ...]]:
        return sorted(tuple(sorted(m)) for m in self.allowed_supports)

    def __str__(self):
        if self.is_analytic:
            return "analytic"
        return "{" + ", ".join("{" + ",".join(map(str, m)) + "}" for m in self.sorted_members()) + "}"


def initial_constraint(sym: CurrentSymbol) -> PoleConstraint:
    """A-priori constraint: supports inside the derivative block; hyperplanes
    pair at least two entries, so a single-derivative symbol is analytic."""
    if len(sym.dbar_set) < 2:
        return PoleConstraint.analytic()
    return PoleConstraint(frozenset({sym.dbar_set}))


def equality_terms(base: CurrentSymbol) -> List[CurrentSymbol]:
    """Terms of the derivative identity: one symbol per principal-value index
    moved under the derivative."""
    if not base.pv_set:
        raise ValueError("base symbol has no principal-value index to move")
    return [
        CurrentSymbol(base.dbar_set | {v}, base.pv_set - {v})
        for v in sorted(base.pv_set)
    ]


def combine(
    target: CurrentSymbol,
    base: CurrentSymbol,
    known: Mapping[CurrentSymbol, PoleConstraint],
) -> PoleConstraint:
    """Intersect the target's constraint with the union of its siblings'.

    The left side of the equality (the derivative of the base symbol) must be
    analytic, i.e. the base constraint settled; derived singleton supports
    are retained until a later intersection empties them.
    """
    terms = equality_terms(base)
    if target not in terms:
        raise ValueError(f"{target} is not a term of the equality from {base}")
    if base not in known or not known[base].is_analytic:
        raise IncompleteContextError(f"IncompleteContext: base {base} is not settled analytic")
    for term in terms:
        if term not in known:
            raise IncompleteContextError(f"IncompleteContext: no constraint known for {term}")
    siblings = (known[term].allowed_supports for term in terms if term != target)
    return PoleConstraint(_meet(known[target].allowed_supports, siblings)[1])


def _indices(mask: int) -> List[int]:
    return [i + 1 for i in range(mask.bit_length()) if mask >> i & 1]


def _symbol(mask: int, n: int) -> CurrentSymbol:
    return CurrentSymbol(frozenset(_indices(mask)), frozenset(_indices(~mask & ((1 << n) - 1))))


def _constraint(masks: frozenset) -> PoleConstraint:
    return PoleConstraint(frozenset(frozenset(_indices(m)) for m in masks))


class TraceStep(Frozen):
    """One intersection of `deduce` as masks over indices 1..n; views are built on read."""

    def __init__(self, n: int, target_mask: int, moved: int, context_masks: frozenset, result_masks: frozenset):
        _set(self, "n", n)
        _set(self, "target_mask", target_mask)
        _set(self, "moved", moved)
        _set(self, "context_masks", context_masks)
        _set(self, "result_masks", result_masks)

    @property
    def target(self) -> CurrentSymbol:
        return _symbol(self.target_mask, self.n)

    @property
    def base(self) -> CurrentSymbol:
        return _symbol(self.target_mask ^ (1 << (self.moved - 1)), self.n)

    @property
    def context(self) -> PoleConstraint:
        return _constraint(self.context_masks)

    @property
    def result(self) -> PoleConstraint:
        return _constraint(self.result_masks)

    def to_obj(self) -> dict:
        return _step_obj(self, _indices)


def _step_obj(step: TraceStep, indices) -> dict:
    return {
        "target": indices(step.target_mask),
        "base": indices(step.target_mask ^ (1 << (step.moved - 1))),
        "moved": step.moved,
        "context": sorted(map(indices, step.context_masks)),
        "result": sorted(map(indices, step.result_masks)),
    }


class ProofTrace(Frozen):
    def __init__(self, p: int, q: int, steps: Tuple[TraceStep, ...], final: PoleConstraint, analytic: bool):
        _set(self, "p", p)
        _set(self, "q", q)
        _set(self, "steps", steps)
        _set(self, "final", final)
        _set(self, "analytic", analytic)

    def to_obj(self) -> dict:
        """The trace as JSON-ready data.  Each mask's index list is built once
        per call and shared by the steps that read it: copy before changing."""
        indices = cache(_indices)
        return {
            "p": self.p,
            "q": self.q,
            "analytic": self.analytic,
            "steps": [_step_obj(s, indices) for s in self.steps],
        }


def deduce(p: int, q: int) -> ProofTrace:
    """Run the level-by-level deduction for p derivative and q principal-value
    factors; every symbol of every level must come out analytic."""
    if p < 1 or q < 0:
        raise ValueError("need p >= 1 and q >= 0")
    n = p + q
    known: Dict[int, frozenset] = {}
    steps: List[TraceStep] = []
    for level in range(2, p + 1):
        targets = [sum(1 << i for i in c) for c in combinations(range(n), level)]
        for t in targets:
            known[t] = frozenset({t})
        progress = True
        while progress and any(known[t] for t in targets):
            progress = False
            for t in targets:
                for v in reversed(_indices(t)):
                    if not known[t]:
                        break
                    base = t ^ (1 << (v - 1))
                    # the base, one level down, is settled; its siblings sit on this level
                    siblings = (known[base | 1 << i] for i in range(n) if not t >> i & 1)
                    context, new = _meet(known[t], siblings)
                    if new != known[t]:
                        steps.append(TraceStep(n, t, v, context, new))
                        known[t] = new
                        progress = True
        for t in targets:
            if known[t]:
                raise StalledError(_symbol(t, n), _constraint(known[t]).allowed_supports)
    final = _constraint(known.get((1 << p) - 1, frozenset()))
    return ProofTrace(p, q, tuple(steps), final, final.is_analytic)
