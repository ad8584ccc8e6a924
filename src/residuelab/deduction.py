"""Support-level pole deduction.

A current symbol records which factor indices sit under the antiholomorphic
derivative.  Every symbol obeys an a-priori constraint: its poles near the
origin lie on hyperplanes whose support pairs at least two derivative
indices.  Moving one principal-value index under the derivative yields a
current equality whose left side is analytic once the smaller symbols are
settled, so intersecting support families level by level eliminates every
candidate hyperplane.  The trace records each equality and intersection,
making the deduction auditable.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Mapping, Sequence, Tuple


class IncompleteContextError(ValueError):
    pass


class StalledError(RuntimeError):
    """The deduction schedule failed to empty a constraint; this would point at
    an implementation bug, not at the mathematics."""

    def __init__(self, symbol, residual):
        self.symbol = symbol
        self.residual = residual
        super().__init__(f"Stalled: {symbol} retains supports {sorted(map(sorted, residual))}")


@dataclass(frozen=True)
class CurrentSymbol:
    """Partition of factor indices: dbar_set under the derivative, pv_set not."""

    dbar_set: frozenset
    pv_set: frozenset

    def __post_init__(self):
        object.__setattr__(self, "dbar_set", frozenset(self.dbar_set))
        object.__setattr__(self, "pv_set", frozenset(self.pv_set))
        if self.dbar_set & self.pv_set:
            raise ValueError("index sets must be disjoint")
        if not self.dbar_set:
            raise ValueError("residue symbols need a nonempty derivative set")

    @staticmethod
    def of(dbar: Sequence[int], pv: Sequence[int]) -> "CurrentSymbol":
        return CurrentSymbol(frozenset(dbar), frozenset(pv))

    def universe(self) -> frozenset:
        return self.dbar_set | self.pv_set

    def __str__(self):
        d = ",".join(map(str, sorted(self.dbar_set)))
        p = ",".join(map(str, sorted(self.pv_set)))
        return f"sym({{{d}}};{{{p}}})"


def _antichain(members) -> frozenset:
    """Drop empty members and members contained in another (redundant)."""
    mems = {frozenset(m) for m in members if m}
    return frozenset(
        m for m in mems if not any(m < other for other in mems)
    )


@dataclass(frozen=True)
class PoleConstraint:
    """Family of allowed supports: every pole hyperplane's support is
    contained in some member.  Empty family = analytic."""

    allowed_supports: frozenset

    def __post_init__(self):
        object.__setattr__(self, "allowed_supports", _antichain(self.allowed_supports))

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
    return _combine(target, base, known)[1]


def _combine(
    target: CurrentSymbol,
    base: CurrentSymbol,
    known: Mapping[CurrentSymbol, PoleConstraint],
) -> Tuple[PoleConstraint, PoleConstraint]:
    """`combine`, also returning the siblings' union the trace records."""
    terms = equality_terms(base)
    if target not in terms:
        raise ValueError(f"{target} is not a term of the equality from {base}")
    base_constraint = known.get(base)
    if base_constraint is None or not base_constraint.is_analytic:
        raise IncompleteContextError(f"IncompleteContext: base {base} is not settled analytic")
    prior = known.get(target)
    if prior is None:
        raise IncompleteContextError(f"IncompleteContext: no prior constraint for {target}")
    context_members = set()
    for sib in terms:
        if sib == target:
            continue
        c = known.get(sib)
        if c is None:
            raise IncompleteContextError(f"IncompleteContext: sibling {sib} unknown")
        context_members |= c.allowed_supports
    context = PoleConstraint(frozenset(context_members))
    if not context_members:
        return context, PoleConstraint.analytic()
    return context, PoleConstraint(
        frozenset(a & b for a in prior.allowed_supports for b in context_members)
    )


@dataclass(frozen=True)
class TraceStep:
    target: CurrentSymbol
    base: CurrentSymbol
    moved: int
    context: PoleConstraint
    result: PoleConstraint

    def to_obj(self) -> dict:
        return {
            "target": sorted(self.target.dbar_set),
            "base": sorted(self.base.dbar_set),
            "moved": self.moved,
            "context": [list(m) for m in self.context.sorted_members()],
            "result": [list(m) for m in self.result.sorted_members()],
        }


@dataclass(frozen=True)
class ProofTrace:
    p: int
    q: int
    steps: Tuple[TraceStep, ...]
    final: PoleConstraint
    analytic: bool

    def steps_for(self, dbar: Sequence[int]) -> List[TraceStep]:
        want = frozenset(dbar)
        return [s for s in self.steps if s.target.dbar_set == want]

    def to_obj(self) -> dict:
        return {
            "p": self.p,
            "q": self.q,
            "analytic": self.analytic,
            "steps": [s.to_obj() for s in self.steps],
        }


def deduce(p: int, q: int) -> ProofTrace:
    """Run the level-by-level deduction for p derivative and q principal-value
    factors; every symbol of every level must come out analytic."""
    if p < 1 or q < 0:
        raise ValueError("need p >= 1 and q >= 0")
    universe = frozenset(range(1, p + q + 1))
    known: Dict[CurrentSymbol, PoleConstraint] = {}

    def sym(dbar: frozenset) -> CurrentSymbol:
        return CurrentSymbol(dbar, universe - dbar)

    def get(s: CurrentSymbol) -> PoleConstraint:
        if s not in known:
            known[s] = initial_constraint(s)
        return known[s]

    steps: List[TraceStep] = []
    from itertools import combinations

    for level in range(2, p + 1):
        targets = [sym(frozenset(c)) for c in combinations(sorted(universe), level)]
        for t in targets:
            get(t)
        progress = True
        while progress and any(not get(t).is_analytic for t in targets):
            progress = False
            for target in targets:
                if get(target).is_analytic:
                    continue
                bases = sorted(
                    (tuple(sorted(target.dbar_set - {v})), v) for v in target.dbar_set
                )
                for base_tuple, moved in bases:
                    base = sym(frozenset(base_tuple))
                    if not get(base).is_analytic:
                        continue
                    # every sibling sits on this level, so `known` holds it
                    context, new = _combine(target, base, known)
                    if new.allowed_supports != get(target).allowed_supports:
                        steps.append(TraceStep(target, base, moved, context, new))
                        known[target] = new
                        progress = True
                    if get(target).is_analytic:
                        break
        for t in targets:
            if not get(t).is_analytic:
                raise StalledError(t, get(t).allowed_supports)

    full = sym(frozenset(range(1, p + 1)))
    final = get(full)
    return ProofTrace(p, q, tuple(steps), final, final.is_analytic)
