"""Descent of a graded space into a small subalgebra.

One step replaces a collapsing element of the degree-i piece by the
lower-degree factors of its witness: the dimension sequence loses one
in position i and gains at most 2k entries below, a strict drop in the
largest-differing-index well-order, so the loop always terminates.
When no element collapses below its policy threshold the space is
returned together with certificates: subalgebra membership of every
original basis form in the final generators (checked by tag-variable
elimination) and the regular-sequence verdict for the output.

Collapse targets are searched in three regimes per degree piece: the
basis elements, then random linear combinations up to a sample budget,
then every projective class of the piece when the field and dimensions
make that enumerable.  Each trace step records which regime found it;
a terminal state is marked exhaustive only if the closing sweep covered
all projective classes of every nonzero piece.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Sequence

from .budget import Budget, BudgetExceededError, DEFAULT_BUDGET, InternalError
from .fields import CoefficientField
from .groebner import elimination_order, groebner_basis, normal_form
from .poly import (DimensionSequence, Form, GradedSpace, Polynomial, as_form,
                   coordinates_in_span)
from .strength import CollapseWitness, find_collapse


def compare_sequences(a, b) -> int:
    """-1, 0, or 1: compare dimension sequences in the descent well-order
    (entries at the largest differing index decide)."""
    return DimensionSequence(a).compare(DimensionSequence(b))


@dataclass(frozen=True)
class ThresholdPolicy:
    """Per-degree strength thresholds k(delta, i) steering the descent.

    kind "constant": a single integer or a per-degree mapping.
    kind "table":    thresholds from a bound table, k = base(i) + 3(n-1).
    kind "maximal":  descend while any collapse at all is found (capped
                     by ``max_k``, default the variable count).
    """

    kind: str
    value: object = None
    table: object = None
    max_k: int | None = None
    sample_budget: int = 8
    exhaust_cap: int = 4096

    @classmethod
    def constant(cls, value, **kw) -> "ThresholdPolicy":
        return cls(kind="constant", value=value, **kw)

    @classmethod
    def from_table(cls, table, **kw) -> "ThresholdPolicy":
        return cls(kind="table", table=table, **kw)

    @classmethod
    def maximal(cls, **kw) -> "ThresholdPolicy":
        return cls(kind="maximal", **kw)

    def threshold(self, delta: DimensionSequence, i: int) -> int | None:
        """Collapse size to search for in degree i; None means unbounded."""
        if self.kind == "maximal":
            return None
        if self.kind == "constant":
            if isinstance(self.value, dict):
                if i not in self.value:
                    raise ValueError(f"no threshold configured for degree {i}")
                t = self.value[i]
            else:
                t = int(self.value)
            if t < 0:
                raise ValueError("thresholds must be nonnegative")
            return t
        if self.kind == "table":
            from .bounds import eta_A_i
            return eta_A_i(delta, i, self.table)
        raise ValueError(f"unknown policy kind {self.kind!r}")


@dataclass(frozen=True)
class DescentStep:
    before: DimensionSequence
    degree: int
    witness: CollapseWitness
    after: DimensionSequence
    regime: str


@dataclass(frozen=True)
class DescentTrace:
    steps: tuple[DescentStep, ...]
    final_generators: tuple[Form, ...]
    complete: bool
    exhaustive: bool
    membership: tuple[bool, ...]
    regular_sequence: bool | None


def descend_step(space: GradedSpace, degree: int,
                 witness: CollapseWitness) -> GradedSpace:
    """Replace the witness target inside the degree piece by its factors."""
    target = witness.target
    if target.degree != degree:
        raise ValueError("witness target does not have the requested degree")
    piece = space.piece(degree)
    coords = coordinates_in_span(target.poly, [b.poly for b in piece])
    if coords is None:
        raise ValueError("witness target is not in the degree piece")
    pivot = next((j for j, c in enumerate(coords) if c), None)
    if pivot is None:
        raise ValueError("witness target is zero on the degree piece")
    kept = [b for j, b in enumerate(piece) if j != pivot]
    new_forms: list[Form] = [b for b in space.basis if b.degree != degree]
    new_forms.extend(kept)
    for g, h in witness.pairs:
        new_forms.append(g)
        new_forms.append(h)
    result = GradedSpace.from_forms(new_forms)
    if not result.dimension_sequence < space.dimension_sequence:
        raise InternalError("descent step failed to shrink the dimension sequence")
    return result


def _projective_classes(piece: Sequence[Form], field: CoefficientField, cap: int):
    """All nonzero combinations of the piece basis up to scalar, if few enough."""
    p = field.p
    if p is None:
        return None
    count = (p ** len(piece) - 1) // (p - 1)
    if count > cap:
        return None
    out = []
    for lead in range(len(piece)):
        tails = [range(p)] * (len(piece) - lead - 1)
        stack = [()]
        for choices in tails:
            stack = [prefix + (c,) for prefix in stack for c in choices]
        for tail in stack:
            poly = piece[lead].poly
            for b, c in zip(piece[lead + 1:], tail):
                if c:
                    poly = poly + b.poly.scale(c)
            out.append(Form(poly))
    return out


def _candidates(space: GradedSpace, degree: int, policy: ThresholdPolicy,
                rng: random.Random | None):
    """Candidate collapse targets per regime; ends with an exhaustive flag."""
    piece = space.piece(degree)
    for b in piece:
        yield ("basis", b)
    field = space.field
    if rng is not None and field.p and len(piece) > 1:
        for _ in range(policy.sample_budget):
            coeffs = [rng.randrange(field.p) for _ in piece]
            if not any(coeffs):
                coeffs[rng.randrange(len(piece))] = 1
            poly = Polynomial.zero(space.nvars, field)
            for b, c in zip(piece, coeffs):
                if c:
                    poly = poly + b.poly.scale(c)
            yield ("sampled", Form(poly))
    if len(piece) > 1:
        classes = _projective_classes(piece, field, policy.exhaust_cap)
        if classes is not None:
            for f in classes:
                yield ("exhaustive", f)


def _piece_is_enumerable(space: GradedSpace, degree: int,
                         policy: ThresholdPolicy) -> bool:
    piece = space.piece(degree)
    if len(piece) <= 1:
        return True
    p = space.field.p
    if p is None:
        return False
    return (p ** len(piece) - 1) // (p - 1) <= policy.exhaust_cap


def _find_move(space: GradedSpace, policy: ThresholdPolicy, budget: Budget,
               rng: random.Random | None):
    """First (degree, witness, regime) the policy says to descend on, or None."""
    delta = space.dimension_sequence
    for degree in range(len(delta), 1, -1):
        if delta[degree - 1] == 0:
            continue
        t = policy.threshold(delta, degree)
        if t == 0:
            continue
        kcap = t if t is not None else (policy.max_k or space.nvars)
        seen: set[Form] = set()
        for regime, candidate in _candidates(space, degree, policy, rng):
            if candidate in seen:
                continue
            seen.add(candidate)
            witness = find_collapse(candidate, kcap, budget)
            if witness is not None:
                return degree, witness, regime
    return None


def small_subalgebra(space: GradedSpace, policy: ThresholdPolicy,
                     budget: Budget | None = None,
                     rng: random.Random | None = None) -> DescentTrace:
    """Run the descent until the policy finds no collapse, then certify.

    Returns the trace with the final homogeneous generators, membership
    checks for every original basis form against them, and the
    regular-sequence verdict.  Budget exhaustion returns the partial
    trace flagged incomplete instead of raising.
    """
    if space.field.p is None:
        raise ValueError("descent search needs a finite prime field")
    budget = budget or DEFAULT_BUDGET
    original = list(space.basis)
    steps: list[DescentStep] = []
    current = space
    complete = True
    try:
        while True:
            if len(steps) >= budget.max_steps:
                raise BudgetExceededError("descent steps", budget.max_steps)
            move = _find_move(current, policy, budget, rng)
            if move is None:
                break
            degree, witness, regime = move
            before = current.dimension_sequence
            current = descend_step(current, degree, witness)
            steps.append(DescentStep(before=before, degree=degree,
                                     witness=witness,
                                     after=current.dimension_sequence,
                                     regime=regime))
    except BudgetExceededError:
        complete = False
    exhaustive = complete and all(
        _piece_is_enumerable(current, d, policy)
        for d in range(2, len(current.dimension_sequence) + 1)
        if current.dimension_sequence[d - 1] > 0)
    gens = tuple(current.basis)
    membership = tuple(subalgebra_membership(f.poly, gens, budget)
                       for f in original)
    try:
        from .certify import is_regular_sequence
        regular = is_regular_sequence(gens, budget)
    except BudgetExceededError:
        regular = None
    return DescentTrace(steps=tuple(steps), final_generators=gens,
                        complete=complete, exhaustive=exhaustive,
                        membership=membership, regular_sequence=regular)


def subalgebra_membership(f: Polynomial, gens: Sequence[Form],
                          budget: Budget | None = None) -> bool:
    """Is f in the subalgebra K[gens]?

    Adjoin one tag variable per generator, form the ideal of relations
    tag_j - G_j, and reduce f under an order eliminating the original
    variables; membership holds exactly when the normal form mentions
    only tags.
    """
    gens = [as_form(g) for g in gens]
    if not gens:
        raise ValueError("need at least one generator")
    f = f.poly if hasattr(f, "poly") else f
    nvars = gens[0].nvars
    field = gens[0].field
    if f.nvars != nvars or f.field != field:
        raise ValueError("polynomial and generators live in different rings")
    total = nvars + len(gens)
    relations = []
    for j, g in enumerate(gens):
        tag = Polynomial.variable(nvars + j, total, field)
        relations.append(tag - g.poly.extended(total))
    gb = groebner_basis(relations, elimination_order(nvars), budget)
    nf = normal_form(f.extended(total), gb, elimination_order(nvars))
    return all(all(e == 0 for e in mono[:nvars]) for mono in nf.terms)
