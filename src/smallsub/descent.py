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
basis elements, then ``SAMPLE_BUDGET`` random linear combinations, then
every projective class of the piece, in the order of
:func:`smallsub.strength._class_support`, when the piece has at most
``EXHAUST_CAP`` classes.  Each trace step records which regime found it;
a terminal state is marked exhaustive only if the closing sweep covered
all projective classes of every nonzero piece.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Sequence

from .budget import Budget, BudgetExceededError, DEFAULT_BUDGET, InternalError
from .groebner import Ideal, elimination_order, _ambient
from .poly import (DimensionSequence, Form, GradedSpace, Polynomial, as_form,
                   coordinates_in_span)
from .strength import CollapseWitness, _class_support, class_count, find_collapse

#: Random combinations of a piece's basis tried after the basis itself.
SAMPLE_BUDGET = 8
#: Most projective classes the closing sweep lists in one piece; a larger
#: piece is skipped, and the trace is then not exhaustive.
EXHAUST_CAP = 4096


@dataclass(frozen=True)
class ThresholdPolicy:
    """Per-degree strength thresholds k(delta, i) steering the descent.

    kind "constant": one integer for every degree.
    kind "table":    thresholds from a bound table, k = base(i) + 3(n-1).
    kind "maximal":  descend while any collapse at all is found (capped
                     by ``max_k``, default the variable count).
    """

    kind: str
    value: int | None = None
    table: object = None
    max_k: int | None = None

    @classmethod
    def constant(cls, value: int) -> "ThresholdPolicy":
        return cls(kind="constant", value=value)

    @classmethod
    def from_table(cls, table) -> "ThresholdPolicy":
        return cls(kind="table", table=table)

    @classmethod
    def maximal(cls, max_k: int | None = None) -> "ThresholdPolicy":
        return cls(kind="maximal", max_k=max_k)

    def threshold(self, delta: DimensionSequence, i: int) -> int | None:
        """Collapse size to search for in degree i; None means unbounded."""
        if self.kind == "maximal":
            return None
        if self.kind == "constant":
            if self.value < 0:
                raise ValueError("thresholds must be nonnegative")
            return self.value
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
    #: the cap that stopped the search, when it is not complete
    exceeded: BudgetExceededError | None = None


def descend_step(space: GradedSpace, degree: int,
                 witness: CollapseWitness) -> GradedSpace:
    """Replace the witness target inside the degree piece by its factors."""
    target = witness.target
    if target.degree != degree:
        raise ValueError("witness target does not have the requested degree")
    piece = space.piece(degree)
    coords = coordinates_in_span(target, piece)
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


def _combination(piece: Sequence[Form], support) -> Form:
    """The form sum c * piece[j] over (position j, coefficient c) pairs."""
    poly = Polynomial.zero(piece[0].nvars, piece[0].field)
    for j, c in support:
        if c:
            poly = poly + piece[j].scale(c)
    return Form(poly)


def _piece_is_enumerable(piece: Sequence[Form], p: int | None) -> bool:
    """Can the closing sweep list every projective class of the piece?"""
    return p is not None and class_count(len(piece), p) <= EXHAUST_CAP


def _candidates(space: GradedSpace, degree: int, rng: random.Random | None):
    """(regime, candidate) pairs: the basis, random combinations, then
    every projective class of the piece when it is enumerable."""
    piece = space.piece(degree)
    for b in piece:
        yield ("basis", b)
    p = space.field.p
    if rng is not None and p and len(piece) > 1:
        for _ in range(SAMPLE_BUDGET):
            coeffs = [rng.randrange(p) for _ in piece]
            if not any(coeffs):
                coeffs[rng.randrange(len(piece))] = 1
            yield ("sampled", _combination(piece, enumerate(coeffs)))
    if _piece_is_enumerable(piece, p):
        m = len(piece)
        for i in range(class_count(m, p)):
            yield ("exhaustive", _combination(piece, _class_support(i, m, p)))


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
        kcap = t if t is not None else (
            space.nvars if policy.max_k is None else policy.max_k)
        seen: set[Form] = set()
        for regime, candidate in _candidates(space, degree, rng):
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
    trace flagged incomplete, with the error it caught, instead of raising.
    """
    if space.field.p is None:
        raise ValueError("descent search needs a finite prime field")
    budget = budget or DEFAULT_BUDGET
    original = list(space.basis)
    steps: list[DescentStep] = []
    current = space
    exceeded = None
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
    except BudgetExceededError as exc:
        exceeded = exc
    complete = exceeded is None
    exhaustive = complete and all(
        _piece_is_enumerable(current.piece(d), current.field.p)
        for d in range(2, len(current.dimension_sequence) + 1)
        if current.dimension_sequence[d - 1] > 0)
    gens = tuple(current.basis)
    membership = _memberships(original, gens, budget)
    try:
        from .certify import is_regular_sequence
        regular = is_regular_sequence(gens, budget)
    except BudgetExceededError:
        regular = None
    return DescentTrace(steps=tuple(steps), final_generators=gens,
                        complete=complete, exhaustive=exhaustive,
                        membership=membership, regular_sequence=regular,
                        exceeded=exceeded)


def subalgebra_membership(f: Polynomial, gens: Sequence[Form],
                          budget: Budget | None = None) -> bool:
    """Is f in the subalgebra K[gens]?

    Adjoin one tag variable per generator, form the ideal of relations
    tag_j - G_j, and reduce f under an order eliminating the original
    variables; membership holds exactly when the normal form mentions
    only tags.
    """
    return _memberships([f], gens, budget)[0]


def _memberships(fs: Sequence[Polynomial], gens: Sequence[Form],
                 budget: Budget | None) -> tuple[bool, ...]:
    """:func:`subalgebra_membership` of each f, off one elimination basis."""
    gens = [as_form(g) for g in gens]
    nvars, field = _ambient(gens)
    total = nvars + len(gens)
    relations = Ideal([Polynomial.variable(nvars + j, total, field) - g.extended(total)
                       for j, g in enumerate(gens)])
    order = elimination_order(nvars)
    out = []
    for f in fs:
        if f.nvars != nvars or f.field != field:
            raise ValueError("polynomial and generators live in different rings")
        nf = relations.normal_form(f.extended(total), order, budget)
        out.append(all(all(e == 0 for e in mono[:nvars]) for mono in nf.terms))
    return tuple(out)
