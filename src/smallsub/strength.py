"""Strength of forms: exhaustive collapse search and sound bounds.

A *k-collapse* of a form F is an expression F = sum G_i H_i with at
most k pairs of forms of strictly smaller positive degree, equivalently
membership of F in an ideal generated by k such forms.  The *strength*
of F is the least k with a (k+1)-collapse but no k-collapse; nonzero
linear forms have strength +infinity.

Exhaustive search runs over small prime fields only.  It enumerates
candidate generator tuples up to scalar rescaling, in one pass of
ascending size.  Tuples of same-degree generators with equal spans
generate the same ideal, so it decides one tuple per span (a strength-2
cubic in 4 variables over F3 decides 130 planes, not 780 pairs of
lines), each by linear algebra in degree d = deg F: F lies in
(g_1..g_k) exactly when it lies in the span of the products m*g_i with
m of degree d - deg g_i.  Generators have degree at most floor(d/2): a
pair G*H is symmetric, so any collapse G_1*H_1 + ... + G_k*H_k can be
written with the factor of degree at most d/2 of each pair as its
generator.  Tuples sharing a prefix share that prefix's row echelon
form and the reduced F.  A witness gets its cofactors from one more
elimination in degree d on the same packed F_p kernel, of the product
rows tagged by (i, m), which cross-checks the verdict, and is verified
exactly on construction.  A "no collapse" answer is reported only when the
enumeration finished; running out of budget is a distinguished outcome.
Exhaustive results are tagged as specific to the ground field, while
the Jacobian height bound is stable under field extension.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from itertools import combinations_with_replacement
from math import ceil, comb, inf

from .budget import (Budget, BudgetExceededError, Counter, DEFAULT_BUDGET,
                     InternalError)
from .fields import CoefficientField
from .groebner import Ideal
from .poly import (Form, Monomial, Polynomial, as_form, gradient, grevlex_key,
                   mono_mul, monomials)

#: Hard cap on a single enumeration class (forms of one degree, up to scalar).
ENUMERATION_DOMAIN_CAP = 200_000


@dataclass(frozen=True)
class CollapseWitness:
    """An exact equation F = sum G_i H_i with lower-degree factors."""

    target: Form
    pairs: tuple[tuple[Form, Form], ...]

    def __post_init__(self):
        d = self.target.degree
        total = Polynomial.zero(self.target.nvars, self.target.field)
        for g, h in self.pairs:
            if not (1 <= g.degree < d and 1 <= h.degree < d):
                raise ValueError("witness factors must have smaller positive degree")
            total = total + g * h
        if total != self.target:
            raise ValueError("witness equation does not reproduce the target form")

    @property
    def k(self) -> int:
        return len(self.pairs)


@dataclass(frozen=True)
class StrengthReport:
    """Strength bounds for one form; +infinity is represented by math.inf.

    ``lower``/``exact`` from exhaustive search hold over the ground field
    only (``field_caveat``); the witness behind ``upper`` and the optional
    ``jacobian_lower`` stay valid over every field extension.
    """

    lower: int | float
    upper: int | float
    exact: int | float | None = None
    field_caveat: bool = False
    witness: CollapseWitness | None = None
    jacobian_lower: int | float | None = None
    exhausted: bool = False

    def __post_init__(self):
        if self.lower > self.upper:
            raise ValueError("lower bound exceeds upper bound")
        if self.exact is not None and not (self.lower == self.upper == self.exact):
            raise ValueError("an exact value forces lower = upper = exact")


def class_count(m: int, p: int) -> int:
    """Number of projective classes of nonzero vectors in F_p^m."""
    return (p ** m - 1) // (p - 1)


def _class_domain(nvars: int, degree: int, p: int) -> tuple[list[Monomial], int]:
    """Degree-d monomials (grevlex, largest first) and the number of
    projective classes of nonzero degree-d forms over F_p."""
    monos = sorted(monomials(nvars, degree), key=grevlex_key, reverse=True)
    count = class_count(len(monos), p)
    if count > ENUMERATION_DOMAIN_CAP:
        raise BudgetExceededError("collapse enumeration domain", ENUMERATION_DOMAIN_CAP)
    return monos, count


def _class_support(index: int, m: int, p: int) -> list[tuple[int, int]]:
    """(position, coefficient) pairs of the index-th class in F_p^m.

    Classes are ordered by the position of their leading coefficient 1,
    then by the tail of coefficients after it, lexicographically (the
    first tail position most significant).  This is the one class order:
    the collapse search indexes monomials with it, and descent's closing
    sweep indexes the basis of a degree piece.
    """
    lead, block = 0, p ** (m - 1)
    while index >= block:
        index -= block
        lead += 1
        block //= p
    tail = []
    for pos in range(m - 1, lead, -1):
        index, c = divmod(index, p)
        if c:
            tail.append((pos, c))
    return [(lead, 1)] + tail[::-1]


def _class_form(monos: list[Monomial], support: list[tuple[int, int]],
                nvars: int, field: CoefficientField) -> Form:
    return Form(Polynomial(nvars, field, {monos[a]: c for a, c in support}))


def enumerate_forms(nvars: int, degree: int, field: CoefficientField):
    """Iterate the projective classes of degree-d forms over a prime field."""
    if field.p is None:
        raise ValueError("exhaustive enumeration needs a finite prime field")
    monos, count = _class_domain(nvars, degree, field.p)
    return (_class_form(monos, _class_support(i, len(monos), field.p), nvars, field)
            for i in range(count))


def _degree_profiles(size: int, max_degree: int):
    """Nondecreasing tuples in [1, max_degree]^size, lexicographically."""
    return combinations_with_replacement(range(1, max_degree + 1), size)


def _slot_layout(p: int, nslots: int):
    """Packed vectors over F_p: the slot width W and the kernel around it.

    A vector in F_p^nslots is one int with coordinate j in bits
    [j*W, (j+1)*W).  ``norm`` reduces every slot holding a value below p^2
    to its residue mod p at once, by Barrett reduction: with
    w = bitlen(p^2), s = w + bitlen(p) and mult = floor(2^s/p) + 1, the
    quotient of a slot value x is floor(x*mult / 2^s).  It is exact for
    x < 2^w, because the error x*(mult - 2^s/p) stays below 2^w < 2^s/p
    and so never carries x/p past the next integer.  Since x*mult <
    2^(s+w), a slot of W = s + w bits holds its own product: one
    multiplication forms the products of all slots with no carries
    between them, and each quotient is bits [s, s+w) of its slot's
    product, which ``low`` picks out after the shift.  A narrower slot
    lets the next slot's product bits into that window.

    An echelon form maps each pivot slot to a row that is zero before it
    and 1 at it; ``reduce(vec, rows, mask)``, mask covering the pivot
    slots, clears vec at every pivot by row operations vec + (p - f)*row,
    each slot below p^2 until one ``norm``.  ``monic(vec)`` gives the lead
    (lowest) slot of a nonzero vec and vec scaled to 1 there.
    """
    w = (p * p).bit_length()
    s = w + p.bit_length()
    mult = (1 << s) // p + 1
    width = s + w
    slot = (1 << width) - 1
    low = ((1 << w) - 1) * (((1 << width * nslots) - 1) // slot)

    def norm(v: int) -> int:
        return v - p * (((v * mult) >> s) & low)

    def reduce(vec: int, rows: dict[int, int], mask: int) -> int:
        live = vec & mask
        while live:
            j = ((live & -live).bit_length() - 1) // width
            vec = norm(vec + (p - (vec >> j * width & slot)) * rows[j])
            # rows[j] is zero before slot j and clears it, so only later
            # pivots can be live: masking the rest bounds the loop by the
            # pivot count
            live = vec & mask & -(1 << (j + 1) * width)
        return vec

    def monic(vec: int) -> tuple[int, int]:
        lead = ((vec & -vec).bit_length() - 1) // width
        c = vec >> lead * width & slot
        return lead, vec if c == 1 else norm(vec * pow(c, p - 2, p))

    return width, norm, reduce, monic


def _extend_span(span: tuple, vec: int, p: int, layout) -> tuple | None:
    """The reduced echelon form of S + <vec> when the class vec is the least
    class of that span outside S; None otherwise, and when vec lies in S.

    ``span`` is the reduced echelon form (rows, mask) of S in F_p^m, and
    ``layout`` the kernel of :func:`_slot_layout` for F_p^m; vec is packed
    and has leading coefficient 1.  The classes of S + <vec> outside S are
    those of the coset v' + S, for v' the residual of vec against S, whose
    lead L is no pivot.  A member s + v' leads at min(lead(s), L), so when
    no pivot precedes L the least one is v' itself, normalized.  Otherwise
    the least leads at the first pivot; scaled to 1 there it is
    r_1 + sum b_k*r_k + mu*v' (r_1 the first row), whose slot at each later
    pivot is b_k, so every b_k is 0, and mu != 0 makes slot L least: 0, or
    1 where r_1 has 0 there.  The cost is O(dim S * m) whatever p is: no
    coset member is listed.
    """
    width, norm, reduce, monic = layout
    slot = (1 << width) - 1
    rows, mask = span
    res = reduce(vec, rows, mask)
    if not res:
        return None
    lead, new = monic(res)
    shift = lead * width
    least = new
    if mask & ((1 << shift) - 1):
        first = rows[((mask & -mask).bit_length() - 1) // width]
        f = first >> shift & slot
        least = norm(first + ((p - f) if f else 1) * new)
    if least != vec:
        return None
    grown = {lead: new}
    for piv, row in rows.items():
        f = row >> shift & slot
        grown[piv] = norm(row + (p - f) * new) if f else row
    return grown, mask | slot << shift


def _collapse_search(target: Form, max_size: int, budget: Budget):
    """For each size 1..max_size in turn, yield the first generator tuple of
    that size whose ideal contains the target, or None once every tuple of
    that size is ruled out.

    Tuples run over degree profiles, and within one degree over increasing
    class indices.  A profile is a nondecreasing tuple of degrees in
    [1, floor(d/2)], and this bound loses no collapse and changes no first
    witness.  Swapping G and H in the pairs of a collapse with
    deg G > d/2 maps its profile (e_1..e_k) to the sorted profile of the
    min(e_i, d - e_i), which is lexicographically smaller; a swap that
    leaves a zero or a repeated generator gives a smaller tuple, which an
    earlier size has already ruled out.  So a search over every profile
    in [1, d - 1] meets its first hit of each size in an all-small
    profile, and the profiles walked here are exactly those, in the same
    order and with the same tuples inside.

    A tuple (g_1..g_k) is decided in degree d = deg F:
    F lies in (g_1..g_k) exactly when it lies in the span of the products
    m*g_i, m a monomial of degree d - deg g_i.  Those rows are kept in
    echelon form (each row's first nonzero column is its pivot, scaled to
    1) along a depth-first walk over tuple prefixes, together with F
    reduced at every pivot, so a prefix's rows are reduced once for all
    tuples extending it.

    The walk decides one tuple per chain of block spans, a block being a
    run of equal degrees in the profile: class i is decided at a position
    only when it is the least class of S + <g_i> outside S, for S the span
    of the classes its block has chosen so far (:func:`_extend_span`).
    Otherwise i and every tuple below it are skipped.  A skipped tuple has
    the same block spans, and so the same ideal, as a lexicographically
    earlier tuple of the same profile, which the walk has already ruled
    out; a tuple with a dependent block has the ideal of a smaller tuple,
    which an earlier size has ruled out.  So the first hit of each size is
    the one a walk over every increasing tuple finds.  The candidate
    counter still counts that walk's tuples, one tick each: a skip ticks
    all the tuples below it in one call, so every budget outcome is that
    walk's too.

    Each row is one packed int, column j in slot j, reduced and made monic
    by the kernel of :func:`_slot_layout`: a row's pivot is its lowest set
    slot, and F is in the span when its reduced residual is 0.
    """
    p, nvars, d = target.field.p, target.nvars, target.degree
    counter = Counter("collapse candidates", budget.max_candidates)
    # columns and product rows in lex-descending monomial order: under the
    # ascending order the same eliminations cost more, and the slowest
    # searches of the benchmark's collapse pool take about 8% longer
    columns = {m: j for j, m in enumerate(sorted(monomials(nvars, d), reverse=True))}
    width, _, reduce, monic = _slot_layout(p, len(columns))
    slot = (1 << width) - 1
    rows: dict[int, int] = {}  # pivot column -> row, 1 at the pivot
    pivmask = 0  # the slots of the pivot columns
    domains: dict[int, tuple] = {}

    def domain(e: int):
        if e not in domains:
            monos, count = _class_domain(nvars, e, p)
            products = [[columns[mono_mul(u, m)] * width for m in monos]
                        for u in sorted(monomials(nvars, d - e), reverse=True)]
            domains[e] = (monos, count, products, _slot_layout(p, len(monos)))
        return domains[e]

    def tuples_below(profile, pos, i, later):
        """Last-position tuples the walk over every increasing tuple visits
        under class i at position pos, with ``later`` positions of the same
        degree after it; a later degree's domain is built only where that
        walk would build it."""
        e = profile[pos]
        total = comb(domain(e)[1] - i - 1, later)
        for f in sorted(set(profile[pos + 1:]) - {e}):
            if not total:
                break
            total *= comb(domain(f)[1], profile.count(f))
        return total

    def add_rows(support, products):
        """Insert the rows m*g of one class; return their pivots."""
        nonlocal pivmask
        pivots = []
        for shifts in products:
            vec = 0
            for a, c in support:
                vec |= c << shifts[a]
            vec = reduce(vec, rows, pivmask)
            if vec:
                lead, vec = monic(vec)
                rows[lead] = vec
                pivmask |= slot << lead * width
                pivots.append(lead)
        return pivots

    def walk(profile, pos, start, residual, span):
        nonlocal pivmask
        e = profile[pos]
        monos, count, products, layout = domain(e)
        cwidth = layout[0]
        last = pos == len(profile) - 1
        later = profile[pos + 1:].count(e)
        # leave room for the later positions of the same degree
        for i in range(start, count - later):
            support = _class_support(i, len(monos), p)
            # a block's first class is the least of its own span, and the
            # only class of a one-class block needs no span
            if span[1] or later:
                grown = _extend_span(span, sum(c << a * cwidth for a, c in support),
                                     p, layout)
                if grown is None:
                    # the tuples below share their block spans with an
                    # earlier tuple, or have a dependent block: all ruled
                    # out already
                    counter.tick(tuples_below(profile, pos, i, later))
                    continue
            if last:
                counter.tick()
            mask = pivmask
            pivots = add_rows(support, products)
            reduced = reduce(residual, rows, pivmask)
            if last:
                found = None if reduced else []
            elif later:
                found = walk(profile, pos + 1, i + 1, reduced, grown)
            else:
                found = walk(profile, pos + 1, 0, reduced, ({}, 0))
            for j in pivots:
                del rows[j]
            pivmask = mask
            if found is not None:
                return [_class_form(monos, support, nvars, target.field)] + found
        return None

    residual = sum(c << columns[m] * width for m, c in target.terms.items())
    for size in range(1, max_size + 1):
        found = None
        for profile in _degree_profiles(size, d // 2):
            found = walk(profile, 0, 0, residual, ({}, 0))
            if found is not None:
                break
        yield found
        if found is not None:
            return


def _lift_witness(target: Form, gens: list[Form]) -> CollapseWitness:
    """The witness of a tuple the search accepted, solved in degree d.

    Its cofactors are those of :func:`smallsub.groebner.membership_cofactors`:
    the unique c with sum c_i g_i = F and no term in LT(Syz), the syzygies'
    leading terms under e_1 > e_2 > ..., then grevlex (Cox, Little and
    O'Shea, *Ideals, Varieties, and Algorithms*, Ch. 2 Sec. 6, Prop. 1).
    In degree d those are the pivots of the syzygy rows below, as tag slots
    run in that order.  Row u*g_i holds its degree-d columns and a 1 in the
    tag slot of (i, u); a row whose columns eliminate away is a syzygy, and
    -F reduced against every row holds c in its tag slots.
    """
    field, nvars, d = target.field, target.nvars, target.degree
    columns = {m: j for j, m in enumerate(sorted(monomials(nvars, d), reverse=True))}
    tags = [(i, u) for i, g in enumerate(gens)
            for u in sorted(monomials(nvars, d - g.degree), key=grevlex_key, reverse=True)]
    width, _, reduce, monic = _slot_layout(field.p, len(columns) + len(tags))
    slot, top = (1 << width) - 1, len(columns) * width  # top: the first tag bit
    rows, mask = {}, 0
    for t, (i, u) in enumerate(tags):
        vec = sum(c << columns[mono_mul(u, m)] * width for m, c in gens[i].terms.items())
        vec = reduce(vec | 1 << top + t * width, rows, mask)
        if vec:
            lead, vec = monic(vec)
            rows[lead] = vec
            mask |= slot << lead * width
    rest = reduce(sum((field.p - c) << columns[m] * width for m, c in target.terms.items()),
                  rows, mask)
    if rest & (1 << top) - 1:
        raise InternalError("the degree-d solve rejected a collapse that the search accepted")
    terms: list[dict] = [{} for _ in gens]
    for t, (i, u) in enumerate(tags):
        if c := rest >> top + t * width & slot:
            terms[i][u] = c
    return CollapseWitness(target, tuple((g, Form(Polynomial(nvars, field, h)))
                                         for g, h in zip(gens, terms) if h))


def find_collapse(target: Polynomial, k: int,
                  budget: Budget | None = None) -> CollapseWitness | None:
    """Search exhaustively for a collapse with at most k pairs.

    Generator tuples of sizes 1..k are tried in a fixed order, and each is
    decided by the degree-d membership test (no Groebner basis per
    candidate).  Returns the witness of the first tuple that works, its
    cofactors solved in degree d (:func:`_lift_witness`), or None only
    when the whole enumeration completed.  Every call counts its own candidates against
    ``budget.max_candidates``.
    """
    target = as_form(target)
    budget = budget or DEFAULT_BUDGET
    if k < 0:
        raise ValueError("k must be nonnegative")
    if k == 0 or target.degree == 1:
        return None
    if target.field.p is None:
        raise ValueError("exhaustive collapse search needs a finite prime field")
    for gens in _collapse_search(target, k, budget):
        if gens is not None:
            return _lift_witness(target, gens)
    return None


def strength_exact(target: Polynomial, budget: Budget | None = None,
                   max_k: int | None = None) -> StrengthReport:
    """Exact strength by exhaustive search over a small prime field.

    One pass ascends through collapse sizes 1, 2, ... (up to ``max_k``,
    default the variable count) and tests each tuple once, under one
    candidate counter, so it stops where ``find_collapse(size)`` for the
    largest size reached would stop.  Linear forms report +infinity.  If
    the budget runs out, the report degrades honestly to the interval
    established so far.
    """
    target = as_form(target)
    budget = budget or DEFAULT_BUDGET
    if max_k is not None and max_k < 0:
        raise ValueError("max_k must be nonnegative")
    if target.degree == 1:
        return StrengthReport(lower=inf, upper=inf, exact=inf)
    if target.field.p is None:
        raise ValueError("exact strength needs a finite prime field")
    cap = max_k if max_k is not None else target.nvars
    completed = 0
    try:
        for gens in _collapse_search(target, cap, budget):
            if gens is not None:
                witness = _lift_witness(target, gens)
                value = witness.k - 1
                return StrengthReport(lower=value, upper=value, exact=value,
                                      field_caveat=value > 0, witness=witness)
            completed += 1
    except BudgetExceededError:
        # sizes <= completed were ruled out exhaustively
        return StrengthReport(lower=completed, upper=inf,
                              field_caveat=completed > 0, exhausted=True)
    return StrengthReport(lower=completed, upper=inf, field_caveat=completed > 0)


def strength_lower_bound(target: Polynomial,
                         budget: Budget | None = None) -> int | float:
    """Extension-stable lower bound: ceil(h/2) - 1 for h the height of the
    ideal generated by F together with its partial derivatives."""
    target = as_form(target)
    gens = [target] + [g for g in gradient(target) if not g.is_zero()]
    h = Ideal(gens, target.nvars, target.field).height(budget)
    if h == inf:
        return inf
    return ceil(h / 2) - 1


def full_report(target: Polynomial, budget: Budget | None = None,
                max_k: int | None = None) -> StrengthReport:
    """Exhaustive result combined with the Jacobian certificate."""
    report = strength_exact(target, budget, max_k)
    jac = strength_lower_bound(target, budget)
    return replace(report, jacobian_lower=jac)
