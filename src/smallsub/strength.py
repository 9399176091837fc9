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
form and the reduced F.  A witness, when found, is lifted to explicit
cofactors by :func:`smallsub.groebner.membership_cofactors` (one
reduction against a basis of the tag-component embedding), which
cross-checks the linear-algebra verdict, and is verified exactly on
construction.  A "no collapse" answer is reported only when the
enumeration finished; running out of budget is a distinguished outcome.
Exhaustive results are tagged as specific to the ground field, while
the Jacobian height bound is stable under field extension.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from math import ceil, comb, inf

from .budget import (Budget, BudgetExceededError, Counter, DEFAULT_BUDGET,
                     InternalError)
from .fields import CoefficientField
from .groebner import Ideal, membership_cofactors
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
    """Nondecreasing tuples in [1, max_degree]^size."""
    def rec(start: int, remaining: int):
        if remaining == 0:
            yield ()
            return
        for d in range(start, max_degree + 1):
            for rest in rec(d, remaining - 1):
                yield (d,) + rest
    yield from rec(1, size)


def _slot_layout(p: int, nslots: int):
    """Packed vectors over F_p: the slot width W and the slot-wise reduction.

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
    """
    w = (p * p).bit_length()
    s = w + p.bit_length()
    mult = (1 << s) // p + 1
    width = s + w
    low = ((1 << w) - 1) * (((1 << width * nslots) - 1) // ((1 << width) - 1))

    def norm(v: int) -> int:
        return v - p * (((v * mult) >> s) & low)

    return width, norm


def _extend_span(span: tuple, vec: int, p: int, width: int, norm) -> tuple | None:
    """The reduced echelon form of S + <vec> when the class vec is the least
    class of that span outside S; None otherwise, and when vec lies in S.

    ``span`` holds the reduced echelon form of S in F_p^m as (pivot, row)
    pairs in pivot order, each row 1 at its pivot; rows and vec are packed
    as in :func:`_slot_layout`, and vec has leading coefficient 1.  The
    classes of S + <vec> outside S are those of the coset v' + S, for v'
    the residual of vec against S, whose lead L is no pivot.  A member
    s + v' leads at min(lead(s), L), so when no pivot precedes L the least
    one is v' itself, normalized.  Otherwise the least leads at the first
    pivot; scaled to 1 there it is r_1 + sum b_k*r_k + mu*v' (r_1 the
    first row), whose slot at each later pivot is b_k, so every b_k is 0,
    and mu != 0 makes slot L least: 0, or 1 where r_1 has 0 there.  The
    cost is O(len(span) * m) whatever p is: no coset member is listed.
    """
    slot = (1 << width) - 1
    res = vec
    for piv, row in span:
        c = res >> piv * width & slot
        if c:
            res = norm(res + (p - c) * row)
    if not res:
        return None
    lead = ((res & -res).bit_length() - 1) // width
    new = norm(res * pow(res >> lead * width & slot, p - 2, p))
    least = new
    if span and span[0][0] < lead:
        first = span[0][1]
        f = first >> lead * width & slot
        least = norm(first + ((p - f) if f else 1) * new)
    if least != vec:
        return None
    rows = [(lead, new)]
    for piv, row in span:
        f = row >> lead * width & slot
        rows.append((piv, norm(row + (p - f) * new) if f else row))
    return tuple(sorted(rows))


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

    Each row is one packed int (:func:`_slot_layout`), column j in slot j,
    so a row operation is v + (p - f)*row followed by one slot-wise
    reduction: every slot stays below p^2 in between, and holds its
    residue mod p after it.  The first column left to eliminate is the
    lowest set bit of v & pivmask, a row's pivot is its lowest set bit,
    and F is in the span when its reduced residual is 0.
    """
    p, nvars, d = target.field.p, target.nvars, target.degree
    counter = Counter("collapse candidates", budget.max_candidates)
    # columns and product rows in lex-descending monomial order: under the
    # ascending order the same eliminations cost more, and the slowest
    # searches of the benchmark's collapse pool take about 8% longer
    columns = {m: j for j, m in enumerate(sorted(monomials(nvars, d), reverse=True))}
    width, norm = _slot_layout(p, len(columns))
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

    def reduce(vec: int) -> int:
        live = vec & pivmask
        while live:
            j = ((live & -live).bit_length() - 1) // width
            vec = norm(vec + (p - (vec >> j * width & slot)) * rows[j])
            # rows[j] is zero before column j and clears it, so only later
            # columns can be live: masking the rest bounds the loop by the
            # column count
            live = vec & pivmask & -(1 << (j + 1) * width)
        return vec

    def add_rows(support, products, residual):
        """Insert the rows m*g of one class; return the residual and new pivots."""
        nonlocal pivmask
        pivots = []
        for shifts in products:
            vec = 0
            for a, c in support:
                vec |= c << shifts[a]
            vec = reduce(vec)
            if not vec:
                continue
            lead = ((vec & -vec).bit_length() - 1) // width
            shift = lead * width
            c = vec >> shift & slot
            if c != 1:
                vec = norm(vec * pow(c, p - 2, p))
            rows[lead] = vec
            pivmask |= slot << shift
            pivots.append(lead)
            f = residual >> shift & slot
            if f:
                residual = norm(residual + (p - f) * vec)
        return residual, pivots

    def walk(profile, pos, start, residual, span):
        nonlocal pivmask
        e = profile[pos]
        monos, count, products, (cwidth, cnorm) = domain(e)
        last = pos == len(profile) - 1
        later = profile[pos + 1:].count(e)
        # leave room for the later positions of the same degree
        for i in range(start, count - later):
            support = _class_support(i, len(monos), p)
            # a block's first class is the least of its own span, and the
            # only class of a one-class block needs no span
            if span or later:
                grown = _extend_span(span, sum(c << a * cwidth for a, c in support),
                                     p, cwidth, cnorm)
                if grown is None:
                    # the tuples below share their block spans with an
                    # earlier tuple, or have a dependent block: all ruled
                    # out already
                    counter.tick(tuples_below(profile, pos, i, later))
                    continue
            if last:
                counter.tick()
            mask = pivmask
            reduced, pivots = add_rows(support, products, residual)
            if last:
                found = None if reduced else []
            elif later:
                found = walk(profile, pos + 1, i + 1, reduced, grown)
            else:
                found = walk(profile, pos + 1, 0, reduced, ())
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
            found = walk(profile, 0, 0, residual, ())
            if found is not None:
                break
        yield found
        if found is not None:
            return


def _lift_witness(target: Form, gens: list[Form],
                  budget: Budget | None) -> CollapseWitness:
    cofactors = membership_cofactors(target, gens, budget=budget)
    if cofactors is None:
        raise InternalError("Groebner lifting rejected a collapse that the "
                            "degree-d membership test accepted")
    pairs = []
    d = target.degree
    for g, c in zip(gens, cofactors):
        h = c.homogeneous_component(d - g.degree)
        if not h.is_zero():
            pairs.append((g, Form(h)))
    return CollapseWitness(target, tuple(pairs))


def find_collapse(target: Polynomial, k: int,
                  budget: Budget | None = None) -> CollapseWitness | None:
    """Search exhaustively for a collapse with at most k pairs.

    Generator tuples of sizes 1..k are tried in a fixed order, and each is
    decided by the degree-d membership test (no Groebner basis per
    candidate).  Returns the witness of the first tuple that works, lifted
    to explicit cofactors, or None only when the whole enumeration
    completed.  Every call counts its own candidates against
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
            return _lift_witness(target, gens, budget)
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
                witness = _lift_witness(target, gens, budget)
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
