"""Strength of forms: exhaustive collapse search and sound bounds.

A *k-collapse* of a form F is an expression F = sum G_i H_i with at
most k pairs of forms of strictly smaller positive degree, equivalently
membership of F in an ideal generated by k such forms.  The *strength*
of F is the least k with a (k+1)-collapse but no k-collapse; nonzero
linear forms have strength +infinity.

Exhaustive search runs over small prime fields only.  It enumerates
candidate generator tuples up to scalar rescaling, in one pass of
ascending size.  Tuples of same-degree generators with equal spans
generate the same ideal, so it generates one tuple per span and never
visits the others (a strength-2 cubic in 4 variables over F3 decides
130 planes, one pair of lines each, and steps through none of the other
650 pairs), each by linear algebra in degree d = deg F: F lies in
(g_1..g_k) exactly when it lies in the span of the products m*g_i with
m of degree d - deg g_i.  Generators have degree at most floor(d/2): a
pair G*H is symmetric, so any collapse G_1*H_1 + ... + G_k*H_k can be
written with the factor of degree at most d/2 of each pair as its
generator.  Tuples sharing a prefix share that prefix's row echelon
form and the reduced F; a linear generator enters by substitution, as
its residual modulo the lines before it, whose product rows need no
elimination.  A witness gets its cofactors from one more
elimination in degree d on the same packed F_p kernel, of the product
rows tagged by (i, m), which cross-checks the verdict, and is verified
exactly on construction.  The tables behind both eliminations (degree-d
columns, product rows, slot layouts) depend only on the shape
(nvars, d, e, p), so each is built once per shape and shared by the
search, the witness and every later call, descent's included; each
cache keeps at most SHAPE_CACHE_BOUND = 64 shapes, the least recently
used dropped first.  A "no collapse" answer is reported only when the
enumeration finished; running out of budget is a distinguished outcome.
Exhaustive results are tagged as specific to the ground field, while
the Jacobian height bound is stable under field extension.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import lru_cache
from itertools import chain, combinations_with_replacement
from math import ceil, comb, inf

from .budget import (Budget, BudgetExceededError, Counter, DEFAULT_BUDGET,
                     InternalError)
from .fields import CoefficientField
from .groebner import Ideal
from .poly import (Form, Monomial, Polynomial, as_form, gradient, grevlex_key,
                   mono_mul, monomials)

#: Hard cap on a single enumeration class (forms of one degree, up to scalar).
ENUMERATION_DOMAIN_CAP = 200_000

#: Shapes kept by each of the collapse search's table caches, the least
#: recently used dropped first: slot layouts by (p, slots), column maps by
#: (nvars, d, p) and product tables by (nvars, d, e, p).  An entry is the
#: size of the tables one search of its shape builds.
SHAPE_CACHE_BOUND = 64


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


def _class_count(nvars: int, degree: int, p: int) -> int:
    """The number of projective classes of nonzero degree-d forms over
    F_p; past ENUMERATION_DOMAIN_CAP it raises instead, before any table
    of the domain is built."""
    count = class_count(comb(nvars + degree - 1, degree), p)
    if count > ENUMERATION_DOMAIN_CAP:
        raise BudgetExceededError("collapse enumeration domain", ENUMERATION_DOMAIN_CAP)
    return count


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


def _degree_profiles(size: int, max_degree: int):
    """Nondecreasing tuples in [1, max_degree]^size, lexicographically."""
    return combinations_with_replacement(range(1, max_degree + 1), size)


@lru_cache(maxsize=SHAPE_CACHE_BOUND)
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


@lru_cache(maxsize=SHAPE_CACHE_BOUND)
def _columns(nvars: int, d: int, p: int) -> tuple[dict[Monomial, int], tuple]:
    """The degree-d columns, monomial -> index, and their slot layout.

    Columns and product rows run in lex-descending monomial order: under
    the ascending order the same eliminations cost more, and the slowest
    searches of the benchmark's collapse pool take about 8% longer.
    """
    columns = {m: j for j, m in enumerate(sorted(monomials(nvars, d), reverse=True))}
    return columns, _slot_layout(p, len(columns))


class _Products:
    """The products of the degree-e monomials with the degree-(d - e)
    multipliers over F_p, each row the slot shifts of its degree-d
    columns, and two memos over them that the searches of this shape
    share: the rows free of a set of lead variables, and the lines.

    A slot's width depends on p alone, so the shifts hold in every layout
    over F_p with the degree-d columns first, the witness solve's too.
    """

    __slots__ = ("monos", "index", "multipliers", "rows", "tags", "layout", "_free",
                 "_lines")

    def __init__(self, nvars: int, d: int, e: int, p: int):
        columns, (width, *_) = _columns(nvars, d, p)
        # degree e, in the class order (grevlex, largest first)
        self.monos = tuple(sorted(monomials(nvars, e), key=grevlex_key, reverse=True))
        self.index = {m: a for a, m in enumerate(self.monos)}
        # degree d - e, lex-descending, and per multiplier u the shift of
        # each u*monos[a]
        self.multipliers = tuple(sorted(monomials(nvars, d - e), reverse=True))
        self.rows = tuple(tuple(columns[mono_mul(u, m)] * width for m in self.monos)
                          for u in self.multipliers)
        # (u, row) with the multipliers grevlex-descending: the witness's tags
        self.tags = tuple(sorted(zip(self.multipliers, self.rows),
                                 key=lambda t: grevlex_key(t[0]), reverse=True))
        self.layout = _slot_layout(p, len(self.monos))  # vectors over monos
        self._free: dict[int, tuple] = {}
        self._lines: dict[tuple[int, int], tuple] = {}

    def free_of(self, fixed: int) -> tuple:
        """The rows whose multiplier is free of the variables in the
        bitmask ``fixed``."""
        if not fixed:
            return self.rows
        if fixed not in self._free:
            pivot_vars = [v for v in range(fixed.bit_length()) if fixed >> v & 1]
            self._free[fixed] = tuple(row for row, u in zip(self.rows, self.multipliers)
                                      if not any(u[v] for v in pivot_vars))
        return self._free[fixed]

    def lines(self, fixed: int, b: int) -> tuple[int, dict[int, tuple]]:
        """For e = 1, the rows m*l' of a linear residual l' led by x_b, for
        m free of the variables in ``fixed``: the mask of their pivot
        slots, and each one's product row by pivot column.  l' is free of
        those variables and 1 at x_b, so row m*l' is 1 at m*x_b, zero
        before it and at every pivot of the linear rows before l'."""
        if (fixed, b) not in self._lines:
            width = self.layout[0]
            slot = (1 << width) - 1
            pivots = {row[b] // width: row for row in self.free_of(fixed)}
            self._lines[fixed, b] = (sum(slot << j * width for j in pivots), pivots)
        return self._lines[fixed, b]


@lru_cache(maxsize=SHAPE_CACHE_BOUND)
def _products(nvars: int, d: int, e: int, p: int) -> _Products:
    """The product table of degree e into degree d over F_p."""
    return _Products(nvars, d, e, p)


def _grow_span(span: tuple, lead: int, new: int, p: int, layout) -> tuple:
    """The reduced echelon form of S + <new>, for ``new`` zero at every
    pivot of S and 1 at its lead slot ``lead``."""
    width, norm = layout[0], layout[1]
    slot = (1 << width) - 1
    shift = lead * width
    rows, mask = span
    grown = {lead: new}
    for piv, row in rows.items():
        f = row >> shift & slot
        grown[piv] = norm(row + (p - f) * new) if f else row
    return grown, mask | slot << shift


def _canonical_classes(span: tuple, m: int, p: int, width: int, start: int, stop: int):
    """The classes of [start, stop) accepted against S, in index order,
    each as (index, residual): residual is the support [(lead, 1), (a, c),
    ...] of v', the class's residual modulo S, lead first.  A class v is
    accepted when it is the least class of S + <v> outside S.

    ``span`` is the reduced echelon form (rows, mask) of S in F_p^m with
    pivots a_1 < ... < a_r, its rows packed in slots of ``width`` bits.
    The classes of S + <v> outside S are those of the coset v' + S, whose
    members s + v' lead at min(lead(s), L), L = lead(v') no pivot.  When
    no pivot precedes L the least is v' itself, normalized.  Otherwise
    the least leads at a_1; scaled to 1 there it is r_1 + sum b_k*r_k +
    mu*v' (r_1 the first row), whose slot at each later pivot is b_k, so
    every b_k is 0, and mu != 0 makes slot L least: 0, or 1 where r_1 has
    0 there.  So each monic v' zero at every pivot, one per class of
    F_p^m / S, gives exactly one accepted class v: v = v' when L < a_1,
    else v = r_1 + c*v' with c = p - f for f != 0 the slot of r_1 at L,
    and c = 1 for f = 0.  The accepted classes thus fall into one family
    per non-pivot lead L, free in the non-pivot slots after L: v = v' for
    L < a_1; for L > a_1, v agrees with r_1 before L, is 0 at L when
    f != 0 and 1 when f = 0, is zero at every pivot after a_1 and free
    elsewhere after L.  A family's
    indices fill no other family's range, and within one family the
    index rises with its free slots read as base-p digits, so each
    family is listed from its first member at or above ``start``, never
    stepping through the indices below it.  An empty span is the
    degenerate case: every class is accepted, as its own residual.
    """
    rows = span[0]
    if not rows:
        # the degenerate case: every class is accepted, as its own residual
        for i in range(start, stop):
            yield i, _class_support(i, m, p)
        return
    slot = (1 << width) - 1
    first = min(rows)
    top = p ** m
    # (base, lead, r, c), v = r + c*v' for each v' led by ``lead``, base
    # the family's least index; in index order: the families below a_1
    # first, then, past a_1, those below r_1's own digit at their lead
    # (f != 0) ascending, then those above it (f = 0) descending
    families = [((top - p ** (m - lead)) // (p - 1), lead, 0, 1) for lead in range(first)]
    r1 = rows[first]
    base = (top - p ** (m - first)) // (p - 1)
    below, above = [], []
    for lead in range(first + 1, m):
        if lead in rows:
            continue
        f = r1 >> lead * width & slot
        if f:
            below.append((base, lead, r1, p - f))
        else:
            above.append((base + p ** (m - 1 - lead), lead, r1, 1))
        base += f * p ** (m - 1 - lead)
    families += below + above[::-1]
    for base, lead, r, c in families:
        if base >= stop:
            return
        if base + p ** (m - 1 - lead) <= start:
            continue  # every index of the family lies below start
        free = [a for a in range(lead + 1, m) if a not in rows]
        steps = [p ** (m - 1 - a) for a in free]
        inv = pow(c, p - 2, p)
        # least significant slot first, with r's digit there
        digits = [(a, step, r >> a * width & slot) for a, step in zip(free, steps)][::-1]
        for x in range(_least_rank(start - base, steps, p), _least_rank(stop - base, steps, p)):
            index, support = base, [(lead, 1)]
            for a, step, ra in digits:
                x, d = divmod(x, p)
                index += d * step
                # the slot of v' where v = r + c*v' has d
                if d != ra:
                    support.append((a, (d - ra) * inv % p))
            yield index, support


def _least_rank(need: int, steps: list[int], p: int) -> int:
    """The least r in [0, p^n] whose base-p digits d_1..d_n, most
    significant first, give sum d_j*steps[j] >= need; every step exceeds
    the most that the digits after it add."""
    n = len(steps)
    if need <= 0:
        return 0
    reach = [0] * (n + 1)
    for j in range(n - 1, -1, -1):
        reach[j] = reach[j + 1] + (p - 1) * steps[j]
    if need > reach[0]:
        return p ** n
    r = 0
    for j, step in enumerate(steps):
        d = max(0, -((reach[j + 1] - need) // step))
        r = r * p + d
        need -= d * step
        if need <= 0:
            return r * p ** (n - 1 - j)
    return r


def _skipped_tuples(count: int, later: int, a: int, b: int) -> int:
    """Tuples of one block under the classes a..b of a position with
    ``later`` positions of the same degree after it, in a space of
    ``count`` classes: the hockey-stick sum of C(count - i - 1, later)."""
    return comb(count - a, later + 1) - comb(count - b - 1, later + 1)


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
    of the classes its block has chosen so far.  Those classes are
    generated, not tested (:func:`_canonical_classes`): one per class of
    the quotient by S, in index order from ``start``.
    Every other class i is skipped with every tuple below it.  A skipped
    tuple has the same block spans, and so the same ideal, as a
    lexicographically earlier tuple of the same profile, which the walk
    has already ruled out; a tuple with a dependent block has the ideal of
    a smaller tuple, which an earlier size has ruled out.  So the first
    hit of each size is the one a walk over every increasing tuple finds.
    The candidate counter still counts that walk's tuples: each run a..b
    of skipped classes ticks in one call the sum over i of the tuples
    below i, K*C(count - i - 1, later) with K the tuples of the later
    degrees, which telescopes (hockey stick) to
    K*(C(count - a, later + 1) - C(count - b - 1, later + 1))
    (:func:`_skipped_tuples`).  K builds the later degrees' domains, so it
    is computed at a position's first skip, where that walk would first
    build them, and every budget outcome, the enumeration-domain cap
    included, is that walk's too.

    A class enters as its residual g' modulo S, which spans the same ideal
    with the prefix.  Its rows are m*g' for the multipliers m free of the
    pivot variables, the lead variables of the linear block's reduced rows
    r_a (of S itself inside that block): if m = x_a*m'', then for any
    generator g, g*x_a*m'' = g*m''*r_a - g*m''*(r_a - x_a), where the first
    term lies in the prefix's rows and r_a - x_a holds no pivot variable,
    so by induction on the pivot-variable factors the dropped rows add
    nothing.  A linear residual l' is monic and free of pivot variables, so
    its rows are 1 at m*x_b (b its lead), zero before it and at every
    pivot so far, since those are the monomials with a pivot variable: the
    residual of F, zero there too, reduces against them alone, each row
    built when its pivot is live.  They enter the echelon, as they are,
    only for the rows of a later degree to reduce against.

    Each row is one packed int, column j in slot j, reduced and made monic
    by the kernel of :func:`_slot_layout`: a row's pivot is its lowest set
    slot, and F is in the span when its reduced residual is 0.  The tables
    behind the rows depend on the shape alone, not on F: the column map
    (:func:`_columns`), each degree's product rows (:func:`_products`),
    those free of the lead variables so far and the substitution lines.
    Each is built once per shape and kept in a cache of at most
    SHAPE_CACHE_BOUND entries, which :func:`_lift_witness` and every later
    search of the same shape read.  The enumeration-domain cap is checked
    by each search before it reads a degree's table, so an oversized
    domain raises every time and is never built.
    """
    p, nvars, d = target.field.p, target.nvars, target.degree
    counter = Counter("collapse candidates", budget.max_candidates)
    columns, (width, norm, reduce, monic) = _columns(nvars, d, p)
    slot = (1 << width) - 1
    rows: dict[int, int] = {}  # pivot column -> row, 1 at the pivot
    pivmask = 0  # the slots of the pivot columns
    domains: dict[int, tuple[int, _Products]] = {}

    def domain(e: int):
        if e not in domains:
            domains[e] = _class_count(nvars, e, p), _products(nvars, d, e, p)
        return domains[e]

    def later_tuples(profile, pos):
        """Tuples of the later blocks' degrees under one class at pos; their
        domains are built only where the walk over every increasing tuple
        would build them."""
        total = 1
        for f in sorted(set(profile[pos + 1:]) - {profile[pos]}):
            if not total:
                break
            total *= comb(domain(f)[0], profile.count(f))
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

    def substitute(vec, support, lines):
        """vec, zero at every pivot of the linear rows so far, reduced by
        the rows m*l' of the residual l' with this support, ``lines`` their
        mask and pivots (:meth:`_Products.lines`): none of those rows is
        stored, each is built when its pivot is live."""
        mask, pivots = lines
        live = vec & mask
        while live:
            j = ((live & -live).bit_length() - 1) // width
            shifts = pivots[j]
            row = 0
            for a, c in support:
                row |= c << shifts[a]
            vec = norm(vec + (p - (vec >> j * width & slot)) * row)
            live = vec & mask & -(1 << (j + 1) * width)
        return vec

    def walk(profile, pos, start, residual, span, fixed):
        """Decide the tuples under the prefix whose rows are in the echelon;
        ``span`` is the block span so far and ``fixed`` the pivot
        variables of the linear block so far, one bit each."""
        nonlocal pivmask
        e = profile[pos]
        count, table = domain(e)
        monos, layout = table.monos, table.layout
        cwidth = layout[0]
        last = pos == len(profile) - 1
        later = profile[pos + 1:].count(e)
        # leave room for the later positions of the same degree
        stop = count - later
        # the rows of a later degree reduce against the lines' rows, so
        # those are stored only then; a line's rows are already reduced
        keep_lines = profile[-1] > 1
        scale = None  # later_tuples, once a class is skipped
        done = start  # the classes below it are decided or ticked
        for i, support in chain(_canonical_classes(span, len(monos), p, cwidth, start, stop),
                                [(stop, None)]):
            if i > done:
                # the classes done..i-1 share their block spans with an
                # earlier tuple, or make a block dependent: every tuple
                # below them is ruled out already
                if scale is None:
                    scale = later_tuples(profile, pos)
                counter.tick(scale * _skipped_tuples(count, later, done, i - 1))
            if support is None:
                return None
            done = i + 1
            if last:
                counter.tick()
            mask = pivmask
            if e == 1 and not keep_lines:
                reduced = substitute(residual, support, table.lines(fixed, support[0][0]))
                pivots = ()
            else:
                pivots = add_rows(support, table.free_of(fixed))
                reduced = reduce(residual, rows, pivmask)
            if last:
                found = None if reduced else []
            else:
                lead = support[0][0]
                linear = fixed | 1 << lead if e == 1 else fixed
                if later:
                    grown = _grow_span(span, lead, sum(c << a * cwidth for a, c in support),
                                       p, layout)
                    found = walk(profile, pos + 1, i + 1, reduced, grown, linear)
                else:
                    found = walk(profile, pos + 1, 0, reduced, ({}, 0), linear)
            for j in pivots:
                del rows[j]
            pivmask = mask
            if found is not None:
                return [_class_form(monos, _class_support(i, len(monos), p), nvars,
                                    target.field)] + found

    residual = sum(c << columns[m] * width for m, c in target.terms.items())
    for size in range(1, max_size + 1):
        found = None
        for profile in _degree_profiles(size, d // 2):
            found = walk(profile, 0, 0, residual, ({}, 0), 0)
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
    -F reduced against every row holds c in its tag slots.  The rows come
    from the search's cached tables: the degree-d columns, and per
    generator degree the product rows with their multipliers in grevlex
    order, so nothing is enumerated or sorted again.
    """
    field, nvars, d = target.field, target.nvars, target.degree
    p = field.p
    columns = _columns(nvars, d, p)[0]
    tables = [_products(nvars, d, g.degree, p) for g in gens]
    width, _, reduce, monic = _slot_layout(p, len(columns) + sum(len(t.tags) for t in tables))
    slot, top = (1 << width) - 1, len(columns) * width  # top: the first tag bit
    rows, mask, tag = {}, 0, 1 << top
    for g, table in zip(gens, tables):
        support = [(table.index[m], c) for m, c in g.terms.items()]
        for _, shifts in table.tags:
            vec = reduce(sum(c << shifts[a] for a, c in support) | tag, rows, mask)
            tag <<= width
            if vec:
                lead, vec = monic(vec)
                rows[lead] = vec
                mask |= slot << lead * width
    rest = reduce(sum((p - c) << columns[m] * width for m, c in target.terms.items()),
                  rows, mask)
    if rest & (1 << top) - 1:
        raise InternalError("the degree-d solve rejected a collapse that the search accepted")
    pairs = []
    rest >>= top
    for g, table in zip(gens, tables):
        h = {}
        for u, _ in table.tags:
            if c := rest & slot:
                h[u] = c
            rest >>= width
        if h:
            pairs.append((g, Form(Polynomial(nvars, field, h))))
    return CollapseWitness(target, tuple(pairs))


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
