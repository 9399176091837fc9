"""Buchberger engine and the classical ideal calculus.

One engine serves ideals and submodules of free modules: an element is
a dict mapping module terms ``(component, exponent-tuple)`` to nonzero
raw coefficients, and an ideal element simply lives in component 0.
Orders are key-based: a term order supplies a sort key for ring
monomials and is extended position-over-term to modules; Schreyer keys
for resolutions are built on top of these (see :mod:`smallsub.modules`).

Division runs on packed terms.  A prepared divisor (:func:`_prep`) and
the live terms of a reduction hold each term as one int, with a field of
EXPONENT_BITS bits plus a guard bit per variable and the component
above them, so a product is one add and a divisibility test one masked
subtract.  The reduction keeps its live terms in a max-heap in the style
of Monagan and Pearce ("Sparse polynomial division using a heap", JSC
2011), so each term's order key is computed once, when it enters.  An
exponent above MAX_EXPONENT, in the input or in a product, raises
:class:`BudgetExceededError`; a field never wraps into its neighbour.

The pair loop uses the normal selection strategy (smallest lcm first)
with the coprimality criterion (ideal case only) and the treated-pair
chain criterion.  All runs are budgeted: exceeding the configured pair
or degree cap raises, it never degrades into a wrong answer.
"""

from __future__ import annotations

import heapq
from functools import lru_cache
from itertools import combinations
from math import inf
from operator import add, lshift, sub
from typing import Callable, Iterable, Sequence

from .budget import Budget, BudgetExceededError, Counter, DEFAULT_BUDGET
from .fields import CoefficientField
from .poly import Monomial, Polynomial, grevlex_key, mono_degree

try:  # public from Python 3.14
    from heapq import heapify_max as _heapify_max, heappop_max as _heappop_max, \
        heappush_max as _heappush_max
except ImportError:
    from heapq import _heapify_max, _heappop_max, _siftdown_max

    def _heappush_max(heap: list, item):
        heap.append(item)
        _siftdown_max(heap, 0, len(heap) - 1)

Term = tuple[int, Monomial]
VecDict = dict[Term, object]


class TermOrder:
    """A monomial order on ring monomials: grevlex, lex, or a block
    elimination order that eliminates the first ``elim`` variables."""

    __slots__ = ("kind", "elim")

    def __init__(self, kind: str = "grevlex", elim: int = 0):
        if kind not in ("grevlex", "lex", "elim"):
            raise ValueError(f"unknown order kind {kind!r}")
        if kind == "elim" and elim < 1:
            raise ValueError("elimination order needs a positive block size")
        self.kind = kind
        self.elim = elim

    def key(self, mono: Monomial):
        if self.kind == "grevlex":
            return grevlex_key(mono)
        if self.kind == "lex":
            return mono
        k = self.elim
        return (grevlex_key(mono[:k]), grevlex_key(mono[k:]))

    def signature(self):
        return (self.kind, self.elim)

    def __repr__(self):
        if self.kind == "elim":
            return f"elim({self.elim})"
        return self.kind


GREVLEX = TermOrder("grevlex")
LEX = TermOrder("lex")


def elimination_order(k: int) -> TermOrder:
    return TermOrder("elim", k)


def pot_key(order: TermOrder) -> Callable[[Term], object]:
    """Position-over-term extension: e_0 > e_1 > ..., ties by the ring order."""
    ring_key = order.key

    def key(term: Term):
        comp, mono = term
        return (-comp, ring_key(mono))

    return key


# ----- packed terms -----
#
# Over n variables, variable i has a field of EXPONENT_BITS value bits
# and one guard bit at shift _FIELD*(n-1-i); the component sits above the
# n fields.  lt divides t exactly when bias - lt + t has no guard bit and
# a zero component field: the lowest failing field borrows into its own
# guard bit, and the bias bit above the component keeps the difference
# nonnegative.

#: Value bits of a packed exponent; a larger exponent raises
#: BudgetExceededError("monomial exponent", MAX_EXPONENT).
EXPONENT_BITS = 15
MAX_EXPONENT = (1 << EXPONENT_BITS) - 1
_FIELD = EXPONENT_BITS + 1
_COMP_BITS = 32
_MAX_COMPONENT = (1 << _COMP_BITS) - 1


class _Layout:
    """Shifts and masks of the packed terms over ``n`` variables."""

    __slots__ = ("shifts", "comp_shift", "guard", "mask", "bias")

    def __init__(self, n: int):
        self.shifts = tuple(_FIELD * (n - 1 - i) for i in range(n))
        self.comp_shift = _FIELD * n
        self.guard = sum(1 << (s + EXPONENT_BITS) for s in self.shifts)
        self.mask = self.guard | (_MAX_COMPONENT << self.comp_shift)
        self.bias = 1 << (self.comp_shift + _COMP_BITS)

    def pack(self, term: Term) -> int:
        comp, mono = term
        if mono and max(mono) > MAX_EXPONENT:
            raise BudgetExceededError("monomial exponent", MAX_EXPONENT)
        if comp > _MAX_COMPONENT:
            raise BudgetExceededError("module component", _MAX_COMPONENT)
        return (comp << self.comp_shift) + sum(map(lshift, mono, self.shifts))


@lru_cache(maxsize=64)
def _layout(nvars: int) -> _Layout:
    return _Layout(nvars)


# ----- raw engine -----


def _scale_vec(vec: VecDict, factor, p) -> VecDict:
    if p:
        return {t: c * factor % p for t, c in vec.items()}
    return {t: c * factor for t, c in vec.items()}


def _sub_scaled_tail(work: VecDict, tail, umono: Monomial, factor, p):
    """work -= factor * x^umono * tail, in place."""
    for (comp, mono), c in tail:
        t = (comp, tuple(map(add, mono, umono)))
        v = work.get(t, 0) - factor * c
        if p:
            v %= p
        if v:
            work[t] = v
        elif t in work:
            del work[t]


def normal_form_vec(vec: VecDict, basis: Sequence[tuple], keyf, p,
                    track: bool = False):
    """Full normal form against monic divisors prepared by :func:`_prep`.

    The first divisor in ``basis`` that divides the leading term reduces
    it.  Live terms are packed ints in a dict and their keys sit in a
    max-heap: each key is computed once, when its term enters, and a term
    that cancels while queued is skipped when it comes off.  Returns the
    remainder, plus ``(index, mono, coeff)`` reduction records when
    tracking.
    """
    rem: VecDict = {}
    records = [] if track else None
    if vec:
        layout = _layout(len(next(iter(vec))[1]))
        pack, guard, mask, bias = layout.pack, layout.guard, layout.mask, layout.bias
        negs = [d[0] for d in basis]
        work = {}
        get = work.get
        heap = []
        for term, c in vec.items():
            t = pack(term)
            work[t] = c
            heap.append((keyf(term), t, term))
        _heapify_max(heap)
        while heap:
            _, t, term = _heappop_max(heap)
            c = work.pop(t)
            if not c:
                continue
            for hit, neg in enumerate(negs):
                if not (t + neg) & mask:
                    break
            else:
                rem[term] = c
                continue
            _, (_, ltm), tail = basis[hit]
            u = t + neg - bias
            umono = tuple(map(sub, term[1], ltm))
            if track:
                records.append((hit, umono, c))
            for s, tterm, tc in tail:
                s += u
                v = get(s)
                if v is None:
                    if s & guard:
                        raise BudgetExceededError("monomial exponent", MAX_EXPONENT)
                    new = (tterm[0], tuple(map(add, tterm[1], umono)))
                    _heappush_max(heap, (keyf(new), s, new))
                    v = 0
                v -= c * tc
                work[s] = v % p if p else v
    return (rem, records) if track else rem


def _prep(vec: VecDict, keyf):
    """A monic divisor as ``(bias - packed lt, lt, tail)``, each tail term
    as ``(packed, term, coeff)``."""
    lt = max(vec, key=keyf)
    layout = _layout(len(lt[1]))
    pack = layout.pack
    tail = [(pack(t), t, c) for t, c in vec.items() if t != lt]
    return (layout.bias - pack(lt), lt, tail)


def _make_monic(vec: VecDict, keyf, p, field: CoefficientField) -> tuple[VecDict, object]:
    lt = max(vec, key=keyf)
    lc = vec[lt]
    if lc == field.one:
        return vec, field.one
    inv = field.inv(lc)
    return _scale_vec(vec, inv, p), inv


def buchberger(vectors: Sequence[VecDict], keyf, field: CoefficientField,
               budget: Budget | None = None, rank1: bool = False,
               track: bool = False, stats: dict | None = None):
    """Compute a (non-reduced) monic Groebner basis of the span.

    With ``track=True`` also returns, for each basis element, its
    expression over the input vectors as a VecDict keyed by input index.
    A ``stats`` dict, when given, receives pair/reduction counters.
    """
    budget = budget or DEFAULT_BUDGET
    p = field.p
    pair_counter = Counter("groebner pairs", budget.max_pairs)
    basis: list[VecDict] = []
    prepped: list[tuple] = []
    negs: list[int] = []  # bias - packed leading term, per basis element
    exprs: list[VecDict] = []
    heap: list = []
    treated: set[frozenset] = set()
    zero_mono: Monomial | None = None

    def push_pairs(new_idx: int):
        _, (ltc, ltm), _ = prepped[new_idx]
        for j in range(new_idx):
            _, (jc, jm), _ = prepped[j]
            if jc != ltc:
                continue
            lcm = tuple(map(max, ltm, jm))
            heapq.heappush(heap, (keyf((ltc, lcm)), lcm, j, new_idx))

    def add(vec: VecDict, expr: VecDict | None):
        vec, inv = _make_monic(vec, keyf, p, field)
        basis.append(vec)
        prepped.append(_prep(vec, keyf))
        negs.append(prepped[-1][0])
        if track:
            exprs.append(_scale_vec(expr, inv, p) if inv != field.one else expr)
        push_pairs(len(basis) - 1)

    for i, vec in enumerate(vectors):
        if not vec:
            continue
        if zero_mono is None:
            zero_mono = (0,) * len(next(iter(vec))[1])
            layout = _layout(len(zero_mono))
        expr = {(i, zero_mono): field.one} if track else None
        if track:
            rem, records = normal_form_vec(vec, prepped, keyf, p, track=True)
            for idx, umono, factor in records:
                _sub_scaled_tail(expr, list(exprs[idx].items()), umono, factor, p)
        else:
            rem = normal_form_vec(vec, prepped, keyf, p)
        if rem:
            add(rem, expr)

    while heap:
        _, lcm, i, j = heapq.heappop(heap)
        pair = frozenset((i, j))
        if pair in treated:
            continue
        treated.add(pair)
        if budget.max_degree is not None and mono_degree(lcm) > budget.max_degree:
            raise BudgetExceededError("groebner lcm degree", budget.max_degree)
        pair_counter.tick()
        _, (ic, im), _ = prepped[i]
        _, (jc, jm), _ = prepped[j]
        packed_lcm = layout.pack((ic, lcm))
        if rank1 and 2 * layout.bias - negs[i] - negs[j] == packed_lcm:
            continue  # lt_i * lt_j == lcm: coprime, the S-pair reduces to zero
        # chain criterion: some lt_k divides the lcm, both pairs with k treated
        mask = layout.mask
        if any(not (packed_lcm + neg) & mask and k != i and k != j
               and frozenset((i, k)) in treated and frozenset((k, j)) in treated
               for k, neg in enumerate(negs)):
            continue
        ui = tuple(map(sub, lcm, im))
        uj = tuple(map(sub, lcm, jm))
        spair: VecDict = {}
        _sub_scaled_tail(spair, list(basis[i].items()), ui,
                         field.neg(field.one), p)
        _sub_scaled_tail(spair, list(basis[j].items()), uj, field.one, p)
        if track:
            expr: VecDict = {}
            _sub_scaled_tail(expr, list(exprs[i].items()), ui, field.neg(field.one), p)
            _sub_scaled_tail(expr, list(exprs[j].items()), uj, field.one, p)
            rem, records = normal_form_vec(spair, prepped, keyf, p, track=True)
            for idx, umono, factor in records:
                _sub_scaled_tail(expr, list(exprs[idx].items()), umono, factor, p)
        else:
            rem = normal_form_vec(spair, prepped, keyf, p)
            expr = None
        if rem:
            add(rem, expr)

    if stats is not None:
        stats["pairs_processed"] = pair_counter.used
        stats["basis_size"] = len(basis)
    if track:
        return basis, exprs
    return basis


def autoreduce(basis: Sequence[VecDict], keyf, field: CoefficientField) -> list[VecDict]:
    """Interreduce a Groebner basis into the unique reduced monic basis,
    sorted with the largest leading term first."""
    p = field.p
    elems = sorted((dict(v) for v in basis if v),
                   key=lambda v: keyf(max(v, key=keyf)))
    minimal: list[VecDict] = []
    negs: list[int] = []
    for vec in elems:
        lt = max(vec, key=keyf)
        layout = _layout(len(lt[1]))
        t = layout.pack(lt)
        if any(not (t + neg) & layout.mask for neg in negs):
            continue
        minimal.append(vec)
        negs.append(layout.bias - t)
    prepped = [_prep(v, keyf) for v in minimal]
    reduced = []
    for i, vec in enumerate(minimal):
        rem = normal_form_vec(vec, prepped[:i] + prepped[i + 1:], keyf, p)
        rem, _ = _make_monic(rem, keyf, p, field)
        reduced.append(rem)
    reduced.sort(key=lambda v: keyf(max(v, key=keyf)), reverse=True)
    return reduced


# ----- Polynomial-level wrappers -----


def _to_vec(f: Polynomial) -> VecDict:
    return {(0, m): c for m, c in f.terms.items()}


def _from_vec(vec: VecDict, nvars: int, field: CoefficientField) -> Polynomial:
    return Polynomial(nvars, field, {m: c for (_, m), c in vec.items()})


def _ambient(gens: Sequence[Polynomial]):
    if not gens:
        raise ValueError("need at least one polynomial to infer the ambient ring")
    nvars, field = gens[0].nvars, gens[0].field
    for g in gens[1:]:
        if g.nvars != nvars or g.field != field:
            raise ValueError("generators live in different ambient rings")
    return nvars, field


def groebner_basis(gens: Sequence[Polynomial], order: TermOrder = GREVLEX,
                   budget: Budget | None = None,
                   stats: dict | None = None) -> list[Polynomial]:
    """Reduced monic Groebner basis (unique for the order) of an ideal."""
    gens = [g for g in gens if not g.is_zero()]
    if not gens:
        return []
    nvars, field = _ambient(gens)
    keyf = pot_key(order)
    basis = buchberger([_to_vec(g) for g in gens], keyf, field,
                       budget=budget, rank1=True, stats=stats)
    reduced = autoreduce(basis, keyf, field)
    if stats is not None:
        stats["reduced_basis_size"] = len(reduced)
    return [_from_vec(v, nvars, field) for v in reduced]


def _prep_basis(basis: Sequence[Polynomial], keyf) -> list[tuple]:
    """Prepared monic divisors of a polynomial basis."""
    out = []
    for g in basis:
        vec, _ = _make_monic(_to_vec(g), keyf, g.field.p, g.field)
        out.append(_prep(vec, keyf))
    return out


def normal_form(f: Polynomial, basis: Sequence[Polynomial],
                order: TermOrder = GREVLEX) -> Polynomial:
    """Remainder of f on full division by a (Groebner) basis."""
    if f.is_zero() or not basis:
        return f
    keyf = pot_key(order)
    rem = normal_form_vec(_to_vec(f), _prep_basis(basis, keyf), keyf, f.field.p)
    return _from_vec(rem, f.nvars, f.field)


def membership_cofactors(f: Polynomial, gens: Sequence[Polynomial],
                         order: TermOrder = GREVLEX,
                         budget: Budget | None = None):
    """Cofactors c_i with f = sum c_i * gens[i], or None when f is outside.

    Uses a tracked Buchberger run and a tracked division, so the witness
    is exact by construction.
    """
    gens = list(gens)
    nonzero = [(i, g) for i, g in enumerate(gens) if not g.is_zero()]
    if not nonzero:
        return None
    nvars, field = _ambient([g for _, g in nonzero])
    keyf = pot_key(order)
    p = field.p
    basis, exprs = buchberger([_to_vec(g) for _, g in nonzero], keyf, field,
                              budget=budget, rank1=True, track=True)
    prepped = [_prep(v, keyf) for v in basis]
    rem, records = normal_form_vec(_to_vec(f), prepped, keyf, p, track=True)
    if rem:
        return None
    acc: VecDict = {}
    for idx, umono, factor in records:
        _sub_scaled_tail(acc, list(exprs[idx].items()), umono,
                         field.neg(factor) if p is None else -factor % p, p)
    cofactors = [Polynomial.zero(nvars, field) for _ in gens]
    per_gen: dict[int, dict] = {}
    for (gi, mono), c in acc.items():
        per_gen.setdefault(gi, {})[mono] = c
    for gi, terms in per_gen.items():
        original_index = nonzero[gi][0]
        cofactors[original_index] = Polynomial(nvars, field, terms)
    return cofactors


def exact_divide(f: Polynomial, g: Polynomial) -> Polynomial:
    """Quotient f / g for an exact single-divisor division."""
    if g.is_zero():
        raise ZeroDivisionError("division by the zero polynomial")
    if f.is_zero():
        return f
    field = f.field
    keyf = pot_key(GREVLEX)
    vec, inv = _make_monic(_to_vec(g), keyf, field.p, field)
    prepped = [_prep(vec, keyf)]
    rem, records = normal_form_vec(_to_vec(f), prepped, keyf, field.p, track=True)
    if rem:
        raise ValueError("division is not exact")
    terms: dict[Monomial, object] = {}
    p = field.p
    for _, umono, factor in records:
        c = factor * inv if inv != field.one else factor
        if p:
            c %= p
        terms[umono] = terms.get(umono, 0) + c
    return Polynomial(f.nvars, field, terms)


# ----- the ideal calculus -----


class Ideal:
    """An ideal with cached reduced Groebner bases (write-once per order),
    each with its prepared divisors once a normal form needs them."""

    __slots__ = ("generators", "nvars", "field", "_gb", "_divisors")

    def __init__(self, generators: Iterable[Polynomial], nvars: int | None = None,
                 field: CoefficientField | None = None):
        gens = [g.poly if hasattr(g, "poly") else g for g in generators]
        gens = [g for g in gens if not g.is_zero()]
        if gens:
            ambient = _ambient(gens)
            if nvars is not None and nvars != ambient[0]:
                raise ValueError("explicit nvars disagrees with the generators")
            nvars, field = ambient
        elif nvars is None or field is None:
            raise ValueError("the zero ideal needs an explicit ambient ring")
        object.__setattr__(self, "generators", tuple(gens))
        object.__setattr__(self, "nvars", nvars)
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "_gb", {})
        object.__setattr__(self, "_divisors", {})

    def __setattr__(self, name, value):
        raise AttributeError("Ideal is immutable")

    def groebner_basis(self, order: TermOrder = GREVLEX,
                       budget: Budget | None = None) -> list[Polynomial]:
        sig = order.signature()
        cached = self._gb.get(sig)
        if cached is None:
            cached = tuple(groebner_basis(self.generators, order, budget))
            self._gb[sig] = cached  # idempotent write-once memo
        return list(cached)

    def normal_form(self, f: Polynomial, order: TermOrder = GREVLEX,
                    budget: Budget | None = None) -> Polynomial:
        basis = self.groebner_basis(order, budget)
        if f.is_zero() or not basis:
            return f
        sig = order.signature()
        cached = self._divisors.get(sig)
        if cached is None:
            keyf = pot_key(order)
            cached = (keyf, _prep_basis(basis, keyf))
            self._divisors[sig] = cached  # idempotent write-once memo
        keyf, divisors = cached
        rem = normal_form_vec(_to_vec(f), divisors, keyf, f.field.p)
        return _from_vec(rem, f.nvars, f.field)

    def contains(self, f: Polynomial, budget: Budget | None = None) -> bool:
        f = f.poly if hasattr(f, "poly") else f
        return self.normal_form(f, budget=budget).is_zero()

    def contains_ideal(self, other: "Ideal", budget: Budget | None = None) -> bool:
        return all(self.contains(g, budget) for g in other.generators)

    def equals(self, other: "Ideal", budget: Budget | None = None) -> bool:
        return self.contains_ideal(other, budget) and other.contains_ideal(self, budget)

    def is_zero(self) -> bool:
        return not self.generators

    def is_unit(self, budget: Budget | None = None) -> bool:
        gb = self.groebner_basis(budget=budget)
        return any(g.is_constant() and not g.is_zero() for g in gb)

    def dimension(self, budget: Budget | None = None) -> int:
        """Krull dimension of R/I; -1 for the unit ideal."""
        gb = self.groebner_basis(budget=budget)
        if any(g.is_constant() and not g.is_zero() for g in gb):
            return -1
        keyf = GREVLEX.key
        supports = []
        for g in gb:
            lt = max(g.terms, key=keyf)
            supports.append(frozenset(i for i, e in enumerate(lt) if e))
        supports = [s for s in supports if not any(t < s for t in supports)]
        n = self.nvars
        for size in range(n, 0, -1):
            for subset in combinations(range(n), size):
                chosen = set(subset)
                if not any(s <= chosen for s in supports):
                    return size
        return 0

    def height(self, budget: Budget | None = None) -> int | float:
        """Codimension; +inf exactly for the unit ideal."""
        dim = self.dimension(budget)
        if dim < 0:
            return inf
        return self.nvars - dim

    def with_generators(self, extra: Iterable[Polynomial]) -> "Ideal":
        return Ideal(list(self.generators) + list(extra), self.nvars, self.field)

    # --- elimination-based operations ---

    def _tagged(self, flip: bool) -> list[Polynomial]:
        """Generators multiplied by t (or 1-t) in a ring with tag variable first."""
        out = []
        nv = self.nvars + 1
        for g in self.generators:
            shifted = Polynomial(nv, self.field,
                                 {(0,) + m: c for m, c in g.terms.items()})
            tagged = Polynomial(nv, self.field,
                                {(1,) + m: c for m, c in g.terms.items()})
            out.append(shifted - tagged if flip else tagged)
        return out

    def intersection(self, other: "Ideal", budget: Budget | None = None) -> "Ideal":
        """I cap J via a single tag variable and elimination."""
        if self.nvars != other.nvars or self.field != other.field:
            raise ValueError("ideals live in different ambient rings")
        if self.is_zero() or other.is_zero():
            return Ideal([], self.nvars, self.field)
        mixed = self._tagged(flip=False) + other._tagged(flip=True)
        gb = groebner_basis(mixed, elimination_order(1), budget)
        kept = [Polynomial(self.nvars, self.field,
                           {m[1:]: c for m, c in g.terms.items()})
                for g in gb if all(m[0] == 0 for m in g.terms)]
        return Ideal(kept, self.nvars, self.field)

    def colon(self, other, budget: Budget | None = None) -> "Ideal":
        """I : J, computed per generator of J via intersection and division."""
        if isinstance(other, Polynomial):
            other = Ideal([other], self.nvars, self.field)
        if other.is_zero():
            one = Polynomial.constant(1, self.nvars, self.field)
            return Ideal([one], self.nvars, self.field)
        result: Ideal | None = None
        for g in other.generators:
            meet = self.intersection(Ideal([g], self.nvars, self.field), budget)
            part = Ideal([exact_divide(h, g) for h in meet.generators],
                         self.nvars, self.field)
            result = part if result is None else result.intersection(part, budget)
        return result

    def saturation(self, f: Polynomial, budget: Budget | None = None) -> "Ideal":
        """I : f^infinity by iterated colon until the chain stabilizes."""
        if f.is_zero():
            raise ValueError("cannot saturate by zero")
        budget = budget or DEFAULT_BUDGET
        current = self
        for _ in range(budget.max_steps):
            nxt = current.colon(f, budget)
            if current.contains_ideal(nxt, budget):
                return current
            current = nxt
        raise BudgetExceededError("saturation rounds", budget.max_steps)

    def __repr__(self):
        inside = "; ".join(repr(g) for g in self.generators) or "0"
        return f"Ideal({inside})"


# ----- spec-level operation names -----


def ideal_dimension(ideal: Ideal, budget: Budget | None = None) -> int:
    return ideal.dimension(budget)


def height(ideal: Ideal, budget: Budget | None = None) -> int | float:
    return ideal.height(budget)


def colon_ideal(numerator: Ideal, denominator: Ideal,
                budget: Budget | None = None) -> Ideal:
    return numerator.colon(denominator, budget)


def intersection(left: Ideal, right: Ideal, budget: Budget | None = None) -> Ideal:
    return left.intersection(right, budget)


def saturation(ideal: Ideal, f: Polynomial, budget: Budget | None = None) -> Ideal:
    return ideal.saturation(f, budget)


def leading_form_ideal(gens: Sequence[Polynomial],
                       budget: Budget | None = None) -> Ideal:
    """Ideal of top-degree forms of all elements of (gens).

    Pipeline: homogenize each generator with a fresh last variable,
    saturate by that variable, then set it to zero.
    """
    from .poly import homogenize, set_last_variable_zero
    gens = [g.poly if hasattr(g, "poly") else g for g in gens]
    if not gens or any(g.is_zero() for g in gens):
        raise ValueError("generators must be nonzero")
    nvars, field = _ambient(gens)
    lifted = [homogenize(g).poly for g in gens]
    tag = Polynomial.variable(nvars, nvars + 1, field)
    saturated = Ideal(lifted, nvars + 1, field).saturation(tag, budget)
    dropped = [set_last_variable_zero(g)
               for g in saturated.groebner_basis(budget=budget)]
    return Ideal([g for g in dropped if not g.is_zero()], nvars, field)
