"""Buchberger engine and the classical ideal calculus.

One engine serves ideals and submodules of free modules: an element is
a dict mapping module terms ``(component, exponent-tuple)`` to nonzero
raw coefficients, and an ideal element simply lives in component 0.

Orders are integer keys.  A term order weights the exponents, so that
``w . m`` orders ring monomials like grevlex, lex or a block elimination
order (a mixed radix of ``_KEY_DIGIT_BITS``-bit digits, faithful for
every exponent up to a key's ``limit``).  Its position-over-term
extension (:func:`pot_key`) and Schreyer's orders built on it (see
:mod:`smallsub.modules`) stay affine: key((c, m)) = base(c) + w . m,
with one w for every component, so the key of a product is a sum.  As
in Singular (Bachmann and Schoenemann, "Monomial representations for
Groebner bases computations", ISSAC 1998), comparing terms is then
comparing integers.

Division runs on term codes.  A term (comp, mono) packs into one int
with a field of EXPONENT_BITS bits plus a guard bit per variable and the
component above them, so a product is one add and a divisibility test
one masked subtract; its code puts the negated key above the packed
term, ``packed - (key << code_shift)``.  The code of a product is then
one add, code(s) + code(t) - code(lt), and a smaller code is a larger
term.  A reduction keeps its live codes in a dict and a min-heap in the
style of Monagan and Pearce ("Sparse polynomial division using a heap",
JSC 2011), computes no key for a product and unpacks a term only when it
joins the remainder or a reduction record.  An exponent above
MAX_EXPONENT, in the input or in a product, raises
:class:`BudgetExceededError`; a field never wraps into its neighbour.

Each vector is coded once, by :func:`_coded`, and :func:`_from_vec` is
the one place where codes turn back into terms.  Each element is
prepared once, scaled to monic by the run that makes it
(:func:`_prep_codes`), and :func:`buchberger` and :func:`autoreduce`
return the :class:`_Divisors` they reduce by.  An :class:`Ideal` caches,
per order, the key and the reduced divisors of its run, which its
bases, normal forms and heights all read.

The first divisor of a leading term is memoized per term code
(:class:`_Divisors`): its index, or "none among the first k", which a
later lookup resumes from k.  That is exact because a basis only grows
by appending.  A signature run records the first divisor before its
regularity check, so the memo that :func:`buchberger` returns serves
plain reductions against its basis too.  In an ``Ideal``'s cache entry
the memo is cleared past ``_IDEAL_MEMO_CAP``.

The pair loop is signature-based, in the rewrite-based form ("RB" in
Eder and Faugere, "A survey on signature-based algorithms for computing
Groebner bases", JSC 2017).  Each element g = sum_j a_j v_j of the
inputs v_j carries a signature t * e_i: the largest term of
sum_j a_j e_j in the signature order.  Signatures are ordered by
sugar degree deg t + deg v_i, then by the key of t * lt(v_i), the
Schreyer order the inputs' leading terms induce (as Roune and Stillman,
"Practical Groebner basis computation", ISSAC 2012), then by i.  That
order is affine in t, so a signature key is one integer and sig(x^u g)
is sig(g) plus a weight of u; the sugar step keeps lex and elimination
runs degree-graded.  The inputs and the S-pairs are queued by
signature, smallest first, one pair per signature; the signature of an
S-pair is the larger of sig(x^u g) and sig(x^w h), and a pair whose two
are equal is never queued.  A pair is dropped when a known syzygy's
signature divides its signature (the syzygy criterion): the signature
of every zero reduction, and in ideal runs, where every input term lies
in one component, the Koszul signature of each pair of elements, the
larger of hd(g) sig(h) and hd(h) sig(g), with hd the term that is
largest in the signature order.  It is dropped too unless the element
that generated it is the latest-added one whose signature divides its
signature (the rewrite criterion).  A pair is reduced regularly
(:func:`normal_form_vec` with a signature bound): x^u g reduces a term,
leading or not, only when sig(x^u g) < sig(f): a bound computed once
per reduced term and one integer compare per candidate divisor, never
work per tail term.  The remainder, zero or not, has the pair's
signature.  S-pairs are built from the codes of the two prepared tails.
All runs are budgeted: exceeding the configured pair or degree cap
raises, it never degrades into a wrong answer.

Heights are read off leading terms: height(I) = height(in(I)), the
fewest variables meeting the support of every leading term of a
Groebner basis.  The leading terms of any elements of I, such as those
a run has found so far, bound it from below the same way.  Krull's
height theorem bounds it from above: a proper ideal with r generators
has height at most min(N, r), and generators that are all homogeneous
of positive degree make a proper ideal.  :meth:`Ideal.height` watches
the minimal supports as :func:`buchberger` adds elements (its ``until``
hook).  For such generators it stops the run once the lower bound
meets min(N, r), which is then the height; :meth:`Ideal.height_at_least`
stops once it meets the asked bound.  A constant leading term stops the
run with the unit ideal, and other runs complete.  The fewest meeting
variables come from a branch and bound (:func:`_hitting_set`), whose
nodes ``Budget.max_steps`` caps; it runs only when a new support could
lift them to the goal, and once more at the end of a run that did not
stop (:class:`_LeadingSupports`).

For such generators :meth:`Ideal.height_at_least` with 0 < k < N first
tries a few coordinate sections, each setting N - k variables to 0.  A
section whose restriction is m-primary in its k variables meets V(I) in
the origin only, which proves height >= k (affine dimension theorem;
Hartshorne, *Algebraic Geometry*, I.7.2) at the cost of one basis in k
variables.  A failed section proves nothing: the argument is one-sided,
and when every section fails the run on the whole ideal decides, so
every verdict is that run's.  It needs homogeneous generators of
positive degree: the section x1 = 0 of (x1 - 1), of height 1, is the
unit ideal.

Kernels use the tag-component embedding: the kernel of R^r -> R^m / T
is the tag block of one position-over-term basis (:func:`_modulo`), its
elements whose leading term lies in a tag component, and so wholly in
the tag block; syzygies, kernels of module maps, I : J and I cap J are
each one call of it.  Cofactors of a membership are the tag components
of one remainder against such a basis, reduced by its run's own
divisors (:func:`membership_cofactors`), and an exact division f / g is
the one cofactor of ``membership_cofactors(f, [g])``.  The records a tracked reduction keeps
(``normal_form_vec(track=True)``) serve only Schreyer's syzygies in
:mod:`smallsub.modules`.  Only
saturation eliminates a tag variable, the t of Rabinowitsch's 1 - t*f;
the ideal of top-degree forms is read off one grevlex basis.
"""

from __future__ import annotations

from bisect import insort
from functools import lru_cache
from heapq import heapify, heappop, heappush
from itertools import combinations, islice
from math import inf
from operator import itemgetter, lshift, mul
from struct import Struct
from typing import Callable, Iterable, Sequence

from .budget import Budget, BudgetExceededError, Counter, DEFAULT_BUDGET, InternalError
from .fields import CoefficientField, _Frozen
from .poly import Monomial, Polynomial, mono_degree

Term = tuple[int, Monomial]
VecDict = dict[Term, object]


# ----- integer order keys -----
#
# Over n variables, grevlex is deg * B^(n-1) - sum_{j>=1} m_j B^(j-1) and
# lex is sum_j m_j B^(n-1-j), with B = 2^_KEY_DIGIT_BITS: a digit never
# borrows from its neighbour while every exponent is below B.  The
# elimination order scales the grevlex weights of its first block above
# the span of the second.  All weights are positive, so over exponents
# up to _KEY_LIMIT a ring key lies in [0, span).

#: Bits of one key digit: Schreyer keys may lift a term's exponents by
#: up to _KEY_LIMIT - MAX_EXPONENT before a digit could borrow.
_KEY_DIGIT_BITS = 20
_KEY_LIMIT = (1 << _KEY_DIGIT_BITS) - 1


def _grevlex_weights(n: int) -> tuple[int, ...]:
    if n == 0:
        return ()
    top = 1 << (_KEY_DIGIT_BITS * (n - 1))
    return (top,) + tuple(top - (1 << (_KEY_DIGIT_BITS * (j - 1))) for j in range(1, n))


def _span(weights: Sequence[int]) -> int:
    return _KEY_LIMIT * sum(weights) + 1


@lru_cache(maxsize=64)
def _ring_weights(kind: str, elim: int, n: int) -> tuple[tuple[int, ...], int]:
    """Weights w, with w . m ordering monomials like the order, and the span."""
    if kind == "grevlex":
        weights = _grevlex_weights(n)
    elif kind == "lex":
        weights = tuple(1 << (_KEY_DIGIT_BITS * (n - 1 - j)) for j in range(n))
    else:
        k = min(elim, n)
        rest = _grevlex_weights(n - k)
        below = _span(rest)
        weights = tuple(w * below for w in _grevlex_weights(k)) + rest
    return weights, _span(weights)


class TermOrder(_Frozen):
    """A monomial order on ring monomials: grevlex, lex, or a block
    elimination order that eliminates the first ``elim`` variables."""

    __slots__ = ("kind", "elim")

    def __init__(self, kind: str = "grevlex", elim: int = 0):
        if kind not in ("grevlex", "lex", "elim"):
            raise ValueError(f"unknown order kind {kind!r}")
        if kind == "elim" and elim < 1:
            raise ValueError("elimination order needs a positive block size")
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "elim", elim)

    def key(self, mono: Monomial) -> int:
        """The integer key w . mono: a larger key is a larger monomial."""
        weights, _ = _ring_weights(self.kind, self.elim, len(mono))
        return sum(map(mul, weights, mono))

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


def pot_key(order: TermOrder) -> Callable[[Term], int]:
    """Position-over-term extension: e_0 > e_1 > ..., ties by the ring order.

    The key is w . m - comp * span, affine with one w for every
    component; its ``limit`` is the largest exponent it orders faithfully.
    """
    kind, elim = order.kind, order.elim

    def key(term: Term) -> int:
        comp, mono = term
        weights, span = _ring_weights(kind, elim, len(mono))
        return sum(map(mul, weights, mono)) - comp * span

    key.limit = _KEY_LIMIT
    return key


# ----- packed terms and term codes -----
#
# Over n variables, variable i has a field of EXPONENT_BITS value bits
# and one guard bit at shift _FIELD*(n-1-i); the component sits above the
# n fields.  lt divides t exactly when bias - lt + t has no guard bit and
# a zero component field: the lowest failing field borrows into its own
# guard bit, and the bias bit above the component keeps the difference
# nonnegative.  A term code puts the negated order key at the bias bit,
# above every packed term, so the low bits of a code are its packed term
# and adding codes adds both parts.

#: Value bits of a packed exponent; a larger exponent raises
#: BudgetExceededError("monomial exponent", MAX_EXPONENT).
EXPONENT_BITS = 15
MAX_EXPONENT = (1 << EXPONENT_BITS) - 1
_FIELD = EXPONENT_BITS + 1
_COMP_BITS = 32
_MAX_COMPONENT = (1 << _COMP_BITS) - 1
_DIGIT_SUM = (1 << 2 * _FIELD) - 1


class _Layout:
    """Shifts and masks of the packed terms over ``n`` variables."""

    __slots__ = ("shifts", "comp_shift", "guard", "mask", "code_shift", "bias", "low",
                 "even", "odd", "fields", "size")

    def __init__(self, n: int):
        self.shifts = tuple(_FIELD * (n - 1 - i) for i in range(n))
        self.comp_shift = _FIELD * n
        self.guard = sum(1 << (s + EXPONENT_BITS) for s in self.shifts)
        self.mask = self.guard | (_MAX_COMPONENT << self.comp_shift)
        self.code_shift = self.comp_shift + _COMP_BITS
        self.bias = 1 << self.code_shift
        self.low = self.bias - 1  # the packed term inside a code
        # the exponent fields in even and odd places, for degree()
        self.even = sum(MAX_EXPONENT << s for s in self.shifts if not s % (2 * _FIELD))
        self.odd = sum(MAX_EXPONENT << s for s in self.shifts if s % (2 * _FIELD))
        # a packed term as big-endian bytes, for unpack(): the component,
        # then one field per variable
        self.fields = Struct(f">I{n}H")
        self.size = self.fields.size

    def pack(self, term: Term) -> int:
        comp, mono = term
        if mono and max(mono) > MAX_EXPONENT:
            raise BudgetExceededError("monomial exponent", MAX_EXPONENT)
        if comp > _MAX_COMPONENT:
            raise BudgetExceededError("module component", _MAX_COMPONENT)
        return (comp << self.comp_shift) + sum(map(lshift, mono, self.shifts))

    def code(self, term: Term, key: int) -> int:
        return self.pack(term) - (key << self.code_shift)

    def unpack(self, packed: int) -> Term:
        """The term of a packed int, or of a code's low bits."""
        fields = self.fields.unpack(packed.to_bytes(self.size, "big"))
        return fields[0], fields[1:]

    def degree(self, code: int) -> int:
        """The total degree of a packed term or a term code.

        Adding the odd fields onto the even ones puts two exponents in
        each 2 * _FIELD-bit digit, below 2^16, and the remainder modulo
        2^(2 * _FIELD) - 1 sums the digits, as casting out nines does.
        """
        return ((code & self.even) + ((code & self.odd) >> _FIELD)) % _DIGIT_SUM


@lru_cache(maxsize=64)
def _layout(nvars: int) -> _Layout:
    return _Layout(nvars)


def _exponent_overflow():
    return BudgetExceededError("monomial exponent", MAX_EXPONENT)


class _Codes(dict):
    """A vector keyed by term codes over ``layout``, as S-pairs are built."""

    __slots__ = ("layout",)

    def __init__(self, layout: _Layout):
        super().__init__()
        self.layout = layout


class _Divisors(list):
    """Prepared divisors of a basis that only grows by appending, with
    the negated packed leading terms and the first-divisor memo: per
    term code, the index of its first divisor, or ``~k`` for "none among
    the first k"."""

    __slots__ = ("negs", "memo")

    def __init__(self, prepared: Iterable[tuple] = ()):
        super().__init__(prepared)
        self.negs = [d[0] for d in self]
        self.memo: dict[int, int] = {}

    def append(self, prepared: tuple):
        super().append(prepared)
        self.negs.append(prepared[0])


class _Signed(_Divisors):
    """Prepared divisors of a signature run, each with its offset: its
    signature key minus the weight of its leading term.  The weight of a
    term of code h is ``scale * deg(h) + radix * key(h)``, so x^u g_k,
    which reduces the term u * lt_k, has the signature key
    ``offs[k] + weight(u * lt_k)``."""

    __slots__ = ("offs", "scale", "radix")

    def __init__(self, scale: int, radix: int):
        super().__init__()
        self.offs: list[int] = []
        self.scale = scale
        self.radix = radix

    def append(self, prepared: tuple, off: int):
        super().append(prepared)
        self.offs.append(off)


#: Entries of an ``Ideal``'s first-divisor memo past which a normal form
#: clears it, so that a long run of queries keeps its memory bounded.
_IDEAL_MEMO_CAP = 1 << 12


# ----- raw engine -----


def _sub_scaled_packed(work: dict, src: dict, u: int, factor, p, guard: int):
    """work -= factor * x^u * src, in place, on packed terms."""
    get = work.get
    for e, c in src.items():
        t = e + u
        if t & guard:
            raise _exponent_overflow()
        v = get(t, 0) - factor * c
        if p:
            v %= p
        if v:
            work[t] = v
        elif t in work:
            del work[t]


def normal_form_vec(vec: _Codes, basis: _Divisors, p, track: bool = False,
                    sig: int | None = None):
    """Full normal form of a :class:`_Codes` vector, which the reduction
    consumes, against monic prepared divisors.

    The first divisor in ``basis`` that divides the leading term reduces
    it, and the basis remembers it per term.  Live codes sit in a dict
    and a min-heap, so the largest term comes off first, and a term that
    cancels while queued is skipped when it comes off; no key is computed.
    Returns the remainder keyed by term codes, largest term first
    (:func:`_from_vec` reads it), plus ``(index, mono, coeff)`` reduction
    records when tracking.

    With a signature key ``sig`` and a :class:`_Signed` basis the
    reduction is regular: x^u g_k reduces the term h only when its
    signature key offs[k] + weight(h) is below ``sig``, so the bound on
    offs is computed once per reduced term, and a first divisor that is
    not regular resumes the scan past it.
    """
    rem: dict = {}
    records = [] if track else None
    layout, work = vec.layout, vec
    heap = list(work)
    heapify(heap)
    guard, mask, low, unpack = layout.guard, layout.mask, layout.low, layout.unpack
    negs, memo = basis.negs, basis.memo
    if sig is not None:
        even, odd, shift = layout.even, layout.odd, layout.code_shift
        offs, scale, radix = basis.offs, basis.scale, basis.radix
    n = len(negs)
    get = work.get
    while heap:
        h = heappop(heap)
        c = work.pop(h)
        if not c:
            continue
        hit = memo.get(h)
        if hit is None or hit < 0:
            for hit in range(0 if hit is None else ~hit, n):
                if not (h + negs[hit]) & mask:
                    break
            else:
                memo[h] = ~n
                rem[h] = c
                continue
            memo[h] = hit
        if sig is not None:
            below = (sig + radix * (h >> shift)
                     - scale * (((h & even) + ((h & odd) >> _FIELD)) % _DIGIT_SUM))
            if offs[hit] >= below:
                for hit in range(hit + 1, n):
                    if offs[hit] < below and not (h + negs[hit]) & mask:
                        break
                else:
                    rem[h] = c
                    continue
        _, hlt, _, tail = basis[hit]
        hu = h - hlt
        if track:
            records.append((hit, unpack(hu & low)[1], c))
        for s, tc in tail:
            s += hu
            v = get(s)
            if v is None:
                if s & guard:
                    raise _exponent_overflow()
                heappush(heap, s)
                v = 0
            v -= c * tc
            work[s] = v % p if p else v
    return (rem, records) if track else rem


def _coded(vec: VecDict, keyf, layout: _Layout) -> _Codes:
    """``vec`` keyed by term codes over its ring's ``layout``: the one
    place where a VecDict is keyed and packed.  A vector whose first term
    has more or fewer variables than the layout raises InternalError."""
    if vec and len(next(iter(vec))[1]) != len(layout.shifts):
        raise InternalError("a vector's terms do not fit its ring's layout")
    out = _Codes(layout)
    code = layout.code
    for term, c in vec.items():
        out[code(term, keyf(term))] = c
    return out


def _prep(vec: VecDict, keyf, field: CoefficientField) -> tuple:
    """A nonzero VecDict that no run made, such as a ``Polynomial`` divisor
    or a Schreyer syzygy, as a prepared divisor."""
    layout = _layout(len(next(iter(vec))[1]))
    return _prep_codes(_coded(vec, keyf, layout), layout, field)


def _prep_codes(rem: dict, layout: _Layout, field: CoefficientField) -> tuple:
    """A nonzero vector keyed by term codes, scaled to be monic, as a prepared
    divisor ``(bias - packed lt, code of lt, lt, tail of (code, coeff))``."""
    lt_code = min(rem)  # the largest term
    lc, p = rem[lt_code], field.p
    if lc == field.one:
        tail = [(h, c) for h, c in rem.items() if h != lt_code]
    else:
        inv = field.inv(lc)
        tail = [(h, c * inv % p if p else c * inv) for h, c in rem.items() if h != lt_code]
    lt = lt_code & layout.low
    return (layout.bias - lt, lt_code, layout.unpack(lt), tail)


def _terms(d: tuple, one) -> list:
    """The ``(code, coeff)`` pairs of a prepared divisor, largest first."""
    return [(d[1], one), *d[3]]


def _s_pair(di: tuple, dj: tuple, lcm: Term, key: int, p) -> _Codes:
    """x^ui f_i - x^uj f_j for prepared monic divisors f_i, f_j whose
    leading terms times x^ui, x^uj are ``lcm``, of order key ``key``."""
    layout = _layout(len(lcm[1]))
    out = _Codes(layout)
    lcm_code = layout.code(lcm, key)
    hi, hj = lcm_code - di[1], lcm_code - dj[1]
    for s, c in di[3]:
        out[s + hi] = c
    get = out.get
    for s, c in dj[3]:
        s += hj
        v = get(s, 0) - c
        if p:
            v %= p
        if v:
            out[s] = v
        else:
            del out[s]
    guard = layout.guard
    if any(s & guard for s in out):
        raise _exponent_overflow()
    return out


def buchberger(vectors: Sequence[VecDict], keyf, field: CoefficientField,
               budget: Budget | None = None, *,
               stats: dict | None = None,
               until: Callable[[Monomial], bool] | None = None) -> _Divisors:
    """Compute a (non-reduced) monic Groebner basis of the span, as the
    prepared divisors the run reduces by, with their first-divisor memo.

    One signature-based loop (see the module docstring).  A run whose
    every input term lies in one component is an ideal run, whose Koszul
    syzygies are known.  A ``stats`` dict, when given, receives the
    reduced pairs, the zero reductions among them, the pairs that the
    syzygy and the rewrite criteria dropped, and the basis size.
    ``until``, when given, receives the leading monomial of each element
    as it joins; a True return ends the run, which then returns the
    elements so far, not a Groebner basis.
    """
    budget = budget or DEFAULT_BUDGET
    p = field.p
    pair_counter = Counter("groebner pairs", budget.max_pairs)
    zero_reductions = syzygy_skips = rewrite_skips = 0
    prepped = _Divisors()
    elems: list[tuple] = []  # (offset, comp, lt mono, packed lt, i, t), signature t * e_i
    heads: list[tuple] = []  # (sig key - weight(hd), i, t, packed hd), per element of an ideal run
    syzygies = [[] for _ in vectors]  # per i, bias - packed t of the minimal known t * e_i
    rewriters = [[] for _ in vectors]  # per i, (element, bias - packed t) in the order added
    heap: list = []  # (sig key, -1, i) per input; (sig key, gen, other, t, lcm, key)
    inputs = [i for i, vec in enumerate(vectors) if vec]
    layout: _Layout | None = None
    coded = {}  # per input, its terms as a _Codes vector, which its reduction consumes
    if inputs:
        nvars = len(next(iter(vectors[inputs[0]]))[1])
        layout = _layout(nvars)
        bias, mask, guard, low = layout.bias, layout.mask, layout.guard, layout.low
        degree, shift = layout.degree, layout.code_shift
        zero = (0,) * nvars
        ideal = len({comp for i in inputs for comp, _ in vectors[i]}) == 1
        leads = []
        for i in inputs:
            vec = coded[i] = _coded(vectors[i], keyf, layout)
            leads.append((i, -(min(vec) >> shift),
                          max(map(sum, map(itemgetter(1), vectors[i])))))
        # sig key of t * e_i: scale * (deg t + deg v_i) + radix * key(t * lt_i) + i,
        # with scale above the spread of radix * key(t * lt_i) + i.  A queued
        # signature has t up to MAX_EXPONENT and a reducer's sig(x^u g) up to
        # twice that; a term order's weights w are positive, so w . t is at
        # most the key of x^(2 MAX_EXPONENT) in every variable, minus the key of 1
        comp = layout.unpack(min(vec) & low)[0]  # a component of the run
        origin = keyf((comp, zero))
        keys = [key for _, key, _ in leads]
        radix = len(vectors)
        scale = radix * (max(keys) - min(keys) + 1
                         + keyf((comp, (2 * MAX_EXPONENT,) * nvars)) - origin)
        prepped = _Signed(scale, radix)
        offs, negs = prepped.offs, prepped.negs
        origin_weight = radix * origin  # the weight of the monomial 1
        heap = [(scale * degree + radix * key + i, -1, i) for i, key, degree in leads]
        heapify(heap)

    def syzygy(i: int, t: int):
        """Record the syzygy signature t * e_i, keeping the list minimal."""
        known = syzygies[i]
        if t & guard or any(not (t + n) & mask for n in known):
            return
        neg = bias - t
        known[:] = [n for n in known if (bias - n + neg) & mask]
        insort(known, neg, key=lambda n: degree(bias - n))  # the likelier divisors first

    def add(rem: dict, sig: int, i: int, t: int) -> bool:
        """Add the regular remainder of signature t * e_i and queue its
        pairs; True when ``until`` ends the run."""
        nonlocal rewrite_skips, syzygy_skips
        prepared = _prep_codes(rem, layout, field)
        neg, lt_code, (comp, ltm), tail = prepared
        lt = bias - neg
        lt_degree = sum(ltm)
        off = sig - scale * lt_degree + radix * (lt_code >> shift)
        new = len(prepped)
        prepped.append(prepared, off)
        neg_t = bias - t
        rewriters[i].append((new, neg_t))
        if ideal:
            # the Koszul syzygy of g_k and g_new has the larger signature of
            # hd(g_new) * sig(g_k) and hd(g_k) * sig(g_new): compare sig - weight(hd)
            top_degree = max(map(degree, rem))
            top = lt_code if top_degree == lt_degree else min(
                h for h, _ in tail if degree(h) == top_degree)
            c_new = sig - scale * top_degree + radix * (top >> shift) + origin_weight
            hd_new = top & ((1 << layout.comp_shift) - 1)  # its monomial bits
            for c_k, i_k, t_k, hd_k in heads:
                if c_k > c_new:
                    i_s, t_s = i_k, t_k + hd_new
                elif c_k < c_new:
                    i_s, t_s = i, t + hd_k
                else:
                    continue
                for n in syzygies[i_s]:
                    if not (t_s + n) & mask:
                        break
                else:
                    syzygy(i_s, t_s)
            heads.append((c_new, i, t, hd_new))
        for k, (off_k, kc, km, lt_k, i_k, t_k) in enumerate(elems):
            if kc != comp or off_k == off:  # other components, or a singular pair
                continue
            ge = (lt | guard) - lt_k & guard  # guard bits where lt's field is larger
            ge -= ge >> EXPONENT_BITS  # their value bits
            packed = lt & ge | lt_k & ~ge
            if off_k > off:  # x^u g_k carries the signature
                gen, other, i_s, t_s = k, new, i_k, t_k + packed - lt_k
                if i_k == i and not (t_s + neg_t) & mask:
                    rewrite_skips += 1  # g_new rewrites it already
                    continue
            else:
                gen, other, i_s, t_s = new, k, i, t + packed - lt
            if t_s & guard:
                raise _exponent_overflow()
            for n in syzygies[i_s]:
                if not (t_s + n) & mask:
                    syzygy_skips += 1
                    break
            else:
                lcm = tuple(map(max, ltm, km))
                key = keyf((comp, lcm))
                heappush(heap, (max(off_k, off) + scale * sum(lcm) + radix * key,
                                gen, other, t_s, lcm, key))
        elems.append((off, comp, ltm, lt, i, t))
        return until is not None and until(ltm)

    while heap:
        entry = heappop(heap)
        sig, gen = entry[0], entry[1]
        if gen < 0:  # an input
            i = entry[2]
            rem = normal_form_vec(coded.pop(i), prepped, p, sig=sig)
            if rem:
                if add(rem, sig, i, 0):
                    break
            else:
                syzygy(i, 0)
            continue
        group = [entry]  # one pair per signature
        while heap and heap[0][0] == sig:
            group.append(heappop(heap))
        i, t = elems[gen][4], entry[3]
        if any(not (t + n) & mask for n in syzygies[i]):
            syzygy_skips += len(group)
            continue
        for rewriter, n in reversed(rewriters[i]):  # the latest whose signature divides
            if not (t + n) & mask:
                break
        kept = [e for e in group if e[1] == rewriter]
        rewrite_skips += len(group) - len(kept[:1])
        if not kept:
            continue
        _, gen, other, t, lcm, key = kept[0]
        if budget.max_degree is not None and mono_degree(lcm) > budget.max_degree:
            raise BudgetExceededError("groebner lcm degree", budget.max_degree)
        pair_counter.tick()
        di, dj = prepped[gen], prepped[other]
        rem = normal_form_vec(_s_pair(di, dj, (di[2][0], lcm), key, p), prepped, p, sig=sig)
        if rem:
            if add(rem, sig, i, t):
                break
        else:
            zero_reductions += 1
            syzygy(i, t)

    if stats is not None:
        stats["pairs_processed"] = pair_counter.used
        stats["zero_reductions"] = zero_reductions
        stats["syzygy_skips"] = syzygy_skips
        stats["rewrite_skips"] = rewrite_skips
        stats["basis_size"] = len(prepped)
    return prepped


def autoreduce(basis: Sequence[tuple], field: CoefficientField) -> _Divisors:
    """Interreduce the prepared divisors of a monic Groebner basis into
    the unique reduced monic basis, as prepared divisors with the
    largest leading term first.

    The elements whose leading term no other one divides are kept, and
    only their tails are reduced, all against the kept elements and one
    memo: a tail term is smaller than its own leading term, which
    therefore never divides it."""
    # ascending leading terms: a larger code is a smaller term
    minimal = _Divisors()
    for d in sorted(basis, key=itemgetter(1), reverse=True):
        layout = _layout(len(d[2][1]))
        t = layout.bias - d[0]
        if not any(not (t + n) & layout.mask for n in minimal.negs):
            minimal.append(d)
    reduced = _Divisors()
    for neg, lt_code, lt, tail in reversed(minimal):
        vec = _Codes(_layout(len(lt[1])))
        vec.update(tail)
        rem = normal_form_vec(vec, minimal, field.p)
        reduced.append((neg, lt_code, lt, list(rem.items())))
    return reduced


def _tagged(vectors: Sequence[VecDict], rank: int, nvars: int, one) -> list[VecDict]:
    """The tag-component embedding: v_i + e_{rank+i} for vectors v_i of R^rank."""
    tag = (0,) * nvars
    return [{**v, (rank + i, tag): one} for i, v in enumerate(vectors)]


def _modulo(columns: Sequence[VecDict], target: Sequence[VecDict], rank: int,
            nvars: int, field: CoefficientField,
            budget: Budget | None = None) -> list[tuple]:
    """Generators of the kernel of R^r -> R^rank / T, e_j -> columns[j],
    T spanned by ``target`` (Singular's ``modulo``; Greuel and Pfister,
    Sec. 2.8): the prepared elements of one position-over-term basis of
    the columns[j] + e_{rank+j} and the target vectors that lie wholly in
    the tag block, with e_{rank+j} standing for e_j.  x is in the tag
    block of that span exactly when sum x_j columns[j] lies in T, and POT
    eliminates e_0..e_{rank-1}: an element lies wholly in the tag block
    exactly when its leading term does."""
    gb = buchberger(_tagged(columns, rank, nvars, field.one) + list(target),
                    pot_key(GREVLEX), field, budget=budget)
    return [d for d in gb if d[2][0] >= rank]


# ----- Polynomial-level wrappers -----


def _to_vec(entries: Sequence[Polynomial]) -> VecDict:
    """The VecDict of a vector of R^r, entries[c] in component c."""
    return {(comp, m): c for comp, f in enumerate(entries) for m, c in f.terms.items()}


def _from_vec(terms: Iterable[tuple[int, object]], rank: int, nvars: int,
              field: CoefficientField) -> tuple[Polynomial, ...]:
    """The entries of a vector of R^rank given as ``(code, coeff)`` pairs,
    such as a remainder's items; packed terms serve as well.  The one
    place where codes turn back into terms."""
    layout = _layout(nvars)
    low, unpack = layout.low, layout.unpack
    per: list[dict] = [{} for _ in range(rank)]
    for h, c in terms:
        comp, mono = unpack(h & low)
        per[comp][mono] = c
    return tuple(Polynomial(nvars, field, t) for t in per)


def _ambient(gens: Sequence[Polynomial]):
    if not gens:
        raise ValueError("need at least one polynomial to infer the ambient ring")
    nvars, field = gens[0].nvars, gens[0].field
    for g in gens[1:]:
        if g.nvars != nvars or g.field != field:
            raise ValueError("generators live in different ambient rings")
    return nvars, field


def _reduced(gens: Sequence[Polynomial], keyf, field: CoefficientField,
             budget: Budget | None = None, stats: dict | None = None) -> _Divisors:
    """The reduced monic basis of nonzero ``gens``, as prepared divisors."""
    basis = buchberger([_to_vec((g,)) for g in gens], keyf, field,
                       budget=budget, stats=stats)
    reduced = autoreduce(basis, field)
    if stats is not None:
        stats["reduced_basis_size"] = len(reduced)
    return reduced


def _polys(divisors: _Divisors, nvars: int, field: CoefficientField) -> list[Polynomial]:
    """The ``Polynomial`` of each prepared divisor of an ideal."""
    return [_from_vec(_terms(d, field.one), 1, nvars, field)[0] for d in divisors]


def groebner_basis(gens: Sequence[Polynomial], order: TermOrder = GREVLEX,
                   budget: Budget | None = None,
                   stats: dict | None = None) -> list[Polynomial]:
    """Reduced monic Groebner basis (unique for the order) of an ideal."""
    gens = [g for g in gens if not g.is_zero()]
    if not gens:
        return []
    nvars, field = _ambient(gens)
    return _polys(_reduced(gens, pot_key(order), field, budget, stats), nvars, field)


def normal_form(f: Polynomial, basis: Sequence[Polynomial],
                order: TermOrder = GREVLEX) -> Polynomial:
    """Remainder of f on full division by a (Groebner) basis; zero
    polynomials in it divide nothing."""
    _ambient([f, *basis])
    if f.is_zero() or not basis:
        return f
    keyf = pot_key(order)
    divisors = _Divisors(_prep(_to_vec((g,)), keyf, f.field)
                         for g in basis if not g.is_zero())
    rem = normal_form_vec(_coded(_to_vec((f,)), keyf, _layout(f.nvars)), divisors, f.field.p)
    return _from_vec(rem.items(), 1, f.nvars, f.field)[0]


def membership_cofactors(f: Polynomial, gens: Sequence[Polynomial],
                         order: TermOrder = GREVLEX,
                         budget: Budget | None = None):
    """Cofactors c_i with f = sum c_i * gens[i], or None when f is outside.

    The lift of the tag-component embedding (Greuel and Pfister, *A
    Singular Introduction to Commutative Algebra*, Sec. 2.8): f e_0
    reduces against a position-over-term basis of the g_i e_0 + e_{1+i}
    to f e_0 - sum c_i (g_i e_0 + e_{1+i}), which is free of e_0 exactly
    when f lies in the ideal.  Zero generators get zero cofactors.
    """
    gens = list(gens)
    nvars, field = _ambient([f, *gens])
    nonzero = [i for i, g in enumerate(gens) if not g.is_zero()]
    if not nonzero:
        # the zero ideal contains only zero
        return [f] * len(gens) if f.is_zero() else None
    keyf = pot_key(order)
    basis = buchberger(_tagged([_to_vec((gens[i],)) for i in nonzero], 1, nvars, field.one),
                       keyf, field, budget=budget)
    rem = normal_form_vec(_coded(_to_vec((f,)), keyf, _layout(nvars)), basis, field.p)
    entries = _from_vec(rem.items(), 1 + len(nonzero), nvars, field)
    if not entries[0].is_zero():
        return None
    cofactors = [Polynomial.zero(nvars, field)] * len(gens)
    for k, i in enumerate(nonzero):
        cofactors[i] = -entries[1 + k]
    return cofactors


# ----- heights -----
#
# A support is the set of variables of a monomial, as a bitmask.


def _support(mono: Monomial) -> int:
    return sum(1 << i for i, e in enumerate(mono) if e)


def _packing(supports: list[int]) -> int:
    """Pairwise disjoint supports taken greedily, smallest first: each
    needs its own variable in any set that meets them all."""
    covered = count = 0
    for s in sorted(supports, key=int.bit_count):
        if not s & covered:
            covered |= s
            count += 1
    return count


def _greedy_hitting(supports: list[int]) -> int:
    """A set meeting every support, as a bitmask: smallest first, the
    lowest variable of each support not met yet."""
    chosen = 0
    for s in sorted(supports, key=int.bit_count):
        if not s & chosen:
            chosen |= s & -s
    return chosen


def _hitting_set(supports: list[int], goal: int, nodes: Counter) -> int | None:
    """A smallest set of variables meeting every support, as a bitmask,
    when it has fewer than ``goal`` variables; else None.

    Branch and bound from the greedy set: a node branches on a smallest
    unmet support, its i-th branch taking the i-th variable of it and
    banning the earlier ones, so that the branches split the sets
    meeting it; a node whose size plus the packing bound of its unmet
    supports reaches the best size so far is cut.  Each node ticks
    ``nodes``.
    """
    found = _greedy_hitting(supports)
    best = found.bit_count()
    if best >= goal:
        found, best = None, goal
    stack = [(supports, 0, 0)]
    while stack:
        unmet, chosen, size = stack.pop()
        nodes.tick()
        if size + _packing(unmet) >= best:
            continue
        if not unmet:
            found, best = chosen, size
            continue
        pivot = min(unmet, key=int.bit_count)
        branches = []
        banned = 0
        while pivot:
            v = pivot & -pivot
            pivot ^= v
            rest = []
            for t in unmet:
                if not t & v:
                    t &= ~banned
                    if not t:
                        break
                    rest.append(t)
            else:
                branches.append((rest, chosen | v, size + 1))
            banned |= v
        stack.extend(reversed(branches))
    return found


class _LeadingSupports:
    """The minimal supports of leading monomials of elements of an
    ideal, read as they arrive, and a set of variables meeting them all
    (``hitting``; None once none has fewer than ``goal`` variables).

    A new support that ``hitting`` misses raises the hitting number by
    at most one: while ``hitting`` grown by one variable of it stays
    below ``goal`` the answer cannot change, and only the grown set is
    kept.  Otherwise a branch and bound decides, and leaves a smallest
    set.  :meth:`bound` searches once more if the last set kept is not
    known to be smallest."""

    __slots__ = ("goal", "nodes", "supports", "hitting", "exact", "unit")

    def __init__(self, goal: int, nodes: Counter):
        self.goal = goal
        self.nodes = nodes
        self.supports: list[int] = []
        self.hitting: int | None = 0
        self.exact = True
        self.unit = False

    def add(self, mono: Monomial) -> bool:
        """Read one leading monomial; True once it shows the unit ideal
        or a hitting number of at least ``goal``."""
        s = _support(mono)
        if not s:
            self.unit = True
            return True
        supports = self.supports
        if any(not t & ~s for t in supports):
            return False
        supports[:] = [t for t in supports if s & ~t]
        supports.append(s)
        if self.hitting & s:
            return False
        grown = self.hitting | (s & -s)
        if grown.bit_count() < self.goal:
            self.hitting, self.exact = grown, False
            return False
        self.hitting, self.exact = _hitting_set(supports, self.goal, self.nodes), True
        return self.hitting is None

    def bound(self) -> int:
        """min(goal, the hitting number of the supports read so far)."""
        if not self.exact:
            self.hitting, self.exact = _hitting_set(self.supports, self.goal,
                                                    self.nodes), True
        return self.goal if self.hitting is None else self.hitting.bit_count()


# ----- the ideal calculus -----

#: Coordinate sections :meth:`Ideal.height_at_least` tries before a run
#: on the whole ideal.
HEIGHT_SECTIONS = 3


class Ideal(_Frozen):
    """An ideal with one write-once cache entry per order: the key and the
    reduced basis as the divisors its run returned, with their memo.  A
    pickled or copied ideal starts with an empty cache."""

    __slots__ = ("generators", "nvars", "field", "_gb")

    def __init__(self, generators: Iterable[Polynomial], nvars: int | None = None,
                 field: CoefficientField | None = None):
        gens = [g for g in generators if not g.is_zero()]
        if gens:
            ambient = _ambient(gens)
            if nvars is not None and nvars != ambient[0]:
                raise ValueError("explicit nvars disagrees with the generators")
            if field is not None and field != ambient[1]:
                raise ValueError("explicit field disagrees with the generators")
            nvars, field = ambient
        elif nvars is None or field is None:
            raise ValueError("the zero ideal needs an explicit ambient ring")
        object.__setattr__(self, "generators", tuple(gens))
        object.__setattr__(self, "nvars", nvars)
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "_gb", {})

    def _entry(self, order: TermOrder, budget: Budget | None) -> tuple:
        """The cache entry of ``order``, ``(keyf, reduced divisors)``."""
        sig = order.signature()
        entry = self._gb.get(sig)
        if entry is None:
            keyf = pot_key(order)
            entry = keyf, (_reduced(self.generators, keyf, self.field, budget)
                           if self.generators else _Divisors())
            self._gb[sig] = entry  # idempotent write-once memo
        return entry

    def groebner_basis(self, order: TermOrder = GREVLEX,
                       budget: Budget | None = None) -> list[Polynomial]:
        return _polys(self._entry(order, budget)[1], self.nvars, self.field)

    def normal_form(self, f: Polynomial, order: TermOrder = GREVLEX,
                    budget: Budget | None = None) -> Polynomial:
        if f.nvars != self.nvars or f.field != self.field:
            raise ValueError("f lives in a different ambient ring")
        keyf, divisors = self._entry(order, budget)
        if f.is_zero() or not divisors:
            return f
        rem = normal_form_vec(_coded(_to_vec((f,)), keyf, _layout(f.nvars)), divisors,
                              f.field.p)
        if len(divisors.memo) > _IDEAL_MEMO_CAP:
            divisors.memo.clear()
        return _from_vec(rem.items(), 1, f.nvars, f.field)[0]

    def contains(self, f: Polynomial, budget: Budget | None = None) -> bool:
        return self.normal_form(f, budget=budget).is_zero()

    def is_zero(self) -> bool:
        return not self.generators

    def dimension(self, budget: Budget | None = None) -> int:
        """Krull dimension of R/I, N minus :meth:`height`; -1 for the
        unit ideal."""
        h = self.height(budget)
        return -1 if h == inf else self.nvars - h

    def height(self, budget: Budget | None = None) -> int | float:
        """Codimension; +inf exactly for the unit ideal.

        The fewest variables meeting every leading-term support of a
        grevlex basis (see the module docstring).  When every generator
        is homogeneous of positive degree, the run stops once that
        reaches min(N, number of generators).
        """
        cap = self._cap()
        return self._height(self.nvars + 1 if cap is None else cap, budget)

    def height_at_least(self, k: int | float, budget: Budget | None = None) -> bool:
        """Whether height(I) >= k.

        When every generator is homogeneous of positive degree and
        0 < k < N, coordinate sections of dimension k are tried first
        (:meth:`_on_sections`), and one that is m-primary decides True.
        A failed section proves nothing, so when every one fails, and
        for other generators or k, a run on the whole ideal decides; it
        stops once its leading terms show the answer.
        """
        if k <= 0:
            return True
        cap = self._cap()
        if cap is not None:
            if k > cap:
                return False
            if k < self.nvars and self._on_sections(k, budget):
                return True
        return self._height(min(k, self.nvars + 1), budget) >= k

    def _on_sections(self, k: int, budget: Budget | None) -> bool:
        """Whether one of the first ``HEIGHT_SECTIONS`` coordinate
        sections of dimension k shows height(I) >= k.

        Section i sets the i-th set of N - k variables, in lexicographic
        order, to 0 (the first keeps x_{N-k+1}..x_N), which drops every
        term that has one of them.  For homogeneous I, a restriction of
        height k in its k variables is m-primary: V(I) meets the section
        in the origin only, so height(I) >= k (affine dimension theorem;
        Hartshorne, *Algebraic Geometry*, I.7.2).  Each attempt is one
        :meth:`height_at_least` in k variables.
        """
        n = self.nvars
        for zeroed in islice(combinations(range(n), n - k), HEIGHT_SECTIONS):
            # the kept exponents first, then the zeroed; N >= 2 makes a tuple
            order = itemgetter(*(j for j in range(n) if j not in zeroed), *zeroed)
            gens = []
            for g in self.generators:
                terms = {}
                for m, c in g.terms.items():
                    m = order(m)
                    if not any(m[k:]):
                        terms[m[:k]] = c
                gens.append(Polynomial(k, self.field, terms))
            if Ideal(gens, k, self.field).height_at_least(k, budget):
                return True
        return False

    def _cap(self) -> int | None:
        """min(N, number of generators) when every generator is
        homogeneous of positive degree, which bounds a proper ideal's
        height (Krull); else None."""
        if all(g.is_homogeneous() and g.total_degree() > 0 for g in self.generators):
            return min(self.nvars, len(self.generators))
        return None

    def _height(self, goal: int, budget: Budget | None) -> int | float:
        """min(goal, height), read off the leading terms of a cached
        grevlex basis or of a run that stops once they reach ``goal``;
        +inf when they show the unit ideal.  A goal above N lets only
        the unit ideal stop a run.  The search ticks one ``max_steps``
        counter per call."""
        if not self.generators:
            return 0
        watch = _LeadingSupports(goal, Counter("height search nodes",
                                               (budget or DEFAULT_BUDGET).max_steps))
        entry = self._gb.get(GREVLEX.signature())
        if entry is not None:
            for d in entry[1]:
                if watch.add(d[2][1]):
                    break
        else:
            buchberger([_to_vec((g,)) for g in self.generators], pot_key(GREVLEX),
                       self.field, budget=budget, until=watch.add)
        return inf if watch.unit else watch.bound()

    # --- kernels and elimination ---

    def _kernel(self, column: VecDict, target: list[VecDict], rank: int,
                budget: Budget | None) -> "Ideal":
        """The ideal of h with h * column in the span of ``target`` in
        R^rank, as its reduced grevlex basis (see :func:`_modulo`)."""
        nvars, field = self.nvars, self.field
        kept = autoreduce(_modulo([column], target, rank, nvars, field, budget), field)
        return Ideal([_from_vec(_terms(d, field.one), rank + 1, nvars, field)[rank]
                      for d in kept], nvars, field)

    def intersection(self, other: "Ideal", budget: Budget | None = None) -> "Ideal":
        """I cap J: the h with h (e_0 + e_1) in I e_0 + J e_1, one
        position-over-term basis."""
        if self.nvars != other.nvars or self.field != other.field:
            raise ValueError("ideals live in different ambient rings")
        if self.is_zero() or other.is_zero():
            return Ideal([], self.nvars, self.field)
        one = Polynomial.constant(1, self.nvars, self.field)
        zero = Polynomial.zero(self.nvars, self.field)
        target = ([_to_vec((g, zero)) for g in self.generators]
                  + [_to_vec((zero, g)) for g in other.generators])
        return self._kernel(_to_vec((one, one)), target, 2, budget)

    def colon(self, other, budget: Budget | None = None) -> "Ideal":
        """I : J, one position-over-term basis.

        For J = (g_1..g_m) and I = (f_1..f_r), I : J is the set of h with
        h (g_1 e_0 + ... + g_m e_{m-1}) in the span of the f_i e_j.
        """
        if isinstance(other, Polynomial):
            other = Ideal([other], self.nvars, self.field)
        if self.nvars != other.nvars or self.field != other.field:
            raise ValueError("ideals live in different ambient rings")
        if other.is_zero():
            one = Polynomial.constant(1, self.nvars, self.field)
            return Ideal([one], self.nvars, self.field)
        m = len(other.generators)
        zero = Polynomial.zero(self.nvars, self.field)
        target = [_to_vec((zero,) * j + (f,)) for f in self.generators for j in range(m)]
        return self._kernel(_to_vec(other.generators), target, m, budget)

    def saturation(self, f: Polynomial, budget: Budget | None = None) -> "Ideal":
        """I : f^infinity: eliminate t from I + (1 - t*f) (Rabinowitsch).

        One basis in K[t, x] under ``elimination_order(1)``; its elements
        free of t generate the saturation.
        """
        if f.is_zero():
            raise ValueError("cannot saturate by zero")
        if f.nvars != self.nvars or f.field != self.field:
            raise ValueError("f lives in a different ambient ring")
        nv, field = self.nvars + 1, self.field
        lifted = [Polynomial(nv, field, {(0,) + m: c for m, c in g.terms.items()})
                  for g in self.generators]
        rabinowitsch = {(1,) + m: -c for m, c in f.terms.items()}
        lifted.append(Polynomial(nv, field, {(0,) * nv: 1, **rabinowitsch}))
        gb = groebner_basis(lifted, elimination_order(1), budget)
        kept = [Polynomial(self.nvars, field, {m[1:]: c for m, c in g.terms.items()})
                for g in gb if all(m[0] == 0 for m in g.terms)]
        return Ideal(kept, self.nvars, field)

    def __repr__(self):
        inside = "; ".join(repr(g) for g in self.generators) or "0"
        return f"Ideal({inside})"


def leading_form_ideal(gens: Sequence[Polynomial],
                       budget: Budget | None = None) -> Ideal:
    """Ideal of top-degree forms of all elements of (gens).

    The top-degree forms of a grevlex Groebner basis generate it, since
    grevlex refines the degree (Cox, Little and O'Shea, *Ideals,
    Varieties, and Algorithms*, Ch. 8 Sec. 4).
    """
    if not gens or any(g.is_zero() for g in gens):
        raise ValueError("generators must be nonzero")
    return Ideal([g.homogeneous_component(g.total_degree())
                  for g in groebner_basis(gens, GREVLEX, budget)])
