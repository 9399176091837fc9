"""Exact sparse multivariate polynomials, forms, and graded spaces.

A polynomial over ``K[x1..xN]`` is stored as a dict mapping exponent
tuples (one nonnegative int per variable) to nonzero coefficients in
the canonical form of the coefficient field.  The zero polynomial has
an empty term dict.  Values are immutable after construction and every
operation returns a fresh value, so everything here is safe to share
across threads.

A *form* is a nonzero homogeneous polynomial of positive degree.
:class:`Form` is a :class:`Polynomial` that adds its degree, so every
function that takes a polynomial takes a form as it is.  A *graded
space* is a finite-dimensional span of forms, reduced to a homogeneous
echelon basis, with its dimension sequence (trailing zeros stripped,
compared in the largest-differing-index well-order).
"""

from __future__ import annotations

from fractions import Fraction
from operator import neg
from typing import Iterable, Sequence

from .fields import CoefficientField, _Frozen

Monomial = tuple[int, ...]


def mono_degree(m: Monomial) -> int:
    return sum(m)


def mono_mul(a: Monomial, b: Monomial) -> Monomial:
    return tuple(x + y for x, y in zip(a, b))


def monomials(nvars: int, degree: int):
    """Yield the exponent tuples of one total degree in ``nvars`` variables,
    lexicographically ascending (the first exponent ascending)."""
    if nvars <= 1:
        if nvars == 1 or degree == 0:
            yield (degree,) * nvars
        return
    for first in range(degree + 1):
        for rest in monomials(nvars - 1, degree - first):
            yield (first,) + rest


def grevlex_key(m: Monomial):
    """Sort key for graded reverse lexicographic order (bigger key = bigger monomial)."""
    return (sum(m), tuple(map(neg, reversed(m))))


class Polynomial(_Frozen):
    """Immutable exact sparse polynomial in a fixed ambient ring."""

    __slots__ = ("nvars", "field", "terms")

    def __init__(self, nvars: int, field: CoefficientField, terms=None):
        clean: dict[Monomial, object] = {}
        if terms:
            for mono, coeff in (terms.items() if isinstance(terms, dict) else terms):
                mono = tuple(mono)
                if len(mono) != nvars:
                    raise ValueError(f"monomial {mono} does not have {nvars} entries")
                if any(e < 0 for e in mono):
                    raise ValueError(f"negative exponent in {mono}")
                c = field.coerce(coeff)
                if mono in clean:
                    c = clean[mono] + c
                    if field.p is not None:
                        c %= field.p
                if c:
                    clean[mono] = c
                elif mono in clean:
                    del clean[mono]
        object.__setattr__(self, "nvars", nvars)
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "terms", clean)

    # ----- constructors (plain polynomials on either class) -----

    @classmethod
    def zero(cls, nvars: int, field: CoefficientField) -> "Polynomial":
        return Polynomial(nvars, field)

    @classmethod
    def constant(cls, value, nvars: int, field: CoefficientField) -> "Polynomial":
        return Polynomial(nvars, field, {(0,) * nvars: value})

    @classmethod
    def variable(cls, i: int, nvars: int, field: CoefficientField) -> "Polynomial":
        if not 0 <= i < nvars:
            raise ValueError(f"variable index {i} out of range for {nvars} variables")
        mono = tuple(1 if j == i else 0 for j in range(nvars))
        return Polynomial(nvars, field, {mono: 1})

    def _with_terms(self, terms: dict) -> "Polynomial":
        """A polynomial of this ring from canonical nonzero ``terms``,
        taken as they are."""
        result = Polynomial.__new__(Polynomial)
        object.__setattr__(result, "nvars", self.nvars)
        object.__setattr__(result, "field", self.field)
        object.__setattr__(result, "terms", terms)
        return result

    # ----- queries -----

    def is_zero(self) -> bool:
        return not self.terms

    def total_degree(self) -> int:
        """Total degree; -1 for the zero polynomial."""
        return max((sum(m) for m in self.terms), default=-1)

    def is_homogeneous(self) -> bool:
        degs = {sum(m) for m in self.terms}
        return len(degs) <= 1

    def homogeneous_component(self, d: int) -> "Polynomial":
        return Polynomial(self.nvars, self.field,
                          {m: c for m, c in self.terms.items() if sum(m) == d})

    # ----- arithmetic -----

    def _check_compatible(self, other: "Polynomial"):
        if self.nvars != other.nvars or self.field != other.field:
            raise ValueError("polynomials live in different ambient rings")

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            other = Polynomial.constant(other, self.nvars, self.field)
        self._check_compatible(other)
        p = self.field.p
        out = dict(self.terms)
        for m, c in other.terms.items():
            v = out.get(m, 0) + c
            if p:
                v %= p
            if v:
                out[m] = v
            elif m in out:
                del out[m]
        return self._with_terms(out)

    def __neg__(self):
        p = self.field.p
        out = {m: (-c % p if p else -c) for m, c in self.terms.items()}
        return self._with_terms(out)

    def __sub__(self, other):
        if isinstance(other, (int, Fraction)):
            other = Polynomial.constant(other, self.nvars, self.field)
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            c = self.field.coerce(other)
            if not c:
                return Polynomial.zero(self.nvars, self.field)
            return self.scale(c)
        self._check_compatible(other)
        p = self.field.p
        out: dict[Monomial, object] = {}
        for ma, ca in self.terms.items():
            for mb, cb in other.terms.items():
                m = tuple(x + y for x, y in zip(ma, mb))
                v = out.get(m, 0) + ca * cb
                if p:
                    v %= p
                if v:
                    out[m] = v
                elif m in out:
                    del out[m]
        return self._with_terms(out)

    __rmul__ = __mul__
    __radd__ = __add__

    def scale(self, coeff) -> "Polynomial":
        """Multiply by a nonzero canonical coefficient (no coercion)."""
        p = self.field.p
        out = {m: (c * coeff % p if p else c * coeff) for m, c in self.terms.items()}
        return self._with_terms(out)

    def __pow__(self, n: int):
        if n < 0:
            raise ValueError("negative power")
        acc = Polynomial.constant(1, self.nvars, self.field)
        base = self
        while n:
            if n & 1:
                acc = acc * base
            base = base * base if n > 1 else base
            n >>= 1
        return acc

    def __eq__(self, other):
        if not isinstance(other, Polynomial):
            return NotImplemented
        return (self.nvars == other.nvars and self.field == other.field
                and self.terms == other.terms)

    def __hash__(self):
        return hash((self.nvars, self.field, frozenset(self.terms.items())))

    def __bool__(self):
        return bool(self.terms)

    def __repr__(self):
        from .grammar import format_polynomial
        return format_polynomial(self)

    # ----- structural maps -----

    def extended(self, nvars: int) -> "Polynomial":
        """The same polynomial viewed in a larger ring (new variables appended)."""
        if nvars < self.nvars:
            raise ValueError("cannot shrink the ambient ring")
        pad = (0,) * (nvars - self.nvars)
        return Polynomial(nvars, self.field, {m + pad: c for m, c in self.terms.items()})


class Form(Polynomial):
    """A nonzero homogeneous polynomial of positive degree: a
    :class:`Polynomial` that adds its ``degree``."""

    __slots__ = ("degree",)

    def __init__(self, poly: Polynomial):
        if poly.is_zero():
            raise ValueError("a form must be nonzero")
        if not poly.is_homogeneous():
            raise ValueError("a form must be homogeneous")
        d = poly.total_degree()
        if d < 1:
            raise ValueError("a form must have positive degree")
        object.__setattr__(self, "nvars", poly.nvars)
        object.__setattr__(self, "field", poly.field)
        object.__setattr__(self, "terms", poly.terms)
        object.__setattr__(self, "degree", d)


def as_form(value: Polynomial) -> Form:
    return value if isinstance(value, Form) else Form(value)


# ----- differential and grading utilities -----


def partial_derivative(f: Polynomial, i: int) -> Polynomial:
    """Formal partial derivative with respect to x_i, in the field characteristic."""
    if not 0 <= i < f.nvars:
        raise ValueError(f"variable index {i} out of range")
    terms = {}
    for m, c in f.terms.items():
        e = m[i]
        if e:
            coeff = c * e
            mono = m[:i] + (e - 1,) + m[i + 1:]
            terms[mono] = terms.get(mono, 0) + coeff
    return Polynomial(f.nvars, f.field, terms)


def gradient(f: Polynomial) -> list[Polynomial]:
    return [partial_derivative(f, i) for i in range(f.nvars)]


def jacobian(forms: Sequence[Polynomial]) -> list[list[Polynomial]]:
    """Jacobian matrix: row i is the gradient of forms[i]."""
    if not forms:
        raise ValueError("need at least one form")
    return [gradient(f) for f in forms]


# ----- exact linear algebra over the coefficient field -----


def echelon_basis(polys: Iterable[Polynomial]) -> list[Polynomial]:
    """Reduced echelon basis of the span, pivoting on grevlex-largest monomials.

    Output polynomials are monic with strictly decreasing pivot monomials;
    zero inputs are dropped.  Deterministic for a fixed input order.
    """
    basis: list[tuple[Monomial, Polynomial]] = []  # (pivot, monic poly), pivot descending
    for f in polys:
        for pivot, g in basis:
            c = f.terms.get(pivot)
            if c:
                f = f - g.scale(c)
        if f.is_zero():
            continue
        pivot = max(f.terms, key=grevlex_key)
        f = f.scale(f.field.inv(f.terms[pivot]))
        # back-substitute into the existing rows
        basis = [(pv, (g - f.scale(g.terms[pivot])) if pivot in g.terms else g)
                 for pv, g in basis]
        basis.append((pivot, f))
        basis.sort(key=lambda item: grevlex_key(item[0]), reverse=True)
    return [g for _, g in basis]


def coordinates_in_span(f: Polynomial, basis: Sequence[Polynomial]):
    """Coordinates of f in the span of an echelon basis, or None if outside.

    ``basis`` must come from :func:`echelon_basis` (monic, reduced).
    """
    coords = []
    rem = f
    pivots = [max(g.terms, key=grevlex_key) for g in basis]
    for g, pivot in zip(basis, pivots):
        c = rem.terms.get(pivot)
        if c:
            coords.append(c)
            rem = rem - g.scale(c)
        else:
            coords.append(f.field.zero)
    if not rem.is_zero():
        return None
    return coords


# ----- dimension sequences and graded spaces -----


class DimensionSequence(tuple):
    """Graded-piece dimensions with trailing zeros stripped.

    Ordered by comparing entries at the largest index where two
    (zero-padded) sequences differ; this is a well-ordering.
    """

    def __new__(cls, entries: Iterable[int]):
        entries = tuple(int(e) for e in entries)
        if any(e < 0 for e in entries):
            raise ValueError("dimension sequence entries must be nonnegative")
        while entries and entries[-1] == 0:
            entries = entries[:-1]
        return super().__new__(cls, entries)

    def compare(self, other: "DimensionSequence") -> int:
        """-1, 0, or 1 as self precedes, equals, or follows other."""
        other = DimensionSequence(other)
        n = max(len(self), len(other))
        a = tuple(self) + (0,) * (n - len(self))
        b = tuple(other) + (0,) * (n - len(other))
        for i in range(n - 1, -1, -1):
            if a[i] != b[i]:
                return -1 if a[i] < b[i] else 1
        return 0

    def __lt__(self, other):
        return self.compare(other) < 0

    def __le__(self, other):
        return self.compare(other) <= 0

    def __gt__(self, other):
        return self.compare(other) > 0

    def __ge__(self, other):
        return self.compare(other) >= 0

    @property
    def total(self) -> int:
        return sum(self)


class GradedSpace(_Frozen):
    """A finite-dimensional graded span of forms, held as an echelon basis."""

    __slots__ = ("basis",)

    def __init__(self, basis: Sequence[Form]):
        object.__setattr__(self, "basis", tuple(basis))

    @classmethod
    def from_forms(cls, forms: Iterable[Polynomial]) -> "GradedSpace":
        by_degree: dict[int, list[Polynomial]] = {}
        ambient = None
        for f in forms:
            f = as_form(f)
            if ambient is None:
                ambient = (f.nvars, f.field)
            elif ambient != (f.nvars, f.field):
                raise ValueError("forms live in different ambient rings")
            by_degree.setdefault(f.degree, []).append(f)
        basis: list[Form] = []
        for d in sorted(by_degree):
            basis.extend(Form(g) for g in echelon_basis(by_degree[d]))
        if not basis:
            raise ValueError("a graded space needs at least one nonzero form")
        return cls(basis)

    @property
    def nvars(self) -> int:
        return self.basis[0].nvars

    @property
    def field(self) -> CoefficientField:
        return self.basis[0].field

    @property
    def dimension(self) -> int:
        return len(self.basis)

    def piece(self, degree: int) -> list[Form]:
        return [f for f in self.basis if f.degree == degree]

    @property
    def dimension_sequence(self) -> DimensionSequence:
        top = max(f.degree for f in self.basis)
        counts = [0] * top
        for f in self.basis:
            counts[f.degree - 1] += 1
        return DimensionSequence(counts)

    def __repr__(self):
        return f"GradedSpace(dim={self.dimension}, delta={tuple(self.dimension_sequence)})"
