"""Exact coefficient fields: small prime fields F_p and the rationals.

There is no floating point anywhere in this package.  Prime-field
coefficients are canonical machine residues in [0, p); rational
coefficients are `fractions.Fraction` values.  Raw coefficients flow
through the arithmetic engines as plain ints or Fractions, with the
field object supplying normalization, inversion and parsing.
"""

from __future__ import annotations

from fractions import Fraction


def _is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin on the first 13 prime bases, exact below
    3,317,044,064,679,887,385,961,981 (Sorenson and Webster, Math. Comp.
    2017); a larger n raises ValueError instead of an unproven answer."""
    if n >= 3_317_044_064_679_887_385_961_981:
        raise ValueError(f"characteristic {n} is too large to certify as prime")
    bases = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
    if n < 2:
        return False
    if any(n % a == 0 for a in bases):
        return n in bases
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in bases:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


class _Frozen:
    """Base of the immutable value types, which hold their values in slots.

    Every attribute write or delete raises AttributeError, so constructors
    write through ``object.__setattr__``.  Pickle, copy and deepcopy carry
    the slots along the MRO; a private slot is a cache, which comes back
    as an empty dict.
    """

    __slots__ = ()

    def __setattr__(self, *_):
        raise AttributeError(f"{type(self).__name__} is immutable")

    __delattr__ = __setattr__

    def __getstate__(self):
        return {name: {} if name.startswith("_") else getattr(self, name)
                for cls in type(self).__mro__ for name in cls.__dict__.get("__slots__", ())}

    def __setstate__(self, state: dict):
        for name, value in state.items():
            object.__setattr__(self, name, value)


class CoefficientField(_Frozen):
    """F_p when ``p`` is a prime, the rationals when ``p`` is None."""

    __slots__ = ("p",)

    def __init__(self, p: int | None = None):
        if p is not None and not _is_prime(p):
            raise ValueError(f"characteristic must be prime, got {p}")
        object.__setattr__(self, "p", p)

    @property
    def characteristic(self) -> int:
        return self.p or 0

    def coerce(self, value) -> int | Fraction:
        """Canonical form of a coefficient: residue in [0, p) or Fraction."""
        if self.p is not None:
            if isinstance(value, Fraction):
                if value.denominator % self.p == 0:
                    raise ZeroDivisionError(f"denominator divisible by {self.p}")
                return value.numerator * pow(value.denominator, -1, self.p) % self.p
            return int(value) % self.p
        if isinstance(value, Fraction):
            return value
        return Fraction(value)

    @property
    def zero(self) -> int | Fraction:
        return 0 if self.p is not None else Fraction(0)

    @property
    def one(self) -> int | Fraction:
        return 1 if self.p is not None else Fraction(1)

    def inv(self, value):
        if self.p is not None:
            return pow(value, -1, self.p)
        return 1 / value

    def __eq__(self, other):
        return isinstance(other, CoefficientField) and self.p == other.p

    def __hash__(self):
        return hash(("CoefficientField", self.p))

    def __repr__(self):
        return f"GF({self.p})" if self.p is not None else "QQ"

    def spec(self) -> str:
        """Command-line/JSON field spec: ``p=5`` or ``Q``."""
        return f"p={self.p}" if self.p is not None else "Q"


def GF(p: int) -> CoefficientField:
    """The prime field with p elements."""
    return CoefficientField(p)


#: The field of rational numbers.
QQ = CoefficientField(None)


def parse_field_spec(text: str) -> CoefficientField:
    """Parse a field spec string: ``p=5`` or ``Q`` (case-insensitive)."""
    text = text.strip()
    if text.upper() == "Q":
        return QQ
    if text.startswith("p="):
        try:
            return GF(int(text[2:]))
        except ValueError as exc:
            raise ValueError(f"bad field spec {text!r}: {exc}") from None
    raise ValueError(f"bad field spec {text!r}: expected 'p=<prime>' or 'Q'")
