"""Text grammar for polynomials, shared by the CLI and fixtures.

Grammar: variables ``x1..xN`` (1-indexed, N at most MAX_VARIABLES),
integer coefficients, and the operators ``+ - * ^``, e.g.
``3*x1^2*x2 - x3^3``.  Whitespace is free.
Formatting is bit-exact and deterministic: terms are printed in
descending grevlex order; rational coefficients are cleared to a
primitive integer vector with positive leading coefficient, which
rescales a polynomial over Q but never changes the ideal it generates.
"""

from __future__ import annotations

from math import gcd

from .fields import CoefficientField
from .poly import Polynomial, grevlex_key


#: Largest ambient variable count, so that ``x99999999`` or a huge
#: ``nvars`` is a ParseError instead of a monomial tuple of that length.
MAX_VARIABLES = 1000


class ParseError(ValueError):
    """Malformed polynomial text; carries the offending position."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


_TOKEN_CHARS = set("+-*^")


def _integer(text: str, i: int, j: int) -> int:
    """The decimal literal text[i:j]; Python refuses to convert one longer
    than its int-string digit limit (4300 digits by default)."""
    try:
        return int(text[i:j])
    except ValueError:
        raise ParseError(f"integer literal of {j - i} digits is too long", i) from None


def _tokenize(text: str):
    tokens = []  # (kind, value, pos); kinds: int, var, op
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch in _TOKEN_CHARS:
            tokens.append(("op", ch, i))
            i += 1
            continue
        if ch.isdecimal():
            j = i
            while j < n and text[j].isdecimal():
                j += 1
            tokens.append(("int", _integer(text, i, j), i))
            i = j
            continue
        if ch == "x":
            j = i + 1
            while j < n and text[j].isdecimal():
                j += 1
            if j == i + 1:
                raise ParseError("variable needs an index, like x1", i)
            idx = _integer(text, i + 1, j)
            if idx < 1:
                raise ParseError("variable indices start at x1", i)
            if idx > MAX_VARIABLES:
                raise ParseError(f"variable x{idx} exceeds the cap of "
                                 f"{MAX_VARIABLES} variables", i)
            tokens.append(("var", idx - 1, i))
            i = j
            continue
        raise ParseError(f"unexpected character {ch!r}", i)
    return tokens


def parse_polynomial(text: str, field: CoefficientField,
                     nvars: int | None = None) -> Polynomial:
    """Parse grammar text into a polynomial.

    When ``nvars`` is None the ambient size is the largest variable index
    mentioned (at least 1).
    """
    if nvars is not None and nvars > MAX_VARIABLES:
        raise ParseError(f"{nvars} variables exceed the cap of {MAX_VARIABLES}", 0)
    tokens = _tokenize(text)
    if not tokens:
        raise ParseError("empty polynomial text", 0)
    max_index = max((v for k, v, _ in tokens if k == "var"), default=-1)
    if nvars is None:
        nvars = max_index + 1 if max_index >= 0 else 1
    elif max_index >= nvars:
        _, _, pos = next(t for t in tokens if t[0] == "var" and t[1] == max_index)
        raise ParseError(f"variable x{max_index + 1} exceeds ambient size {nvars}", pos)

    pos = 0

    def peek():
        return tokens[pos] if pos < len(tokens) else (None, None, len(text))

    def take():
        nonlocal pos
        tok = peek()
        pos += 1
        return tok

    def parse_factor():
        kind, value, at = take()
        if kind == "int":
            return int(value), (0,) * nvars
        if kind == "var":
            exps = [0] * nvars
            exp = 1
            if peek()[0] == "op" and peek()[1] == "^":
                take()
                k2, v2, at2 = take()
                if k2 != "int":
                    raise ParseError("exponent must be an integer", at2)
                exp = v2
            exps[value] = exp
            return 1, tuple(exps)
        raise ParseError("expected a coefficient or a variable", at)

    def parse_term():
        coeff, mono = parse_factor()
        while peek()[0] == "op" and peek()[1] == "*":
            take()
            c2, m2 = parse_factor()
            coeff *= c2
            mono = tuple(a + b for a, b in zip(mono, m2))
        return coeff, mono

    terms: list[tuple[tuple[int, ...], int]] = []
    sign = 1
    kind, value, _ = peek()
    if kind == "op" and value in "+-":
        take()
        sign = -1 if value == "-" else 1
    while True:
        coeff, mono = parse_term()
        terms.append((mono, sign * coeff))
        kind, value, at = peek()
        if kind is None:
            break
        if kind == "op" and value in "+-":
            take()
            sign = -1 if value == "-" else 1
            continue
        raise ParseError("expected '+' or '-' between terms", at)
    return Polynomial(nvars, field, terms)


def _format_mono(mono) -> str:
    parts = []
    for i, e in enumerate(mono):
        if e == 1:
            parts.append(f"x{i + 1}")
        elif e > 1:
            parts.append(f"x{i + 1}^{e}")
    return "*".join(parts)


def format_polynomial(f: Polynomial) -> str:
    """Deterministic grammar text for a polynomial."""
    if not f.terms:
        return "0"
    items = sorted(f.terms.items(), key=lambda kv: grevlex_key(kv[0]), reverse=True)
    if f.field.p is None:
        # clear denominators to a primitive integer form with positive lead
        denom = 1
        for _, c in items:
            denom = denom * c.denominator // gcd(denom, c.denominator)
        numerators = [int(c * denom) for _, c in items]
        g = 0
        for v in numerators:
            g = gcd(g, abs(v))
        if numerators[0] < 0:
            g = -g
        coeffs = [v // g for v in numerators]
    else:
        coeffs = [c for _, c in items]
    out = []
    for (mono, _), c in zip(items, coeffs):
        mono_text = _format_mono(mono)
        mag = abs(c)
        if not mono_text:
            body = str(mag)
        elif mag == 1:
            body = mono_text
        else:
            body = f"{mag}*{mono_text}"
        if not out:
            out.append(body if c > 0 else f"-{body}")
        else:
            out.append(f" + {body}" if c > 0 else f" - {body}")
    return "".join(out)


def parse_generators(text: str, field: CoefficientField,
                     nvars: int | None = None) -> list[Polynomial]:
    """Parse a semicolon-separated generator list with one shared ambient size."""
    chunks = [c for c in (piece.strip() for piece in text.split(";")) if c]
    if not chunks:
        raise ParseError("no generators given", 0)
    if nvars is None:
        nvars = 1
        for chunk in chunks:
            for kind, value, _ in _tokenize(chunk):
                if kind == "var":
                    nvars = max(nvars, value + 1)
    return [parse_polynomial(chunk, field, nvars) for chunk in chunks]


def parse_forms_file(text: str, field: CoefficientField,
                     nvars: int | None = None) -> list[Polynomial]:
    """One polynomial per line; ``#`` starts a comment; blank lines skipped."""
    lines = []
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if line:
            lines.append(line)
    if not lines:
        raise ParseError("no polynomials in file", 0)
    return parse_generators(";".join(lines), field, nvars)
