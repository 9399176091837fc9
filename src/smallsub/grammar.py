"""Text grammar for polynomials, shared by the CLI and fixtures.

Grammar: a sum of signed terms, the first sign optional, e.g.
``3*x1^2*x2 - x3^3``.  A term is a ``*``-joined product of factors; a
factor is an integer literal, or a variable ``x1..xN`` (1-indexed, N at
most MAX_VARIABLES) with an optional integer exponent ``^e``.  Literals
are runs of Unicode decimal digits (``str.isdecimal``).  Whitespace
(``str.isspace``) may come between tokens but not inside one, so
``x 12`` is no variable.

Reading: compiled patterns read valid text in bulk (``re``'s ``\\d`` and
``\\s`` are exactly those two predicates).  One ``fullmatch`` checks the
whole text in time linear in its length, a split at the signs cuts it
into terms, and each distinct term, keyed without its leading
coefficient, is decoded once through a bounded cache.  Text the pattern
rejects, or whose terms break an index, cap or literal-length rule, goes
to the error routine :func:`_fail`.  It runs the token-by-token parser,
:func:`_parse_slowly`, which raises the positioned :class:`ParseError`
of the first rule broken: a lexical error anywhere in the text comes
before the ambient-size check, and that check before any syntax error.
The same parser is the oracle the pattern reader is tested against.

Formatting is bit-exact and deterministic: terms are printed in
descending grevlex order; rational coefficients are cleared to a
primitive integer vector with positive leading coefficient, which
rescales a polynomial over Q but never changes the ideal it generates.
"""

from __future__ import annotations

import re
from functools import lru_cache
from math import gcd

from .budget import InternalError
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


_FACTOR = r"(?:\d+|x\d+(?:\s*\^\s*\d+)?)"
_TERM = _FACTOR + r"(?:\s*\*\s*" + _FACTOR + ")*"
#: The whole text of a polynomial.  No run of whitespace can be split
#: two ways between tokens, so a match costs time linear in the text.
_TEXT = re.compile(r"\s*(?:[-+]\s*)?" + _TERM + r"(?:\s*[-+]\s*" + _TERM + r")*\s*")
_SIGN = re.compile(r"([-+])")

#: Distinct terms kept decoded, each keyed by its text without the
#: leading coefficient.  The bench workloads read 477 distinct ones among
#: 14,298 terms (engine setup), 122 among 5,682 (certify setup) and 32
#: among 890 (a collapse round); the cache halves the engine's read time.
_TERMS_CACHED = 1024


@lru_cache(maxsize=_TERMS_CACHED)
def _factors(body: str) -> tuple[int, tuple[tuple[int, int], ...], int]:
    """(coefficient, (variable, exponent) pairs, largest variable or -1)
    of a matched term; ValueError if it breaks an index or a
    literal-length rule."""
    coeff, exps = 1, {}
    for factor in body.split("*"):
        factor = factor.strip()
        if factor[0] != "x":
            coeff *= int(factor)
            continue
        index, _, exp = factor[1:].partition("^")
        var = int(index) - 1
        if not 0 <= var < MAX_VARIABLES:
            raise ValueError(f"variable index {var + 1} out of range")
        exps[var] = exps.get(var, 0) + (int(exp) if exp else 1)
    return coeff, tuple(exps.items()), max(exps, default=-1)


def _read(text: str):
    """(signed coefficient, (variable, exponent) pairs) of each term of
    valid text and its largest variable (-1 for none), or None when the
    text is not valid."""
    if _TEXT.fullmatch(text) is None:
        return None
    pieces = _SIGN.split(text)
    if pieces[0].strip():
        pieces.insert(0, "+")
    else:  # a leading sign
        del pieces[0]
    terms, top = [], -1
    try:
        for sign, term in zip(pieces[::2], pieces[1::2]):
            lead, star, body = term.partition("*")
            if star and lead.strip()[0] != "x":
                lead = int(lead)
            else:
                lead, body = 1, term
            coeff, pairs, last = _factors(body.strip())
            coeff *= lead
            terms.append((-coeff if sign == "-" else coeff, pairs))
            if last > top:
                top = last
    except ValueError:
        return None
    return terms, top


def _monomial(pairs, nvars: int) -> tuple[int, ...]:
    """The exponent tuple of a decoded term in ``nvars`` variables."""
    mono = [0] * nvars
    for var, exp in pairs:
        mono[var] = exp
    return tuple(mono)


def _parse(chunks: list[str], field: CoefficientField,
           nvars: int | None) -> list[Polynomial]:
    """Read each chunk once; one ambient size for all of them, the
    largest variable mentioned (at least 1) when ``nvars`` is None."""
    reads = [_read(chunk) for chunk in chunks]
    if None in reads:
        _fail(chunks, field, nvars)
    top = max(last for _, last in reads)
    if nvars is None:
        nvars = max(top + 1, 1)
    elif top >= nvars:
        _fail(chunks, field, nvars)
    return [Polynomial(nvars, field, [(_monomial(pairs, nvars), c) for c, pairs in terms])
            for terms, _ in reads]


def _check_ambient_size(nvars: int | None):
    if nvars is not None and nvars < 0:
        raise ParseError(f"ambient size {nvars} must be nonnegative", 0)
    if nvars is not None and nvars > MAX_VARIABLES:
        raise ParseError(f"{nvars} variables exceed the cap of {MAX_VARIABLES}", 0)


# ----- the token-by-token parser: the error routine, and the oracle the
# ----- pattern reader is tested against

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


def _parse_tokens(text: str, tokens, field: CoefficientField, nvars: int) -> Polynomial:
    if not tokens:
        raise ParseError("empty polynomial text", 0)
    max_index = max((v for k, v, _ in tokens if k == "var"), default=-1)
    if max_index >= nvars:
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


def _parse_slowly(chunks: list[str], field: CoefficientField,
                  nvars: int | None) -> list[Polynomial]:
    """What :func:`_parse` returns, read token by token.  With ``nvars``
    inferred every chunk is lexed first, so a lexical error in any chunk
    comes before the ambient-size check; then each chunk in order is
    checked for its ambient size and its syntax."""
    if nvars is None:
        lexed = [_tokenize(chunk) for chunk in chunks]
        nvars = max([1] + [v + 1 for tokens in lexed for kind, v, _ in tokens if kind == "var"])
    else:
        lexed = map(_tokenize, chunks)
    return [_parse_tokens(chunk, tokens, field, nvars) for chunk, tokens in zip(chunks, lexed)]


def _fail(chunks: list[str], field: CoefficientField, nvars: int | None):
    """Raise the ParseError of chunks the pattern reader rejected."""
    _parse_slowly(chunks, field, nvars)
    raise InternalError("the polynomial reader rejected text with no parse error")


def parse_polynomial(text: str, field: CoefficientField,
                     nvars: int | None = None) -> Polynomial:
    """Parse grammar text into a polynomial.

    When ``nvars`` is None the ambient size is the largest variable index
    mentioned (at least 1).
    """
    _check_ambient_size(nvars)
    return _parse([text], field, nvars)[0]


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
    _check_ambient_size(nvars)
    return _parse(chunks, field, nvars)


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
