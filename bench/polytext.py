"""Polynomial text and arithmetic for the benchmark's own use.

The benchmark writes its inputs as grammar text (``3*x1^2*x2 + x3``) and
checks witnesses by re-multiplying the factors printed in a report.  Both
jobs use this small dict-based arithmetic instead of ``smallsub``, so an
answer check never runs the code it checks.

A polynomial is a dict mapping exponent tuples to nonzero integers; with a
prime ``p`` the integers are residues in [0, p), with ``p=None`` they are
plain integers.
"""

from __future__ import annotations

import re

_TERM = re.compile(r"\s*([+-]?)\s*([^+-]+)")


def grevlex_key(mono):
    """Bigger key means bigger monomial in graded reverse lex order."""
    return (sum(mono), tuple(-e for e in reversed(mono)))


def normalize(poly: dict, p: int | None) -> dict:
    if p is None:
        return {m: c for m, c in poly.items() if c}
    return {m: c % p for m, c in poly.items() if c % p}


def add(a: dict, b: dict, p: int | None, scale: int = 1) -> dict:
    """a + scale*b."""
    out = dict(a)
    for m, c in b.items():
        v = out.get(m, 0) + scale * c
        if p is not None:
            v %= p
        if v:
            out[m] = v
        else:
            out.pop(m, None)
    return out


def mul(a: dict, b: dict, p: int | None) -> dict:
    out: dict = {}
    for ma, ca in a.items():
        for mb, cb in b.items():
            m = tuple(x + y for x, y in zip(ma, mb))
            v = out.get(m, 0) + ca * cb
            if p is not None:
                v %= p
            if v:
                out[m] = v
            else:
                out.pop(m, None)
    return out


def degree(poly: dict) -> int:
    return max((sum(m) for m in poly), default=-1)


def leading_monomial(poly: dict):
    return max(poly, key=grevlex_key)


def parse(text: str, nvars: int) -> dict:
    """Parse grammar text (integer coefficients, ``x1..xN``) into a dict."""
    out: dict = {}
    text = text.strip()
    if text == "0":
        return out
    pos = 0
    for match in _TERM.finditer(text):
        if match.start() != pos:
            raise ValueError(f"cannot parse {text!r}")
        pos = match.end()
        sign = -1 if match.group(1) == "-" else 1
        coeff, mono = 1, [0] * nvars
        for factor in match.group(2).strip().split("*"):
            factor = factor.strip()
            if factor.startswith("x"):
                name, _, exp = factor.partition("^")
                mono[int(name[1:]) - 1] += int(exp) if exp else 1
            else:
                coeff *= int(factor)
        m = tuple(mono)
        v = out.get(m, 0) + sign * coeff
        if v:
            out[m] = v
        else:
            out.pop(m, None)
    if pos != len(text):
        raise ValueError(f"cannot parse {text!r}")
    return out


def _mono_text(mono) -> str:
    return "*".join(f"x{i + 1}" if e == 1 else f"x{i + 1}^{e}"
                    for i, e in enumerate(mono) if e)


def format_text(poly: dict) -> str:
    """Grammar text, terms in descending grevlex order."""
    if not poly:
        return "0"
    parts = []
    for mono in sorted(poly, key=grevlex_key, reverse=True):
        c = poly[mono]
        body = _mono_text(mono)
        mag = abs(c)
        if not body:
            body = str(mag)
        elif mag != 1:
            body = f"{mag}*{body}"
        if not parts:
            parts.append(body if c > 0 else f"-{body}")
        else:
            parts.append(f" + {body}" if c > 0 else f" - {body}")
    return "".join(parts)


def monomials(nvars: int, deg: int) -> list:
    """All exponent tuples of total degree ``deg``, in a fixed order."""
    if nvars == 1:
        return [(deg,)]
    return [(first,) + rest for first in range(deg, -1, -1)
            for rest in monomials(nvars - 1, deg - first)]


def random_form(rng, nvars: int, deg: int, p: int) -> dict:
    """A nonzero form with every coefficient drawn uniformly from F_p."""
    pool = monomials(nvars, deg)
    while True:
        poly = normalize({m: rng.randrange(p) for m in pool}, p)
        if poly:
            return poly
