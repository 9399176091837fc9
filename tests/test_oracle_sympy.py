"""Cross-checks of the Groebner engine against an independent system."""

import random
from itertools import product
from math import inf

import pytest

sympy = pytest.importorskip("sympy")

from smallsub.fields import GF, QQ
from smallsub.grammar import format_polynomial
from smallsub.groebner import GREVLEX, LEX, Ideal, groebner_basis
from smallsub.poly import Polynomial

F5 = GF(5)


def _to_sympy(f, symbols):
    expr = 0
    for mono, coeff in f.terms.items():
        term = sympy.Integer(int(coeff))
        for x, e in zip(symbols, mono):
            term *= x ** e
        expr += term
    return expr


def _from_sympy(expr, symbols, nvars):
    poly = sympy.Poly(expr, *symbols)
    terms = {}
    for mono, coeff in poly.terms():
        terms[tuple(int(e) for e in mono)] = int(coeff) % 5
    return Polynomial(nvars, F5, terms)


def random_poly(rng, nvars, maxdeg):
    def monos(n, d):
        if n == 0:
            return [()]
        return [(e,) + rest for e in range(d + 1) for rest in monos(n - 1, d - e)]
    pool = [m for m in monos(nvars, maxdeg) if sum(m) > 0]
    while True:
        terms = {m: rng.randint(0, 4)
                 for m in rng.sample(pool, min(len(pool), rng.randint(1, 4)))}
        f = Polynomial(nvars, F5, terms)
        if not f.is_zero():
            return f


@pytest.mark.parametrize("order_name", ["grevlex", "lex"])
def test_groebner_matches_sympy(order_name):
    rng = random.Random(20240 + len(order_name))
    order = GREVLEX if order_name == "grevlex" else LEX
    for _ in range(10):
        nvars = rng.randint(2, 3)
        symbols = sympy.symbols(f"x1:{nvars + 1}")
        gens = [random_poly(rng, nvars, rng.randint(1, 3))
                for _ in range(rng.randint(1, 3))]
        ours = groebner_basis(gens, order)
        theirs = sympy.groebner([_to_sympy(g, symbols) for g in gens],
                                *symbols, order=order_name, modulus=5)
        converted = sorted((_from_sympy(e, symbols, nvars) for e in theirs.exprs),
                           key=lambda f: sorted(f.terms))
        ours_sorted = sorted(ours, key=lambda f: sorted(f.terms))
        assert len(converted) == len(ours_sorted)
        for a, b in zip(ours_sorted, converted):
            # sympy normalizes mod-p leads differently; compare up to scalar
            ratio = None
            assert set(a.terms) == set(b.terms), (format_polynomial(a),
                                                  format_polynomial(b))
            for m in a.terms:
                r = (b.terms[m] * pow(a.terms[m], -1, 5)) % 5
                if ratio is None:
                    ratio = r
                assert r == ratio


def test_dimension_matches_sympy_zero_dimensional():
    # sympy can decide zero-dimensionality via is_zero_dimensional
    rng = random.Random(99)
    for _ in range(8):
        nvars = rng.randint(2, 3)
        symbols = sympy.symbols(f"x1:{nvars + 1}")
        gens = [random_poly(rng, nvars, 2) for _ in range(nvars)]
        ideal = Ideal(gens, nvars, F5)
        dim = ideal.dimension()
        gb = sympy.groebner([_to_sympy(g, symbols) for g in gens],
                            *symbols, order="grevlex", modulus=5)
        if gb.exprs == [sympy.Integer(1)]:
            assert dim == -1
        else:
            assert (dim == 0) == gb.is_zero_dimensional


def _saturation_by_iterated_colon(ideal, f, rounds=50):
    """I : f^inf as the chain I, I : f, (I : f) : f, ... until it stops
    growing: colons by one module basis each, no tag variable for f."""
    current = ideal
    for _ in range(rounds):
        nxt = current.colon(f)
        if all(current.contains(g) for g in nxt.generators):
            return current
        current = nxt
    raise AssertionError("colon chain did not stabilise")


def _random_inhomogeneous(rng, nvars, maxdeg, field):
    monos = [m for m in product(range(maxdeg + 1), repeat=nvars) if sum(m) <= maxdeg]
    while True:
        picked = rng.sample(monos, min(len(monos), rng.randint(1, 4)))
        f = Polynomial(nvars, field, {m: rng.randint(-3, 3) for m in picked})
        if not f.is_zero():
            return f


@pytest.mark.parametrize("field", [F5, QQ], ids=repr)
def test_saturation_matches_iterated_colon_route(field):
    # saturation is one elimination of I + (1 - t*f); the oracle is the
    # iterated colon chain.  Random ideals are f^a * g so that most grow.
    rng = random.Random(404)
    cases = []
    for _ in range(12):
        nvars = rng.randint(2, 3)
        f = _random_inhomogeneous(rng, nvars, rng.randint(1, 2), field)
        gens = [f ** rng.randint(0, 2) * _random_inhomogeneous(rng, nvars, 2, field)
                for _ in range(2)]
        cases.append((Ideal(gens, nvars, field), f))
    x = [Polynomial.variable(i, 3, field) for i in range(3)]
    cases += [
        (Ideal([x[0] * x[1], x[0] * x[2]]), Polynomial.constant(3, 3, field)),
        (Ideal([], 3, field), x[0] + x[1]),
        (Ideal([], 3, field), Polynomial.constant(2, 3, field)),
        (Ideal([x[0] * x[0], x[0] * x[1] + x[2]]), x[0]),
        (Ideal([x[0] * x[1] - 1, x[1] ** 3]), x[1]),
    ]
    units = 0
    for ideal, f in cases:
        ours = ideal.saturation(f)
        oracle = _saturation_by_iterated_colon(ideal, f)
        assert ours.groebner_basis() == oracle.groebner_basis(), (ideal, f)
        units += ours.height() == inf
    assert units >= 2
