import copy
import pickle
import random

import pytest

from smallsub.fields import GF, QQ
from smallsub.grammar import parse_polynomial as pp
from smallsub.poly import (DimensionSequence, Form, GradedSpace, Polynomial,
                           coordinates_in_span, echelon_basis, jacobian,
                           monomials, partial_derivative)

F2 = GF(2)
F3 = GF(3)
F5 = GF(5)


# ---- independent dense oracle for add/mul ----

def _monos_up_to(nvars, bound):
    if nvars == 0:
        return [()]
    out = []
    for e in range(bound + 1):
        for rest in _monos_up_to(nvars - 1, bound - e):
            out.append((e,) + rest)
    return out


def dense_of(f, monos):
    return [f.terms.get(m, 0) for m in monos]


def dense_add(a, b, p):
    return [(x + y) % p for x, y in zip(a, b)]


def dense_mul(fa, fb, monos, index, p):
    out = [0] * len(monos)
    for i, ma in enumerate(monos):
        if not fa[i]:
            continue
        for j, mb in enumerate(monos):
            if not fb[j]:
                continue
            m = tuple(x + y for x, y in zip(ma, mb))
            if m in index:
                out[index[m]] = (out[index[m]] + fa[i] * fb[j]) % p
    return out


def random_poly(rng, nvars, maxdeg, field):
    terms = {}
    monos = _monos_up_to(nvars, maxdeg)
    for m in rng.sample(monos, min(len(monos), rng.randint(1, 6))):
        terms[m] = rng.randint(0, field.p - 1)
    return Polynomial(nvars, field, terms)


def random_form(rng, nvars, degree, field):
    monos = [m for m in _monos_up_to(nvars, degree) if sum(m) == degree]
    while True:
        terms = {m: rng.randint(0, field.p - 1) for m in monos}
        f = Polynomial(nvars, field, terms)
        if not f.is_zero():
            return Form(f)


def test_arithmetic_matches_dense_oracle():
    rng = random.Random(7)
    monos = _monos_up_to(3, 6)
    index = {m: i for i, m in enumerate(monos)}
    for _ in range(60):
        f = random_poly(rng, 3, 3, F5)
        g = random_poly(rng, 3, 3, F5)
        assert dense_of(f + g, monos) == dense_add(dense_of(f, monos), dense_of(g, monos), 5)
        assert dense_of(f * g, monos) == dense_mul(dense_of(f, monos), dense_of(g, monos), monos, index, 5)


def _compositions(total, slots):
    """The bound recursion's former enumerator of entry distributions."""
    if slots == 0:
        if total == 0:
            yield ()
        return
    if slots == 1:
        yield (total,)
        return
    for first in range(total + 1):
        for rest in _compositions(total - first, slots - 1):
            yield (first,) + rest


def _monomials_of_degree(nvars, degree):
    """The collapse search's former monomial list (first exponent descending)."""
    if nvars == 1:
        return [(degree,)]
    out = []
    for first in range(degree, -1, -1):
        for rest in _monomials_of_degree(nvars - 1, degree - first):
            out.append((first,) + rest)
    return out


def test_monomials_match_the_enumerators_they_replace():
    for nvars in range(1, 6):
        for degree in range(8):
            got = list(monomials(nvars, degree))
            assert got == list(_compositions(degree, nvars))
            assert got == sorted(_monomials_of_degree(nvars, degree))
            assert len(set(got)) == len(got)
    assert list(monomials(0, 0)) == [()]
    assert list(monomials(0, 3)) == []


def test_partial_derivative_examples():
    assert partial_derivative(pp("x1^2*x2", F5, 2), 0) == pp("2*x1*x2", F5, 2)
    assert partial_derivative(pp("x1^2", F2, 1), 0).is_zero()


def test_euler_identity_random_forms():
    rng = random.Random(11)
    for field in (F5, GF(7)):
        for _ in range(40):
            d = rng.choice([2, 3, 4])
            n = rng.randint(2, 4)
            F = random_form(rng, n, d, field)
            euler = Polynomial.zero(n, field)
            for i in range(n):
                euler = euler + Polynomial.variable(i, n, field) * partial_derivative(F, i)
            assert euler == F * d


def test_product_rule_random():
    rng = random.Random(13)
    for _ in range(30):
        f = random_poly(rng, 3, 3, F5)
        g = random_poly(rng, 3, 3, F5)
        for i in range(3):
            lhs = partial_derivative(f * g, i)
            rhs = f * partial_derivative(g, i) + g * partial_derivative(f, i)
            assert lhs == rhs


def test_jacobian_examples():
    rows = jacobian([Form(pp("x1", F5, 2)), Form(pp("x2", F5, 2))])
    assert rows[0][0] == pp("1", F5, 2) and rows[0][1].is_zero()
    assert rows[1][1] == pp("1", F5, 2) and rows[1][0].is_zero()
    row = jacobian([Form(pp("x1*x2", F5, 2))])[0]
    assert row == [pp("x2", F5, 2), pp("x1", F5, 2)]
    rows = jacobian([Form(pp("x1^2", F5, 2)), Form(pp("x1*x2", F5, 2))])
    assert rows[0] == [pp("2*x1", F5, 2), Polynomial.zero(2, F5)]
    assert rows[1] == [pp("x2", F5, 2), pp("x1", F5, 2)]


def test_leading_form_multiplicative():
    # the top-degree component of a product is the product of theirs
    rng = random.Random(19)
    for _ in range(30):
        f = random_poly(rng, 3, 3, F5)
        g = random_poly(rng, 3, 3, F5)
        if f.total_degree() <= 0 or g.total_degree() <= 0:
            continue
        fg = f * g
        if fg.is_zero():
            continue
        top = [h.homogeneous_component(h.total_degree()) for h in (fg, f, g)]
        assert top[0] == top[1] * top[2]


def test_form_validation():
    with pytest.raises(ValueError):
        Form(pp("x1^2+x2", F5, 2))
    with pytest.raises(ValueError):
        Form(Polynomial.zero(2, F5))
    with pytest.raises(ValueError):
        Form(pp("3", F5, 2))


def test_echelon_and_span():
    basis = echelon_basis([pp("x1+x2", F5, 2), pp("x1-x2", F5, 2), pp("2*x1", F5, 2)])
    assert len(basis) == 2
    coords = coordinates_in_span(pp("x2", F5, 2), basis)
    assert coords is not None
    assert coordinates_in_span(pp("x1^2", F5, 2), basis) is None


def test_dimension_sequence_normalization_and_order():
    assert tuple(DimensionSequence((1, 0, 2, 0, 0))) == (1, 0, 2)
    assert DimensionSequence((5, 0, 1)).compare((2, 1, 1)) == -1
    assert DimensionSequence((1, 1)).compare((1, 1)) == 0
    assert DimensionSequence((9,)).compare((0, 1)) == -1
    assert DimensionSequence((0, 1)) > DimensionSequence((9,))


def test_dimension_sequence_total_order_random():
    rng = random.Random(23)
    seqs = [DimensionSequence(tuple(rng.randint(0, 3) for _ in range(rng.randint(0, 4))))
            for _ in range(40)]
    for a in seqs:
        for b in seqs:
            c = a.compare(b)
            assert c == -b.compare(a)
            if c == 0:
                assert tuple(a) == tuple(b)


def test_graded_space_reduction():
    V = GradedSpace.from_forms([
        Form(pp("x1*x2", F5, 3)),
        Form(pp("x1*x2+x2*x3", F5, 3)),
        Form(pp("x2*x3", F5, 3)),
        Form(pp("x1", F5, 3)),
    ])
    assert V.dimension == 3
    assert tuple(V.dimension_sequence) == (1, 2)
    assert len(V.piece(2)) == 2


def test_graded_space_pickles_and_copies():
    V = GradedSpace.from_forms([Form(pp("x1^2+x2^2", F5, 2))])
    for W in (copy.copy(V), copy.deepcopy(V), pickle.loads(pickle.dumps(V))):
        assert type(W) is GradedSpace
        assert W.basis == V.basis
        assert tuple(W.dimension_sequence) == tuple(V.dimension_sequence) == (0, 1)


def test_rational_field_exactness():
    f = pp("x1^2", QQ, 1)
    from fractions import Fraction
    half = f * Fraction(1, 2)
    assert (half + half) == f
    assert (f - f).is_zero()
