import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from smallsub.fields import GF, QQ
from smallsub.grammar import (MAX_VARIABLES, ParseError, format_polynomial,
                              parse_forms_file, parse_generators, parse_polynomial)
from smallsub.poly import Polynomial

F5 = GF(5)


def test_parse_basic():
    f = parse_polynomial("3*x1^2*x2 - x3^3", F5)
    assert f.nvars == 3
    assert f.terms == {(2, 1, 0): 3, (0, 0, 3): 4}


def test_variable_count_is_capped_at_parse_time():
    # only the cap + 1 is tried, so no test allocates a huge monomial
    over = MAX_VARIABLES + 1
    with pytest.raises(ParseError) as err:
        parse_polynomial(f"x1 + 2*x{over}", F5)
    assert err.value.position == 7
    with pytest.raises(ParseError):
        parse_polynomial("x1", F5, over)
    with pytest.raises(ParseError):
        parse_generators(f"x1; x{over}^2", F5)
    with pytest.raises(ParseError):
        parse_forms_file("x1\nx2\n", F5, over)


def test_parse_signs_and_constants():
    assert parse_polynomial("-x1 + 2", F5, 1) == parse_polynomial("2 - x1", F5, 1)
    assert parse_polynomial("0", F5, 2).is_zero()
    assert parse_polynomial("7", F5, 1) == Polynomial.constant(2, 1, F5)


def test_parse_errors_carry_position():
    with pytest.raises(ParseError) as err:
        parse_polynomial("x1 + * x2", F5)
    assert err.value.position == 5
    with pytest.raises(ParseError):
        parse_polynomial("x + 1", F5)
    with pytest.raises(ParseError):
        parse_polynomial("", F5)
    with pytest.raises(ParseError):
        parse_polynomial("x1 x2", F5)
    with pytest.raises(ParseError):
        parse_polynomial("x3", F5, nvars=2)
    # a digit that is not decimal is no literal
    with pytest.raises(ParseError) as err:
        parse_polynomial("x1^\u00b2", F5)
    assert err.value.position == 3


@pytest.mark.parametrize("prefix, digit", [("", "1"), ("x1^", "9"), ("x", "1")])
def test_overlong_literal_is_a_parse_error(default_int_digit_limit, prefix, digit):
    with pytest.raises(ParseError) as err:
        parse_polynomial(prefix + digit * (default_int_digit_limit + 700), F5)
    assert err.value.position == len(prefix)


def test_format_parse_roundtrip_random():
    rng = random.Random(3)
    for _ in range(120):
        terms = {}
        for _ in range(rng.randint(1, 5)):
            mono = tuple(rng.randint(0, 3) for _ in range(3))
            terms[mono] = rng.randint(1, 4)
        f = Polynomial(3, F5, terms)
        assert parse_polynomial(format_polynomial(f), F5, 3) == f


def test_format_rational_clears_denominators():
    from fractions import Fraction
    f = Polynomial(2, QQ, {(1, 0): Fraction(1, 2), (0, 1): Fraction(1, 3)})
    text = format_polynomial(f)
    assert text == "3*x1 + 2*x2"


def test_format_zero_and_signs():
    assert format_polynomial(Polynomial.zero(2, F5)) == "0"
    # rational output is normalized to a positive leading coefficient
    f = Polynomial(2, QQ, {(1, 0): -1, (0, 0): 2})
    assert format_polynomial(f) == "x1 - 2"


def test_parse_generators_shared_ambient():
    gens = parse_generators("x1^2+x2^2; x1*x2", F5)
    assert all(g.nvars == 2 for g in gens)
    gens = parse_generators("x1; x3", F5)
    assert all(g.nvars == 3 for g in gens)


def test_parse_forms_file():
    text = """
    # comment line
    x1^2 + x2^2   # trailing comment
    x1*x2

    """
    gens = parse_forms_file(text, F5)
    assert len(gens) == 2
    assert all(g.nvars == 2 for g in gens)


# ----- property tests: hypothesis, derandomized so that runs repeat -----

_PROPERTY = settings(derandomize=True, max_examples=300, deadline=None)


@_PROPERTY
@given(st.text(alphabet="x0123456789+-*^ \t", max_size=40))
def test_parse_raises_only_parse_error(text):
    try:
        f = parse_polynomial(text, F5)
    except ParseError:
        return
    assert isinstance(f, Polynomial)


@st.composite
def _polynomials(draw, coefficients):
    nvars = draw(st.integers(1, 4))
    monomial = st.tuples(*[st.integers(0, 4)] * nvars)
    terms = draw(st.dictionaries(monomial, coefficients, max_size=6))
    return nvars, terms


@_PROPERTY
@given(st.sampled_from([2, 3, 5, 32003]), st.data())
def test_format_parse_roundtrip_over_fp(p, data):
    field = GF(p)
    nvars, terms = data.draw(_polynomials(st.integers(0, p - 1)))
    f = Polynomial(nvars, field, terms)
    assert parse_polynomial(format_polynomial(f), field, nvars) == f


@_PROPERTY
@given(_polynomials(st.fractions(min_value=-50, max_value=50, max_denominator=12)))
def test_format_parse_roundtrip_over_q_up_to_scalar(case):
    # the text is the primitive integer multiple with positive lead
    nvars, terms = case
    f = Polynomial(nvars, QQ, terms)
    g = parse_polynomial(format_polynomial(f), QQ, nvars)
    if f.is_zero():
        assert g.is_zero()
        return
    mono, c = next(iter(f.terms.items()))
    scalar = Fraction(g.terms.get(mono, 0)) / c
    assert scalar != 0
    assert g == f.scale(scalar)
