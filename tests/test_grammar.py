import random
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from smallsub import grammar
from smallsub.budget import InternalError
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


@pytest.mark.parametrize("nvars", [-1, -2])
def test_negative_ambient_size_is_a_parse_error(nvars):
    # rejected before the text is read, also when it names no variable;
    # 0 variables allow constants
    for parse, text in ((parse_polynomial, "3"), (parse_polynomial, "x1^2"),
                        (parse_generators, "x1; 3"), (parse_forms_file, "x1\n3\n")):
        with pytest.raises(ParseError) as err:
            parse(text, F5, nvars)
        assert err.value.position == 0
        assert f"ambient size {nvars} must be nonnegative" in str(err.value)
    assert parse_polynomial("3", F5, 0) == Polynomial.constant(3, 0, F5)


def test_error_routine_without_an_error_is_internal():
    with pytest.raises(InternalError):
        grammar._fail(["x1 + 2", "x2"], F5, None)


@pytest.mark.parametrize("parse, text, nvars, message, position", [
    (parse_polynomial, "x1 + * x2 $", None, "unexpected character '$'", 10),
    (parse_polynomial, "x1 +* x2 x0", 2, "variable indices start at x1", 9),
    (parse_polynomial, "x3 + * x1", 2, "variable x3 exceeds ambient size 2", 0),
    (parse_polynomial, "x1 x3 x3", 2, "variable x3 exceeds ambient size 2", 3),
    (parse_polynomial, "x1^", 1, "exponent must be an integer", 3),
    (parse_generators, "x1 +* x2; $", None, "unexpected character '$'", 0),
    (parse_generators, "x1 +* x2; $", 2, "expected a coefficient or a variable", 4),
    (parse_generators, "x1; x2^2^3", None, "expected '+' or '-' between terms", 4),
])
def test_errors_keep_their_precedence(parse, text, nvars, message, position):
    # lexical errors first (in every chunk when the ambient size is
    # inferred), then the ambient size, then syntax, chunk by chunk
    with pytest.raises(ParseError) as err:
        parse(text, F5, nvars)
    assert str(err.value) == f"{message} (at position {position})"


def test_overlong_literal_comes_before_a_syntax_error(default_int_digit_limit):
    with pytest.raises(ParseError) as err:
        parse_polynomial("x1 + * " + "9" * (default_int_digit_limit + 1), F5)
    assert err.value.position == 7 and "too long" in str(err.value)


# ----- differential: the pattern reader against the oracle -----

_SPACE = st.sampled_from(["", "", " ", "  ", "\t", "\u2003"])
#: Stray tokens: syntax errors (some only after a valid factor), lexical
#: errors, and a separator for generator lists.
_STRAY = st.sampled_from(["^", "^2", "*", "+", "-", "x", "x0", f"x{MAX_VARIABLES + 1}",
                          "$", "²", ";", "7"])


@st.composite
def _grammar_texts(draw):
    """Texts built from the grammar with random spacing, signs, leading
    zeros, Unicode digits and repeated factors and monomials; some chain
    two exponents, and some have up to two stray tokens inserted."""
    literal = st.sampled_from(["0", "1", "2", "3", "4", "7", "12", "007", "٣"])
    variable = st.sampled_from(["x1", "x2", "x3", "x4", "x01", "x٣"])
    tokens = []
    for i in range(draw(st.integers(1, 5))):
        sign = draw(st.sampled_from(["+", "-"] if i else ["", "", "+", "-"]))
        if sign:
            tokens.append(sign)
        for j in range(draw(st.integers(1, 3))):
            if j:
                tokens.append("*")
            if draw(st.booleans()):
                tokens.append(draw(literal))
                continue
            factor = draw(variable)
            for _ in range(draw(st.sampled_from([0, 0, 0, 1, 1, 1, 2]))):  # 2: x1^2^3
                factor += draw(_SPACE) + "^" + draw(_SPACE) + draw(literal)
            tokens.append(factor)
    for _ in range(draw(st.integers(0, 2))):
        tokens.insert(draw(st.integers(0, len(tokens))), draw(_STRAY))
    return "".join(draw(_SPACE) + t for t in tokens) + draw(_SPACE)


_RAW_TEXTS = st.text(alphabet="x0123456789+-*^ \t٣\u2003;", max_size=30)


def _outcome(read, chunks, field, nvars):
    """The polynomials read, terms in order with coefficient types, or
    the ParseError's message and position."""
    try:
        result = read(chunks, field, nvars)
    except ParseError as exc:
        return str(exc), exc.position
    for f in result:  # canonical: reduced, nonzero, nvars nonnegative exponents
        for mono, c in f.terms.items():
            assert len(mono) == f.nvars and min(mono, default=0) >= 0
            assert c and (0 < c < field.p if field.p else isinstance(c, Fraction))
    return [(f.nvars, f.field, [(m, c, type(c)) for m, c in f.terms.items()]) for f in result]


@settings(derandomize=True, max_examples=800, deadline=None)
@given(st.one_of(_grammar_texts(), _RAW_TEXTS),
       st.sampled_from([GF(2), F5, QQ]),
       st.sampled_from([None, 0, 1, 2, 3, MAX_VARIABLES + 1]))
def test_reader_agrees_with_the_token_parser(text, field, nvars):
    # the pattern reader sends what it rejects to the token-by-token
    # parser, so the two differ only if it accepts text it should not,
    # rejects text it should accept, or reads a term wrongly
    generators = [c for c in (piece.strip() for piece in text.split(";")) if c]
    for chunks in filter(None, ([text], generators)):
        assert (_outcome(grammar._parse, chunks, field, nvars)
                == _outcome(grammar._parse_slowly, chunks, field, nvars))


@pytest.mark.parametrize("head, tail", [
    ("x1*x2 + x3*x4", ""),
    ("x1*x2", "+ x3*x4"),
    ("x1*", "x2 - x3"),
    ("", "- x1 + 2"),
    ("", "x1 + $"),
    ("x1 + x2", "$"),
], ids=["trailing", "before-a-sign", "after-a-star", "leading", "leading-rejected",
        "before-a-bad-character"])
def test_whitespace_runs_are_read_in_linear_time(head, tail):
    text = head + " " * 10_000 + tail
    # a pattern that could split a run of spaces two ways would take
    # seconds here; the whole text must take milliseconds
    start = time.perf_counter()
    try:
        parse_polynomial(text, F5)
    except ParseError:
        pass
    assert time.perf_counter() - start < 0.1
