"""A form is a polynomial: ``Form`` values pass every boundary as they are,
and arithmetic on forms returns plain polynomials."""

import copy
import pickle

import pytest

from smallsub.descent import subalgebra_membership
from smallsub.fields import GF, QQ
from smallsub.grammar import format_polynomial
from smallsub.grammar import parse_polynomial as pp
from smallsub.groebner import (GREVLEX, LEX, Ideal, TermOrder, elimination_order,
                              leading_form_ideal, membership_cofactors)
from smallsub.modules import (FreeResolution, SubmoduleOfFree, free_resolution,
                              koszul_relations, submodule_contains, syzygies)
from smallsub.poly import (Form, GradedSpace, Polynomial, coordinates_in_span,
                           echelon_basis)

F5 = GF(5)
TEXTS = ["x1^2 + 2*x2*x3", "x2^2 - x1*x3", "x3^2"]


def _forms_and_polys(field):
    polys = [pp(t, field, 3) for t in TEXTS]
    return [Form(p) for p in polys], polys


def test_form_is_a_polynomial():
    f = pp(TEXTS[0], F5, 3)
    form = Form(f)
    assert isinstance(form, Polynomial)
    assert form == f and f == form
    assert hash(form) == hash(f)
    assert repr(form) == repr(f)
    assert form.degree == 2
    with pytest.raises(AttributeError):
        form.degree = 3
    with pytest.raises(AttributeError):
        form.terms = {}


def test_arithmetic_on_forms_returns_plain_polynomials():
    (f, g, _h), _ = _forms_and_polys(F5)
    results = [f + g, f * g, f - f, f.scale(2), f.extended(4), -f, 3 * f,
               f * 0, f ** 2, f * Polynomial(3, F5, {(1, 0, 0): 2}),
               f.homogeneous_component(2)]
    assert all(type(r) is Polynomial for r in results)
    assert (f - f).is_zero()


@pytest.mark.parametrize("field", [F5, QQ], ids=["GF(5)", "QQ"])
def test_forms_and_polynomials_give_equal_results(field):
    forms, polys = _forms_and_polys(field)
    (f, g, h), (pf, pg, ph) = forms, polys
    ptarget = pf * pp("x1", field, 3) + pg * pp("x2", field, 3)
    target = Form(ptarget)

    assert Ideal(forms).generators == Ideal(polys).generators
    assert Ideal(forms).groebner_basis() == Ideal(polys).groebner_basis()
    assert Ideal(forms).contains(target) and Ideal(polys).contains(ptarget)
    assert (leading_form_ideal(forms).generators
            == leading_form_ideal(polys).generators)
    assert (membership_cofactors(target, forms)
            == membership_cofactors(ptarget, polys))

    sub = SubmoduleOfFree(2, [(f, g), (g, h)])
    psub = SubmoduleOfFree(2, [(pf, pg), (pg, ph)])
    assert sub.generators == psub.generators
    assert submodule_contains(sub, (f, g)) and submodule_contains(psub, (pf, pg))
    assert (syzygies([(f,), (g,), (h,)], 1, 3, field)
            == syzygies([(pf,), (pg,), (ph,)], 1, 3, field))
    assert koszul_relations(forms).generators == koszul_relations(polys).generators

    assert [format_polynomial(x) for x in forms] == [format_polynomial(x) for x in polys]
    basis = echelon_basis(forms)
    assert basis == echelon_basis(polys)
    assert coordinates_in_span(f, basis) == coordinates_in_span(pf, basis)
    assert (subalgebra_membership(Form(f * g), forms)
            == subalgebra_membership(pf * pg, polys) is True)


def test_constructors_return_plain_polynomials_on_either_class():
    for cls in (Polynomial, Form):
        x1 = cls.variable(0, 2, F5)
        assert type(x1) is Polynomial and x1 == pp("x1", F5, 2)
        assert type(cls.zero(2, F5)) is Polynomial and cls.zero(2, F5).is_zero()
        assert cls.constant(7, 2, QQ) == pp("7", QQ, 2)
        with pytest.raises(ValueError):
            cls.variable(2, 2, F5)


def _answers(value, poly, vectors):
    """What a value of each type answers: itself for the types with an
    equality, a graded space's basis, and the queries of the others."""
    if isinstance(value, Ideal):
        return (value.groebner_basis(), value.contains(poly), value.contains(poly * poly),
                value.height())
    if isinstance(value, SubmoduleOfFree):
        return [submodule_contains(value, v) for v in vectors]
    if isinstance(value, FreeResolution):
        return value.ranks, value.verify()
    if isinstance(value, GradedSpace):
        return value.basis, tuple(value.dimension_sequence)
    if isinstance(value, TermOrder):
        return value.signature(), repr(value)
    return value, hash(value)


@pytest.mark.parametrize("field", [F5, QQ], ids=["GF(5)", "QQ"])
def test_pickle_and_copy_round_trips(field):
    # every value type is immutable, and pickle, copy and deepcopy give
    # back an equal value, or for the types with no equality, one that
    # answers the same; the queried ideal holds a cached basis, whose key
    # closure does not pickle, so its twins start with an empty cache
    forms, polys = _forms_and_polys(field)
    poly = pp("x1^2 + 2*x2*x3 - 1", field, 3)
    queried = Ideal(polys)
    assert queried.contains(polys[0] * poly) and queried._gb
    sub = SubmoduleOfFree(2, [(polys[0], polys[1]), (polys[2], polys[0])])
    vectors = [(polys[1] * polys[0], polys[1] * polys[1]),
               (polys[0], Polynomial.zero(3, field))]
    assert _answers(sub, poly, vectors) == [True, False]
    resolution = free_resolution(sub)
    values = (field, poly, forms[0], GradedSpace.from_forms(forms), Ideal(polys), queried,
              sub, resolution, GREVLEX, LEX, elimination_order(2))
    for value in values:
        for twin in (pickle.loads(pickle.dumps(value)), copy.copy(value),
                     copy.deepcopy(value)):
            assert type(twin) is type(value)
            assert _answers(twin, poly, vectors) == _answers(value, poly, vectors)
        for name in type(value).__slots__:
            with pytest.raises(AttributeError):
                setattr(value, name, None)
            with pytest.raises(AttributeError):
                delattr(value, name)
        with pytest.raises(AttributeError):
            value.extra = None
    form = forms[0]
    assert pickle.loads(pickle.dumps(form)).degree == copy.deepcopy(form).degree == 2
