import random
from heapq import heapify, heappop, heappush
from itertools import combinations, product
from math import inf

import pytest

from smallsub.budget import Budget, BudgetExceededError, Counter, InternalError
from smallsub.fields import GF, QQ
from smallsub.grammar import parse_polynomial as pp
from smallsub import groebner
from smallsub.groebner import (EXPONENT_BITS, GREVLEX, LEX, MAX_EXPONENT,
                               Ideal, _Divisors, _DIGIT_SUM, _FIELD, _KEY_LIMIT,
                               _coded, _exponent_overflow, _prep, _prep_codes,
                               elimination_order, groebner_basis, leading_form_ideal,
                               membership_cofactors, normal_form,
                               normal_form_vec, pot_key)
from smallsub.modules import _schreyer_key
from smallsub.poly import Polynomial

from conftest import same_ideal

F2 = GF(2)
F5 = GF(5)


def spoly(f, g, order=GREVLEX):
    keyf = order.key
    lf, lg = max(f.terms, key=keyf), max(g.terms, key=keyf)
    lcm = tuple(max(a, b) for a, b in zip(lf, lg))
    cf, cg = f.terms[lf], g.terms[lg]
    uf = tuple(a - b for a, b in zip(lcm, lf))
    ug = tuple(a - b for a, b in zip(lcm, lg))
    return (f * Polynomial(f.nvars, f.field, {uf: f.field.inv(cf)})
            - g * Polynomial(g.nvars, g.field, {ug: g.field.inv(cg)}))


def random_poly(rng, nvars, maxdeg, field, homogeneous=False):
    def monos(n, d):
        if n == 0:
            return [()]
        return [(e,) + rest for e in range(d + 1) for rest in monos(n - 1, d - e)]
    pool = [m for m in monos(nvars, maxdeg)
            if (sum(m) == maxdeg if homogeneous else sum(m) > 0)]
    while True:
        terms = {m: rng.randint(0, field.p - 1) if field.p else rng.randint(-3, 3)
                 for m in rng.sample(pool, min(len(pool), rng.randint(1, 4)))}
        f = Polynomial(nvars, field, terms)
        if not f.is_zero():
            return f


def test_groebner_examples():
    assert groebner_basis([pp("x1", F5, 1)]) == [pp("x1", F5, 1)]
    basis = groebner_basis([pp("x1*x2", F5, 3), pp("x1*x3", F5, 3)])
    assert set(basis) == {pp("x1*x2", F5, 3), pp("x1*x3", F5, 3)}
    basis = groebner_basis([pp("x1^2+x2^2", F5, 2), pp("x1*x2", F5, 2)])
    assert pp("x2^3", F5, 2) in basis


def test_groebner_invariants_random():
    rng = random.Random(31)
    for _ in range(20):
        gens = [random_poly(rng, 3, rng.randint(1, 3), F5) for _ in range(rng.randint(1, 3))]
        basis = groebner_basis(gens)
        # every generator reduces to zero
        for g in gens:
            assert normal_form(g, basis).is_zero()
        # every S-polynomial reduces to zero
        for f, g in combinations(basis, 2):
            assert normal_form(spoly(f, g), basis).is_zero()


def test_reduced_basis_deterministic():
    gens = [pp("x1^2+x2^2", F5, 2), pp("x1*x2", F5, 2)]
    a = groebner_basis(gens)
    b = groebner_basis(list(reversed(gens)))
    assert a == b


def test_budget_exceeded_is_an_error():
    gens = [pp("x1^3+x2^2*x3", F5, 3), pp("x2^3+x1*x3^2", F5, 3),
            pp("x3^3+x1^2*x2", F5, 3)]
    with pytest.raises(BudgetExceededError):
        groebner_basis(gens, budget=Budget(max_pairs=1))


def test_dimension_examples():
    N = 5
    gens = [pp(f"x{i}", F5, N) for i in (1, 2)]
    assert Ideal(gens).dimension() == N - 2
    assert Ideal([pp("x1*x2", F5, 2)]).dimension() == 1
    I = Ideal([pp("x1*x2", F5, 3), pp("x1*x3", F5, 3), pp("x2*x3", F5, 3)])
    assert I.dimension() == 1
    unit = Ideal([pp("x1+1", F5, 2), pp("x1", F5, 2)])
    assert unit.dimension() == -1


def _pairs(n):
    """(x1*x2, x3*x4, ..., x(2n-1)*x(2n)) in 2n variables."""
    return Ideal([Polynomial(2 * n, F5, {tuple(int(j in (2 * i, 2 * i + 1))
                                               for j in range(2 * n)): 1})
                  for i in range(n)])


def test_height_search_is_budgeted():
    # (x1*x2, ..., x39*x40): the hitting set grows by one variable per
    # support without a search until the 20th, whose one search is
    # settled at its root, where the packing bound meets the cap
    # min(N, 20); a budget of 0 steps is not a budget
    assert _pairs(20).height(Budget(max_steps=1)) == 20
    # every x_i*x_j in 7 variables: the grown set stays below the cap 7,
    # so no support searches and the run ends with one search over the
    # final supports, where the packing bound of 3 leaves it to prove 6
    edges = Ideal([Polynomial(7, F5, {tuple(int(k in e) for k in range(7)): 1})
                   for e in combinations(range(7), 2)])
    assert edges.height(Budget(max_steps=11)) == 6
    with pytest.raises(BudgetExceededError, match="height search nodes limit 10"):
        edges.height(Budget(max_steps=10))


def test_height_examples():
    assert Ideal([pp(f"x{i}", F5, 4) for i in (1, 2, 3)]).height() == 3
    assert Ideal([pp("x1+2", F5, 2), pp("x1", F5, 2)]).height() == inf
    assert Ideal([pp("x1*x2", F5, 4), pp("x3*x4", F5, 4)]).height() == 2
    assert Ideal([], 3, F5).height() == 0


def _min_hitting_set_size(supports, nvars):
    for size in range(nvars + 1):
        for subset in combinations(range(nvars), size):
            s = set(subset)
            if all(s & sup for sup in supports):
                return size
    return nvars


def test_monomial_ideal_height_against_hitting_set_oracle():
    rng = random.Random(37)
    for _ in range(80):
        nvars = rng.randint(2, 9)
        supports = []
        gens = []
        for _ in range(rng.randint(1, 10)):
            mono = [0] * nvars
            sup = rng.sample(range(nvars), rng.randint(1, min(4, nvars)))
            for i in sup:
                mono[i] = rng.randint(1, 2)
            supports.append(set(sup))
            gens.append(Polynomial(nvars, F5, {tuple(mono): 1}))
        ideal = Ideal(gens)
        assert ideal.height() == _min_hitting_set_size(supports, nvars)
        assert ideal.height() + ideal.dimension() == nvars


def test_hitting_number_against_brute_force():
    rng = random.Random(47)
    for _ in range(300):
        nvars = rng.randint(1, 9)
        supports = [set(rng.sample(range(nvars), rng.randint(1, min(4, nvars))))
                    for _ in range(rng.randint(1, 12))]
        masks = [sum(1 << i for i in s) for s in supports]
        tau = _min_hitting_set_size(supports, nvars)
        for goal in range(nvars + 2):
            nodes = Counter("nodes", 10 ** 6)
            found = groebner._hitting_set(masks, goal, nodes)
            if tau >= goal:
                assert found is None
            else:
                assert found.bit_count() == tau
                assert all(found & m for m in masks)


def _scan_height(gens, nvars):
    """The replaced route: the full reduced basis, then variable subsets
    from size N down, the largest holding no leading-term support."""
    basis = groebner_basis(gens)
    if any(g.total_degree() <= 0 for g in basis):
        return inf
    supports = [{i for i, e in enumerate(max(g.terms, key=GREVLEX.key)) if e}
                for g in basis]
    for size in range(nvars, -1, -1):
        for subset in combinations(range(nvars), size):
            if not any(s <= set(subset) for s in supports):
                return nvars - size


def _height_case(rng, field, homogeneous):
    nvars = rng.randint(2, 5)
    coeffs = range(field.p) if field.p else range(-3, 4)
    gens = []
    for _ in range(rng.randint(1, 4)):
        degree = rng.randint(1, 3)
        pool = [m for m in product(range(degree + 1), repeat=nvars)
                if (sum(m) == degree if homogeneous else sum(m) <= degree)]
        chosen = rng.sample(pool, min(len(pool), rng.randint(1, 4)))
        terms = {m: rng.choice(coeffs) for m in chosen}
        f = Polynomial(nvars, field, terms)
        if not f.is_zero():
            gens.append(f)
    return gens, nvars


@pytest.mark.parametrize("field", [F2, F5, QQ], ids=repr)
@pytest.mark.parametrize("homogeneous", [True, False], ids=["homogeneous", "inhomogeneous"])
def test_height_matches_scan_route(field, homogeneous):
    rng = random.Random(53 + (field.p or 0) + 7 * homogeneous)
    seen = set()
    for _ in range(25):
        gens, nvars = _height_case(rng, field, homogeneous)
        if not gens:
            continue
        expected = _scan_height(gens, nvars)
        seen.add(expected)
        assert Ideal(gens).height() == expected
        assert Ideal(gens).dimension() == (-1 if expected == inf else nvars - expected)
        for k in range(nvars + 2):
            assert Ideal(gens).height_at_least(k) == (expected >= k)
        cached = Ideal(gens)
        cached.groebner_basis()
        assert cached.height() == expected
        assert all(cached.height_at_least(k) == (expected >= k) for k in range(nvars + 2))
    assert len(seen) >= 3
    if not homogeneous:
        assert inf in seen


def _section_case(rng, field):
    """Homogeneous forms of degree 1-3, each dense (every monomial) or
    with 1-4 terms, at most N + 1 of them."""
    nvars = rng.randint(2, 5)
    coeffs = range(field.p) if field.p else range(-3, 4)
    gens = []
    for _ in range(rng.randint(1, nvars + 1)):
        degree = rng.randint(1, 3)
        if rng.random() < 0.5:
            f = Polynomial(nvars, field, {m: rng.choice(coeffs)
                                          for m in product(range(degree + 1), repeat=nvars)
                                          if sum(m) == degree})
        else:
            f = random_poly(rng, nvars, degree, field, homogeneous=True)
        if not f.is_zero():
            gens.append(f)
    return gens, nvars


@pytest.mark.parametrize("field", [F2, F5, QQ], ids=repr)
def test_sections_match_scan_route(field):
    # a section that decides proves height >= k, one that fails proves
    # nothing, and every verdict is the scan route's
    rng = random.Random(59 + (field.p or 0))
    decided = fell_back = 0
    for _ in range(30):
        gens, nvars = _section_case(rng, field)
        if not gens:
            continue
        expected = _scan_height(gens, nvars)
        for k in range(nvars + 2):
            assert Ideal(gens).height_at_least(k) == (expected >= k)
            if 0 < k < nvars and k <= len(gens):
                on = Ideal(gens)._on_sections(k, None)
                assert expected >= k or not on
                decided += on
                fell_back += expected >= k and not on
    assert decided >= 40 and fell_back >= 3


def test_sections_fail_and_the_whole_ideal_decides():
    # x1, x1*x2 is not regular: every section of dimension 2 restricts
    # them into (x1), of height at most 1, so none is m-primary
    seq = [pp("x1", F5, 3), pp("x1*x2", F5, 3)]
    assert not Ideal(seq)._on_sections(2, None)
    assert not Ideal(seq).height_at_least(2)
    # the minors x_i*x_j*(x_j - x_i) vanish where the nonzero coordinates
    # are equal, so V meets each coordinate 3-space in a line; height 3
    row1 = [pp(f"x{i}", F5, 4) for i in range(1, 5)]
    row2 = [pp(f"x{i}^2", F5, 4) for i in range(1, 5)]
    minors = Ideal([row1[i] * row2[j] - row1[j] * row2[i]
                    for i, j in combinations(range(4), 2)])
    assert not minors._on_sections(3, None)
    assert minors.height_at_least(3) and not minors.height_at_least(4)
    assert minors.height() == 3


def test_sections_skip_inhomogeneous_generators():
    # (x1 - 1) has height 1, but its section x1 = 0 is the unit ideal
    shifted = Ideal([pp("x1-1", F5, 3)])
    assert shifted.height_at_least(1)
    assert not shifted.height_at_least(2)
    assert shifted.height() == 1


def test_unit_ideal_of_inhomogeneous_generators():
    # the leading terms x1, x2 meet min(N, 3) = 2 before the 1 appears
    gens = [pp("x1", F5, 2), pp("x2", F5, 2), pp("x1+x2+1", F5, 2)]
    assert Ideal(gens).height() == inf
    assert Ideal(gens).dimension() == -1
    assert Ideal(gens).height_at_least(3)


def test_height_plus_dimension_on_random_binomial_ideals():
    rng = random.Random(41)
    for _ in range(15):
        nvars = rng.randint(2, 4)
        gens = []
        for _ in range(rng.randint(1, 3)):
            f = random_poly(rng, nvars, 2, F5, homogeneous=True)
            g = random_poly(rng, nvars, 2, F5, homogeneous=True)
            if f != g:
                gens.append(f - g)
        gens = [g for g in gens if not g.is_zero()]
        if not gens:
            continue
        ideal = Ideal(gens)
        if ideal.dimension() < 0:
            continue
        assert ideal.height() + ideal.dimension() == nvars


def test_killing_variables_never_raises_height():
    rng = random.Random(43)
    for _ in range(15):
        nvars = rng.randint(3, 5)
        gens = [random_poly(rng, nvars, rng.randint(1, 2), F5, homogeneous=True)
                for _ in range(rng.randint(1, 3))]
        before = Ideal(gens).height()
        # random invertible change of coordinates, then kill the last
        # variable: x_i goes to a linear form in x_1..x_{n-1}
        images = []
        for i in range(nvars):
            coeffs = [rng.randint(0, 4) for _ in range(nvars)]
            coeffs[i] = rng.choice([1, 2, 3, 4])
            images.append(Polynomial(nvars - 1, F5,
                                     {tuple(1 if j == k else 0 for j in range(nvars - 1)): c
                                      for k, c in enumerate(coeffs[:-1]) if c}))
        killed = []
        for g in gens:
            h = Polynomial.zero(nvars - 1, F5)
            for m, c in g.terms.items():
                term = Polynomial.constant(c, nvars - 1, F5)
                for image, e in zip(images, m):
                    term = term * image ** e
                h = h + term
            if not h.is_zero():
                killed.append(h)
        after = Ideal(killed, nvars - 1, F5).height() if killed else 0
        assert after <= before


def test_colon_examples_two_sided():
    I = Ideal([pp("x1*x2", F5, 2)])
    C = I.colon(Ideal([pp("x1", F5, 2)]))
    assert same_ideal(C, Ideal([pp("x2", F5, 2)]))
    J = Ideal([pp("x1^2", F5, 2), pp("x1*x2", F5, 2)])
    one = Ideal([pp("1", F5, 2)])
    assert same_ideal(J.colon(one), J)
    C2 = J.colon(Ideal([pp("x1", F5, 2)]))
    expected = Ideal([pp("x1", F5, 2), pp("x2", F5, 2)])
    assert same_ideal(C2, expected)


def test_intersection_examples():
    A = Ideal([pp("x1", F5, 2)])
    B = Ideal([pp("x2", F5, 2)])
    assert same_ideal(A.intersection(B), Ideal([pp("x1*x2", F5, 2)]))
    I = Ideal([pp("x1", F5, 3), pp("x2", F5, 3)])
    assert same_ideal(I.intersection(I), I)
    J = Ideal([pp("x2", F5, 3), pp("x3", F5, 3)])
    M = I.intersection(J)
    assert same_ideal(M, Ideal([pp("x2", F5, 3), pp("x1*x3", F5, 3)]))


def test_intersection_colon_containments_random():
    rng = random.Random(47)
    for _ in range(10):
        I = Ideal([random_poly(rng, 3, 2, F5) for _ in range(2)])
        J = Ideal([random_poly(rng, 3, 2, F5) for _ in range(2)])
        M = I.intersection(J)
        assert all(I.contains(g) and J.contains(g) for g in M.generators)
        assert all(M.contains(f * g) for f in I.generators for g in J.generators)


def test_saturation_examples_and_idempotence():
    I = Ideal([pp("x1*x2", F5, 3), pp("x1*x3", F5, 3)])
    x1 = pp("x1", F5, 3)
    S = I.saturation(x1)
    assert same_ideal(S, Ideal([pp("x2", F5, 3), pp("x3", F5, 3)]))
    assert same_ideal(S.saturation(x1), S)
    # saturating by a unit leaves the ideal unchanged
    J = Ideal([pp("x1^2", F5, 2)])
    assert same_ideal(J.saturation(pp("3", F5, 2)), J)
    K = Ideal([pp("x1^2*x2", F5, 2)])
    assert same_ideal(K.saturation(pp("x1", F5, 2)), Ideal([pp("x2", F5, 2)]))


def test_leading_form_ideal_examples():
    # already homogeneous generators: the ideal of the generators themselves
    gens = [pp("x1^2", F5, 2), pp("x1*x2", F5, 2)]
    L = leading_form_ideal(gens)
    assert same_ideal(L, Ideal(gens))
    assert same_ideal(leading_form_ideal([pp("x1+1", F5, 1)]), Ideal([pp("x1", F5, 1)]))
    L2 = leading_form_ideal([pp("x1", F5, 2), pp("x1*x2+x2^2", F5, 2)])
    assert same_ideal(L2, Ideal([pp("x1", F5, 2), pp("x2^2", F5, 2)]))


def test_leading_form_ideal_principal():
    rng = random.Random(53)
    for _ in range(10):
        f = random_poly(rng, 3, 3, F5)
        if f.total_degree() <= 0:
            continue
        L = leading_form_ideal([f])
        assert same_ideal(L, Ideal([f.homogeneous_component(f.total_degree())]))


def _leading_forms_by_homogenizing(gens):
    """Top-degree forms by homogenizing, saturating by the new variable
    and setting it to zero."""
    nvars, field = gens[0].nvars, gens[0].field
    lifted = [Polynomial(nvars + 1, field,
                         {m + (g.total_degree() - sum(m),): c for m, c in g.terms.items()})
              for g in gens]
    tag = Polynomial.variable(nvars, nvars + 1, field)
    saturated = Ideal(lifted, nvars + 1, field).saturation(tag)
    dropped = [Polynomial(nvars, field,
                          {m[:-1]: c for m, c in g.terms.items() if m[-1] == 0})
               for g in saturated.groebner_basis()]
    return Ideal([g for g in dropped if not g.is_zero()], nvars, field)


@pytest.mark.parametrize("field", [F5, QQ], ids=repr)
def test_leading_form_ideal_matches_homogenize_route(field):
    rng = random.Random(61)
    cases = []
    for _ in range(15):
        nvars = rng.randint(2, 3)
        monos = [m for m in product(range(4), repeat=nvars) if sum(m) <= 3]
        gens = []
        for _ in range(rng.randint(1, 3)):
            terms = {m: rng.randint(-3, 3)
                     for m in rng.sample(monos, rng.randint(2, 5))}
            g = Polynomial(nvars, field, terms)
            if not g.is_zero():
                gens.append(g)
        if gens:
            cases.append(gens)
    cases.append([pp("x1*x2+1", field, 2), pp("2", field, 2)])
    cases.append([pp("x1", field, 2), pp("x1+x2^2+1", field, 2), pp("x2^2", field, 2)])
    units = inhomogeneous = 0
    for gens in cases:
        ours = leading_form_ideal(gens)
        assert ours.groebner_basis() == _leading_forms_by_homogenizing(gens).groebner_basis()
        units += ours.height() == inf
        inhomogeneous += any(not g.is_homogeneous() for g in gens)
    assert units >= 2 and inhomogeneous >= 12


def test_membership_cofactors_exact():
    gens = [pp("x1^2+x2^2", F5, 2), pp("x1*x2", F5, 2)]
    f = pp("x2^4", F5, 2)
    cof = membership_cofactors(f, gens)
    assert cof is not None
    total = Polynomial.zero(2, F5)
    for c, g in zip(cof, gens):
        total = total + c * g
    assert total == f
    assert membership_cofactors(pp("x1", F5, 2), gens) is None


def test_exact_divide():
    # one generator: the cofactor is the quotient of an exact division,
    # by monic, non-monic and constant divisors, and None when g does not divide f
    for field in (F5, QQ):
        f = pp("x1^2*x2+x1*x2^2", field, 2)
        assert membership_cofactors(f, [pp("x1*x2", field, 2)]) == [pp("x1+x2", field, 2)]
        q = pp("x1+2*x2", field, 2)
        for g in ("3*x1*x2+x2^2", "2", "2*x1-1"):
            g = pp(g, field, 2)
            assert membership_cofactors(q * g, [g]) == [q], (field, g)
        assert membership_cofactors(pp("x1", field, 2), [pp("x2", field, 2)]) is None
        assert membership_cofactors(pp("x1^2+1", field, 2), [pp("3*x1", field, 2)]) is None


# ----- intersections, colons and lifts against the routes they replaced -----


def _intersection_by_elimination(I, J):
    """The previous route to I cap J: eliminate a tag variable t from
    t*I + (1 - t)*J in K[t, x] under ``elimination_order(1)``."""
    nv, field = I.nvars + 1, I.field
    if I.is_zero() or J.is_zero():
        return Ideal([], I.nvars, field)
    lifted = [Polynomial(nv, field, {(1,) + m: c for m, c in g.terms.items()})
              for g in I.generators]
    for h in J.generators:
        terms = {(0,) + m: c for m, c in h.terms.items()}
        terms.update(((1,) + m, -c) for m, c in h.terms.items())
        lifted.append(Polynomial(nv, field, terms))
    kept = [Polynomial(I.nvars, field, {m[1:]: c for m, c in g.terms.items()})
            for g in groebner_basis(lifted, elimination_order(1))
            if all(m[0] == 0 for m in g.terms)]
    return Ideal(kept, I.nvars, field)


def _colon_by_intersections(I, J):
    """The route to I : J before the one-basis colon: per generator g of
    J, the intersection of I with (g) divided by g, then the parts
    intersected, each intersection by tag-variable elimination."""
    if J.is_zero():
        one = Polynomial.constant(1, I.nvars, I.field)
        return Ideal([one], I.nvars, I.field)
    result = None
    for g in J.generators:
        meet = _intersection_by_elimination(I, Ideal([g], I.nvars, I.field))
        part = Ideal([membership_cofactors(h, [g])[0] for h in meet.generators],
                     I.nvars, I.field)
        result = part if result is None else _intersection_by_elimination(result, part)
    return result


@pytest.mark.parametrize("field", [F2, F5, GF(32003), QQ], ids=repr)
def test_intersection_matches_the_elimination_route(field):
    rng = random.Random(307 + (field.p or 0))
    cases = []
    for n in range(30):
        nvars = rng.randint(2, 3)
        homogeneous = n % 2 == 0
        shared = random_poly(rng, nvars, 1, field, homogeneous)
        I, J = ([rng.choice([shared, random_poly(rng, nvars, 1, field, homogeneous)])
                 * random_poly(rng, nvars, rng.randint(1, 2), field, homogeneous)
                 for _ in range(rng.randint(1, 3))] for _ in range(2))
        cases.append((Ideal(I, nvars, field), Ideal(J, nvars, field)))
    x1, x2, x3 = (Polynomial.variable(i, 3, field) for i in range(3))
    one = Polynomial.constant(1, 3, field)
    I = Ideal([x1 * x2, x1 * x3 + x2])
    cases += [(I, Ideal([], 3, field)), (Ideal([], 3, field), I),
              (I, Ideal([one])), (Ideal([x2 + one, x3]), I), (I, I),
              (Ideal([one]), Ideal([one]))]
    proper = 0
    for I, J in cases:
        ours = I.intersection(J)
        assert ours.groebner_basis() == _intersection_by_elimination(I, J).groebner_basis(), (I, J)
        assert ours.generators == tuple(ours.groebner_basis())
        proper += not (same_ideal(ours, I) or same_ideal(ours, J))
    assert proper >= 15


def test_ideal_rejects_an_explicit_ring_that_disagrees():
    gens = [pp("x1+x2", F5, 2)]
    with pytest.raises(ValueError, match="field"):
        Ideal(gens, 2, GF(7))
    with pytest.raises(ValueError, match="nvars"):
        Ideal(gens, 3, F5)
    assert Ideal(gens, 2, F5).field == F5
    assert Ideal([pp("0", F5, 2)], 2, GF(7)).field == GF(7)


def test_normal_forms_reject_a_polynomial_from_another_ring():
    x1_in_one = pp("x1", F5, 1)
    x2 = pp("x2", F5, 2)
    I = Ideal([x2])
    for f in (x1_in_one, pp("x2", F5, 3), pp("x2", F2, 2), pp("0", F5, 1)):
        with pytest.raises(ValueError):
            I.contains(f)
        with pytest.raises(ValueError):
            I.normal_form(f)
        with pytest.raises(ValueError):
            normal_form(f, [x2])
        with pytest.raises(ValueError):
            membership_cofactors(f, [x2])
    with pytest.raises(ValueError):
        membership_cofactors(x1_in_one, [pp("0", F5, 2)])
    # the same ring still works, zero generators included
    assert I.contains(x2 * pp("x1", F5, 2)) and not I.contains(pp("x1", F5, 2))
    assert membership_cofactors(pp("0", F5, 2), [pp("0", F5, 2)]) == [pp("0", F5, 2)]


def test_normal_form_skips_zero_divisors():
    zero, x1, x2 = pp("0", F5, 2), pp("x1", F5, 2), pp("x2", F5, 2)
    assert normal_form(x1 * x2, [zero, x1]).is_zero()
    assert normal_form(x1 * x2 + x2, [x1, zero]) == x2
    assert normal_form(x1 * x2, [zero]) == x1 * x2
    # membership_cofactors gives the zero generator a zero cofactor
    assert membership_cofactors(x1 * x2, [zero, x1]) == [zero, x2]


@pytest.mark.parametrize("field", [F2, F5, GF(32003), QQ], ids=repr)
def test_colon_matches_the_intersection_route(field):
    rng = random.Random(211 + (field.p or 0))
    grown = 0
    for n in range(30):
        nvars = rng.randint(2, 3)
        homogeneous = n % 2 == 0
        J = [random_poly(rng, nvars, rng.randint(1, 2), field, homogeneous)
             for _ in range(rng.randint(1, 3))]
        # products with generators of J, so that most colons grow
        I = [rng.choice(J + [random_poly(rng, nvars, 1, field, homogeneous)])
             * random_poly(rng, nvars, rng.randint(1, 2), field, homogeneous)
             for _ in range(rng.randint(1, 3))]
        I, J = Ideal(I, nvars, field), Ideal(J, nvars, field)
        ours = I.colon(J)
        assert ours.groebner_basis() == _colon_by_intersections(I, J).groebner_basis(), (I, J)
        grown += not all(I.contains(g) for g in ours.generators)
    assert grown >= 10


def test_colon_edge_cases():
    x1, x2, x3 = (pp(v, F5, 3) for v in ("x1", "x2", "x3"))
    I = Ideal([x1 * x2, x1 * x3])
    cases = [
        (Ideal([], 3, F5), Ideal([x1 + x2])),  # I = 0
        (I, Ideal([x2 + 1, pp("2", F5, 3)])),  # J contains a unit
        (I, Ideal([], 3, F5)),  # J = 0
    ]
    for A, B in cases:
        assert A.colon(B).groebner_basis() == _colon_by_intersections(A, B).groebner_basis()
    assert Ideal([], 3, F5).colon(Ideal([x1 + x2])).is_zero()
    assert same_ideal(I.colon(Ideal([x2 + 1, pp("2", F5, 3)])), I)
    assert I.colon(Ideal([], 3, F5)).height() == inf
    # J as a bare Polynomial
    assert I.colon(x1).groebner_basis() == [x2, x3]
    with pytest.raises(ValueError):
        I.colon(Ideal([pp("x1", F5, 2)]))


@pytest.mark.parametrize("field", [F2, F5, GF(32003), QQ], ids=repr)
@pytest.mark.parametrize("order", [GREVLEX, LEX], ids=repr)
def test_membership_cofactors_match_containment(field, order):
    rng = random.Random(223 + (field.p or 0) + (order is LEX))

    def lift(f, gens, nvars):
        """The cofactors of f, checked against ``Ideal.contains``."""
        zero = Polynomial.zero(nvars, field)
        cofactors = membership_cofactors(f, gens, order)
        assert (cofactors is None) == (not Ideal(gens, nvars, field).contains(f))
        if cofactors is not None:
            assert len(cofactors) == len(gens)
            assert sum((c * g for c, g in zip(cofactors, gens)), zero) == f
            assert all(c.is_zero() for c, g in zip(cofactors, gens) if g.is_zero())
        return cofactors

    inside = outside = hidden = 0
    for n in range(30):
        nvars = rng.randint(2, 3)
        homogeneous = n % 4 < 2
        zero = Polynomial.zero(nvars, field)
        gens = [random_poly(rng, nvars, rng.randint(1, 2), field, homogeneous)
                for _ in range(rng.randint(1, 3))]
        for _ in range(rng.randint(0, 2)):
            gens.insert(rng.randint(0, len(gens)), zero)
        # a combination of the generators, a random polynomial, or their sum
        f = sum((random_poly(rng, nvars, rng.randint(1, 2), field, homogeneous) * g
                 for g in gens), zero) if n % 3 != 1 else zero
        if n % 3:
            f = f + random_poly(rng, nvars, rng.randint(1, 3), field, homogeneous)
        if lift(f, gens, nvars) is not None:
            inside += 1
            continue
        outside += 1
        # f outside whose leading term is a leading term of the ideal
        ideal = Ideal(gens, nvars, field)
        leads = [max(g.terms, key=order.key) for g in ideal.groebner_basis(order)]
        lead = max(f.terms, key=order.key)
        hidden += any(all(a <= b for a, b in zip(m, lead)) for m in leads)
    assert inside >= 10 and outside >= 5 and hidden >= 3
    # the zero ideal, given by one or more zero generators, contains only 0
    for nvars in (1, 2, 3):
        zero = Polynomial.zero(nvars, field)
        for count in (1, 3):
            assert lift(zero, [zero] * count, nvars) == [zero] * count
            assert lift(random_poly(rng, nvars, 2, field), [zero] * count, nvars) is None


def test_elimination_order_blocks():
    order = elimination_order(1)
    gb = groebner_basis([pp("x1-x2^2", F5, 2), pp("x1*x2-1", F5, 2)], order)
    eliminated = [g for g in gb if all(m[0] == 0 for m in g.terms)]
    assert eliminated, "elimination must produce a polynomial free of x1"


def test_lex_order_key():
    f = pp("x1+x2^5", F5, 2)
    assert max(f.terms, key=LEX.key) == (1, 0)
    assert max(f.terms, key=GREVLEX.key) == (0, 5)


def test_rational_groebner():
    gens = [pp("2*x1^2+4*x2^2", QQ, 2), pp("3*x1*x2", QQ, 2)]
    basis = groebner_basis(gens)
    assert pp("x2^3", QQ, 2) in basis
    for g in gens:
        assert normal_form(g, basis).is_zero()


def test_ideal_cache_is_per_order():
    I = Ideal([pp("x1-x2^2", F5, 2), pp("x1*x2-1", F5, 2)])
    a = I.groebner_basis(GREVLEX)
    b = I.groebner_basis(elimination_order(1))
    assert a == I.groebner_basis(GREVLEX)
    assert a != b


# ----- the packed engine against the tuple-based division it replaced -----


def _tuple_prep(vec, keyf):
    lt = max(vec, key=keyf)
    return (lt[0], lt[1], [(t, c) for t, c in vec.items() if t != lt])


def _tuple_normal_form_vec(vec, basis, keyf, p, track=False):
    """The previous normal form: max over all live terms at every step,
    tuple monomials, divisors scanned in order."""
    work = dict(vec)
    rem = {}
    records = [] if track else None
    while work:
        t = max(work, key=keyf)
        c = work.pop(t)
        comp, mono = t
        hit = -1
        for idx, (ltc, ltm, _tail) in enumerate(basis):
            if ltc == comp and all(a <= b for a, b in zip(ltm, mono)):
                hit = idx
                break
        if hit < 0:
            rem[t] = c
            continue
        ltc, ltm, tail = basis[hit]
        umono = tuple(a - b for a, b in zip(mono, ltm))
        for (tc, tm), tcoef in tail:
            s = (tc, tuple(a + b for a, b in zip(tm, umono)))
            v = work.get(s, 0) - c * tcoef
            if p:
                v %= p
            if v:
                work[s] = v
            elif s in work:
                del work[s]
        if track:
            records.append((hit, umono, c))
    return (rem, records) if track else rem


def _decoded(terms, nvars):
    """The VecDict of ``(code, coeff)`` pairs over ``nvars`` variables."""
    layout = groebner._layout(nvars)
    return {layout.unpack(h & layout.low): c for h, c in terms}


def _random_vec(rng, field, rank, nvars, nterms, maxexp):
    vec = {}
    while len(vec) < nterms:
        term = (rng.randrange(rank), tuple(rng.randint(0, maxexp) for _ in range(nvars)))
        c = field.coerce(rng.randint(1, 40) * rng.choice((1, -1)))
        if field.p is None:
            c /= rng.randint(1, 7)
        if c:
            vec[term] = c
    return vec


def _monic(vec, keyf, field):
    inv = field.inv(vec[max(vec, key=keyf)])
    return {t: field.coerce(c * inv) for t, c in vec.items()}


def _keys(rng, rank, nvars):
    schreyer_leads = [(rng.randrange(2), tuple(rng.randint(0, 2) for _ in range(nvars)))
                      for _ in range(rank)]
    return [pot_key(GREVLEX), pot_key(LEX), pot_key(elimination_order(1)),
            _schreyer_key(schreyer_leads, pot_key(GREVLEX))]


@pytest.mark.parametrize("field", [GF(7), GF(32003), QQ], ids=repr)
@pytest.mark.parametrize("rank", [1, 2, 3])
def test_packed_normal_form_matches_tuple_route(field, rank):
    rng = random.Random(1000 * rank + (field.p or 0))
    for _ in range(12):
        nvars = rng.randint(2, 4)
        for keyf in _keys(rng, rank, nvars):
            divisors = [_monic(_random_vec(rng, field, rank, nvars, rng.randint(1, 4), 2),
                               keyf, field) for _ in range(rng.randint(0, 5))]
            vec = _random_vec(rng, field, rank, nvars, rng.randint(1, 8), 4)
            prepped = [_prep(d, keyf, field) for d in divisors]
            layout = groebner._layout(nvars)
            rem, records = normal_form_vec(_coded(vec, keyf, layout), _Divisors(prepped),
                                           field.p, track=True)
            new = _decoded(rem.items(), nvars), records
            old = _tuple_normal_form_vec(vec, [_tuple_prep(d, keyf) for d in divisors],
                                         keyf, field.p, track=True)
            assert new[1] == old[1]
            assert list(new[0].items()) == list(old[0].items())
            rem = normal_form_vec(_coded(vec, keyf, layout), _Divisors(prepped), field.p)
            assert _decoded(rem.items(), nvars) == old[0]


# ----- exponent cap -----


def test_exponent_above_the_cap_is_budget_exceeded():
    too_big = pp(f"x1^{1 << EXPONENT_BITS} - x2", F5, 2)
    with pytest.raises(BudgetExceededError, match="monomial exponent"):
        groebner_basis([too_big, pp("x1*x2", F5, 2)])
    # a reduction product past the cap raises too: x1^2 -> x1*x2^20000 ->
    # x2^40000, which x2^1000 divides, so a wrapped field would misreport
    lex_gens = [pp("x1 - x2^20000", F5, 2), pp("x1^2", F5, 2)]
    with pytest.raises(BudgetExceededError, match="monomial exponent"):
        groebner_basis(lex_gens, LEX)
    with pytest.raises(BudgetExceededError, match="monomial exponent"):
        normal_form(pp("x1^2", F5, 2),
                    [pp("x1 - x2^20000", F5, 2), pp("x2^1000", F5, 2)], LEX)


def test_s_pair_past_the_cap_is_budget_exceeded():
    # neither input reduces the other; their S-pair is x2^40000
    gens = [pp("x1*x2^20000", F5, 2), pp("x1 + x2^20000", F5, 2)]
    with pytest.raises(BudgetExceededError, match="monomial exponent"):
        groebner_basis(gens, LEX)
    with pytest.raises(BudgetExceededError, match="monomial exponent"):
        membership_cofactors(pp("x1", F5, 2), gens, LEX)


def test_cofactor_past_the_cap_is_budget_exceeded():
    # resolution pruning updates packed columns by this kernel too;
    # x2^32767 * x2 overflows
    layout = groebner._layout(2)
    expr = {layout.pack((1, (0, MAX_EXPONENT))): 1}
    with pytest.raises(BudgetExceededError, match="monomial exponent"):
        groebner._sub_scaled_packed({}, expr, layout.pack((0, (0, 1))), 1, 5,
                                    layout.guard)


def test_a_term_off_its_layout_is_an_internal_error():
    # packing x2*x3 into the two fields of a 2-variable layout would drop
    # x3 and read it as x2; the engine's own callers never mix rings
    with pytest.raises(InternalError):
        groebner.buchberger([{(0, (1, 0)): 1}, {(0, (0, 1, 1)): 1}], pot_key(GREVLEX), F5)
    with pytest.raises(InternalError):
        _coded({(0, (1,)): 1}, pot_key(GREVLEX), groebner._layout(2))


def test_exponents_up_to_the_cap_stay_exact():
    half = MAX_EXPONENT // 2
    gens = [pp(f"x1 - x2^{half}", F5, 2), pp("x1^2", F5, 2)]
    assert groebner_basis(gens, LEX) == [pp(f"x1 - x2^{half}", F5, 2),
                                         pp(f"x2^{2 * half}", F5, 2)]
    top = pp(f"x1^{MAX_EXPONENT}*x2 + x2^{MAX_EXPONENT}", F5, 2)
    assert normal_form(top, [pp("x2^2", F5, 2)]) == pp(f"x1^{MAX_EXPONENT}*x2", F5, 2)


# ----- pinned counters of two small bases -----


def _cyclic(n, field):
    x = [Polynomial.variable(i, n, field) for i in range(n)]
    gens = []
    for k in range(1, n):
        total = Polynomial.zero(n, field)
        for s in range(n):
            term = Polynomial.constant(1, n, field)
            for j in range(k):
                term = term * x[(s + j) % n]
            total = total + term
        gens.append(total)
    product = Polynomial.constant(1, n, field)
    for v in x:
        product = product * v
    return gens + [product - Polynomial.constant(1, n, field)]


def _katsura(n, field):
    nv = n + 1
    u = [Polynomial.variable(i, nv, field) for i in range(nv)]
    gens = []
    for m in range(n):
        total = -u[m]
        for l in range(-n, n + 1):
            if abs(m - l) <= n:
                total = total + u[abs(l)] * u[abs(m - l)]
        gens.append(total)
    linear = Polynomial.constant(-1, nv, field)
    for l in range(-n, n + 1):
        linear = linear + u[abs(l)]
    return gens + [linear]


def test_engine_counters_are_pinned():
    field = GF(32003)
    stats = {}
    groebner_basis(_cyclic(5, field), stats=stats)
    assert stats == {"pairs_processed": 44, "zero_reductions": 5,
                     "syzygy_skips": 786, "rewrite_skips": 110,
                     "basis_size": 44, "reduced_basis_size": 20}
    stats = {}
    groebner_basis(_katsura(5, field), stats=stats)
    assert stats == {"pairs_processed": 26, "zero_reductions": 7,
                     "syzygy_skips": 263, "rewrite_skips": 10,
                     "basis_size": 25, "reduced_basis_size": 22}


def test_pair_budget_counts_reduced_pairs():
    gens = _cyclic(5, GF(32003))
    assert len(groebner_basis(gens, budget=Budget(max_pairs=44))) == 20
    with pytest.raises(BudgetExceededError) as exc:
        groebner_basis(gens, budget=Budget(max_pairs=43))
    assert (exc.value.what, exc.value.limit) == ("groebner pairs", 43)


def test_lifts_and_colons_count_reduced_pairs():
    field = GF(32003)
    gens = _katsura(3, field)
    f = gens[0] * gens[1] + gens[2] * gens[3]
    x = [Polynomial.variable(i, 4, field) for i in range(4)]
    for run in (lambda b: membership_cofactors(f, gens, budget=b),
                lambda b: Ideal(gens).colon(Ideal([x[0], x[1] + x[2]]), b)):
        assert run(None) is not None
        with pytest.raises(BudgetExceededError) as exc:
            run(Budget(max_pairs=2))
        assert (exc.value.what, exc.value.limit) == ("groebner pairs", 2)


# ----- the signature loop against the loops it replaced -----


def _buchberger_normal_selection(vectors, keyf, field, rank1=False):
    """The first pair loop: every pair queued, smallest lcm first, the
    coprime pairs of ideal runs and those with a treated chain skipped
    when they come off the heap.  Returns the basis and the pairs reduced."""
    p = field.p
    treated, heap = [], []
    pairs = Counter("groebner pairs", 1000)  # a runaway case fails, not hangs
    prepped = _Divisors()
    negs = prepped.negs
    layout = None

    def add(rem):
        prepped.append(_prep_codes(rem, layout, field))
        treated.append(0)
        new = len(prepped) - 1
        ltc, ltm = prepped[new][2]
        for j in range(new):
            jc, jm = prepped[j][2]
            if jc == ltc:
                lcm = tuple(map(max, ltm, jm))
                heappush(heap, (keyf((ltc, lcm)), lcm, j, new))

    for vec in vectors:
        if vec:
            layout = layout or groebner._layout(len(next(iter(vec))[1]))
            rem = normal_form_vec(_coded(vec, keyf, layout), prepped, p)
            if rem:
                add(rem)
    while heap:
        key, lcm, i, j = heappop(heap)
        if treated[i] >> j & 1:
            continue
        treated[i] |= 1 << j
        treated[j] |= 1 << i
        di, dj = prepped[i], prepped[j]
        packed_lcm = layout.pack((di[2][0], lcm))
        if rank1 and 2 * layout.bias - di[0] - dj[0] == packed_lcm:
            continue
        both = treated[i] & treated[j]
        while both:
            if not (packed_lcm + negs[(both & -both).bit_length() - 1]) & layout.mask:
                break
            both &= both - 1
        if both:
            continue
        pairs.tick()
        rem = normal_form_vec(groebner._s_pair(di, dj, (di[2][0], lcm), key, p),
                              prepped, p)
        if rem:
            add(rem)
    return prepped, pairs.used


def _buchberger_gm_sugar(vectors, keyf, field, rank1=False):
    """The second pair loop: pairs pruned as each element joins, by the
    Gebauer-Moeller criteria as Becker and Weispfenning's UPDATE (M, F,
    the product criterion in ideal runs, B, and a live set), and taken by
    sugar, ties by the key of the lcm.  Returns the basis and the pairs
    reduced."""
    p = field.p
    pairs = Counter("groebner pairs", 1000)  # a runaway case fails, not hangs
    prepped = _Divisors()
    negs = prepped.negs
    excess = []  # per element, its sugar minus its leading degree
    live = []  # the elements whose leading term no later one divides
    heap = []  # (sugar, key, i, j, lcm, packed lcm), one per queued pair
    layout = None
    homogeneous = True  # so far every input, hence every element, is homogeneous

    def update(t):
        neg_t = negs[t]
        lt_t = bias - neg_t
        comp, ltm = prepped[t][2]
        candidates = []
        for i in live:
            ic, im = prepped[i][2]
            if ic == comp:
                lcm = tuple(map(max, ltm, im))
                lt_i = bias - negs[i]
                ge = (lt_t | guard) - lt_i & guard  # guard bits where lt_t's field is larger
                ge -= ge >> EXPONENT_BITS  # their value bits
                packed = lt_t & ge | lt_i & ~ge
                coprime = rank1 and lt_t + lt_i == packed
                candidates.append((keyf((comp, lcm)), not coprime, i, lcm, packed))
        # M and F: an earlier lcm dividing this one; the smaller key comes first
        candidates.sort()
        lcm_negs = []
        fresh = []
        for key, not_coprime, i, lcm, packed in candidates:
            for n in lcm_negs:
                if not (packed + n) & mask:
                    break
            else:
                lcm_negs.append(bias - packed)
                if not_coprime:  # the product criterion drops the coprime ones
                    sugar = sum(lcm) + max(excess[i], excess[t])
                    fresh.append((sugar, key, i, t, lcm, packed))
        # B: lt_t divides lcm(i, j) and is new to both lcm(i, t) and lcm(j, t)
        kept = []
        for entry in heap:
            lcm = entry[5]
            u = lcm + neg_t
            if not u & mask:
                u = u + fill & guard  # a guard bit per variable of lcm / lt_t
                if lcm + negs[entry[2]] + fill & u and lcm + negs[entry[3]] + fill & u:
                    continue
            kept.append(entry)
        heap[:] = kept + fresh
        heapify(heap)
        live[:] = [i for i in live if (bias - negs[i] + neg_t) & mask]
        live.append(t)

    def add(rem, sugar):
        prepared = _prep_codes(rem, layout, field)
        prepped.append(prepared)
        if not homogeneous:  # else rem is homogeneous of degree sugar
            sugar = max(sugar, max(map(layout.degree, rem)))
        excess.append(sugar - sum(prepared[2][1]))
        update(len(prepped) - 1)

    for vec in vectors:
        if not vec:
            continue
        if layout is None:
            layout = groebner._layout(len(next(iter(vec))[1]))
            bias, mask, guard = layout.bias, layout.mask, layout.guard
            fill = guard - (guard >> EXPONENT_BITS)  # x + fill: a guard bit per nonzero field
        degrees = {sum(m) for _, m in vec}
        homogeneous = homogeneous and len(degrees) == 1
        rem = normal_form_vec(_coded(vec, keyf, layout), prepped, p)
        if rem:
            add(rem, max(degrees))
    while heap:
        sugar, key, i, j, lcm, _ = heappop(heap)
        pairs.tick()
        di, dj = prepped[i], prepped[j]
        rem = normal_form_vec(groebner._s_pair(di, dj, (di[2][0], lcm), key, p),
                              prepped, p)
        if rem:
            add(rem, sugar)
    return prepped, pairs.used


def _times(vec, mono, factor, p):
    """factor * x^mono * vec on tuple terms."""
    out = {}
    for (comp, m), c in vec.items():
        out[(comp, tuple(a + b for a, b in zip(m, mono)))] = c * factor % p if p else c * factor
    return out


def _plus(acc, vec, p):
    for t, c in vec.items():
        v = acc.get(t, 0) + c
        if p:
            v %= p
        if v:
            acc[t] = v
        else:
            acc.pop(t, None)
    return acc


def _s_poly_vec(f, g, keyf, p):
    (_, fm), (_, gm) = max(f, key=keyf), max(g, key=keyf)
    lcm = tuple(map(max, fm, gm))
    minus_one = p - 1 if p else -1
    return _plus(_times(f, tuple(a - b for a, b in zip(lcm, fm)), 1, p),
                 _times(g, tuple(a - b for a, b in zip(lcm, gm)), minus_one, p), p)


def _homogeneous_vec(rng, field, rank, nvars, nterms, degree):
    monos = [m for m in product(range(degree + 1), repeat=nvars) if sum(m) == degree]
    vec = {}
    for _ in range(nterms):
        c = field.coerce(rng.randint(1, 40) * rng.choice((1, -1)))
        if c:
            vec[(rng.randrange(rank), rng.choice(monos))] = c
    return vec


def _queue_cases(field, rank, seed, count=20):
    """(keyf, input vectors) with every order of the rank: grevlex, lex and
    elimination orders, or position-over-term and Schreyer keys."""
    rng = random.Random(seed)
    for n in range(count):
        nvars = rng.randint(2, 4)
        if rank == 1:
            keyfs = [pot_key(GREVLEX), pot_key(LEX),
                     pot_key(elimination_order(rng.randint(1, nvars - 1)))]
        else:
            keyfs = _keys(rng, rank, nvars)
        for keyf in keyfs:
            if n % 2:
                vecs = [_homogeneous_vec(rng, field, rank, nvars, rng.randint(1, 3),
                                         rng.randint(1, 3))
                        for _ in range(rng.randint(2, 4))]
            else:
                vecs = [_random_vec(rng, field, rank, nvars, rng.randint(1, 3), 2)
                        for _ in range(rng.randint(2, 4))]
            yield keyf, [v for v in vecs if v]


#: Per (characteristic, rank), summed over the cases: the signature loop's
#: reduced pairs, syzygy skips and rewrite skips, then the pairs the
#: Gebauer-Moeller/sugar loop and the normal-selection loop reduce.
_QUEUE_PAIRS = {(2, 1): (161, 560, 125, 142, 195), (2, 2): (243, 1715, 1108, 182, 183),
                (2, 3): (89, 11, 44, 83, 90), (7, 1): (377, 2558, 483, 386, 425),
                (7, 2): (560, 4877, 1823, 521, 940), (7, 3): (146, 72, 75, 138, 141),
                (32003, 1): (223, 801, 176, 233, 253), (32003, 2): (366, 1781, 541, 337, 391),
                (32003, 3): (151, 94, 129, 135, 162), (None, 1): (195, 891, 129, 190, 219),
                (None, 2): (482, 2881, 1752, 417, 522), (None, 3): (235, 372, 270, 239, 730)}


@pytest.mark.parametrize("field", [F2, GF(7), GF(32003), QQ], ids=repr)
@pytest.mark.parametrize("rank", [1, 2, 3])
def test_pair_queue_matches_normal_selection(field, rank, monkeypatch):
    p = field.p
    counts = [0] * 5
    sigs = []  # the signature key of every regular reduction of one run

    def recording(vec, basis, p, track=False, sig=None):
        if sig is not None:
            sigs.append(sig)
        return normal_form_vec(vec, basis, p, track, sig)
    monkeypatch.setattr(groebner, "normal_form_vec", recording)
    for keyf, vecs in _queue_cases(field, rank, 97 * rank + (p or 1)):
        stats = {}
        sigs.clear()
        basis = groebner.buchberger(vecs, keyf, field, stats=stats)
        gm, gm_pairs = _buchberger_gm_sugar(vecs, keyf, field, rank1=rank == 1)
        old, old_pairs = _buchberger_normal_selection(vecs, keyf, field, rank1=rank == 1)
        reduced = groebner.autoreduce(basis, field)
        assert reduced == groebner.autoreduce(gm, field)
        assert reduced == groebner.autoreduce(old, field)
        # the unreduced output is a Groebner basis on its own ...
        basis = [_decoded(groebner._terms(d, field.one), len(d[2][1])) for d in basis]
        divisors = _Divisors(_prep(g, keyf, field) for g in basis)
        for f, g in combinations(basis, 2):
            if max(f, key=keyf)[0] == max(g, key=keyf)[0]:
                layout = groebner._layout(len(next(iter(f))[1]))
                assert not normal_form_vec(_coded(_s_poly_vec(f, g, keyf, p), keyf, layout),
                                           divisors, p)
        # ... and every input and pair is reduced in increasing signature,
        # one reduction per signature
        assert all(a < b for a, b in zip(sigs, sigs[1:]))
        assert len(sigs) == len([v for v in vecs if v]) + stats["pairs_processed"]
        for n, c in enumerate((stats["pairs_processed"], stats["syzygy_skips"],
                               stats["rewrite_skips"], gm_pairs, old_pairs)):
            counts[n] += c
    assert tuple(counts) == _QUEUE_PAIRS[p, rank]


def _reduce_regular(work, heap, basis, layout, p, sig, rem):
    """The regular reduction loop that the ``sig`` branch of
    :func:`normal_form_vec` replaced, kept as its oracle.

    A reducer x^u g_k of the term h is regular when offs[k] + weight(h)
    < sig, so the bound on offs is computed once per reduced term.  The
    remainder is keyed by term codes.
    """
    guard, mask = layout.guard, layout.mask
    even, odd, shift = layout.even, layout.odd, layout.code_shift
    negs, memo, offs = basis.negs, basis.memo, basis.offs
    scale, radix = basis.scale, basis.radix
    n = len(negs)
    get = work.get
    while heap:
        h = heappop(heap)
        c = work.pop(h)
        if not c:
            continue
        hit = memo.get(h)
        if hit is None or hit < 0:
            for hit in range(0 if hit is None else ~hit, n):
                if not (h + negs[hit]) & mask:
                    break
            else:
                memo[h] = ~n
                rem[h] = c
                continue
            memo[h] = hit
        below = (sig + radix * (h >> shift)
                 - scale * (((h & even) + ((h & odd) >> _FIELD)) % _DIGIT_SUM))
        if offs[hit] >= below:
            for hit in range(hit + 1, n):
                if offs[hit] < below and not (h + negs[hit]) & mask:
                    break
            else:
                rem[h] = c
                continue
        _, hlt, _, tail = basis[hit]
        hu = h - hlt
        for s, tc in tail:
            s += hu
            v = get(s)
            if v is None:
                if s & guard:
                    raise _exponent_overflow()
                heappush(heap, s)
                v = 0
            v -= c * tc
            work[s] = v % p if p else v


@pytest.mark.parametrize("field", [F2, GF(7), GF(32003), QQ], ids=repr)
@pytest.mark.parametrize("rank", [1, 2, 3])
def test_regular_reduction_matches_old_loop(field, rank, monkeypatch):
    p = field.p
    checked = 0

    def both(vec, basis, p, track=False, sig=None):
        nonlocal checked
        if sig is not None:
            work = dict(vec)
            heap = list(work)
            heapify(heap)
            old = {}
            memo, basis.memo = basis.memo, {}  # the oracle finds its own divisors
            try:
                _reduce_regular(work, heap, basis, vec.layout, p, sig, old)
            finally:
                basis.memo = memo
        rem = normal_form_vec(vec, basis, p, track, sig)
        if sig is not None:
            assert list(rem.items()) == list(old.items())
            checked += 1
        return rem
    monkeypatch.setattr(groebner, "normal_form_vec", both)
    for keyf, vecs in _queue_cases(field, rank, 97 * rank + (p or 1)):
        groebner.buchberger(vecs, keyf, field)
    assert checked


def test_ideal_runs_are_read_off_the_input():
    # cyclic-5 as vectors (f, 0), (0, f) or (0, 0, 0, f) lies in one
    # component, so each is an ideal run with its Koszul syzygies
    field = GF(32003)
    gens = _cyclic(5, field)
    keyf = pot_key(GREVLEX)
    reduced = groebner_basis(gens)
    for comp in (0, 1, 3):
        stats = {}
        basis = groebner.buchberger([{(comp, m): c for m, c in g.terms.items()}
                                     for g in gens], keyf, field, stats=stats)
        assert [_decoded(groebner._terms(d, field.one), 5)
                for d in groebner.autoreduce(basis, field)] == [
            {(comp, m): c for m, c in g.terms.items()} for g in reduced]
        assert stats["pairs_processed"] == 44


# ----- integer order keys against the tuple keys they replaced -----


def _tuple_grevlex(m):
    return (sum(m), tuple(-e for e in reversed(m)))


def _tuple_ring_key(order):
    if order.kind == "grevlex":
        return _tuple_grevlex
    if order.kind == "lex":
        return lambda m: m
    k = order.elim
    return lambda m: (_tuple_grevlex(m[:k]), _tuple_grevlex(m[k:]))


def _tuple_pot(order):
    ring = _tuple_ring_key(order)
    return lambda term: (-term[0], ring(term[1]))


def _tuple_schreyer(leads, prev):
    def key(term):
        comp, mono = term
        ltc, ltm = leads[comp]
        return (prev((ltc, tuple(a + b for a, b in zip(ltm, mono)))), -comp)
    return key


def _exponent(rng):
    # small, extreme and random exponents, so that digits tie and differ
    return rng.choice((0, 1, 2, 3, MAX_EXPONENT - 1, MAX_EXPONENT,
                       rng.randint(0, MAX_EXPONENT)))


def _terms(rng, ncomps, nvars, count):
    return list({(rng.randrange(ncomps), tuple(_exponent(rng) for _ in range(nvars)))
                 for _ in range(count)})


def _key_pairs(rng, nvars):
    """(int key, tuple key, component count) for every order, pot and
    Schreyer up to depth 3."""
    out = []
    for order in (GREVLEX, LEX, elimination_order(1), elimination_order(rng.randint(1, 7))):
        ikey, tkey, ncomps = pot_key(order), _tuple_pot(order), 41
        out.append((ikey, tkey, ncomps))
        for _ in range(3):
            leads = _terms(rng, ncomps, nvars, rng.randint(1, 41))
            ikey, tkey = _schreyer_key(leads, ikey), _tuple_schreyer(leads, tkey)
            ncomps = len(leads)
            out.append((ikey, tkey, ncomps))
    return out


def test_int_keys_sort_like_the_tuple_keys():
    rng = random.Random(71)
    for nvars in range(1, 7):
        for ikey, tkey, ncomps in _key_pairs(rng, nvars):
            terms = _terms(rng, ncomps, nvars, 60)
            assert sorted(terms, key=ikey) == sorted(terms, key=tkey)
            assert all(isinstance(ikey(t), int) for t in terms)


def test_int_keys_are_affine():
    rng = random.Random(73)
    for nvars in range(1, 7):
        for ikey, _, ncomps in _key_pairs(rng, nvars):
            u = tuple(rng.randint(0, 9) for _ in range(nvars))
            shifts = set()
            for comp, mono in _terms(rng, ncomps, nvars, 20):
                mono = tuple(min(e, MAX_EXPONENT - 9) for e in mono)
                moved = tuple(a + b for a, b in zip(mono, u))
                shifts.add(ikey((comp, moved)) - ikey((comp, mono)))
            assert len(shifts) == 1


def test_schreyer_lift_past_the_key_limit_is_budget_exceeded():
    lead = (0, (_KEY_LIMIT - MAX_EXPONENT + 1, 0))
    with pytest.raises(BudgetExceededError, match="monomial exponent"):
        _schreyer_key([lead], pot_key(GREVLEX))


# ----- the first-divisor memo -----


def test_first_divisor_memo_resumes_after_appends():
    resumed = 0
    for field in (GF(7), QQ):
        rng = random.Random(79 + (field.p or 0))
        for keyf in _keys(rng, 2, 3):
            vecs = [_random_vec(rng, field, 2, 3, rng.randint(1, 8), 4) for _ in range(6)]
            memoized = _Divisors()
            for _ in range(6):
                divisor = _monic(_random_vec(rng, field, 2, 3, rng.randint(1, 4), 2),
                                 keyf, field)
                stale = {h: v for h, v in memoized.memo.items() if v < 0}
                memoized.append(_prep(divisor, keyf, field))
                layout = groebner._layout(3)
                for vec in vecs:
                    with_memo = normal_form_vec(_coded(vec, keyf, layout), memoized, field.p,
                                                track=True)
                    without = normal_form_vec(_coded(vec, keyf, layout), _Divisors(memoized),
                                              field.p, track=True)
                    assert with_memo[1] == without[1]
                    assert list(with_memo[0].items()) == list(without[0].items())
                resumed += sum(memoized.memo[h] != v for h, v in stale.items())
    assert resumed > 0


def test_ideal_memo_is_cleared_past_its_cap(monkeypatch):
    monkeypatch.setattr(groebner, "_IDEAL_MEMO_CAP", 5)
    gens = _katsura(3, GF(32003))
    ideal = Ideal(gens)
    basis = ideal.groebner_basis()
    rng = random.Random(83)
    for _ in range(20):
        f = random_poly(rng, 4, 3, GF(32003))
        assert ideal.normal_form(f) == normal_form(f, basis)
        _, divisors = ideal._gb[GREVLEX.signature()]
        assert len(divisors.memo) <= 5
