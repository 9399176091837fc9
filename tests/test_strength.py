import random
from bisect import bisect_left
from functools import partial
from itertools import combinations, combinations_with_replacement, product
from math import comb, inf
from pathlib import Path

import pytest

from smallsub import groebner, strength
from smallsub.budget import Budget, BudgetExceededError, Counter
from smallsub.fields import GF, QQ, _is_prime
from smallsub.grammar import parse_polynomial as pp
from smallsub.groebner import Ideal, groebner_basis, membership_cofactors, normal_form
from smallsub.poly import (Form, Polynomial, gradient, grevlex_key, mono_mul,
                           monomials)
from smallsub.strength import (CollapseWitness, StrengthReport, _class_count,
                               _class_form, _class_support, _degree_profiles,
                               find_collapse, full_report, strength_exact,
                               strength_lower_bound)

F2 = GF(2)
F3 = GF(3)
F5 = GF(5)


def _class_domain(nvars, degree, p):
    """Degree-d monomials (grevlex, largest first) and the number of
    projective classes of nonzero degree-d forms over F_p."""
    count = _class_count(nvars, degree, p)
    return sorted(monomials(nvars, degree), key=grevlex_key, reverse=True), count


def enumerate_forms(nvars, degree, field):
    """The projective classes of degree-d forms over a prime field, in the
    order the collapse walk visits them."""
    monos, count = _class_domain(nvars, degree, field.p)
    return (_class_form(monos, _class_support(i, len(monos), field.p), nvars, field)
            for i in range(count))


def test_enumerate_forms_counts():
    # (p^m - 1)/(p - 1) projective classes for m monomials
    assert len(list(enumerate_forms(2, 1, F2))) == 3
    assert len(list(enumerate_forms(3, 1, F2))) == 7
    assert len(list(enumerate_forms(2, 2, F3))) == (3 ** 3 - 1) // 2
    # the class indexing lists the brute-force table, in its order
    assert list(enumerate_forms(3, 2, F3)) == _old_classes(3, 2, 3)


def test_find_collapse_square():
    w = find_collapse(Form(pp("x1^2", F5, 1)), 1)
    assert w is not None and w.k == 1
    g, h = w.pairs[0]
    assert g * h == pp("x1^2", F5, 1)


def test_find_collapse_linear_is_none():
    assert find_collapse(Form(pp("x1+x2", F2, 2)), 3) is None
    assert find_collapse(Form(pp("x1^2", F5, 1)), 0) is None


def test_find_collapse_rank_four_quadric():
    F = Form(pp("x1*x2+x3*x4", F2, 4))
    assert find_collapse(F, 1) is None
    w = find_collapse(F, 2)
    assert w is not None and w.k == 2


def test_find_collapse_monotone():
    rng = random.Random(71)
    for _ in range(10):
        terms = {}
        for _ in range(rng.randint(1, 4)):
            mono = [0, 0, 0]
            mono[rng.randrange(3)] += 1
            mono[rng.randrange(3)] += 1
            terms[tuple(mono)] = 1
        f = Polynomial(3, F2, terms)
        if f.is_zero():
            continue
        F = Form(f)
        for k in (1, 2):
            if find_collapse(F, k) is not None:
                assert find_collapse(F, k + 1) is not None


def test_strength_exact_examples():
    assert strength_exact(Form(pp("x1^2", F2, 1))).exact == 0
    assert strength_exact(Form(pp("x1", F2, 3))).exact == inf
    report = strength_exact(Form(pp("x1*x2+x3*x4", F2, 4)))
    assert report.exact == 1
    assert report.field_caveat
    assert report.witness is not None and report.witness.k == 2


def test_strength_exact_budget_interval():
    F = Form(pp("x1*x2+x3*x4+x1^2+x2^2+x3^2", F3, 4))
    report = strength_exact(F, budget=Budget(max_candidates=3))
    assert report.exhausted
    assert report.exact is None
    assert report.lower <= report.upper


def test_strength_rejects_rationals():
    with pytest.raises(ValueError):
        strength_exact(Form(pp("x1^2", QQ, 1)))


def test_strength_lower_bound_examples():
    assert strength_lower_bound(Form(pp("x1*x2+x3*x4", F5, 4))) == 1
    assert strength_lower_bound(Form(pp("x1^2", F5, 1))) == 0
    assert strength_lower_bound(Form(pp("x1", F5, 2))) == inf


def test_lower_bound_consistent_with_exact():
    rng = random.Random(73)
    for _ in range(12):
        monos = [(2, 0, 0), (0, 2, 0), (0, 0, 2), (1, 1, 0), (1, 0, 1), (0, 1, 1)]
        terms = {m: rng.randint(0, 1) for m in monos}
        f = Polynomial(3, F2, terms)
        if f.is_zero():
            continue
        F = Form(f)
        report = strength_exact(F)
        assert strength_lower_bound(F) <= report.exact


def test_witness_soundness_enforced():
    F = Form(pp("x1*x2", F2, 2))
    good = CollapseWitness(F, ((Form(pp("x1", F2, 2)), Form(pp("x2", F2, 2))),))
    assert good.k == 1
    with pytest.raises(ValueError):
        CollapseWitness(F, ((Form(pp("x2", F2, 2)), Form(pp("x2", F2, 2))),))
    with pytest.raises(ValueError):
        CollapseWitness(F, ((Form(pp("x1*x2", F2, 2)), Form(pp("x1", F2, 2))),))


def test_easy_direction_height_bound():
    # any witness with k pairs places F and its derivative space in an ideal
    # generated by 2k forms, so the measured height is at most 2k
    rng = random.Random(79)
    for _ in range(8):
        g = Form(pp(random.Random(rng.random()).choice(["x1", "x2", "x1+x2"]), F3, 3))
        h_poly = Polynomial(3, F3, {(1, 0, 0): rng.randint(1, 2),
                                    (0, 1, 0): rng.randint(0, 2),
                                    (0, 0, 1): rng.randint(0, 2)})
        F = Form(g * h_poly)
        w = find_collapse(F, 2)
        assert w is not None
        gens = [F] + [d for d in gradient(F) if not d.is_zero()]
        h = Ideal(gens, 3, F3).height()
        assert h <= 2 * w.k


def _divisor_oracle_reducible(F: Form) -> bool:
    # brute force: does any lower-degree form divide F?
    from smallsub.groebner import membership_cofactors
    return any(membership_cofactors(F, [g]) is not None
               for d in range(1, F.degree)
               for g in enumerate_forms(F.nvars, d, F.field))


def test_irreducibility_matches_divisor_oracle():
    rng = random.Random(83)
    for p in (2, 3):
        field = GF(p)
        for _ in range(10):
            nvars = rng.randint(2, 3)
            monos = [(2, 0, 0)[:nvars] if nvars == 2 else m
                     for m in [(2, 0, 0), (0, 2, 0), (0, 0, 2),
                               (1, 1, 0), (1, 0, 1), (0, 1, 1)]]
            monos = sorted({tuple(m[:nvars]) for m in monos if sum(m[:nvars]) == 2})
            terms = {m: rng.randint(0, p - 1) for m in monos}
            f = Polynomial(nvars, field, terms)
            if f.is_zero():
                continue
            F = Form(f)
            has_one_collapse = find_collapse(F, 1) is not None
            assert has_one_collapse == _divisor_oracle_reducible(F)


def test_report_validation():
    with pytest.raises(ValueError):
        StrengthReport(lower=3, upper=1)
    with pytest.raises(ValueError):
        StrengthReport(lower=0, upper=2, exact=1)


def test_full_report_carries_both_certificates():
    report = full_report(Form(pp("x1*x2+x3*x4", F2, 4)))
    assert report.exact == 1
    assert report.jacobian_lower == 1


# ----- differential check against the per-candidate Groebner route -----


def _old_classes(nvars, degree, p):
    """Projective classes of degree-d forms in the original table order."""
    monos = sorted((m for m in product(range(degree + 1), repeat=nvars)
                    if sum(m) == degree), key=grevlex_key, reverse=True)
    field = GF(p)
    out = []
    for lead in range(len(monos)):
        for tail in product(range(p), repeat=len(monos) - lead - 1):
            terms = {monos[lead]: 1}
            for mono, c in zip(monos[lead + 1:], tail):
                if c:
                    terms[mono] = c
            out.append(Form(Polynomial(nvars, field, terms)))
    return out


def _old_find_collapse(F, k, budget):
    """The per-candidate route: a Groebner basis and a normal form per tuple,
    every call counting sizes 1..k afresh."""
    if k == 0 or F.degree == 1:
        return None
    used = 0
    for size in range(1, k + 1):
        for profile in combinations_with_replacement(range(1, F.degree // 2 + 1), size):
            groups = sorted({e: profile.count(e) for e in profile}.items())
            per_group = [combinations(_old_classes(F.nvars, e, F.field.p), mult)
                         for e, mult in groups]
            for combos in product(*per_group):
                gens = [g for combo in combos for g in combo]
                used += 1
                if used > budget.max_candidates:
                    raise BudgetExceededError("collapse candidates",
                                              budget.max_candidates)
                gb = groebner_basis(gens, budget=budget)
                if normal_form(F, gb).is_zero():
                    cof = membership_cofactors(F, gens, budget=budget)
                    parts = [(g, c.homogeneous_component(F.degree - g.degree))
                             for g, c in zip(gens, cof)]
                    return CollapseWitness(F, tuple((g, Form(h)) for g, h in parts
                                                    if not h.is_zero()))
    return None


def _outcome(call):
    try:
        return call()
    except BudgetExceededError:
        return "budget exceeded"


def _old_strength_exact(F, fc):
    """The original ascending loop over find_collapse(k) for k = 1..nvars."""
    if F.degree == 1:
        return StrengthReport(lower=inf, upper=inf, exact=inf)
    completed = 0
    for size in range(1, F.nvars + 1):
        witness = fc(size)
        if witness == "budget exceeded":
            return StrengthReport(lower=completed, upper=inf,
                                  field_caveat=completed > 0, exhausted=True)
        if witness is not None:
            value = witness.k - 1
            return StrengthReport(lower=value, upper=value, exact=value,
                                  field_caveat=value > 0, witness=witness)
        completed = size
    return StrengthReport(lower=completed, upper=inf, field_caveat=True)


def _differential_forms():
    rng = random.Random(89)
    for p in (2, 3):
        for d in (2, 3):
            for F in _old_classes(2, d, p):
                yield F, Budget()
        for F in _old_classes(3, 2, p):
            yield F, Budget()
    for p, count, cap in ((2, 12, 20_000), (3, 8, 380)):
        cubics = _old_classes(3, 3, p)
        for F in rng.sample(cubics, count):
            yield F, Budget(max_candidates=cap)


def test_collapse_search_matches_groebner_route(monkeypatch):
    cases = list(_differential_forms())
    expected = []
    with monkeypatch.context() as m:
        # the oracle must not reach the degree-d membership kernel
        m.setattr(strength, "_collapse_search", None)
        for F, budget in cases:
            memo = {}

            def fc(k, F=F, budget=budget, memo=memo):
                if k not in memo:
                    memo[k] = _outcome(lambda: _old_find_collapse(F, k, budget))
                return memo[k]
            expected.append((fc(1), fc(2), _old_strength_exact(F, fc)))
    for (F, budget), (one, two, report) in zip(cases, expected):
        assert _outcome(lambda: find_collapse(F, 1, budget)) == one, F
        assert _outcome(lambda: find_collapse(F, 2, budget)) == two, F
        assert strength_exact(F, budget) == report, F


def test_one_pass_budget_boundary():
    F = Form(pp("x1*x2+x3*x4", F2, 4))
    c1 = len(list(enumerate_forms(4, 1, F2)))   # size-1 candidates: 15 lines
    assert find_collapse(F, 1) is None
    report = strength_exact(F, Budget(max_candidates=c1))
    assert (report.lower, report.exhausted) == (1, True)
    report = strength_exact(F, Budget(max_candidates=c1 - 1))
    assert (report.lower, report.exhausted) == (0, True)
    # find_collapse counts its own candidates, all sizes up to k, per call
    budget = Budget(max_candidates=c1)
    assert find_collapse(F, 1, budget) is None
    assert find_collapse(F, 1, budget) is None
    with pytest.raises(BudgetExceededError):
        find_collapse(F, 1, Budget(max_candidates=c1 - 1))
    with pytest.raises(BudgetExceededError):
        find_collapse(F, 2, budget)


def test_cubic_budget_boundary():
    # size 1 tests the 7 linear classes only, as a quadric is never a
    # generator of a cubic's collapse; size 2 finds its witness at the
    # third pair of lines
    F = Form(pp("x1^3+x2^3+x3^3", F2, 3))
    report = strength_exact(F, Budget(max_candidates=10))
    assert report.exact == 1
    assert [g for g, _ in report.witness.pairs] == [pp("x1", F2, 3),
                                                          pp("x1+x2+x3", F2, 3)]
    assert strength_exact(F) == report
    for cap, lower in ((9, 1), (7, 1), (6, 0)):
        report = strength_exact(F, Budget(max_candidates=cap))
        assert (report.lower, report.exact, report.exhausted) == (lower, None, True)


def test_enumeration_domain_cap():
    # 2^18 - 1 = 262,143 linear classes exceed the cap; 2^17 - 1 do not
    F = Form(pp("x1*x2", F2, 18))
    # an oversized domain is never built, so never cached: a repeated call
    # raises again and adds no product table
    for _ in range(2):
        tables = strength._products.cache_info()
        with pytest.raises(BudgetExceededError) as err:
            find_collapse(F, 1)
        assert err.value.what == "collapse enumeration domain"
        assert err.value.limit == strength.ENUMERATION_DOMAIN_CAP == 200_000
        after = strength._products.cache_info()
        assert (after.misses, after.currsize) == (tables.misses, tables.currsize)
    w = find_collapse(Form(pp("x1*x2", F2, 17)), 1)
    assert [g for g, _ in w.pairs] == [pp("x1", F2, 17)]
    # the 2^28 - 1 quadric classes in 7 variables are never a cubic's
    # generators, so its pairs of lines are reached
    report = strength_exact(Form(pp("x1*x2*x3+x4*x5*x6", F2, 7)))
    assert report.exact == 1
    assert [g for g, _ in report.witness.pairs] == [pp("x1", F2, 7),
                                                          pp("x1+x6", F2, 7)]


# ----- differential check against the dense-list collapse kernel -----


# The kernel that the packed rows replaced, kept as it was: one list of
# residues per row, eliminated column by column.
def _dense_collapse_search(target: Form, max_size: int, budget: Budget,
                           max_degree: int | None = None):
    """For each size 1..max_size in turn, yield the first generator tuple of
    that size whose ideal contains the target, or None once every tuple of
    that size is ruled out.

    Tuples run over degree profiles, and within one degree over increasing
    class indices.  A tuple (g_1..g_k) is decided in degree d = deg F:
    F lies in (g_1..g_k) exactly when it lies in the span of the products
    m*g_i, m a monomial of degree d - deg g_i.  Those rows are kept in
    echelon form (each row's first nonzero column is its pivot, scaled to
    1) along a depth-first walk over tuple prefixes, together with F
    reduced at every pivot, so a prefix's rows are reduced once for all
    tuples extending it.  Every tuple ticks one candidate counter.

    Profiles run over degrees [1, max_degree], by default floor(d/2) as in
    the packed kernel; d - 1 gives the full profiles that bound replaced.
    """
    p, nvars, d = target.field.p, target.nvars, target.degree
    if max_degree is None:
        max_degree = d // 2
    counter = Counter("collapse candidates", budget.max_candidates)
    # columns and product rows in lex-descending monomial order: under the
    # ascending order the same eliminations cost more, and the slowest
    # searches of the benchmark's collapse pool take about 8% longer
    columns = {m: j for j, m in enumerate(sorted(monomials(nvars, d), reverse=True))}
    ncols = len(columns)
    rows: list[list[int] | None] = [None] * ncols  # indexed by pivot column
    domains: dict[int, tuple] = {}

    def domain(e: int):
        if e not in domains:
            monos, count = _class_domain(nvars, e, p)
            products = [[columns[mono_mul(u, m)] for m in monos]
                        for u in sorted(monomials(nvars, d - e), reverse=True)]
            domains[e] = (monos, count, products)
        return domains[e]

    def reduce(vec: list[int]) -> list[int]:
        for j in range(ncols):
            f = vec[j]
            if f and rows[j] is not None:
                vec = [(a - f * b) % p for a, b in zip(vec, rows[j])]
        return vec

    def add_rows(support, products, residual):
        """Insert the rows m*g of one class; return the residual and new pivots."""
        pivots = []
        for cols in products:
            vec = [0] * ncols
            for a, c in support:
                vec[cols[a]] = c
            vec = reduce(vec)
            lead = next((j for j, x in enumerate(vec) if x), None)
            if lead is None:
                continue
            if vec[lead] != 1:
                inv = pow(vec[lead], p - 2, p)
                vec = [x * inv % p for x in vec]
            rows[lead] = vec
            pivots.append(lead)
            f = residual[lead]
            if f:
                residual = [(a - f * b) % p for a, b in zip(residual, vec)]
        return residual, pivots

    def walk(profile, pos, start, residual):
        e = profile[pos]
        monos, count, products = domain(e)
        last = pos == len(profile) - 1
        # leave room for the later positions of the same degree
        stop = count - profile[pos + 1:].count(e)
        for i in range(start, stop):
            if last:
                counter.tick()
            support = _class_support(i, len(monos), p)
            reduced, pivots = add_rows(support, products, residual)
            if last:
                found = None if any(reduced) else []
            else:
                nxt = i + 1 if profile[pos + 1] == e else 0
                found = walk(profile, pos + 1, nxt, reduced)
            for j in pivots:
                rows[j] = None
            if found is not None:
                return [_class_form(monos, support, nvars, target.field)] + found
        return None

    residual = [0] * ncols
    for m, c in target.terms.items():
        residual[columns[m]] = c
    for size in range(1, max_size + 1):
        found = None
        for profile in _degree_profiles(size, max_degree):
            found = walk(profile, 0, 0, residual)
            if found is not None:
                break
        yield found
        if found is not None:
            return


_KERNEL_PRIMES = (2, 3, 5, 7, 11, 13, 31)
_KERNEL_CAPS = (1, 7, 60, 400, 3000)


def _random_poly(rng, nvars, degree, field):
    p = field.p
    return Polynomial(nvars, field, {m: rng.randrange(p) for m in monomials(nvars, degree)
                                     if rng.random() < 0.6})


def _nonzero_form(rng, nvars, d, field, product):
    f = Polynomial.zero(nvars, field)
    while f.is_zero():
        if product:
            e = rng.randint(1, d - 1)
            f = _random_poly(rng, nvars, e, field) * _random_poly(rng, nvars, d - e, field)
        else:
            f = _random_poly(rng, nvars, d, field)
    return Form(f)


def _kernel_cases():
    """Seeded forms in 2-4 variables of degree 2-3, half of them products
    g*h, each with one candidate cap.  Then quadrics in 4 variables at the
    largest cap: their pair searches run deep, and there the rows of the
    second generator reduce against the first's and get rescaled."""
    rng = random.Random(97)
    for p in _KERNEL_PRIMES:
        field = GF(p)
        for i in range(20):
            nvars, d = rng.randint(2, 4), rng.randint(2, 3)
            cap = _KERNEL_CAPS[i % len(_KERNEL_CAPS)]
            yield _nonzero_form(rng, nvars, d, field, i % 2), Budget(max_candidates=cap)
        for _ in range(4):
            yield (_nonzero_form(rng, 4, 2, field, False),
                   Budget(max_candidates=_KERNEL_CAPS[-1]))


def _kernel_outcomes(F, budget):
    def first_factors(k):
        w = _outcome(lambda: find_collapse(F, k, budget))
        return w if w in (None, "budget exceeded") else tuple(g for g, _ in w.pairs)
    return first_factors(1), first_factors(2), strength_exact(F, budget)


def test_packed_kernel_matches_dense_kernel(monkeypatch):
    cases = list(_kernel_cases())
    with monkeypatch.context() as m:
        m.setattr(strength, "_collapse_search", _dense_collapse_search)
        expected = [_kernel_outcomes(F, budget) for F, budget in cases]
    for (F, budget), want in zip(cases, expected):
        assert _kernel_outcomes(F, budget) == want, (F, budget.max_candidates)


# ----- differential check against the full degree profiles -----


def _seeded_classes(rng, nvars, degree, p, count):
    monos, total = _class_domain(nvars, degree, p)
    return [_class_form(monos, _class_support(i, len(monos), p), nvars, GF(p))
            for i in rng.sample(range(total), count)]


def _half_degree_cases():
    """Forms on which the search over every profile in [1, d - 1] resolves
    under the default budget."""
    rng = random.Random(103)
    for p in (2, 3, 5):
        yield from _old_classes(2, 3, p)
    yield from _seeded_classes(rng, 3, 3, 2, 40)
    yield from _seeded_classes(rng, 3, 3, 3, 12)
    # no point over F2, so strength 2: sizes 1 and 2 are searched out
    yield Form(pp("x1^3+x1*x2^2+x2^3+x1*x2*x3+x1*x3^2+x2*x3^2+x3^3", F2, 3))
    for p in (2, 3, 5):
        for d in (4, 5):
            yield from _seeded_classes(rng, 2, d, p, 8)
    yield from _seeded_classes(rng, 3, 4, 2, 30)
    # no point over F2, so no 2-collapse has two linear generators; its
    # first one pairs a line with a quadric
    yield Form(pp("x1^4+x1*x2^3+x2^4+x1*x2*x3^2+x1*x3^3+x2*x3^3+x3^4", F2, 3))
    # quartics and a quintic with no linear factor, so that their only
    # 1-collapses pair two quadrics (d = 4) or a quadric and a cubic (d = 5)
    for g, h, p, nvars in (("x1^2+x1*x2+x2^2", "x1^2+x1*x2+x2^2", 2, 2),
                           ("x1^2+x1*x2+x2^2", "x1*x2+x3^2", 2, 3),
                           ("x1^2+x2^2", "x1^2+x1*x2+2*x2^2", 3, 2),
                           ("x1^2+2*x2^2", "x1^2+x1*x2+x2^2", 5, 2),
                           ("x1^2+x1*x2+x2^2", "x1^3+x1*x2^2+x2^3", 2, 2)):
        yield Form(pp(g, GF(p), nvars) * pp(h, GF(p), nvars))


def test_half_degree_profiles_match_full_profiles(monkeypatch):
    cases = list(_half_degree_cases())
    expected = []
    with monkeypatch.context() as m:
        for F in cases:
            m.setattr(strength, "_collapse_search",
                      partial(_dense_collapse_search, max_degree=F.degree - 1))
            want = _kernel_outcomes(F, Budget())
            assert "budget exceeded" not in want[:2] and not want[2].exhausted, F
            expected.append(want)
    for F, want in zip(cases, expected):
        assert _kernel_outcomes(F, Budget()) == want, F


@pytest.mark.parametrize("p", [q for q in range(400) if _is_prime(q)] + [1009, 32003, 199_999])
def test_slot_reduction_is_exact(p):
    rng = random.Random(p)
    nslots = 20
    width, norm, _, _ = strength._slot_layout(p, nslots)
    edges = (0, p - 1, p, p * p - p, p * p - 1)
    vectors = [[edges[(j + k) % len(edges)] for j in range(nslots)] for k in range(len(edges))]
    vectors += [[rng.randrange(p * p) for _ in range(nslots)] for _ in range(20)]
    for values in vectors:
        packed = norm(sum(x << j * width for j, x in enumerate(values)))
        got = [packed >> j * width & ((1 << width) - 1) for j in range(nslots)]
        assert got == [x % p for x in values], p


def test_strength_over_the_largest_enumerable_field():
    # 200,000 linear classes in 2 variables: exactly the enumeration cap;
    # -1 is not a square mod 199999, so x1^2 + x2^2 has no 1-collapse
    field = GF(199_999)
    report = strength_exact(Form(pp("x1^2+x2^2", field, 2)),
                            Budget(max_candidates=250_000))
    assert report.exact == 1
    assert [g for g, _ in report.witness.pairs] == [pp("x1", field, 2),
                                                          pp("x1+x2", field, 2)]


def test_strength_exact_rejects_a_negative_cap():
    quadric = Form(pp("x1*x2+x3*x4", F2, 4))
    with pytest.raises(ValueError, match="max_k"):
        strength_exact(quadric, max_k=-1)
    with pytest.raises(ValueError, match="max_k"):
        strength_exact(Form(pp("x1", F2, 4)), max_k=-1)
    report = strength_exact(quadric, max_k=0)
    assert (report.lower, report.upper) == (0, inf)


# ----- span-canonical pruning -----


def _class_vector(i, m, p):
    vec = [0] * m
    for a, c in _class_support(i, m, p):
        vec[a] = c
    return tuple(vec)


def _class_key(vec):
    """A class's place in the one class order: its lead, then its tail."""
    lead = next(j for j, x in enumerate(vec) if x)
    return lead, vec[lead + 1:]


def _rref(vectors, p):
    """Reduced echelon rows of the span of ``vectors``, in pivot order."""
    rows = {}
    for v in vectors:
        v = list(v)
        for piv, row in rows.items():
            c = v[piv]
            v = [(a - c * b) % p for a, b in zip(v, row)]
        if any(v):
            lead = next(j for j, x in enumerate(v) if x)
            inv = pow(v[lead], p - 2, p)
            v = [x * inv % p for x in v]
            for piv, row in list(rows.items()):
                c = row[lead]
                rows[piv] = [(a - c * b) % p for a, b in zip(row, v)]
            rows[lead] = v
    return [(piv, tuple(rows[piv])) for piv in sorted(rows)]


def _packed(rows, width):
    return tuple((piv, sum(x << j * width for j, x in enumerate(row))) for piv, row in rows)


def _span(packed, width):
    """``_extend_span``'s (rows, mask) for packed (pivot, row) pairs."""
    return dict(packed), sum(((1 << width) - 1) << piv * width for piv, _ in packed)


def _pairs(span):
    """The (pivot, row) pairs of an ``_extend_span`` result, in pivot order."""
    return None if span is None else tuple(sorted(span[0].items()))


def _extend_span(span: tuple, vec: int, p: int, layout) -> tuple | None:
    """The reduced echelon form of S + <vec> when the class vec is the least
    class of that span outside S; None otherwise, and when vec lies in S.

    ``span`` is the reduced echelon form (rows, mask) of S in F_p^m, and
    ``layout`` the kernel of ``strength._slot_layout`` for F_p^m; vec is packed
    and has leading coefficient 1.  The classes of S + <vec> outside S are
    those of the coset v' + S, for v' the residual of vec against S, whose
    lead L is no pivot.  A member s + v' leads at min(lead(s), L), so when
    no pivot precedes L the least one is v' itself, normalized.  Otherwise
    the least leads at the first pivot; scaled to 1 there it is
    r_1 + sum b_k*r_k + mu*v' (r_1 the first row), whose slot at each later
    pivot is b_k, so every b_k is 0, and mu != 0 makes slot L least: 0, or
    1 where r_1 has 0 there.  ``strength._canonical_classes`` generates the
    classes this accepts; this tests them one at a time.
    """
    width, norm, reduce, monic = layout
    slot = (1 << width) - 1
    rows, mask = span
    res = reduce(vec, rows, mask)
    if not res:
        return None
    lead, new = monic(res)
    shift = lead * width
    least = new
    if mask & ((1 << shift) - 1):
        first = rows[((mask & -mask).bit_length() - 1) // width]
        f = first >> shift & slot
        least = norm(first + ((p - f) if f else 1) * new)
    if least != vec:
        return None
    return strength._grow_span(span, lead, new, p, layout)




def _least_new_class(span_rows, vec, p):
    """The least class of S + <vec> outside S, by listing the whole span."""
    basis = [row for _, row in span_rows] + [vec]
    inside = {tuple(sum(c * row[j] for c, row in zip(coeffs, basis[:-1])) % p
                    for j in range(len(vec)))
              for coeffs in product(range(p), repeat=len(basis) - 1)}
    members = []
    for coeffs in product(range(p), repeat=len(basis)):
        w = tuple(sum(c * row[j] for c, row in zip(coeffs, basis)) % p
                  for j in range(len(vec)))
        if w not in inside:
            lead = next(x for x in w if x)
            members.append(tuple(x * pow(lead, p - 2, p) % p for x in w))
    return min(members, key=_class_key, default=None)


@pytest.mark.parametrize("p", [2, 3, 5])
def test_class_key_is_the_class_order(p):
    for m in range(1, 5):
        keys = [_class_key(_class_vector(i, m, p))
                for i in range(strength.class_count(m, p))]
        assert keys == sorted(keys) and len(set(keys)) == len(keys)


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_extend_span_matches_brute_force_cosets(p):
    rng = random.Random(p)
    for _ in range(300):
        m = rng.randint(1, 5)
        # keep the listed span, p^(dim S + 1) vectors, small
        most = max(j for j in range(m) if p ** (j + 1) <= 3000)
        count = strength.class_count(m, p)
        span_rows = _rref([_class_vector(rng.randrange(count), m, p)
                           for _ in range(rng.randint(0, most))], p)
        vec = _class_vector(rng.randrange(count), m, p)
        layout = strength._slot_layout(p, m)
        width = layout[0]
        grown = _pairs(_extend_span(_span(_packed(span_rows, width), width),
                                    sum(x << j * width for j, x in enumerate(vec)),
                                    p, layout))
        if _least_new_class(span_rows, vec, p) == vec:
            basis = [row for _, row in span_rows] + [vec]
            assert grown == _packed(_rref(basis, p), width), (span_rows, vec)
        else:
            assert grown is None, (span_rows, vec)


@pytest.mark.parametrize("m, r, p, subspaces", [(4, 2, 3, 130), (5, 3, 2, 155),
                                                (3, 2, 5, 31), (4, 3, 3, 40)])
def test_accepted_tuples_are_one_per_subspace(m, r, p, subspaces):
    # Gaussian binomials: the 780 pairs of lines in 4 variables over F3
    # span 130 planes, and the 4,495 triples in 5 variables over F2 span
    # 155 subspaces
    layout = strength._slot_layout(p, m)
    width = layout[0]
    count = strength.class_count(m, p)
    vecs = [sum(c << a * width for a, c in _class_support(i, m, p)) for i in range(count)]
    accepted = []

    def walk(start, span, left):
        if not left:
            accepted.append(_pairs(span))
            return
        for i in range(start, count):
            grown = _extend_span(span, vecs[i], p, layout)
            if grown is not None:
                walk(i + 1, grown, left - 1)

    walk(0, ({}, 0), r)
    assert len(accepted) == len(set(accepted)) == subspaces


# The caps of _KERNEL_CAPS stop a natural walk over forms in 3 variables
# long before it reaches two generators of degree 2, or lines followed by
# a quadric, so these walks are restricted to such profiles.  Their blocks
# hold at most two generators each, so no tuple is dependent, and the
# restriction keeps every tuple the pruning skips equal in ideal to an
# earlier tuple of its own profile.
_TWO_QUADRICS = {2: [(2, 2)]}
_LINES_THEN_QUADRIC = {1: [(1,)], 3: [(1, 1, 2)]}


def _span_cases():
    """Quartics in 3 variables over F5 and F7, each with a profile table."""
    rng = random.Random(107)
    for p in (5, 7):
        field = GF(p)
        monos, _ = _class_domain(3, 2, p)
        for _ in range(2):
            # F lies in (x1^2, q) for a quadric class q below 600, so the
            # walk over pairs of quadrics meets a hit within 600 pairs
            q = _class_form(monos, _class_support(rng.randrange(1, 600), len(monos), p),
                            3, field)
            F = Form(pp("x1^2", field, 3) * _random_poly(rng, 3, 2, field)
                     + q * _random_poly(rng, 3, 2, field))
            yield F, _TWO_QUADRICS
        yield _nonzero_form(rng, 3, 4, field, False), _LINES_THEN_QUADRIC
        # no x2^4 term: the first pair of lines, x1 and x1 + x3, cut out a
        # point where F vanishes, so the first quadric completes a collapse
        yield Form(pp("x1^4 + 2*x1*x2^3 + x3^4 + x2^2*x3^2", field, 3)), _LINES_THEN_QUADRIC


def _recording_counters(monkeypatch):
    counters = []

    class Recording(Counter):
        def __init__(self, *args):
            super().__init__(*args)
            counters.append(self)

    monkeypatch.setattr(strength, "Counter", Recording)
    monkeypatch.setitem(globals(), "Counter", Recording)
    return counters


def test_span_pruned_walk_matches_dense_kernel_on_degree_two_blocks(monkeypatch):
    counters = _recording_counters(monkeypatch)
    for F, profiles in _span_cases():
        def restricted(size, max_degree, profiles=profiles):
            return profiles.get(size, [])
        monkeypatch.setattr(strength, "_degree_profiles", restricted)
        monkeypatch.setitem(globals(), "_degree_profiles", restricted)
        for cap in _KERNEL_CAPS:
            budget = Budget(max_candidates=cap)
            with monkeypatch.context() as m:
                m.setattr(strength, "_collapse_search", _dense_collapse_search)
                del counters[:]
                want = _kernel_outcomes(F, budget)
                want_used = [c.used for c in counters]
            del counters[:]
            assert _kernel_outcomes(F, budget) == want, (F, cap)
            # a run that ended on a hit or ran out its tuples ticked each
            # tuple once; one cut by the cap may stop mid-skip
            got_used = [c.used for c in counters]
            assert [u if u <= cap else None for u in got_used] == \
                [u if u <= cap else None for u in want_used], (F, cap)


def _ticks_of_full_walk(F, profiles, found):
    """Tuples the walk over every increasing tuple ticks, through ``found``."""
    classes = {}
    ticks = 0
    for size in sorted(profiles):
        for profile in profiles[size]:
            groups = sorted({e: profile.count(e) for e in profile}.items())
            for e, _ in groups:
                classes.setdefault(e, list(enumerate_forms(F.nvars, e, F.field)))
            for combos in product(*[combinations(classes[e], mult) for e, mult in groups]):
                ticks += 1
                if [g for combo in combos for g in combo] == found:
                    return ticks
    raise AssertionError("the tuple is not in the walk")


@pytest.mark.parametrize("text, p, profiles, ticks", [
    # no line over F3 lies on this cubic surface, and it has no point on
    # x1 = x4 = 0, so every triple (x1, x1 + x4, l) fails; (x1, x1 + 2*x4)
    # spans the same plane, so its 37 triples tick at once; the first hit,
    # (x1, x1 + x3, x1 + x2), cuts out the point (0:0:0:1): 40 + 780 + 81
    ("x1^3 + 2*x2^3 + 2*x2^2*x3 + 2*x1*x3^2 + 2*x2*x3^2 + x3^3 + 2*x1^2*x4"
     " + x2*x3*x4 + x3*x4^2", 3, None, 901),
    # no point over F2 on x1 = 0, so the 7 pairs of lines there fail with
    # every quadric, and the 7 pairs (x1, l) with l of lead x2, x3 or x4
    # skip their 1,023 quadrics each at once: 2*7*1,023 + 129
    ("x1^3 + x2^3 + x2*x3^2 + x2*x3*x4 + x2*x4^2 + x3^3 + x3*x4^2 + x4^3", 2,
     {3: [(1, 1, 2)]}, 14_451),
], ids=["same-degree-block", "later-degree-block"])
def test_skipped_subtrees_tick_every_tuple_they_hold(monkeypatch, text, p, profiles, ticks):
    F = Form(pp(text, GF(p), 4))
    if profiles is None:
        profiles = {size: list(_degree_profiles(size, F.degree // 2)) for size in range(1, 5)}
    else:
        monkeypatch.setattr(strength, "_degree_profiles",
                            lambda size, max_degree: profiles.get(size, []))
    counters = _recording_counters(monkeypatch)
    *_, found = strength._collapse_search(F, max(profiles), Budget(max_candidates=10**6))
    assert found is not None
    assert counters[0].used == _ticks_of_full_walk(F, profiles, found) == ticks


# ----- generated canonical classes, linear rows by substitution -----


def _seeded_span(rng, m, p, rank):
    """The packed reduced echelon form of the span of ``rank`` random
    classes of F_p^m (of smaller rank when they are dependent)."""
    count = strength.class_count(m, p)
    width = strength._slot_layout(p, m)[0]
    rows = _rref([_class_vector(rng.randrange(count), m, p) for _ in range(rank)], p)
    return _span(_packed(rows, width), width)


def _ticks_skipped_one_by_one(count, later, a, b):
    """What tuples_below ticks over the skipped classes a..b, for a
    position with no later degree."""
    return sum(comb(count - i - 1, later) for i in range(a, b + 1))


@pytest.mark.parametrize("p, slots", [(2, 10), (3, 7), (5, 5)])
def test_canonical_classes_match_extend_span(p, slots):
    # class spaces of up to about 1,100 classes, spans of rank 0-3, every
    # start: the generated indices are those _extend_span accepts, each
    # with the residual it grows the span by, and each skipped range ticks
    # in one call what tuples_below ticks class by class
    rng = random.Random(p)
    for m in range(1, slots + 1):
        layout = strength._slot_layout(p, m)
        width = layout[0]
        count = strength.class_count(m, p)
        vecs = [sum(c << a * width for a, c in _class_support(i, m, p)) for i in range(count)]
        for rank in range(min(m, 3) + 1):
            span = _seeded_span(rng, m, p, rank)
            grown = [_extend_span(span, vec, p, layout) for vec in vecs]
            accepted = [i for i in range(count) if grown[i] is not None]
            generated = list(strength._canonical_classes(span, m, p, width, 0, count))
            assert [i for i, _ in generated] == accepted, (m, span)
            for i, support in generated:
                (lead, one), residual = support[0], sum(c << a * width for a, c in support)
                assert one == 1 and grown[i] == strength._grow_span(span, lead, residual,
                                                                    p, layout), (m, span, i)
            for later in range(4):
                edges = [-1] + [i for i in accepted if i < count - later] + [count - later]
                for a, b in zip(edges, edges[1:]):
                    if a + 1 < b:
                        assert strength._skipped_tuples(count, later, a + 1, b - 1) == \
                            _ticks_skipped_one_by_one(count, later, a + 1, b - 1)
            for start in range(count + 1):
                stop = rng.randint(start, count)
                got = [i for i, _ in strength._canonical_classes(span, m, p, width, start, stop)]
                assert got == accepted[bisect_left(accepted, start):bisect_left(accepted, stop)], \
                    (m, span, start, stop)
                # the run skipped from start itself
                first = got[0] if got else stop
                later = rng.randint(0, 3)
                if start < first and first <= count - later:
                    assert strength._skipped_tuples(count, later, start, first - 1) == \
                        _ticks_skipped_one_by_one(count, later, start, first - 1)


def _planted(rng, nvars, d, field):
    """l_1*h_1 + l_2*h_2 for two of the first ten lines, so strength at most
    1, found within the first pairs of lines."""
    monos, _ = _class_domain(nvars, 1, field.p)
    F = Polynomial.zero(nvars, field)
    while F.is_zero():
        F = Polynomial.zero(nvars, field)
        for i in rng.sample(range(10), 2):
            line = _class_form(monos, _class_support(i, nvars, field.p), nvars, field)
            F = F + line * _random_poly(rng, nvars, d - 1, field)
    return Form(F)


def _linear_profile_cases():
    """Quadrics and cubics in 5-6 variables over F2 and F3, so every
    profile is all-linear: random forms under caps that bind, and forms
    with a planted 2-collapse under a cap that does not."""
    rng = random.Random(113)
    for p, nvars in ((2, 5), (2, 6), (3, 5), (3, 6)):
        field = GF(p)
        for d in (2, 3):
            yield _nonzero_form(rng, nvars, d, field, False), 60
            yield _nonzero_form(rng, nvars, d, field, d == 3), 400
            yield _planted(rng, nvars, d, field), 10**6


def _compare_with_dense_kernel(monkeypatch, counters, F, budget):
    """The outcomes of both kernels, and their candidate counts up to the
    cap: a run that ended on a hit or ran out its tuples ticked each tuple
    once; one cut by the cap may stop mid-skip."""
    with monkeypatch.context() as m:
        m.setattr(strength, "_collapse_search", _dense_collapse_search)
        del counters[:]
        want = _kernel_outcomes(F, budget)
        want_used = [c.used for c in counters]
    del counters[:]
    assert _kernel_outcomes(F, budget) == want, (F, budget.max_candidates)
    cap = budget.max_candidates
    assert [c.used if c.used <= cap else None for c in counters] == \
        [u if u <= cap else None for u in want_used], (F, cap)
    return want


def test_substituted_lines_match_dense_kernel(monkeypatch):
    counters = _recording_counters(monkeypatch)
    reports = [_compare_with_dense_kernel(monkeypatch, counters, F, Budget(max_candidates=cap))[2]
               for F, cap in _linear_profile_cases()]
    # searches the cap cuts, and exact strengths with their witnesses
    assert sum(r.exhausted for r in reports) >= 8
    assert sum(r.exact is not None for r in reports) >= 12


def _line_then_quadric_cases():
    """Quartics over F2, F3 and F5 in 3 variables, and over F2 in 4, each
    searched over the profile (1, 2) alone or (1, 1, 2) alone: random
    ones, and ones in the ideal of a line and a quadric of small index."""
    rng = random.Random(127)
    for p, nvars in ((2, 3), (3, 3), (5, 3), (2, 4)):
        field = GF(p)
        monos, _ = _class_domain(nvars, 2, p)
        for profiles in ({2: [(1, 2)]}, {3: [(1, 1, 2)]}):
            yield _nonzero_form(rng, nvars, 4, field, False), profiles
            q = _class_form(monos, _class_support(rng.randrange(1, 40), len(monos), p),
                            nvars, field)
            F = Polynomial.zero(nvars, field)
            while F.is_zero():
                F = (pp("x2", field, nvars) * _random_poly(rng, nvars, 3, field)
                     + q * _random_poly(rng, nvars, 2, field))
            yield Form(F), profiles


def test_lines_then_a_quadric_match_dense_kernel(monkeypatch):
    counters = _recording_counters(monkeypatch)
    witnesses = set()
    for F, profiles in _line_then_quadric_cases():
        def restricted(size, max_degree, profiles=profiles):
            return profiles.get(size, [])
        monkeypatch.setattr(strength, "_degree_profiles", restricted)
        monkeypatch.setitem(globals(), "_degree_profiles", restricted)
        for cap in (60, 3000):
            report = _compare_with_dense_kernel(monkeypatch, counters, F,
                                                Budget(max_candidates=cap))[2]
            witnesses.add(report.witness.k if report.witness else report.exhausted)
    # witnesses of a line and a quadric, of two lines and one, and budget cuts
    assert witnesses >= {2, 3, True}


# ----- witnesses from the degree-d solve -----


def _lift_cases():
    """Seeded (F, gens) with F in (gens): every p in 2..11, N 2-5, d 2-4 and
    k 1-3, with repeated generators, generators dependent on earlier ones
    (a multiple, a sum, or a monomial times one) and zero summands h_i."""
    rng = random.Random(2211)
    for p in (2, 3, 5, 7, 11):
        field = GF(p)
        for _ in range(36):
            nvars, d, k = rng.randint(2, 5), rng.randint(2, 4), rng.randint(1, 3)
            gens = []
            for _ in range(k):
                e = rng.randint(1, d - 1)
                same = [g for g in gens if g.degree == e]
                lower = [g for g in gens if g.degree < e]
                kind = rng.random()
                if same and kind < 0.15:
                    g = rng.choice(same)
                elif same and kind < 0.3:
                    g = rng.choice(same) * rng.randrange(1, p) + rng.choice(same)
                elif lower and kind < 0.4:
                    low = rng.choice(lower)
                    u = rng.choice(list(monomials(nvars, e - low.degree)))
                    g = low * Polynomial(nvars, field, {u: 1})
                else:
                    g = _random_poly(rng, nvars, e, field)
                gens.append(_nonzero_form(rng, nvars, e, field, False)
                            if g.is_zero() else Form(g))
            F = Polynomial.zero(nvars, field)
            for g in gens:
                if rng.random() < 0.8:
                    F = F + g * _random_poly(rng, nvars, d - g.degree, field)
            if not F.is_zero():
                yield Form(F), gens


def test_lift_matches_membership_cofactors():
    cases = list(_lift_cases())
    assert len(cases) >= 150
    kinds = set()
    for F, gens in cases:
        cofactors = membership_cofactors(F, gens)
        want = tuple((g, Form(h)) for g, c in zip(gens, cofactors)
                     if not (h := c.homogeneous_component(F.degree - g.degree)).is_zero())
        assert strength._lift_witness(F, gens).pairs == want, (F, gens)
        kinds.add((F.field.p, len(gens), len(want) < len(gens),
                   len(set(gens)) < len(gens)))
    # every field meets a dropped zero summand and a repeated generator
    assert {(p, True) for p in (2, 3, 5, 7, 11)} <= {(p, d) for p, _, d, _ in kinds}
    assert {(p, True) for p in (2, 3, 5, 7, 11)} <= {(p, r) for p, _, _, r in kinds}
    assert {k for _, k, _, _ in kinds} == {1, 2, 3}


def test_collapse_path_runs_no_groebner_lift(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("the collapse path called the Groebner lift")

    monkeypatch.setattr(groebner, "membership_cofactors", refuse)
    F = Form(pp("x1*x2+x3*x4", F2, 4))
    witness = find_collapse(F, 2)
    assert witness is not None and witness.k == 2
    report = strength_exact(F)
    assert (report.exact, report.witness) == (1, witness)
    cubic = Form(pp("x1^3+x2^3+x3^3", F3, 3))
    assert strength_exact(cubic).witness.target == cubic


# ----- shape tables: built once per shape, the same cold and warm -----


_SHAPE_CACHES = (strength._slot_layout, strength._columns, strength._products)


def _clear_shape_caches():
    for cache in _SHAPE_CACHES:
        cache.cache_clear()


def _recorded_outcomes(F, budget, monkeypatch):
    """Both find_collapse witnesses, the strength report and the candidate
    ticks of every search behind them."""
    counters = []

    class Recording(Counter):
        def __init__(self, what, limit):
            super().__init__(what, limit)
            counters.append(self)

    with monkeypatch.context() as m:
        m.setattr(strength, "Counter", Recording)
        outcome = [_outcome(lambda k=k: find_collapse(F, k, budget)) for k in (1, 2)]
        outcome.append(strength_exact(F, budget))
    return outcome, [c.used for c in counters]


def test_cold_and_warm_tables_give_the_same_outcomes(monkeypatch):
    cases = list(_kernel_cases())[::2]
    cold = []
    for F, budget in cases:
        _clear_shape_caches()
        cold.append(_recorded_outcomes(F, budget, monkeypatch))
    warm = [_recorded_outcomes(F, budget, monkeypatch) for F, budget in cases]
    assert warm == cold
    outcomes = [o for (o, _) in cold]
    # witnesses, budget cuts and exhausted searches all occur
    assert any(isinstance(w, CollapseWitness) and w.k == 2 for o in outcomes for w in o[:2])
    assert any("budget exceeded" in o[:2] for o in outcomes)
    assert any(o[2].exhausted for o in outcomes)


def test_collapse_reports_warm_pass_is_byte_identical(monkeypatch):
    # the argv list of scripts/collapse_reports.py, twice in one process;
    # the second pass builds no table at all
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "scripts"))
    import collapse_reports
    import smallsub
    run_cli = collapse_reports.workloads.run_cli
    argvs = list(collapse_reports.argvs())
    _clear_shape_caches()
    first = [run_cli(smallsub, argv) for argv in argvs]
    misses = [cache.cache_info().misses for cache in _SHAPE_CACHES]
    second = [run_cli(smallsub, argv) for argv in argvs]
    assert second == first
    assert [cache.cache_info().misses for cache in _SHAPE_CACHES] == misses
    assert {code for code, _, _ in first} == {0}


def test_shape_caches_stay_within_their_bound():
    bound = strength.SHAPE_CACHE_BOUND
    primes = [q for q in range(2, 50) if _is_prime(q)]
    shapes = [(nvars, d, q) for nvars in (2, 3) for d in (2, 3, 4) for q in primes]
    assert len(shapes) > bound
    for nvars, d, q in shapes:
        field = GF(q)
        F = Form(Polynomial(nvars, field, {(1, d - 1) + (0,) * (nvars - 2): 1}))
        w = find_collapse(F, 1)
        assert [g for g, _ in w.pairs] == [Polynomial.variable(0, nvars, field)]
    for cache in _SHAPE_CACHES:
        info = cache.cache_info()
        assert info.maxsize == bound and info.currsize == bound, cache


# ----- quadric strength from rank and discriminant (odd p) -----


def _is_square(a, p):
    """Euler's criterion for a nonzero a mod an odd prime p."""
    return pow(a, (p - 1) // 2, p) == 1


def _diagonal(F: Form):
    """The nonzero diagonal entries of a congruence diagonalization of the
    symmetric matrix of the quadric F over F_p, p odd."""
    p, n = F.field.p, F.nvars
    half = pow(2, -1, p)
    a = [[0] * n for _ in range(n)]
    for m, c in F.terms.items():
        i, j = [v for v, e in enumerate(m) for _ in range(e)]
        if i == j:
            a[i][i] = c % p
        else:
            a[i][j] = a[j][i] = c * half % p
    diag = []
    live = list(range(n))
    while live:
        k = next((i for i in live if a[i][i]), None)
        if k is None:
            pair = next(((i, j) for i in live for j in live if a[i][j]), None)
            if pair is None:
                break
            i, j = pair  # x_i -> x_i + x_j makes a[i][i] = 2 a[i][j] != 0
            for r in range(n):
                a[r][i] = (a[r][i] + a[r][j]) % p
            for r in range(n):
                a[i][r] = (a[i][r] + a[j][r]) % p
            k = i
        live.remove(k)
        inv = pow(a[k][k], -1, p)
        for j in live:
            f = a[j][k] * inv % p
            for r in range(n):
                a[j][r] = (a[j][r] - f * a[k][r]) % p
            for r in range(n):
                a[r][j] = (a[r][j] - f * a[r][k]) % p
        diag.append(a[k][k])
    return diag


def _quadric_strength(F: Form, is_square=_is_square) -> int:
    """r - w - 1, for r the rank and w the Witt index of the nondegenerate
    part (Lidl and Niederreiter, *Finite Fields*, Ch. 6): w = (r - 1)/2
    for odd r, and for even r, r/2 when (-1)^(r/2) det is a square, else
    r/2 - 1."""
    p = F.field.p
    diag = _diagonal(F)
    r = len(diag)
    if r % 2:
        w = (r - 1) // 2
    else:
        det = (-1) ** (r // 2)
        for d in diag:
            det = det * d % p
        w = r // 2 if is_square(det, p) else r // 2 - 1
    return r - w - 1


def _oracle_quadrics():
    yield from enumerate_forms(2, 2, F3)
    yield from enumerate_forms(3, 2, F3)
    rng = random.Random(9)
    for field in (F3, F5):
        for i in range(40):  # every other one a product, of rank at most 2
            yield _nonzero_form(rng, 4, 2, field, product=i % 2 == 0)


def test_quadric_strength_matches_rank_and_witt_index():
    cases = list(_oracle_quadrics())
    assert len(cases) == 13 + 364 + 80
    for F in cases:
        assert strength_exact(F).exact == _quadric_strength(F), F


def test_quadric_oracle_rejects_a_wrong_square_test():
    def wrong(a, p):
        return not _is_square(a, p)
    assert any(_quadric_strength(F, wrong) != strength_exact(F).exact
               for F in enumerate_forms(2, 2, F3))


# ----- quadric strength from rank and Arf invariant (p = 2) -----


def _f2_quadric_invariants(F: Form) -> tuple[int, int | None]:
    """(h, Arf) of a quadric F over F2: 2h is the rank of the polar form
    B(x, y) = F(x + y) - F(x) - F(y), and Arf is None when F is nonzero on
    rad(B).  Otherwise it is read off the zero count of F on F2^N,
    2^(N - 2h) * (2^(2h - 1) + (-1)^Arf * 2^(h - 1))."""
    n = F.nvars
    polar = [0] * n  # row i of B, one bit per column
    for m, c in F.terms.items():
        i, j = [v for v, e in enumerate(m) for _ in range(e)]
        if i != j and c % 2:
            polar[i] ^= 1 << j
            polar[j] ^= 1 << i
    # rad(B): the kernel of the symmetric matrix B, by elimination on the
    # augmented rows [B | I]
    rows = [polar[i] | 1 << (n + i) for i in range(n)]
    rank = 0
    for col in range(n):
        pivot = next((r for r in range(rank, n) if rows[r] >> col & 1), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        for r in range(n):
            if r != rank and rows[r] >> col & 1:
                rows[r] ^= rows[rank]
        rank += 1
    radical = [rows[r] >> n for r in range(rank, n)]

    def value(point: int) -> int:
        return sum(c for m, c in F.terms.items()
                   if all(point >> v & 1 for v, e in enumerate(m) if e)) % 2

    h = rank // 2
    # F is additive on rad(B), so nonzero there when nonzero on a basis
    if any(value(x) for x in radical):
        return h, None
    zeros = sum(1 for x in range(2 ** n) if not value(x))
    sign = (zeros // 2 ** (n - 2 * h) - 2 ** (2 * h - 1)) // 2 ** (h - 1)
    assert sign in (1, -1), F
    return h, (1 - sign) // 2


def _f2_quadric_strength(F: Form) -> int:
    """r - w - 1 as for odd p: r = 2h + 1 and w = h when F is nonzero on
    rad(B), else r = 2h and w = h - Arf."""
    h, arf = _f2_quadric_invariants(F)
    r, w = (2 * h + 1, h) if arf is None else (2 * h, h - arf)
    return r - w - 1


def test_f2_quadric_strength_matches_rank_and_arf_invariant():
    cases = list(enumerate_forms(4, 2, F2))
    assert len(cases) == 1023
    rng = random.Random(131)
    cases += [_nonzero_form(rng, nvars, 2, F2, False) for nvars in (5, 6) for _ in range(15)]
    invariants = set()
    for F in cases:
        report = strength_exact(F, Budget(max_candidates=10**7))
        assert report.exact == _f2_quadric_strength(F), F
        invariants.add(_f2_quadric_invariants(F))
    # odd and even rank, both Arf invariants, and ranks up to 6
    assert {arf for _, arf in invariants} == {None, 0, 1}
    assert max(h for h, _ in invariants) == 3
