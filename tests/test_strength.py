import random
from itertools import combinations, combinations_with_replacement, product
from math import inf

import pytest

from smallsub import strength
from smallsub.budget import Budget, BudgetExceededError
from smallsub.fields import GF, QQ
from smallsub.grammar import parse_polynomial as pp
from smallsub.groebner import Ideal, groebner_basis, membership_cofactors, normal_form
from smallsub.poly import Form, Polynomial, gradient, grevlex_key
from smallsub.strength import (CollapseWitness, StrengthReport, enumerate_forms,
                               find_collapse, full_report, strength_exact,
                               strength_lower_bound)

F2 = GF(2)
F3 = GF(3)
F5 = GF(5)


def test_enumerate_forms_counts():
    # (p^m - 1)/(p - 1) projective classes for m monomials
    assert len(list(enumerate_forms(2, 1, F2))) == 3
    assert len(list(enumerate_forms(3, 1, F2))) == 7
    assert len(list(enumerate_forms(2, 2, F3))) == (3 ** 3 - 1) // 2
    with pytest.raises(ValueError):
        enumerate_forms(2, 1, QQ)


def test_find_collapse_square():
    w = find_collapse(Form(pp("x1^2", F5, 1)), 1)
    assert w is not None and w.k == 1
    g, h = w.pairs[0]
    assert g.poly * h.poly == pp("x1^2", F5, 1)


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
        F = Form(g.poly * h_poly)
        w = find_collapse(F, 2)
        assert w is not None
        gens = [F.poly] + [d for d in gradient(F.poly) if not d.is_zero()]
        h = Ideal(gens, 3, F3).height()
        assert h <= 2 * w.k


def _divisor_oracle_reducible(F: Form) -> bool:
    # brute force: does any lower-degree form divide F?
    from smallsub.groebner import exact_divide
    for d in range(1, F.degree):
        for g in enumerate_forms(F.nvars, d, F.field):
            try:
                exact_divide(F.poly, g.poly)
                return True
            except ValueError:
                continue
    return False


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
        for profile in combinations_with_replacement(range(1, F.degree), size):
            groups = sorted({e: profile.count(e) for e in profile}.items())
            per_group = [combinations(_old_classes(F.nvars, e, F.field.p), mult)
                         for e, mult in groups]
            for combos in product(*per_group):
                gens = [g for combo in combos for g in combo]
                used += 1
                if used > budget.max_candidates:
                    raise BudgetExceededError("collapse candidates",
                                              budget.max_candidates)
                gb = groebner_basis([g.poly for g in gens], budget=budget)
                if normal_form(F.poly, gb).is_zero():
                    cof = membership_cofactors(F.poly, [g.poly for g in gens],
                                               budget=budget)
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

