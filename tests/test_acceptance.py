"""Acceptance suite: one test per criterion, each printing a PASS line
with its elapsed time and asserting the stated budget."""

import random
import time
from itertools import combinations
from math import comb, inf

from smallsub.bounds import cubic_eta_A, quadric_B, quadric_thresholds
from smallsub.budget import Budget, BudgetExceededError
from smallsub.certify import check_reta, minors_height_check
from smallsub.descent import ThresholdPolicy, small_subalgebra
from smallsub.fields import GF
from smallsub.grammar import parse_polynomial as pp
from smallsub.groebner import Ideal, leading_form_ideal
from smallsub.modules import (SubmoduleOfFree, free_resolution, kernel_of_map,
                              koszul_relations, submodule_equals)
from smallsub.poly import (Form, GradedSpace, Polynomial, gradient, monomials,
                           partial_derivative)
from smallsub.strength import find_collapse, strength_exact

from conftest import same_ideal

F2 = GF(2)
F3 = GF(3)
F5 = GF(5)
F7 = GF(7)


def _random_form(rng, nvars, degree, field):
    pool = list(monomials(nvars, degree))
    while True:
        terms = {m: rng.randint(0, field.p - 1) for m in pool}
        f = Polynomial(nvars, field, terms)
        if not f.is_zero():
            return Form(f)


class _clock:
    def __init__(self, number, label, limit_s):
        self.number, self.label, self.limit = number, label, limit_s

    def __enter__(self):
        self.start = time.monotonic()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.monotonic() - self.start
        status = "PASS" if exc_type is None else "FAIL"
        print(f"{status} criterion {self.number} ({self.label}): "
              f"{elapsed:.2f}s of {self.limit}s allowed")
        if exc_type is None:
            assert elapsed < self.limit, (
                f"criterion {self.number} exceeded its {self.limit}s budget")
        return False


def test_criterion_1_euler_identity():
    with _clock(1, "Euler identity, 200 random forms", 1.0):
        rng = random.Random(101)
        for trial in range(200):
            field = F5 if trial % 2 else F7
            d = rng.choice([2, 3, 4])
            n = rng.randint(2, 4)
            F = _random_form(rng, n, d, field)
            total = Polynomial.zero(n, field)
            for i in range(n):
                total = total + Polynomial.variable(i, n, field) \
                    * partial_derivative(F, i)
            assert total == F * d


def test_criterion_2_collapse_easy_direction():
    with _clock(2, "witness implies derivative height <= 2k", 120.0):
        rng = random.Random(424242)
        budget = Budget(max_candidates=1500)
        witnesses = 0
        for trial in range(100):
            field = GF(rng.choice([2, 2, 3]))
            n = rng.randint(2, 4)
            d = rng.choice([2, 3])
            if trial % 2 == 0:
                g = _random_form(rng, n, rng.randint(1, d - 1), field)
                h = _random_form(rng, n, d - g.degree, field)
                F = Form(g * h)
            else:
                F = _random_form(rng, n, d, field)
            try:
                w = find_collapse(F, 2, budget)
            except BudgetExceededError:
                continue
            if w is None:
                continue
            witnesses += 1
            gens = [F] + [q for q in gradient(F) if not q.is_zero()]
            height = Ideal(gens, n, field).height()
            assert height <= 2 * w.k
        assert witnesses >= 40, "the sample must actually produce witnesses"


def _f2_span_contains(vectors, target):
    basis = []
    for vec in vectors:
        v = list(vec)
        for b in basis:
            lead = next(i for i, x in enumerate(b) if x)
            if v[lead]:
                v = [(x + y) % 2 for x, y in zip(v, b)]
        if any(v):
            basis.append(v)
    v = list(target)
    for b in basis:
        lead = next(i for i, x in enumerate(b) if x)
        if v[lead]:
            v = [(x + y) % 2 for x, y in zip(v, b)]
    return not any(v)


def _oracle_strength_quadric_f2(F):
    """Brute force over ideals generated by <= 2 linear forms, membership by
    linear algebra on the degree-2 graded piece (no Groebner machinery)."""
    monos2 = list(monomials(3, 2))
    target = [F.terms.get(m, 0) for m in monos2]
    linears = []
    for bits in range(1, 8):
        coeffs = [(bits >> i) & 1 for i in range(3)]
        terms = {tuple(1 if j == i else 0 for j in range(3)): c
                 for i, c in enumerate(coeffs) if c}
        linears.append(Polynomial(3, F2, terms))
    variables = [Polynomial.variable(i, 3, F2) for i in range(3)]

    def degree2_piece(gens):
        vectors = []
        for g in gens:
            for x in variables:
                prod = g * x
                vectors.append([prod.terms.get(m, 0) for m in monos2])
        return vectors

    for L in linears:
        if _f2_span_contains(degree2_piece([L]), target):
            return 0
    for L1, L2 in combinations(linears, 2):
        if _f2_span_contains(degree2_piece([L1, L2]), target):
            return 1
    return 2


def test_criterion_3_strength_oracle_all_f2_quadrics():
    with _clock(3, "all 63 quadratic forms in 3 vars over F2", 60.0):
        monos2 = list(monomials(3, 2))
        count = 0
        for bits in range(1, 2 ** 6):
            terms = {m: (bits >> i) & 1 for i, m in enumerate(monos2)}
            F = Form(Polynomial(3, F2, terms))
            expected = _oracle_strength_quadric_f2(F)
            report = strength_exact(F)
            assert report.exact == expected, (F, expected, report)
            count += 1
        assert count == 63


def test_criterion_4_distinct_degree_minors_suite():
    with _clock(4, "minors height bound on 100 seeded matrices", 600.0):
        rng = random.Random(2022)
        for trial in range(100):
            n = (3, 4, 5)[trial % 3]
            row1 = [_random_form(rng, n, 1, F5) for _ in range(n)]
            row2 = [_random_form(rng, n, 2, F5) for _ in range(n)]
            assert minors_height_check([row1, row2])


def test_criterion_5_regular_sequence_koszul_crosscheck():
    with _clock(5, "height criterion vs Koszul homology, 50 samples", 600.0):
        from smallsub.certify import is_regular_sequence
        rng = random.Random(555)
        for trial in range(50):
            n = rng.randint(3, 5)
            c = rng.choice([2, 2, 3])
            polys = [_random_form(rng, n, rng.randint(1, 3), F5)
                     for _ in range(c)]
            if trial % 4 == 0:
                polys[-1] = polys[0] * _random_form(rng, n, 1, F5)
            by_height = is_regular_sequence([Form(f) for f in polys])
            syzygy_module = kernel_of_map(
                [polys], SubmoduleOfFree(1, [], n, F5))
            by_koszul = submodule_equals(syzygy_module, koszul_relations(polys))
            assert by_height == by_koszul


def test_criterion_6_reta_fixtures():
    with _clock(6, "singular locus codimension fixtures", 60.0):
        for n in (3, 4, 5):
            F = Form(pp("+".join(f"x{i}^2" for i in range(1, n + 1)), F5, n))
            assert check_reta([F], 0).codim_singular == n - 1
        assert check_reta([Form(pp("x1*x2", F5, 2))], 0).codim_singular == 1


DESCENT_FIXTURES = [
    (F2, 2, ["x1*x2"]),
    (F2, 4, ["x1*x2+x3*x4"]),
    (F2, 2, ["x1^2"]),
    (F3, 2, ["x1^2+x1*x2"]),
    (F3, 2, ["x1", "x1^2+x1*x2"]),
    (F2, 4, ["x1*x2", "x3*x4"]),
    (F3, 2, ["x1^2+x2^2", "x1*x2"]),
    (F2, 2, ["x1^3"]),
    (F2, 2, ["x1^2*x2"]),
    (F2, 2, ["x1^3+x2^3"]),
    (F2, 3, ["x1", "x2"]),
    (F3, 3, ["x1*x2+x2*x3"]),
    (F3, 2, ["x1^2+x2^2"]),
    (F2, 3, ["x1*x2", "x2*x3", "x1*x3"]),
    (F3, 3, ["x1", "x1*x2+x3^2"]),
    (F2, 2, ["x1^2+x1*x2+x2^2"]),
    (F2, 4, ["x1*x2+x3*x4", "x1*x3"]),
    (F3, 3, ["x2^3+x1*x2*x3"]),
    (F2, 2, ["x1^2*x2+x1*x2^2"]),
    (F3, 3, ["x1", "x2", "x1*x2+x3^2"]),
]


def test_criterion_7_descent_soundness():
    with _clock(7, "descent on 20 graded spaces", 900.0):
        rng = random.Random(31337)
        budget = Budget(max_candidates=20_000)
        for field, nvars, texts in DESCENT_FIXTURES:
            space = GradedSpace.from_forms(
                [Form(pp(t, field, nvars)) for t in texts])
            trace = small_subalgebra(space, ThresholdPolicy.maximal(),
                                     budget, rng)
            assert trace.complete
            assert all(trace.membership)
            if trace.exhaustive:
                assert trace.regular_sequence


def test_criterion_8_closed_forms():
    with _clock(8, "closed bound formulas", 10.0):
        assert quadric_B(3) == 20
        assert quadric_B(4) == 68
        assert quadric_thresholds(1, 1) == (0, 1)
        assert quadric_thresholds(3, 2) == (2, 3)
        assert quadric_thresholds(2, 3) == (1, 3)
        assert cubic_eta_A(0, 0, 1, 1, 0) == (0, 2, 14)
        assert cubic_eta_A(0, 0, 1, 1, 3) == (0, 2, 15)
        assert cubic_eta_A(0, 1, 1, 1, 0) == (0, 3, 65)


def test_criterion_9_leading_form_pipeline():
    with _clock(9, "leading form ideal pipeline", 300.0):
        L = leading_form_ideal([pp("x1", F5, 2), pp("x1*x2+x2^2", F5, 2)])
        expected = Ideal([pp("x1", F5, 2), pp("x2^2", F5, 2)])
        assert same_ideal(L, expected)
        rng = random.Random(909)
        checks = 0
        for _ in range(20):
            n = rng.randint(2, 3)
            gens = []
            for _ in range(rng.randint(1, 2)):
                f = _random_form(rng, n, rng.randint(1, 2), F5)
                low = Polynomial.constant(rng.randint(0, 4), n, F5)
                if rng.random() < 0.8:
                    low = low + _random_form(rng, n, 1, F5)
                gens.append(f + low if f.total_degree() > 1 else f)
            gens = [g for g in gens if g.total_degree() > 0]
            if not gens:
                continue
            pipeline = leading_form_ideal(gens)
            for _ in range(50 // 20 + 2):
                element = Polynomial.zero(n, F5)
                for g in gens:
                    if rng.random() < 0.7:
                        cof = _random_form(rng, n, 1, F5)
                        cof = cof + Polynomial.constant(rng.randint(0, 4), n, F5)
                    else:
                        cof = Polynomial.constant(rng.randint(1, 4), n, F5)
                    element = element + cof * g
                if element.total_degree() <= 0:
                    continue
                lf = element.homogeneous_component(element.total_degree())
                assert pipeline.contains(lf)
                checks += 1
        assert checks >= 50


def test_criterion_10_resolution_sanity():
    with _clock(10, "resolution and projective dimension sanity", 60.0):
        for c in range(1, 6):
            sub = SubmoduleOfFree.from_ideal_generators(
                [pp(f"x{i}", F2, c) for i in range(1, c + 1)])
            res = free_resolution(sub)
            assert res.length == c
            assert res.ranks == [comb(c, i) for i in range(1, c + 1)]
            assert res.verify()
            assert res.length <= c
        sub = SubmoduleOfFree.from_ideal_generators(
            [pp("x1^2", F5, 2), pp("x1*x2", F5, 2)])
        res = free_resolution(sub)
        assert res.length == 2
        assert res.verify()
        assert res.length <= 2
