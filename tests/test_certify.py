import random
from itertools import combinations
from math import inf

import pytest

from smallsub import certify
from smallsub.budget import Budget, BudgetExceededError
from smallsub.certify import (RetaCertificate, check_reta, determinant,
                              is_regular_sequence, minors_height_check,
                              minors_ideal)
from smallsub.fields import GF, QQ
from smallsub.grammar import parse_polynomial as pp
from smallsub.groebner import Ideal
from smallsub.poly import Form, Polynomial, echelon_basis, gradient, monomials

from conftest import same_ideal

F5 = GF(5)


def forms(*texts, nvars, field=F5):
    return [Form(pp(t, field, nvars)) for t in texts]


def random_form(rng, nvars, degree, field):
    pool = list(monomials(nvars, degree))
    while True:
        terms = {m: rng.randint(0, field.p - 1) for m in pool}
        f = Polynomial(nvars, field, terms)
        if not f.is_zero():
            return Form(f)


def test_regular_sequence_examples():
    assert is_regular_sequence(forms("x1", "x2", "x3", nvars=4))
    assert not is_regular_sequence(forms("x1", "x1*x2", nvars=2))
    assert is_regular_sequence(forms("x1*x2", "x3*x4", nvars=4))


def test_regular_sequence_initial_segments():
    seq = forms("x1^2", "x2^2", "x3^2", nvars=3)
    assert is_regular_sequence(seq)
    for cut in (1, 2, 3):
        assert is_regular_sequence(seq[:cut])


def test_determinant_and_minors():
    one = pp("1", F5, 2)
    zero = pp("0", F5, 2)
    eye = [[one, zero], [zero, one]]
    assert determinant(eye) == one
    assert minors_ideal(eye, 2).height() == inf
    row = [[pp("x2", F5, 2), pp("x1", F5, 2)]]
    assert same_ideal(minors_ideal(row, 1), Ideal([pp("x1", F5, 2), pp("x2", F5, 2)]))
    mat = [[pp("x1", F5, 3), pp("x2", F5, 3), pp("x3", F5, 3)],
           [pp("x1^2", F5, 3), pp("x2^2", F5, 3), pp("x3^2", F5, 3)]]
    minors = minors_ideal(mat, 2)
    assert len(minors.generators) == 3
    expected = pp("x1*x2^2", F5, 3) - pp("x2*x1^2", F5, 3)
    assert minors.contains(expected)
    # ragged rows, the first the shortest or a later one
    x1, x2, x3 = (pp(f"x{i}", F5, 3) for i in (1, 2, 3))
    for ragged in ([[x1], [x2, x3]], [[x1, x2], [x3]]):
        with pytest.raises(ValueError, match="one length"):
            minors_ideal(ragged, 1)


def _laplace_determinant(matrix):
    """Expansion along the first row, n! products: the oracle of the
    minors table."""
    n = len(matrix)
    if n == 1:
        return matrix[0][0]
    total = Polynomial.zero(matrix[0][0].nvars, matrix[0][0].field)
    for j, entry in enumerate(matrix[0]):
        if not entry.is_zero():
            minor = [[row[c] for c in range(n) if c != j] for row in matrix[1:]]
            term = entry * _laplace_determinant(minor)
            total = total - term if j % 2 else total + term
    return total


@pytest.mark.parametrize("field", [F5, QQ], ids=repr)
def test_minor_table_matches_laplace(field):
    rng = random.Random(89 + (field.p or 0))
    shapes = [(1, 4), (2, 5), (3, 6), (2, 7), (3, 3), (4, 4), (5, 5), (6, 6),
              (7, 7), (4, 2), (5, 3), (6, 4), (7, 3)]
    zero = Polynomial.zero(3, field)
    zeros = big = 0
    blanked = {"row": 0, "column": 0}
    for m, n in shapes:
        for trial in range(2):
            # sparse multilinear entries in 3 variables, a third of them zero
            matrix = [[Polynomial(3, field, {tuple(rng.randint(0, 1) for _ in range(3)):
                                             rng.randint(-3, 3) for _ in range(rng.randint(0, 2))})
                       if rng.random() > 0.35 else zero
                       for _ in range(n)] for _ in range(m)]
            if trial:  # a zero row or a zero column
                line = rng.choice(["row", "column"])
                if line == "row":
                    matrix[rng.randrange(m)] = [zero] * n
                else:
                    c = rng.randrange(n)
                    for row in matrix:
                        row[c] = zero
                blanked[line] += 1
            for size in range(1, min(m, n) + 1):
                expected = [_laplace_determinant([[matrix[r][c] for c in csel] for r in rsel])
                            for rsel in combinations(range(m), size)
                            for csel in combinations(range(n), size)]
                # the ideal drops the zero minors and keeps the order of the rest
                nonzero = [det for det in expected if not det.is_zero()]
                assert list(minors_ideal(matrix, size).generators) == nonzero, (m, n, size)
                zeros += len(expected) - len(nonzero)
                big += len(nonzero) if size >= 4 else 0
            if m == n:
                assert determinant(matrix) == expected[0]
    assert zeros >= 1000 and big >= 500 and min(blanked.values()) >= 3


def test_reta_heights_do_not_grow_with_the_variables():
    # x1*x2 + ... + x(2k-1)*x(2k): the forms plus their partials meet 2k
    # variables, so the singular locus has codimension 2k - 1 at every N
    for pairs, nvars in ((6, 30), (10, 20)):
        text = "+".join(f"x{2 * i + 1}*x{2 * i + 2}" for i in range(pairs))
        cert = check_reta(forms(text, nvars=nvars), 1)
        assert cert.codim_singular == 2 * pairs - 1
        assert cert.heights == {"forms": 1, "forms_plus_minors": 2 * pairs}


def test_singular_locus_codim_fixtures():
    for n in (3, 4, 5):
        F = forms("+".join(f"x{i}^2" for i in range(1, n + 1)), nvars=n)
        assert check_reta(F, 0).codim_singular == n - 1
    assert check_reta(forms("x1*x2", nvars=2), 0).codim_singular == 1
    # a linear complete intersection is smooth: its singular locus is empty
    assert check_reta(forms("x1", "x2", nvars=5), 0).codim_singular == inf


def test_singular_locus_rejects_non_regular():
    with pytest.raises(ValueError):
        check_reta(forms("x1", "x1*x2", nvars=2), 0)


def test_check_reta_examples():
    cert = check_reta(forms("x1^2+x2^2+x3^2", nvars=3), 1)
    assert cert.verdict and cert.codim_singular == 2
    cert = check_reta(forms("x1*x2", nvars=2), 1)
    assert not cert.verdict and cert.codim_singular == 1
    # linear regular sequences pass for every eta below the quotient dimension
    for eta in range(0, 3):
        cert = check_reta(forms("x1", "x2", nvars=5), eta)
        assert cert.verdict == (eta <= 5 - 2 - 1)
    assert check_reta(forms("x1*x2", nvars=2), 0).verdict


@pytest.mark.parametrize("field", [GF(2), F5, QQ], ids=["F2", "F5", "Q"])
def test_linear_sequences_pass_every_eta(field):
    # x_i + x_(i+1) + ... + x_N for i = 1..c are independent, and the
    # quotient by them is a polynomial ring: R_eta for every eta
    for nvars in range(1, 5):
        for c in range(1, nvars + 1):
            seq = forms(*("+".join(f"x{j}" for j in range(i, nvars + 1))
                          for i in range(1, c + 1)), nvars=nvars, field=field)
            for eta in range(nvars + 2):
                cert = check_reta(seq, eta)
                assert cert.smooth and cert.codim_singular == inf, (nvars, c, eta)
                assert cert.verdict, (nvars, c, eta)


@pytest.mark.parametrize("field", [F5, QQ], ids=["F5", "Q"])
def test_a_quadric_keeps_the_vertex_singular(field):
    # the partials of x2^2 + x3^2 vanish at the origin, so the singular
    # locus of x1, x2^2 + x3^2 is the vertex, of codimension N - c = 1;
    # that of x1, x2^2 is the whole double line
    for texts, codim in ((("x1", "x2^2+x3^2"), 1), (("x1", "x2^2"), 0)):
        seq = forms(*texts, nvars=3, field=field)
        for eta in range(5):
            cert = check_reta(seq, eta)
            assert not cert.smooth and cert.codim_singular == codim, (texts, eta)
            assert cert.verdict == (eta < codim), (texts, eta)


def test_reta_certificate_invariant():
    with pytest.raises(ValueError):
        RetaCertificate(forms=tuple(forms("x1", nvars=2)), eta=1,
                        codim_singular=1, verdict=True, heights={})


def test_minors_height_check_scalar_row():
    one = pp("1", F5, 3)
    zero = pp("0", F5, 3)
    assert minors_height_check([[one, pp("2", F5, 3), zero]])


def test_minors_height_check_distinct_degrees_required():
    row1 = [pp("x1", F5, 2), pp("x2", F5, 2)]
    row2 = [pp("x2", F5, 2), pp("x1", F5, 2)]
    with pytest.raises(ValueError):
        minors_height_check([row1, row2])


def test_minors_are_budgeted():
    # C(2, 2) * C(5, 2) = 10 determinants, one step each
    row1 = [pp(f"x{i}", F5, 5) for i in range(1, 6)]
    row2 = [pp(f"x{i}^2", F5, 5) for i in range(1, 6)]
    assert len(minors_ideal([row1, row2], 2, Budget(max_steps=10)).generators) == 10
    with pytest.raises(BudgetExceededError, match="minors limit 9"):
        minors_ideal([row1, row2], 2, Budget(max_steps=9))
    # x5^2 has 5 Jacobian entries; each height search takes 1 node
    square = forms("x5^2", nvars=5)
    assert check_reta(square, 0, Budget(max_steps=5)).codim_singular == 0
    with pytest.raises(BudgetExceededError, match="minors limit 4"):
        check_reta(square, 0, Budget(max_steps=4))
    zero = pp("0", F5, 5)
    row = [[zero, zero, zero, zero, pp("x5", F5, 5)]]
    assert minors_height_check(row, Budget(max_steps=5))
    with pytest.raises(BudgetExceededError, match="minors limit 4"):
        minors_height_check(row, Budget(max_steps=4))
    # 6 minors x_i*x_j*(x_j - x_i): every coordinate section fails, their
    # leading supports are every pair of 4 variables, and proving
    # height >= 3 takes the whole ideal's search 15 nodes
    row1 = [pp(f"x{i}", F5, 4) for i in range(1, 5)]
    row2 = [pp(f"x{i}^2", F5, 4) for i in range(1, 5)]
    assert minors_height_check([row1, row2], Budget(max_steps=15))
    with pytest.raises(BudgetExceededError, match="height search nodes limit 14"):
        minors_height_check([row1, row2], Budget(max_steps=14))


def test_minor_table_ticks_each_built_minor(monkeypatch):
    # the 4 minors 3 x 3 of rows x_i, x_i^2, x_i^3 expand along their
    # last row over the C(4, 2) = 6 minors 2 x 2 of the first two rows
    rows = [[pp(f"x{i}^{d}", F5, 4) for i in range(1, 5)] for d in (1, 2, 3)]
    assert len(minors_ideal(rows, 3, Budget(max_steps=10)).generators) == 4
    with pytest.raises(BudgetExceededError, match="minors limit 9"):
        minors_ideal(rows, 3, Budget(max_steps=9))
    # a determinant ticks under the default budget: 4 x 4 builds 6 + 4 + 1
    square = rows + [[pp(f"x{i}^4", F5, 4) for i in range(1, 5)]]
    monkeypatch.setattr(certify, "DEFAULT_BUDGET", Budget(max_steps=11))
    assert not determinant(square).is_zero()
    monkeypatch.setattr(certify, "DEFAULT_BUDGET", Budget(max_steps=10))
    with pytest.raises(BudgetExceededError, match="minors limit 10"):
        determinant(square)


def test_minors_height_check_power_rows():
    for n in (3, 4):
        row1 = [pp(f"x{i}", F5, n) for i in range(1, n + 1)]
        row2 = [pp(f"x{i}^2", F5, n) for i in range(1, n + 1)]
        assert minors_height_check([row1, row2])
        # the variety of the minors is a union of lines, so the height
        # is exactly n - 1 and the bound b - h + 1 = n - 1 is attained
        assert minors_ideal([row1, row2], 2).height() == n - 1


def test_minors_height_check_random_rows():
    rng = random.Random(97)
    for _ in range(12):
        n = rng.randint(3, 4)
        row1 = [random_form(rng, n, 1, F5) for _ in range(n)]
        row2 = [random_form(rng, n, 2, F5) for _ in range(n)]
        assert minors_height_check([row1, row2])


def test_collapse_witness_caps_singular_codim():
    # a k-collapse places F and its derivatives in 2k forms, so the
    # singular locus codimension inside the hypersurface is at most 2k - 1
    from smallsub.strength import find_collapse
    F2 = GF(2)
    samples = ["x1*x2", "x1*x2+x3*x4", "x1^2+x1*x2"]
    for text in samples:
        F = Form(pp(text, F2))
        w = find_collapse(F, 2)
        assert w is not None
        codim = check_reta([F], 0).codim_singular
        assert codim <= 2 * w.k - 1


def test_regular_iff_initial_segment_heights():
    rng = random.Random(107)
    for _ in range(10):
        n = rng.randint(3, 4)
        c = rng.randint(2, 3)
        seq = [random_form(rng, n, rng.randint(1, 2), F5) for _ in range(c)]
        if rng.random() < 0.4:
            seq[-1] = Form(seq[0] * random_form(rng, n, 1, F5))
        whole = is_regular_sequence(seq)
        segments = all(
            Ideal(seq[:cut], n, F5).height() == cut
            for cut in range(1, c + 1))
        assert whole == segments


def test_jacobian_row_height_hypothesis_implies_reta():
    # sampled harness for the combined bound: if every nonzero element of the
    # span has derivative ideal of height at least eta + h + 2n - 1, the
    # quotient satisfies R_eta
    rng = random.Random(101)
    eta = 1
    for _ in range(6):
        n = 1
        F = random_form(rng, 4, 2, F5)
        try:
            cert = check_reta([F], eta)
        except ValueError:
            continue
        ds = echelon_basis(gradient(F))
        h_df = Ideal(ds, 4, F5).height() if ds else 0
        if h_df >= eta + 1 + 2 * n - 1:
            assert cert.verdict


@pytest.mark.parametrize("matrix", [[[]], [[], []], [["x1", "x2"], ["x1^2"]]],
                         ids=["empty-row", "empty-rows", "ragged"])
def test_minors_height_check_rejects_empty_and_ragged_rows(matrix):
    rows = [[pp(t, GF(5), 2) for t in row] for row in matrix]
    with pytest.raises(ValueError, match="rows"):
        minors_height_check(rows)
