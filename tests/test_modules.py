import random
from math import comb
from operator import sub

import pytest

from smallsub import modules
from smallsub.budget import Budget, BudgetExceededError, Counter, InternalError
from smallsub.fields import GF, QQ, CoefficientField
from smallsub.grammar import format_polynomial
from smallsub.grammar import parse_polynomial as pp
from smallsub.groebner import (GREVLEX, autoreduce, buchberger, groebner_basis,
                               normal_form_vec, pot_key, _from_vec, _layout, _prep,
                               _s_pair, _tagged, _terms, _to_vec)
from smallsub.modules import (FreeResolution, SubmoduleOfFree, free_resolution,
                              kernel_of_map, koszul_relations,
                              submodule_contains, submodule_equals, syzygies,
                              _chain_matrices, _schreyer_key, _schreyer_sort,
                              _schreyer_syzygies)
from smallsub.poly import Polynomial, monomials

F2 = GF(2)
F5 = GF(5)
F32003 = GF(32003)


def ideal_module(*texts, nvars, field=F5):
    return SubmoduleOfFree.from_ideal_generators([pp(t, field, nvars) for t in texts])


def test_kernel_identity_zero():
    zero = SubmoduleOfFree(2, [], 2, F5)
    eye = [[pp("1", F5, 2), pp("0", F5, 2)], [pp("0", F5, 2), pp("1", F5, 2)]]
    K = kernel_of_map(eye, zero)
    assert K.is_zero()


def test_kernel_koszul_relation():
    zero = SubmoduleOfFree(1, [], 2, F5)
    K = kernel_of_map([[pp("x1", F5, 2), pp("x2", F5, 2)]], zero)
    expected = SubmoduleOfFree(2, [(pp("x2", F5, 2), pp("-x1", F5, 2))], 2, F5)
    assert submodule_equals(K, expected)


def test_kernel_with_target():
    M = SubmoduleOfFree(1, [(pp("x1^2", F5, 1),)])
    K = kernel_of_map([[pp("x1", F5, 1)]], M)
    expected = SubmoduleOfFree(1, [(pp("x1", F5, 1),)])
    assert submodule_equals(K, expected)


def _kernel_by_projection(matrix, target):
    """The route to a kernel before ``_modulo``: tag the columns and the
    target's generators alike, keep the basis elements in the tag block,
    and project away the target generators' cofactors."""
    m, r = len(matrix), len(matrix[0])
    nvars, field = target.nvars, target.field
    stacked = [_to_vec([row[j] for row in matrix]) for j in range(r)]
    stacked += [_to_vec(v) for v in target.generators]
    gb = buchberger(_tagged(stacked, m, nvars, field.one), pot_key(GREVLEX), field)
    heads = []
    for g in gb:
        g = _from_vec(_terms(g, field.one), m + len(stacked), nvars, field)
        if all(e.is_zero() for e in g[:m]):
            heads.append(g[m:m + r])
    return SubmoduleOfFree(r, heads, nvars, field)


@pytest.mark.parametrize("field", [F2, F5, F32003, QQ], ids=repr)
def test_kernel_of_map_matches_the_projection_route(field):
    rng = random.Random(59 + (field.p or 0))
    pool = [mono for d in range(3) for mono in monomials(2, d)]

    def entry():
        picked = rng.sample(pool, rng.randint(0, 3))
        return Polynomial(2, field, {mono: rng.randint(-4, 4) for mono in picked})

    nonzero = 0
    for _ in range(12):
        m, r = rng.randint(1, 2), rng.randint(1, 3)
        matrix = [[entry() for _ in range(r)] for _ in range(m)]
        target = SubmoduleOfFree(m, [tuple(entry() for _ in range(m))
                                     for _ in range(rng.randint(1, 3))], 2, field)
        ours = kernel_of_map(matrix, target)
        assert submodule_equals(ours, _kernel_by_projection(matrix, target))
        nonzero += not ours.is_zero()
    assert nonzero >= 6


def test_kernel_of_map_rejects_entries_from_another_ring():
    target = SubmoduleOfFree(1, [(pp("x1^2", F5, 2),)])
    for stray in (pp("x1", F5, 1), pp("x1", F5, 3), pp("x1", F2, 2), pp("0", F5, 1)):
        with pytest.raises(ValueError):
            kernel_of_map([[pp("x2", F5, 2), stray]], target)


def test_syzygies_of_koszul_sequence():
    forms = [pp("x1*x2", F5, 4), pp("x3*x4", F5, 4)]
    syz = syzygies([(f,) for f in forms], 1, 4, F5)
    module = SubmoduleOfFree(2, syz, 4, F5)
    assert submodule_equals(module, koszul_relations(forms))


def test_koszul_resolution_ranks():
    for c in (2, 3, 4, 5):
        sub = ideal_module(*[f"x{i}" for i in range(1, c + 1)], nvars=c)
        res = free_resolution(sub)
        assert res.length == c
        assert res.ranks == [comb(c, i) for i in range(1, c + 1)]
        assert res.verify()


def test_principal_ideal_resolution():
    sub = ideal_module("x1*x2+x3^2", nvars=3)
    res = free_resolution(sub)
    assert res.length == 1
    assert res.ranks == [1]


def test_x2_xy_resolution():
    sub = ideal_module("x1^2", "x1*x2", nvars=2)
    res = free_resolution(sub)
    assert res.length == 2
    assert res.ranks == [2, 1]


def test_resolution_invariants_random():
    rng = random.Random(61)
    for _ in range(12):
        nvars = rng.randint(2, 4)
        pool = list(monomials(nvars, 2))
        gens = []
        for _ in range(rng.randint(1, 3)):
            terms = {m: rng.randint(0, 4)
                     for m in rng.sample(pool, rng.randint(1, 3))}
            f = Polynomial(nvars, F5, terms)
            if not f.is_zero():
                gens.append(f)
        if not gens:
            continue
        sub = SubmoduleOfFree.from_ideal_generators(gens)
        res = free_resolution(sub)
        assert res.verify()
        assert res.length <= nvars


def test_module_groebner_and_membership():
    gens = [(pp("x1", F5, 2), pp("x2", F5, 2)),
            (pp("x2", F5, 2), pp("x1", F5, 2))]
    sub = SubmoduleOfFree(2, gens, 2, F5)
    combo = (pp("x1+x2", F5, 2), pp("x1+x2", F5, 2))
    assert submodule_contains(sub, combo)
    assert not submodule_contains(sub, (pp("1", F5, 2), pp("0", F5, 2)))


def test_zero_module_resolution():
    sub = SubmoduleOfFree(3, [], 2, F5)
    res = free_resolution(sub)
    assert res.length == 0


def test_module_with_unit_component_prunes():
    # the quotient by (e_1, x e_2) splits off R: pdim equals pdim of (x)
    gens = [(pp("1", F5, 1), pp("0", F5, 1)),
            (pp("0", F5, 1), pp("x1", F5, 1))]
    sub = SubmoduleOfFree(2, gens, 1, F5)
    res = free_resolution(sub)
    assert res.verify()
    assert res.length == 1


def test_submodule_validation():
    with pytest.raises(ValueError):
        SubmoduleOfFree(2, [(pp("x1", F5, 1),)])
    with pytest.raises(ValueError):
        SubmoduleOfFree(1, [], None, None)


def test_syzygies_check_rank_and_ring():
    x1, x2 = pp("x1", F5, 2), pp("x2", F5, 2)
    # a second entry would land in the tag component
    with pytest.raises(ValueError):
        syzygies([(x1, x2), (x2,)], 1, 2, F5)
    # vectors in 2 variables, a ring of 3
    with pytest.raises(ValueError):
        syzygies([(x1,), (x2,)], 1, 3, F5)
    with pytest.raises(ValueError):
        syzygies([(pp("x1", GF(7), 2),), (pp("x2", GF(7), 2),)], 1, 2, F5)
    assert syzygies([(x1,), (x2,)], 1, 2, F5) == [(x2, -x1)]


def test_submodule_contains_checks_rank_and_ring():
    x1 = pp("x1", F5, 2)
    sub = SubmoduleOfFree(1, [(x1,)])
    for vec in ((pp("x1", F5, 3),), (pp("x1", GF(7), 2),), (x1, x1)):
        with pytest.raises(ValueError):
            submodule_contains(sub, vec)
    with pytest.raises(ValueError):
        submodule_equals(sub, SubmoduleOfFree(1, [(pp("x1", GF(7), 2),)]))
    with pytest.raises(ValueError):
        submodule_equals(SubmoduleOfFree(1, [], 2, F5), SubmoduleOfFree(1, [], 3, F5))
    assert submodule_contains(sub, (x1 * pp("x2", F5, 2),))


# ----- oracles: the minimization by repeated rescans, and all S-pairs -----


def _find_unit(mat):
    for i, row in enumerate(mat):
        for j, entry in enumerate(row):
            if not entry.is_zero() and entry.total_degree() == 0:
                return i, j
    return None


def _prune_units(matrices, nvars: int, field: CoefficientField):
    """Split off trivial R -> R summands until no unit entries remain."""
    mats = [[list(row) for row in mat] for mat in matrices]
    zero_mono = (0,) * nvars
    while True:
        spot = None
        for k, mat in enumerate(mats):
            hit = _find_unit(mat)
            if hit is not None:
                spot = (k, *hit)
                break
        if spot is None:
            break
        k, i, j = spot
        mat = mats[k]
        unit = mat[i][j]
        inv = field.inv(unit.terms[zero_mono])
        # column operations clear row i, then row operations clear column j
        for j2 in range(len(mat[i])):
            if j2 == j or mat[i][j2].is_zero():
                continue
            g = mat[i][j2].scale(inv)
            for r in range(len(mat)):
                mat[r][j2] = mat[r][j2] - g * mat[r][j]
            if k + 1 < len(mats):
                nxt = mats[k + 1]
                for c in range(len(nxt[0]) if nxt else 0):
                    nxt[j][c] = nxt[j][c] + g * nxt[j2][c]
        for i2 in range(len(mat)):
            if i2 == i or mat[i2][j].is_zero():
                continue
            h = mat[i2][j].scale(inv)
            for c in range(len(mat[i2])):
                mat[i2][c] = mat[i2][c] - h * mat[i][c]
            if k > 0:
                prev = mats[k - 1]
                for r in range(len(prev)):
                    prev[r][i] = prev[r][i] + h * prev[r][i2]
        # splice out row i / column j of mat, row j of the next matrix,
        # column i of the previous matrix; exactness forces those to be zero
        del mat[i]
        for row in mat:
            del row[j]
        if k + 1 < len(mats):
            if not all(entry.is_zero() for entry in mats[k + 1][j]):
                raise InternalError("pruned row of the next matrix is not zero")
            del mats[k + 1][j]
        if k > 0:
            if not all(row[i].is_zero() for row in mats[k - 1]):
                raise InternalError("pruned column of the previous matrix is not zero")
            for row in mats[k - 1]:
                del row[i]
        # drop trailing matrices that became empty
        while mats and (not mats[-1] or not mats[-1][0]):
            mats.pop()
    while mats and (not mats[-1] or not mats[-1][0]):
        mats.pop()
    return [[list(row) for row in mat] for mat in mats]


def _all_pairs_syzygies(gb, keyf, field):
    """Syzygies of a monic Groebner basis, given as its prepared divisors,
    from every S-pair's reduction."""
    p = field.p
    sigmas = []
    one = field.one
    for i in range(len(gb)):
        ic, im = gb[i][2]
        for j in range(i + 1, len(gb)):
            jc, jm = gb[j][2]
            if ic != jc:
                continue
            lcm = (ic, tuple(map(max, im, jm)))
            spair = _s_pair(gb[i], gb[j], lcm, keyf(lcm), p)
            rem, records = normal_form_vec(spair, gb, p, track=True)
            assert not rem
            sigma = {(i, tuple(map(sub, lcm[1], im))): one}
            for idx, umono, factor in [(j, tuple(map(sub, lcm[1], jm)), one)] + records:
                v = sigma.get((idx, umono), 0) - factor
                if p:
                    v %= p
                if v:
                    sigma[(idx, umono)] = v
                else:
                    sigma.pop((idx, umono), None)
            if sigma:
                sigmas.append(sigma)
    return sigmas


def _texts(matrices):
    return [[[format_polynomial(e) for e in row] for row in mat] for mat in matrices]


def _assert_matches_oracle(sub):
    """The minimized resolution equals the oracle's pruning of the frame."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(modules, "_prune", lambda *args: None)
        frame = free_resolution(sub)
    expected = _prune_units(frame.matrices, sub.nvars, sub.field)
    res = free_resolution(sub)
    assert _texts(res.matrices) == _texts(expected)
    assert [[[e.terms for e in row] for row in mat] for mat in res.matrices] == \
        [[[e.terms for e in row] for row in mat] for mat in expected]
    assert res.base_rank == (len(expected[0]) if expected else sub.rank)
    assert res.length == len(expected)
    assert res.ranks == [len(mat[0]) for mat in expected]
    return frame, res


def _random_ideal(rng, field, nvars, low, high, count):
    pool = [m for d in range(low, high + 1) for m in monomials(nvars, d)]
    gens = []
    while len(gens) < count:
        terms = {m: rng.randint(-4, 4) for m in rng.sample(pool, min(len(pool), 4))}
        f = Polynomial(nvars, field, terms)
        if not f.is_zero():
            gens.append(f)
    return SubmoduleOfFree.from_ideal_generators(gens)


@pytest.mark.parametrize("field", [F2, F5, F32003, QQ], ids=repr)
def test_minimal_resolution_matches_oracle_graded(field):
    rng = random.Random(17)
    pruned = 0
    for _ in range(8):
        nvars = rng.randint(2, 4)
        degree = rng.randint(1, 2)
        sub = _random_ideal(rng, field, nvars, degree, degree, rng.randint(2, 4))
        frame, res = _assert_matches_oracle(sub)
        pruned += sum(frame.ranks) - sum(res.ranks)
    assert pruned > 0


@pytest.mark.parametrize("field", [F2, F5, F32003, QQ], ids=repr)
def test_minimal_resolution_matches_oracle_inhomogeneous(field):
    rng = random.Random(23)
    for _ in range(8):
        nvars = rng.randint(2, 3)
        _assert_matches_oracle(_random_ideal(rng, field, nvars, 0, 2, rng.randint(1, 4)))


def test_minimal_resolution_matches_oracle_dense_quadrics():
    rng = random.Random(1)
    gens = [Polynomial(4, F32003, {m: rng.randrange(32003) for m in monomials(4, 2)})
            for _ in range(3)]
    frame, res = _assert_matches_oracle(SubmoduleOfFree.from_ideal_generators(gens))
    assert res.ranks == [3, 3, 1]
    assert frame.ranks[0] > 3


def test_minimal_resolution_matches_oracle_unit_component():
    rng = random.Random(29)
    one = Polynomial.constant(1, 3, F5)
    for _ in range(6):
        pool = [m for d in range(3) for m in monomials(3, d)]
        gens = [tuple(Polynomial(3, F5, {m: rng.randint(0, 4)
                                         for m in rng.sample(pool, 3)})
                      for _ in range(2)) for _ in range(rng.randint(1, 3))]
        gens.append((one, pp("x1*x2", F5, 3)))
        _, res = _assert_matches_oracle(SubmoduleOfFree(2, gens, 3, F5))
        # the unit column splits off e_1, unless the module is all of R^2
        assert res.base_rank == 1 or not res.matrices


def test_a_constant_term_is_not_a_unit():
    # x1 + 1 has a constant term but is not a unit; the frame of this
    # ideal over F2 has two entries like it, and both must stay
    sub = SubmoduleOfFree.from_ideal_generators(
        [pp("x1 + 1", F2, 2), pp("x1*x2", F2, 2), pp("x2^2 + x2", F2, 2)])
    _, res = _assert_matches_oracle(sub)
    assert res.ranks == [2, 1]


def test_minimization_checks_exactness():
    pack = _layout(1).pack
    one, x1 = {pack((0, (0,))): 1}, {pack((0, (1,))): 1}
    # d0 = [1], d1 = [x1]: the row of d1 under the unit of d0 is not zero
    with pytest.raises(InternalError, match="pruned row of the next matrix"):
        _chain_matrices([[one], [x1]], 1, 1, F5)
    # d0 = [x1], d1 = [1]: the column of d0 over the unit of d1 is not zero
    with pytest.raises(InternalError, match="pruned column of the previous matrix"):
        _chain_matrices([[x1], [one]], 1, 1, F5)
    # an exact chain prunes to nothing
    assert _chain_matrices([[one], [{}]], 1, 1, F5) == (1, [])


def test_verify_rejects_a_nonzero_composite():
    one, x1 = pp("1", F5, 1), pp("x1", F5, 1)
    assert not FreeResolution(1, [[[one]], [[x1]]], 1, F5).verify()
    assert not FreeResolution(1, [[[x1, one]], [[one], [x1]]], 1, F5).verify()
    assert not FreeResolution(1, [[[x1, one]], [[one]]], 1, F5).verify()
    assert FreeResolution(1, [[[x1, one]], [[one], [-x1]]], 1, F5).verify()


# ----- the Schreyer frame from minimal pairs -----


@pytest.mark.parametrize("field", [F2, F5, QQ], ids=repr)
def test_minimal_pairs_give_the_all_pairs_syzygies(field):
    rng = random.Random(31)
    fewer = 0
    for trial in range(6):
        nvars = rng.randint(3, 4)
        low = 0 if trial % 3 == 2 else 2
        sub = _random_ideal(rng, field, nvars, low, 2, rng.randint(2, 4))
        keyf = pot_key(GREVLEX)
        gb = buchberger([_to_vec(v) for v in sub.generators], keyf, field)
        gb = _schreyer_sort(autoreduce(gb, field))
        while gb:
            counter = Counter("pairs", 10 ** 6)
            mine = _schreyer_syzygies(gb, keyf, field, counter)
            every = _all_pairs_syzygies(gb, keyf, field)
            assert counter.used == len(mine) <= len(every)
            fewer += len(every) - len(mine)
            if not every:
                assert not mine
                break
            keyf = _schreyer_key([d[2] for d in gb], keyf)
            reduced = autoreduce([_prep(s, keyf, field) for s in mine], field)
            assert reduced == autoreduce([_prep(s, keyf, field) for s in every], field)
            # one syzygy per minimal generator of the leading-term module
            assert (sorted(max(s, key=keyf) for s in mine)
                    == sorted(d[2] for d in reduced))
            gb = _schreyer_sort(reduced)
    assert fewer > 0


def test_schreyer_pairs_are_budgeted():
    gens = [pp(f"x{i}", F5, 4) for i in range(1, 5)]
    budget = Budget(max_pairs=3)
    assert len(groebner_basis(gens, budget=budget)) == 4
    with pytest.raises(BudgetExceededError, match="schreyer pairs"):
        free_resolution(SubmoduleOfFree.from_ideal_generators(gens), budget=budget)
    res = free_resolution(SubmoduleOfFree.from_ideal_generators(gens), budget=Budget(max_pairs=6))
    assert res.ranks == [4, 6, 4, 1]


# ----- submodule equality against one containment per vector -----


def _per_vector_equals(a, b):
    return (all(submodule_contains(a, v) for v in b.generators)
            and all(submodule_contains(b, v) for v in a.generators))


def test_submodule_equals_matches_per_vector_route():
    rng = random.Random(37)
    answers = set()
    for trial in range(16):
        nvars = rng.randint(2, 4)
        c = rng.choice([2, 3])
        polys = [_random_ideal(rng, F5, nvars, 1, 2, 1).generators[0][0] for _ in range(c)]
        if trial % 3 == 0:
            polys[-1] = polys[0] * pp("x1 + x2", F5, nvars)
        kernel = kernel_of_map([polys], SubmoduleOfFree(1, [], nvars, F5))
        koszul = koszul_relations(polys)
        for a, b in ((kernel, koszul), (koszul, kernel), (koszul, koszul)):
            got = submodule_equals(a, b)
            assert got == _per_vector_equals(a, b)
            answers.add(got)
    assert answers == {True, False}


def test_submodule_equals_edge_cases():
    zero2 = SubmoduleOfFree(2, [], 2, F5)
    x1, x2, z = pp("x1", F5, 2), pp("x2", F5, 2), pp("0", F5, 2)
    with_zero = SubmoduleOfFree(2, [(x1, z), (z, z)], 2, F5)
    assert len(with_zero.generators) == 1
    assert submodule_contains(with_zero, (z, z))
    assert submodule_contains(zero2, (z, z))
    assert not submodule_contains(zero2, (x1, z))
    assert submodule_equals(zero2, zero2) and _per_vector_equals(zero2, zero2)
    for a, b in ((zero2, with_zero), (with_zero, zero2)):
        assert submodule_equals(a, b) is False
        assert _per_vector_equals(a, b) is False
    bigger = SubmoduleOfFree(2, [(x1, z), (x2, z)], 2, F5)
    assert submodule_equals(with_zero, bigger) is False
    assert _per_vector_equals(with_zero, bigger) is False
    other = SubmoduleOfFree(2, [(x1 * x2, z), (x1, x2)], 2, F5)
    assert submodule_equals(with_zero, other) is False
    assert _per_vector_equals(with_zero, other) is False
    with pytest.raises(ValueError):
        submodule_equals(zero2, SubmoduleOfFree(1, [(x1,)]))
