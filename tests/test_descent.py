import random

import pytest

from smallsub import descent
from smallsub.budget import Budget
from smallsub.descent import (EXHAUST_CAP, SAMPLE_BUDGET, ThresholdPolicy,
                              _candidates, descend_step, small_subalgebra,
                              subalgebra_membership)
from smallsub.fields import GF, QQ
from smallsub.grammar import parse_polynomial as pp
from smallsub.poly import (DimensionSequence, Form, GradedSpace, Polynomial,
                           monomials)
from smallsub.strength import CollapseWitness, find_collapse

F2 = GF(2)
F3 = GF(3)
F5 = GF(5)


def space(*texts, nvars, field=F2):
    return GradedSpace.from_forms([Form(pp(t, field, nvars)) for t in texts])


def test_descend_step_reducible_quadric():
    V = space("x1*x2", nvars=2)
    w = find_collapse(V.basis[0], 1)
    V2 = descend_step(V, 2, w)
    assert tuple(V2.dimension_sequence) == (2,)
    assert set(V2.basis) == {pp("x1", F2, 2), pp("x2", F2, 2)}


def test_descend_step_mixed_degrees():
    V = space("x1^2", "x3^3", nvars=3, field=F5)
    assert tuple(V.dimension_sequence) == (0, 1, 1)
    w = find_collapse(V.piece(2)[0], 1)
    V2 = descend_step(V, 2, w)
    assert tuple(V2.dimension_sequence) == (1, 0, 1)


def test_descend_step_two_collapse():
    V = space("x1*x2+x3*x4", nvars=4)
    w = find_collapse(V.basis[0], 2)
    V2 = descend_step(V, 2, w)
    assert tuple(V2.dimension_sequence) == (4,)


def test_descend_step_rejects_outside_target():
    V = space("x1*x2", nvars=3)
    outside = Form(pp("x1*x3", F2, 3))
    w = CollapseWitness(outside, ((Form(pp("x1", F2, 3)), Form(pp("x3", F2, 3))),))
    with pytest.raises(ValueError):
        descend_step(V, 2, w)


def test_small_subalgebra_reducible_quadric():
    trace = small_subalgebra(space("x1*x2", nvars=2), ThresholdPolicy.maximal())
    assert set(trace.final_generators) == {pp("x1", F2, 2), pp("x2", F2, 2)}
    assert trace.regular_sequence
    assert all(trace.membership)
    assert trace.exhaustive and trace.complete


def test_small_subalgebra_irreducible_quadric_threshold_one():
    V = space("x1^2+x2^2", nvars=2, field=F3)
    trace = small_subalgebra(V, ThresholdPolicy.constant(1))
    assert len(trace.final_generators) == 1
    assert trace.final_generators[0] == pp("x1^2+x2^2", F3, 2)
    assert not trace.steps


def test_small_subalgebra_mixed_example():
    V = space("x1", "x1^2+x1*x2", nvars=2, field=F3)
    trace = small_subalgebra(V, ThresholdPolicy.maximal())
    assert len(trace.final_generators) == 2
    assert all(f.degree == 1 for f in trace.final_generators)
    assert trace.regular_sequence
    assert all(trace.membership)


def test_small_subalgebra_well_order_strictly_decreases():
    V = space("x1^2*x2+x1*x2^2", "x1*x2", nvars=2)
    trace = small_subalgebra(V, ThresholdPolicy.maximal())
    for step in trace.steps:
        assert DimensionSequence(step.after) < DimensionSequence(step.before)
    assert trace.complete


def test_small_subalgebra_generator_count_bound():
    # each step trades one form for at most 2k factors, so the final count
    # is bounded by the initial dimension plus sum(2k - 1) over the steps
    fixtures = [
        space("x1*x2+x3*x4", nvars=4),
        space("x1*x2", "x3*x4", nvars=4),
        space("x1^2*x2", nvars=2),
    ]
    for V in fixtures:
        trace = small_subalgebra(V, ThresholdPolicy.maximal())
        bound = V.dimension + sum(2 * s.witness.k - 1 for s in trace.steps)
        assert len(trace.final_generators) <= bound


def test_small_subalgebra_budget_flagged_incomplete():
    V = space("x1*x2+x3*x4", nvars=4)
    trace = small_subalgebra(V, ThresholdPolicy.maximal(),
                             budget=Budget(max_candidates=2))
    assert not trace.complete
    assert not trace.exhaustive


def test_small_subalgebra_rejects_rationals():
    V = space("x1*x2", nvars=2, field=QQ)
    with pytest.raises(ValueError):
        small_subalgebra(V, ThresholdPolicy.maximal())


def test_policy_thresholds():
    policy = ThresholdPolicy.constant(4)
    assert policy.threshold(DimensionSequence((0, 1)), 2) == 4
    assert policy.threshold(DimensionSequence((0, 0, 1)), 3) == 4
    with pytest.raises(ValueError):
        ThresholdPolicy.constant(-1).threshold(DimensionSequence((0, 0, 0, 1)), 4)
    from smallsub.bounds import BoundTable
    table_policy = ThresholdPolicy.from_table(BoundTable.default(eta=1))
    assert table_policy.threshold(DimensionSequence((0, 1)), 2) == 1
    assert table_policy.threshold(DimensionSequence((0, 2)), 2) == 4
    assert ThresholdPolicy.maximal().threshold(DimensionSequence((0, 1)), 2) is None


def test_subalgebra_membership_examples():
    gens = [Form(pp("x1+x2", F5, 2))]
    assert subalgebra_membership(pp("x1^2+2*x1*x2+x2^2", F5, 2), gens)
    assert not subalgebra_membership(pp("x1", F5, 1), [Form(pp("x1^2", F5, 1))])
    gens2 = [Form(pp("x1+x2", F5, 2)), Form(pp("x1-x2", F5, 2))]
    assert subalgebra_membership(pp("x1*x2", F5, 2), gens2)


def test_subalgebra_membership_checks_the_generators_ring():
    # x3 in 3 variables would land on the tag variable of the first generator
    with pytest.raises(ValueError):
        subalgebra_membership(pp("x1*x2", F5, 2), [Form(pp("x1", F5, 2)),
                                                   Form(pp("x3", F5, 3))])
    with pytest.raises(ValueError):
        subalgebra_membership(pp("x1*x2", F5, 2), [Form(pp("x1", F5, 2)),
                                                   Form(pp("x2", GF(7), 2))])
    assert subalgebra_membership(pp("x1*x2", F5, 2), [Form(pp("x1", F5, 2)),
                                                      Form(pp("x2", F5, 2))])


def test_subalgebra_membership_random_consistency():
    rng = random.Random(103)
    gens = [Form(pp("x1^2", F5, 2)), Form(pp("x2", F5, 2))]
    for _ in range(6):
        # random algebra combination of the generators must be a member
        a, b, c = rng.randint(0, 4), rng.randint(0, 4), rng.randint(1, 4)
        combo = (pp("x1^2", F5, 2) * a + pp("x2", F5, 2) * pp("x2", F5, 2) * b
                 + pp("x1^2", F5, 2) * pp("x2", F5, 2) * c)
        if combo.is_zero():
            continue
        assert subalgebra_membership(combo, gens)
    assert not subalgebra_membership(pp("x1", F5, 2), gens)
    assert not subalgebra_membership(pp("x1^3", F5, 2), gens)


def _projective_classes(piece, field, cap):
    """All nonzero combinations of the piece basis up to scalar, if few
    enough: the list-building enumerator the lazy sweep replaced."""
    p = field.p
    if p is None:
        return None
    count = (p ** len(piece) - 1) // (p - 1)
    if count > cap:
        return None
    out = []
    for lead in range(len(piece)):
        tails = [range(p)] * (len(piece) - lead - 1)
        stack = [()]
        for choices in tails:
            stack = [prefix + (c,) for prefix in stack for c in choices]
        for tail in stack:
            poly = piece[lead]
            for b, c in zip(piece[lead + 1:], tail):
                if c:
                    poly = poly + b.scale(c)
            out.append(Form(poly))
    return out


def _sampled_combinations(piece, field, rng):
    """The random combinations the sampled regime drew before it shared
    the class builder of the exhaustive sweep."""
    out = []
    for _ in range(SAMPLE_BUDGET):
        coeffs = [rng.randrange(field.p) for _ in piece]
        if not any(coeffs):
            coeffs[rng.randrange(len(piece))] = 1
        poly = Polynomial.zero(piece[0].nvars, field)
        for b, c in zip(piece, coeffs):
            if c:
                poly = poly + b.scale(c)
        out.append(Form(poly))
    return out


def _random_quadric_space(rng, field, dim):
    pool = list(monomials(3, 2))
    while True:
        forms = [Polynomial(3, field, {m: rng.randrange(field.p) for m in pool})
                 for _ in range(dim)]
        if any(f.is_zero() for f in forms):
            continue
        V = GradedSpace.from_forms(forms)
        if tuple(V.dimension_sequence) == (0, dim):
            return V


def _regime(V, degree, rng, regime):
    return [f for r, f in _candidates(V, degree, rng) if r == regime]


@pytest.mark.parametrize("field", [F2, F3, F5], ids=repr)
def test_candidates_match_the_list_enumerator(field):
    rng = random.Random(41 + field.p)
    for dim in range(1, 5):
        for _ in range(2):
            V = _random_quadric_space(rng, field, dim)
            piece = V.piece(2)
            classes = _projective_classes(piece, field, EXHAUST_CAP)
            assert len(classes) == (field.p ** dim - 1) // (field.p - 1)
            assert _regime(V, 2, None, "exhaustive") == classes
            assert _regime(V, 2, None, "sampled") == []
            seed = rng.randrange(1000)
            expected = (_sampled_combinations(piece, field, random.Random(seed))
                        if dim > 1 else [])
            assert _regime(V, 2, random.Random(seed), "sampled") == expected


@pytest.mark.parametrize("field, dim", [(F2, 3), (F3, 2), (F5, 3)], ids=repr)
def test_closing_sweep_cap_is_inclusive(monkeypatch, field, dim):
    V = _random_quadric_space(random.Random(dim), field, dim)
    count = (field.p ** dim - 1) // (field.p - 1)
    for cap, swept in ((count, True), (count - 1, False)):
        monkeypatch.setattr(descent, "EXHAUST_CAP", cap)
        assert len(_regime(V, 2, None, "exhaustive")) == (count if swept else 0)
        # threshold 0 skips every search, so only the cap decides the flag
        trace = small_subalgebra(V, ThresholdPolicy.constant(0))
        assert trace.complete and not trace.steps
        assert trace.exhaustive == swept


def test_step_found_only_by_the_closing_sweep():
    V = space("x1*x2+x1*x3+x2*x3", "x1^2+x2*x3", nvars=3)
    trace = small_subalgebra(V, ThresholdPolicy.constant(1), rng=None)
    first = trace.steps[0]
    assert first.regime == "exhaustive"
    assert first.degree == 2
    assert first.witness.target == pp("x1^2+x1*x2+x1*x3", F2, 3)
    assert trace.complete and trace.exhaustive


@pytest.mark.parametrize("max_k, steps", [(0, 0), (1, 0), (2, 1), (None, 1)])
def test_maximal_policy_max_k_zero_is_a_cap(max_k, steps):
    # x1*x2 + x3*x4 over F2 needs a collapse of two pairs
    space = GradedSpace.from_forms([Form(pp("x1*x2+x3*x4", GF(2), 4))])
    trace = small_subalgebra(space, ThresholdPolicy.maximal(max_k=max_k))
    assert len(trace.steps) == steps
