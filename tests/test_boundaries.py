"""The public entries that take polynomials or vectors from the caller
check them at the boundary: a call whose inputs mix two rings, or
vectors of two ranks, raises ValueError, and a call that mixes neither
returns.  Rings are drawn from 1-3 variables over F2, F5 and Q."""

from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

from smallsub.descent import subalgebra_membership
from smallsub.fields import GF, QQ
from smallsub.groebner import Ideal, membership_cofactors, normal_form
from smallsub.modules import (SubmoduleOfFree, kernel_of_map, submodule_contains,
                              syzygies)
from smallsub.poly import Polynomial

#: derandomized, like the grammar properties, so that runs repeat
_PROPERTY = settings(derandomize=True, max_examples=100, deadline=None)

_RINGS = st.tuples(st.integers(1, 3), st.sampled_from([GF(2), GF(5), QQ]))


@st.composite
def _polys(draw, ring):
    nvars, field = ring
    monomial = st.tuples(*[st.integers(0, 2)] * nvars)
    return Polynomial(nvars, field, draw(st.dictionaries(monomial, st.integers(1, 4),
                                                         max_size=3)))


@st.composite
def _forms(draw, ring):
    """A sum of one or two monomials of one positive degree."""
    nvars, field = ring
    d = draw(st.integers(1, 2))
    monos = [m for m in product(range(d + 1), repeat=nvars) if sum(m) == d]
    chosen = draw(st.lists(st.sampled_from(monos), min_size=1, max_size=2, unique=True))
    return Polynomial(nvars, field, {m: 1 for m in chosen})


def _check(mixed: bool, call):
    if mixed:
        with pytest.raises(ValueError):
            call()
    else:
        call()


@_PROPERTY
@given(_RINGS, st.integers(1, 2), st.data())
def test_mixed_rings_and_ranks_raise(ring_a, rank_a, data):
    draw = data.draw
    # the second ring and rank are the first ones about half of the time
    ring_b = draw(st.one_of(st.just(ring_a), _RINGS))
    rank_b = draw(st.one_of(st.just(rank_a), st.integers(1, 2)))
    nvars, field = ring_a
    other_ring = ring_a != ring_b
    mixed = other_ring or rank_a != rank_b
    vec_a = tuple(draw(_polys(ring_a)) for _ in range(rank_a))
    vec_b = tuple(draw(_polys(ring_b)) for _ in range(rank_b))
    matrix = [[draw(_polys(ring_b))] for _ in range(rank_b)]
    f_a, f_b = draw(_polys(ring_a)), draw(_polys(ring_b))
    gens = [draw(_forms(ring_a)), draw(_forms(ring_b))]
    sub = SubmoduleOfFree(rank_a, [vec_a], nvars, field)
    _check(mixed, lambda: syzygies([vec_a, vec_b], rank_a, nvars, field))
    _check(mixed, lambda: submodule_contains(sub, vec_b))
    _check(mixed, lambda: kernel_of_map(matrix, sub))
    _check(other_ring, lambda: Ideal([f_a], nvars, field).normal_form(f_b))
    _check(other_ring, lambda: normal_form(f_b, [f_a]))
    _check(other_ring, lambda: membership_cofactors(f_b, [f_a]))
    _check(other_ring, lambda: subalgebra_membership(f_a, gens))
