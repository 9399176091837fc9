"""Each basis prepared once, against the route that prepared it again.

The engine's runs return their elements as the prepared divisors they
reduce by, and their callers read leading terms and tail codes off those.
The route kept here as the oracle is the one before that: bases as
VecDicts, each prepared again by keying every term (``_old_prep``) before
``autoreduce``, a kernel read off the terms of every element, and a
Schreyer loop that sorts, keys and reduces by re-keyed VecDicts.  Both
routes must give the same reduced bases, kernels and resolution
matrices, over F2, F5, F_32003 and Q, ranks 1 to 3, and grevlex, lex and
elimination orders.  An ``Ideal`` reduces by the divisors of its own run
and must agree with ``normal_form`` against its basis prepared afresh,
and a query on a cached basis must prepare nothing."""

import random
from operator import itemgetter

import pytest

from smallsub import groebner, modules
from smallsub.budget import Counter
from smallsub.fields import GF, QQ
from smallsub.groebner import (GREVLEX, LEX, Ideal, autoreduce, buchberger, elimination_order,
                               normal_form,
                               normal_form_vec, pot_key, _Codes, _coded, _Divisors, _layout,
                               _modulo, _prep, _tagged, _terms, _to_vec)
from smallsub.modules import (SubmoduleOfFree, free_resolution, _chain_matrices,
                              _schreyer_key, _schreyer_syzygies)
from smallsub.poly import Polynomial

FIELDS = [GF(2), GF(5), GF(32003), QQ]


# ----- the route that prepared each basis again -----


def _old_prep(vec, keyf):
    """A monic VecDict as a prepared divisor, each term keyed again."""
    keyed = [(keyf(t), t, c) for t, c in vec.items()]
    klt, lt, _ = max(keyed, key=itemgetter(0))
    layout = _layout(len(lt[1]))
    tail = [(layout.code(t, k), c) for k, t, c in keyed if k != klt]
    return (layout.bias - layout.pack(lt), layout.code(lt, klt), lt, tail)


def _vecs(divisors, one):
    """The VecDicts of prepared divisors, largest term first, as the
    runs returned them before."""
    out = []
    for d in divisors:
        layout = _layout(len(d[2][1]))
        out.append({layout.unpack(h & layout.low): c for h, c in _terms(d, one)})
    return out


def _old_autoreduce(basis, keyf, field):
    """Interreduction of VecDicts: each prepared again, the minimal ones
    kept, and each reduced whole against the others."""
    elems = sorted((_old_prep(v, keyf) for v in basis if v), key=itemgetter(1), reverse=True)
    minimal = []
    for d in elems:
        layout = _layout(len(d[2][1]))
        t = layout.bias - d[0]
        if not any(not (t + m[0]) & layout.mask for m in minimal):
            minimal.append(d)
    reduced = []
    for i, d in enumerate(minimal):
        layout = _layout(len(d[2][1]))
        vec = _Codes(layout)
        vec[d[1]] = field.one
        vec.update(d[3])
        rem = normal_form_vec(vec, _Divisors(minimal[:i] + minimal[i + 1:]), field.p)
        reduced.append({layout.unpack(h & layout.low): c for h, c in rem.items()})
    reduced.reverse()
    return reduced


def _old_modulo(columns, target, rank, nvars, field):
    """The kernel read off the terms of every element of the basis."""
    gb = _vecs(buchberger(_tagged(columns, rank, nvars, field.one) + list(target),
                          pot_key(GREVLEX), field), field.one)
    return [{(comp - rank, m): c for (comp, m), c in g.items()}
            for g in gb if all(comp >= rank for comp, _ in g)]


def _old_levels(sub, order):
    """The Schreyer frame of ``sub`` as packed columns, each level sorted,
    keyed and reduced by re-keyed VecDicts."""
    field, nvars = sub.field, sub.nvars
    keyf = pot_key(order)

    def schreyer_sort(gb):
        def lead(g):
            comp, mono = max(g, key=keyf)
            return mono, -comp
        return sorted(gb, key=lead, reverse=True)

    gb = _vecs(buchberger([_to_vec(v) for v in sub.generators], keyf, field), field.one)
    gb = schreyer_sort(_old_autoreduce(gb, keyf, field))
    levels = []
    while gb:
        levels.append(gb)
        prepped = _Divisors(_old_prep(g, keyf) for g in gb)
        sigmas = _schreyer_syzygies(prepped, keyf, field, Counter("pairs", 10 ** 6))
        if not sigmas:
            break
        keyf = _schreyer_key([max(g, key=keyf) for g in gb], keyf)
        gb = schreyer_sort(_old_autoreduce(sigmas, keyf, field))
    pack = _layout(nvars).pack
    return [[{pack(t): c for t, c in col.items()} for col in cols] for cols in levels]


# ----- seeded inputs -----


def _vec(rng, field, rank, nvars, nterms, maxdeg):
    vec = {}
    for _ in range(nterms):
        mono = tuple(rng.randint(0, maxdeg) for _ in range(nvars))
        c = field.coerce(rng.randint(1, 9) * rng.choice((1, -1)))
        if field.p is None:
            c /= rng.randint(1, 3)
        if c:
            vec[(rng.randrange(rank), mono)] = c
    return vec


def _orders(rng, nvars):
    return [GREVLEX, LEX, elimination_order(rng.randint(1, nvars - 1))]


def _cases(field, rank, seed, count):
    rng = random.Random(seed)
    for _ in range(count):
        nvars = rng.randint(2, 3)
        for order in _orders(rng, nvars):
            vecs = [_vec(rng, field, rank, nvars, rng.randint(1, 4), 2)
                    for _ in range(rng.randint(2, 4))]
            yield rng, nvars, order, [v for v in vecs if v]


def _seed(field, rank):
    return 17 * rank + (field.p or 1)


@pytest.mark.parametrize("field", FIELDS, ids=repr)
@pytest.mark.parametrize("rank", [1, 2, 3])
def test_reduced_bases_and_normal_forms_match(field, rank):
    p = field.p
    for rng, nvars, order, vecs in _cases(field, rank, _seed(field, rank), 12):
        keyf = pot_key(order)
        basis = buchberger(vecs, keyf, field)
        unreduced = _vecs(basis, field.one)
        assert (_vecs(autoreduce(basis, field), field.one)
                == _old_autoreduce(unreduced, keyf, field))
        # the run's own divisors, with the memo its signature reductions
        # left, reduce like divisors prepared afresh
        fresh = _Divisors(_prep(g, keyf, field) for g in unreduced)
        for _ in range(4):
            vec = _vec(rng, field, rank, nvars, rng.randint(1, 6), 3)
            layout = _layout(nvars)
            assert (normal_form_vec(_coded(vec, keyf, layout), basis, p, track=True)
                    == normal_form_vec(_coded(vec, keyf, layout), fresh, p, track=True))


@pytest.mark.parametrize("field", FIELDS, ids=repr)
@pytest.mark.parametrize("rank", [1, 2, 3])
def test_modulo_kernels_match(field, rank):
    rng = random.Random(_seed(field, rank) + 1)
    nonzero = 0
    for _ in range(10):
        nvars = rng.randint(2, 3)
        columns = [_vec(rng, field, rank, nvars, rng.randint(1, 3), 2)
                   for _ in range(rng.randint(1, 3))]
        target = [v for v in (_vec(rng, field, rank, nvars, rng.randint(1, 2), 2)
                              for _ in range(rng.randint(0, 2))) if v]
        kernel = [{(comp - rank, m): c for (comp, m), c in g.items()}
                  for g in _vecs(_modulo(columns, target, rank, nvars, field), field.one)]
        assert kernel == _old_modulo(columns, target, rank, nvars, field)
        nonzero += bool(kernel)
    assert nonzero


def _texts(matrices):
    return [[[e.terms for e in row] for row in mat] for mat in matrices]


@pytest.mark.parametrize("field", FIELDS, ids=repr)
@pytest.mark.parametrize("rank", [1, 2, 3])
def test_resolution_matrices_match(field, rank, monkeypatch):
    longest = 0
    for _, nvars, order, vecs in _cases(field, rank, _seed(field, rank) + 2, 6):
        entries = [tuple(Polynomial(nvars, field, {m: c for (comp, m), c in v.items()
                                                   if comp == j}) for j in range(rank))
                   for v in vecs]
        sub = SubmoduleOfFree(rank, entries, nvars, field)
        levels = _old_levels(sub, order)
        for prune in (modules._prune, lambda *args: None):
            monkeypatch.setattr(modules, "_prune", prune)
            _, expected = _chain_matrices([[dict(c) for c in cols] for cols in levels],
                                          rank, nvars, field)
            assert _texts(free_resolution(sub, order).matrices) == _texts(expected)
        longest = max(longest, len(levels))
    assert longest >= 2


def _poly(vec, nvars, field):
    return Polynomial(nvars, field, {m: c for (_, m), c in vec.items()})


@pytest.mark.parametrize("field", FIELDS, ids=repr)
def test_ideal_normal_forms_match(field):
    for rng, nvars, order, vecs in _cases(field, 1, _seed(field, 1) + 3, 8):
        ideal = Ideal([_poly(v, nvars, field) for v in vecs], nvars, field)
        basis = ideal.groebner_basis(order)
        for _ in range(4):
            f = _poly(_vec(rng, field, 1, nvars, rng.randint(1, 6), 3), nvars, field)
            assert ideal.normal_form(f, order) == normal_form(f, basis, order)


def test_queries_on_a_cached_basis_prepare_nothing(monkeypatch):
    field = GF(32003)
    x1, x2, x3 = (Polynomial.variable(i, 3, field) for i in range(3))
    ideal = Ideal([x1 * x2 - x3 * x3, x1 * x1 + x2 * x3, x2 * x2 - x1])
    ideal.groebner_basis()
    prepared = []
    prep_codes = groebner._prep_codes

    def counting(*args):
        prepared.append(args)
        return prep_codes(*args)
    monkeypatch.setattr(groebner, "_prep_codes", counting)
    for f in (x1 * x2 - x3 * x3, x1 * x3 + x2, x3 * (x1 * x1 + x2 * x3)):
        ideal.contains(f)
    assert not prepared
