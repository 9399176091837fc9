"""Submodules of free modules: syzygies, kernels, finite free resolutions.

Kernels are computed by the tag-component embedding: the kernel of
R^n -> R^m / T, e_i -> v_i, is the tag block of one Groebner basis of
the vectors v_i + e_{m+i} and the generators of T in R^(m+n) under a
position-over-term order (:func:`smallsub.groebner._modulo`).  Syzygies
are the case T = 0, and ``Ideal.colon`` and ``Ideal.intersection`` are
kernels of this kind too.  The same embedding lifts ideal memberships to
cofactors (:func:`smallsub.groebner.membership_cofactors`).

Resolutions iterate Schreyer's construction: the reductions of the
S-pairs of a Groebner basis G yield syzygies that are already a
Groebner basis for the order induced by the leading terms of G, so
each further step is a plain S-pair reduction pass.  Only the pairs
whose quotient lcm/lt_i is minimal among those of i's partners are
reduced: their syzygies have the same leading terms as all of them.
Each basis is used as the prepared divisors that its run returns: its
leading terms order the next level (Schreyer's sort and key) and its
S-pairs reduce against it, so only the syzygies, which live in a new
free module, are prepared again.  Each level is kept as the engine's
columns, packed with the layout of :mod:`smallsub.groebner`, and the
public ``Polynomial`` matrices are built once at the end.

Graded input yields a minimal graded resolution after unit entries are
pruned, in one pass per matrix, first to last (after La Scala and
Stillman, "Strategies for computing minimal free resolutions", JSC
1998).  Clearing the unit at (i, j) of matrix k by column operations
changes the neighbouring matrices only in row j of matrix k+1 and column
i of matrix k-1, and both are dropped; so a matrix already done never
gets a unit back.  Exactness makes the dropped row and column zero, and
both are checked.
"""

from __future__ import annotations

from operator import le, mul, sub
from typing import Callable, Iterable, Sequence

from .budget import Budget, BudgetExceededError, Counter, DEFAULT_BUDGET, InternalError
from .fields import CoefficientField, _Frozen
from .groebner import (GREVLEX, MAX_EXPONENT, TermOrder, VecDict, autoreduce,
                       buchberger, normal_form_vec, pot_key, _ambient, _coded, _Divisors,
                       _Layout, _from_vec, _layout, _modulo, _prep, _s_pair,
                       _sub_scaled_packed, _terms, _to_vec)
from .poly import Monomial, Polynomial

Vector = tuple[Polynomial, ...]


class SubmoduleOfFree(_Frozen):
    """A finitely generated submodule of R^rank, given by generator vectors."""

    __slots__ = ("rank", "generators", "nvars", "field")

    def __init__(self, rank: int, generators: Iterable[Sequence[Polynomial]],
                 nvars: int | None = None, field: CoefficientField | None = None):
        if rank < 1:
            raise ValueError("ambient rank must be positive")
        vecs, nvars, field = _vectors(generators, rank, nvars, field)
        if nvars is None:
            raise ValueError("the zero submodule needs an explicit ambient ring")
        object.__setattr__(self, "rank", rank)
        object.__setattr__(self, "generators",
                           tuple(v for v in vecs if any(not e.is_zero() for e in v)))
        object.__setattr__(self, "nvars", nvars)
        object.__setattr__(self, "field", field)

    @classmethod
    def from_ideal_generators(cls, gens: Sequence[Polynomial]) -> "SubmoduleOfFree":
        return cls(1, [(g,) for g in gens], *_ambient(gens))

    def is_zero(self) -> bool:
        return not self.generators

    def __repr__(self):
        return f"SubmoduleOfFree(rank={self.rank}, ngens={len(self.generators)})"


def _vectors(vectors: Iterable[Sequence[Polynomial]], rank: int, nvars, field) -> tuple:
    """The vectors as tuples and their ring, or ValueError unless each has
    ``rank`` entries, all in the ring of ``nvars`` and ``field`` if given."""
    vecs = tuple(map(tuple, vectors))
    for vec in vecs:
        if len(vec) != rank:
            raise ValueError(f"vector has {len(vec)} entries, ambient rank is {rank}")
        for v in vec:
            if nvars is None:
                nvars, field = v.nvars, v.field
            elif (v.nvars, v.field) != (nvars, field):
                raise ValueError("entries live in different ambient rings")
    return vecs, nvars, field


def _contains_all(sub: SubmoduleOfFree, vectors: Iterable[Sequence[Polynomial]],
                  budget: Budget | None) -> bool:
    """Whether every vector, of ``sub``'s rank and ring, lies in ``sub``:
    one basis of ``sub``, computed only when a nonzero vector needs it,
    reduces them in turn until one leaves a remainder."""
    vectors, nvars, field = _vectors(vectors, sub.rank, sub.nvars, sub.field)
    vecs = [d for d in map(_to_vec, vectors) if d]
    if not vecs:
        return True
    if sub.is_zero():
        return False
    keyf, layout = pot_key(GREVLEX), _layout(nvars)
    gb = buchberger([_to_vec(v) for v in sub.generators], keyf, field, budget=budget)
    return not any(normal_form_vec(_coded(v, keyf, layout), gb, field.p) for v in vecs)


def submodule_contains(sub: SubmoduleOfFree, vec: Sequence[Polynomial],
                       budget: Budget | None = None) -> bool:
    return _contains_all(sub, [vec], budget)


def submodule_equals(a: SubmoduleOfFree, b: SubmoduleOfFree,
                     budget: Budget | None = None) -> bool:
    """Equality by two containments, each against one basis per side."""
    if (a.rank, a.nvars, a.field) != (b.rank, b.nvars, b.field):
        raise ValueError("submodules of different free modules")
    return (_contains_all(a, b.generators, budget)
            and _contains_all(b, a.generators, budget))


# ----- syzygies and kernels -----


def syzygies(vectors: Sequence[Sequence[Polynomial]], rank: int,
             nvars: int, field: CoefficientField,
             budget: Budget | None = None) -> list[Vector]:
    """Generators of the syzygy module of the given vectors in R^rank,
    whose entries must live in the ring of ``nvars`` and ``field``."""
    vectors, _, _ = _vectors(vectors, rank, nvars, field)
    kernel = _modulo([_to_vec(v) for v in vectors], [], rank, nvars, field, budget)
    return [_from_vec(_terms(d, field.one), rank + len(vectors), nvars, field)[rank:]
            for d in kernel]


def kernel_of_map(matrix: Sequence[Sequence[Polynomial]],
                  target: SubmoduleOfFree,
                  budget: Budget | None = None) -> SubmoduleOfFree:
    """Kernel of R^r -> R^m -> R^m / target, where the m x r matrix gives
    the first map by columns: one :func:`smallsub.groebner._modulo` of
    the columns, with the target's generators left untagged."""
    m = len(matrix)
    if m != target.rank:
        raise ValueError("matrix row count must equal the ambient rank of the target")
    r = len(matrix[0]) if m else 0
    if r < 1:
        raise ValueError("the matrix needs at least one column")
    if any(len(row) != r for row in matrix):
        raise ValueError("ragged matrix")
    columns, nvars, field = _vectors(zip(*matrix), m, target.nvars, target.field)
    kernel = _modulo([_to_vec(c) for c in columns], [_to_vec(v) for v in target.generators],
                     m, nvars, field, budget)
    return SubmoduleOfFree(r, [_from_vec(_terms(d, field.one), m + r, nvars, field)[m:]
                               for d in kernel], nvars, field)


def koszul_relations(forms: Sequence[Polynomial]) -> SubmoduleOfFree:
    """The Koszul syzygies F_j e_i - F_i e_j of a list of ring elements."""
    nvars, field = _ambient(forms)
    c = len(forms)
    zero = Polynomial.zero(nvars, field)
    gens = []
    for i in range(c):
        for j in range(i + 1, c):
            vec = [zero] * c
            vec[i] = forms[j]
            vec[j] = -forms[i]
            gens.append(tuple(vec))
    return SubmoduleOfFree(c, gens, nvars, field)


# ----- free resolutions -----


class FreeResolution(_Frozen):
    """A chain R^{r_L} -> ... -> R^{r_1} -> R^{base_rank} with composite zero.

    ``matrices[k]`` is the (row x column) = (r_k x r_{k+1}) matrix of the
    map F_{k+1} -> F_k, with F_0 = R^base_rank; columns of ``matrices[0]``
    generate the resolved submodule.
    """

    __slots__ = ("base_rank", "matrices", "nvars", "field")

    def __init__(self, base_rank: int, matrices, nvars: int, field: CoefficientField):
        object.__setattr__(self, "base_rank", base_rank)
        object.__setattr__(self, "matrices", matrices)
        object.__setattr__(self, "nvars", nvars)
        object.__setattr__(self, "field", field)

    @property
    def length(self) -> int:
        return len(self.matrices)

    @property
    def ranks(self) -> list[int]:
        """Ranks of F_1, ..., F_L."""
        return [len(mat[0]) if mat else 0 for mat in self.matrices]

    def verify(self) -> bool:
        """Consecutive matrices compose to the zero matrix.

        Each product column is accumulated on packed terms from the
        nonzero entries only; an exponent past MAX_EXPONENT in a product
        raises BudgetExceededError.
        """
        layout = _layout(self.nvars)
        pack, guard, p = layout.pack, layout.guard, self.field.p
        for a, b in zip(self.matrices, self.matrices[1:]):
            mid = len(b)
            if mid != (len(a[0]) if a else 0):
                return False
            acols = [{pack((i, m)): c for i, row in enumerate(a)
                      for m, c in row[t].terms.items()} for t in range(mid)]
            for j in range(len(b[0]) if b else 0):
                acc: dict = {}
                for t, row in enumerate(b):
                    for m, c in row[j].terms.items():
                        _sub_scaled_packed(acc, acols[t], pack((0, m)), c, p, guard)
                if acc:
                    return False
        return True

    def __repr__(self):
        shape = " <- ".join([f"R^{self.base_rank}"]
                            + [f"R^{r}" for r in self.ranks])
        return f"FreeResolution({shape})"


def _schreyer_key(lead_terms: Sequence[tuple[int, Monomial]],
                  prev_key: Callable) -> Callable:
    """Schreyer's order: e_c x^m compares as lead_terms[c] * x^m under
    ``prev_key``; of two tied terms, the smaller component is larger.

    ``prev_key`` is affine, prev((c, m)) = base(c) + w . m, so this key is
    R * (prev(lead_terms[c]) + w . m) - c with R = len(lead_terms): affine
    again, with weights R * w.  Lifting adds the lead exponents, so the
    key is faithful up to ``prev_key.limit`` minus the largest of them.
    """
    nvars = len(lead_terms[0][1])
    zero = (0,) * nvars
    origin = prev_key((0, zero))
    radix = len(lead_terms)
    weights = tuple(radix * (prev_key((0, zero[:j] + (1,) + zero[j + 1:])) - origin)
                    for j in range(nvars))
    bases = [radix * prev_key(lt) - c for c, lt in enumerate(lead_terms)]
    limit = prev_key.limit - max(max(m, default=0) for _, m in lead_terms)
    if limit < MAX_EXPONENT:
        raise BudgetExceededError("monomial exponent", MAX_EXPONENT)

    def key(term):
        comp, mono = term
        return bases[comp] + sum(map(mul, weights, mono))

    key.limit = limit
    return key


def _schreyer_syzygies(gb: _Divisors, keyf, field: CoefficientField,
                       pairs: Counter) -> list[VecDict]:
    """Syzygies of a monic Groebner basis, given as its prepared divisors,
    from its S-pair reductions.

    Only the minimal pairs are reduced: (i, j), j > i in the component
    of i, whose quotient lcm/lt_i no other partner's quotient properly
    divides, and of equal quotients the smallest j.  The leading terms
    of the syzygies are these quotients times e_i, so the minimal ones
    span the same leading-term module.  Each reduction ticks ``pairs``.
    """
    p = field.p
    sigmas: list[VecDict] = []
    one = field.one
    for i in range(len(gb)):
        ic, im = gb[i][2]
        quotients: dict = {}
        for j in range(i + 1, len(gb)):
            jc, jm = gb[j][2]
            if ic == jc:
                quotients.setdefault(tuple(max(b - a, 0) for a, b in zip(im, jm)), j)
        minimal: list = []
        for q in sorted(quotients, key=sum):
            if not any(all(map(le, r, q)) for r in minimal):
                minimal.append(q)
        for j in sorted(quotients[q] for q in minimal):
            jm = gb[j][2][1]
            pairs.tick()
            lcm = (ic, tuple(map(max, im, jm)))
            spair = _s_pair(gb[i], gb[j], lcm, keyf(lcm), p)
            rem, records = normal_form_vec(spair, gb, p, track=True)
            if rem:
                raise InternalError("S-pair of a Groebner basis did not reduce to zero")
            sigma: VecDict = {(i, tuple(map(sub, lcm[1], im))): one}
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


def _schreyer_sort(gb: Sequence[tuple]) -> _Divisors:
    """Order prepared divisors by descending lex leading monomial
    (Schreyer's sort, which bounds the iterated construction by the
    variable count)."""
    return _Divisors(sorted(gb, key=lambda d: (d[2][1], -d[2][0]), reverse=True))


def free_resolution(sub: SubmoduleOfFree, order: TermOrder = GREVLEX,
                    budget: Budget | None = None) -> FreeResolution:
    """Finite free resolution of a submodule by iterated Schreyer steps.

    Each step reduces its minimal S-pairs, each ticking a ``max_pairs``
    counter of its own.  Unit entries are then pruned in one pass per
    matrix on the packed levels (see the module docstring); for graded
    input the result is the minimal graded resolution.  The matrices are
    checked to compose to zero.
    """
    budget = budget or DEFAULT_BUDGET
    nvars, field = sub.nvars, sub.field
    if sub.is_zero():
        return FreeResolution(sub.rank, [], nvars, field)
    keyf = pot_key(order)
    gb = buchberger([_to_vec(v) for v in sub.generators], keyf, field, budget=budget)
    gb = _schreyer_sort(autoreduce(gb, field))
    low, one = _layout(nvars).low, field.one
    levels: list[list[dict]] = []  # per map, its columns as packed terms
    while gb:
        levels.append([{h & low: c for h, c in _terms(d, one)} for d in gb])
        if len(levels) > nvars + 2:
            raise BudgetExceededError("resolution length", nvars + 2)
        sigmas = _schreyer_syzygies(gb, keyf, field,
                                    Counter("schreyer pairs", budget.max_pairs))
        if not sigmas:
            break
        keyf = _schreyer_key([d[2] for d in gb], keyf)
        gb = _schreyer_sort(autoreduce([_prep(s, keyf, field) for s in sigmas], field))
    base_rank, matrices = _chain_matrices(levels, sub.rank, nvars, field)
    resolution = FreeResolution(base_rank, matrices, nvars, field)
    if not resolution.verify():
        raise InternalError("resolution matrices do not compose to zero")
    return resolution


def _chain_matrices(levels: list[list[dict]], base_rank: int, nvars: int,
                    field: CoefficientField) -> tuple[int, list]:
    """The rank of F_0 and the ``Polynomial`` matrices of a chain given by
    the packed columns of each map, with its units pruned."""
    layout = _layout(nvars)
    dropped = [set() for _ in range(len(levels) + 1)]
    _prune(levels, dropped, layout, field)
    matrices = []
    nrows = base_rank
    for k, cols in enumerate(levels):
        kept = [r for r in range(nrows) if r not in dropped[k]]
        built = [_from_vec(col.items(), nrows, nvars, field)
                 for j, col in enumerate(cols) if j not in dropped[k + 1]]
        matrices.append([[col[r] for col in built] for r in kept])
        nrows = len(cols)
    while matrices and (not matrices[-1] or not matrices[-1][0]):
        matrices.pop()
    return (len(matrices[0]) if matrices else base_rank), matrices


def _prune(levels: list[list[dict]], dropped: list[set], layout: _Layout,
           field: CoefficientField):
    """Split off the trivial summands R -> R of a chain of packed columns.

    Matrix k is done in one pass: while it has a unit, the one in the
    smallest row and then the smallest column, at (i, j), clears its row
    by column operations, and row i and column j are dropped, with row j
    of the next matrix and column i of the previous one; exactness makes
    those zero, which is checked.  Row i is then zero but for the unit,
    so no row operation is needed.  ``dropped[k]`` collects the dropped
    basis elements of F_k; the rows of matrix k dropped with matrix k-1
    are struck from its columns before its pass.  A unit is a nonzero
    constant entry, not an entry with a constant term.
    """
    p, guard, shift = field.p, layout.guard, layout.comp_shift
    monos = (1 << shift) - 1
    for k, cols in enumerate(levels):
        rows_gone, gone = dropped[k], dropped[k + 1]
        if rows_gone:
            for col in cols:
                for e in [e for e in col if e >> shift in rows_gone]:
                    del col[e]
        # per column, the rows where it has a constant term
        consts = [{e >> shift for e in col if not e & monos} for col in cols]
        if not any(consts):
            continue
        prev = levels[k - 1] if k else None
        nxt = None
        if k + 1 < len(levels):
            # matrix k+1 by rows, each row packed with its column as component
            nxt = [{} for _ in cols]
            for c, col in enumerate(levels[k + 1]):
                for e, v in col.items():
                    nxt[e >> shift][(c << shift) + (e & monos)] = v
        while (spot := _first_unit(cols, consts, shift)) is not None:
            i, j = spot
            pivot = cols[j]
            inv = field.inv(pivot[i << shift])
            lo, hi = i << shift, (i + 1) << shift
            row = {}
            for j2, col in enumerate(cols):
                if j2 not in gone:
                    entry = [(e - lo, v) for e, v in col.items() if lo <= e < hi]
                    if entry:
                        row[j2] = entry
            for j2, entry in row.items():
                if j2 == j:
                    continue
                col = cols[j2]
                for u, v in entry:
                    _sub_scaled_packed(col, pivot, u, v * inv % p if p else v * inv,
                                       p, guard)
                # only the pivot's constant terms can change those of col
                for r in consts[j]:
                    if r << shift in col:
                        consts[j2].add(r)
                    else:
                        consts[j2].discard(r)
            if nxt is not None:
                acc: dict = {}
                for j2, entry in row.items():
                    for u, v in entry:
                        _sub_scaled_packed(acc, nxt[j2], u, v, p, guard)
                if acc:
                    raise InternalError("pruned row of the next matrix is not zero")
            if prev is not None:
                acc = {}
                for e, v in pivot.items():
                    _sub_scaled_packed(acc, prev[e >> shift], e & monos, v, p, guard)
                if acc:
                    raise InternalError("pruned column of the previous matrix is not zero")
            rows_gone.add(i)
            gone.add(j)
            consts[j] = set()


def _first_unit(cols: list[dict], consts: list[set], shift: int):
    """The unit entry of the smallest row, then column, or None."""
    for i, j in sorted((i, j) for j, rows in enumerate(consts) for i in rows):
        lo, hi = i << shift, (i + 1) << shift
        if sum(1 for e in cols[j] if lo <= e < hi) == 1:
            return i, j
    return None
