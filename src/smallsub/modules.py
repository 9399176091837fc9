"""Submodules of free modules: syzygies, kernels, finite free resolutions.

Kernels are computed by the tag-component embedding: to find the
syzygies of vectors v_1..v_n in R^m, run a Groebner basis of the
vectors (v_i + e_{m+i}) in R^(m+n) under a position-over-term order;
basis elements supported entirely in the tag block project onto
generators of the syzygy module.

Resolutions iterate Schreyer's construction: the reductions of the
S-pairs of a Groebner basis G yield syzygies that are already a
Groebner basis for the order induced by the leading terms of G, so
each further step is a plain S-pair reduction pass.  Graded input
yields a minimal graded resolution after unit entries are pruned.
"""

from __future__ import annotations

from operator import mul, sub
from typing import Callable, Iterable, Sequence

from .budget import Budget, BudgetExceededError, DEFAULT_BUDGET, InternalError
from .fields import CoefficientField
from .groebner import (GREVLEX, MAX_EXPONENT, TermOrder, VecDict, autoreduce,
                       buchberger, normal_form_vec, pot_key, _Divisors, _prep, _s_pair)
from .poly import Monomial, Polynomial

Vector = tuple[Polynomial, ...]


class SubmoduleOfFree:
    """A finitely generated submodule of R^rank, given by generator vectors."""

    __slots__ = ("rank", "generators", "nvars", "field")

    def __init__(self, rank: int, generators: Iterable[Sequence[Polynomial]],
                 nvars: int | None = None, field: CoefficientField | None = None):
        if rank < 1:
            raise ValueError("ambient rank must be positive")
        gens: list[Vector] = []
        for vec in generators:
            vec = tuple(v.poly if hasattr(v, "poly") else v for v in vec)
            if len(vec) != rank:
                raise ValueError(f"vector has {len(vec)} entries, ambient rank is {rank}")
            if any(not v.is_zero() for v in vec):
                gens.append(vec)
        for vec in gens:
            for v in vec:
                if nvars is None:
                    nvars, field = v.nvars, v.field
                elif (v.nvars, v.field) != (nvars, field):
                    raise ValueError("entries live in different ambient rings")
        if nvars is None:
            raise ValueError("the zero submodule needs an explicit ambient ring")
        object.__setattr__(self, "rank", rank)
        object.__setattr__(self, "generators", tuple(gens))
        object.__setattr__(self, "nvars", nvars)
        object.__setattr__(self, "field", field)

    def __setattr__(self, name, value):
        raise AttributeError("SubmoduleOfFree is immutable")

    @classmethod
    def from_ideal_generators(cls, gens: Sequence[Polynomial]) -> "SubmoduleOfFree":
        gens = [g.poly if hasattr(g, "poly") else g for g in gens]
        if not gens:
            raise ValueError("need at least one generator")
        return cls(1, [(g,) for g in gens], gens[0].nvars, gens[0].field)

    def is_zero(self) -> bool:
        return not self.generators

    def __repr__(self):
        return f"SubmoduleOfFree(rank={self.rank}, ngens={len(self.generators)})"


# ----- conversions -----


def _vec_to_dict(vec: Sequence[Polynomial]) -> VecDict:
    out: VecDict = {}
    for comp, poly in enumerate(vec):
        for m, c in poly.terms.items():
            out[(comp, m)] = c
    return out


def _dict_to_vec(d: VecDict, rank: int, nvars: int, field: CoefficientField) -> Vector:
    per: list[dict] = [{} for _ in range(rank)]
    for (comp, m), c in d.items():
        per[comp][m] = c
    return tuple(Polynomial(nvars, field, t) for t in per)


def module_groebner_basis(sub: SubmoduleOfFree, order: TermOrder = GREVLEX,
                          budget: Budget | None = None) -> list[Vector]:
    """Reduced Groebner basis of a submodule under position-over-term."""
    if sub.is_zero():
        return []
    keyf = pot_key(order)
    basis = buchberger([_vec_to_dict(v) for v in sub.generators], keyf,
                       sub.field, budget=budget, rank1=(sub.rank == 1))
    reduced = autoreduce(basis, keyf, sub.field)
    return [_dict_to_vec(v, sub.rank, sub.nvars, sub.field) for v in reduced]


def submodule_contains(sub: SubmoduleOfFree, vec: Sequence[Polynomial],
                       order: TermOrder = GREVLEX,
                       budget: Budget | None = None) -> bool:
    vec = tuple(v.poly if hasattr(v, "poly") else v for v in vec)
    if all(v.is_zero() for v in vec):
        return True
    if sub.is_zero():
        return False
    keyf = pot_key(order)
    gb = buchberger([_vec_to_dict(v) for v in sub.generators], keyf,
                    sub.field, budget=budget, rank1=(sub.rank == 1))
    prepped = [_prep(g, keyf) for g in gb]
    rem = normal_form_vec(_vec_to_dict(vec), prepped, keyf, sub.field.p)
    return not rem


def submodule_equals(a: SubmoduleOfFree, b: SubmoduleOfFree,
                     budget: Budget | None = None) -> bool:
    if a.rank != b.rank:
        raise ValueError("submodules of free modules of different ranks")
    return (all(submodule_contains(a, v, budget=budget) for v in b.generators)
            and all(submodule_contains(b, v, budget=budget) for v in a.generators))


# ----- syzygies and kernels -----


def syzygies(vectors: Sequence[Sequence[Polynomial]], rank: int,
             nvars: int, field: CoefficientField,
             order: TermOrder = GREVLEX,
             budget: Budget | None = None) -> list[Vector]:
    """Generators of the syzygy module of the given vectors in R^rank."""
    vectors = [tuple(v.poly if hasattr(v, "poly") else v for v in vec)
               for vec in vectors]
    n = len(vectors)
    if n == 0:
        return []
    keyf = pot_key(order)
    one = field.one
    embedded = []
    for i, vec in enumerate(vectors):
        d = _vec_to_dict(vec)
        d[(rank + i, (0,) * nvars)] = one
        embedded.append(d)
    gb = buchberger(embedded, keyf, field, budget=budget, rank1=False)
    out: list[Vector] = []
    for g in gb:
        if all(comp >= rank for (comp, _m) in g):
            shifted = {(comp - rank, m): c for (comp, m), c in g.items()}
            out.append(_dict_to_vec(shifted, n, nvars, field))
    return out


def kernel_of_map(matrix: Sequence[Sequence[Polynomial]],
                  target: SubmoduleOfFree,
                  order: TermOrder = GREVLEX,
                  budget: Budget | None = None) -> SubmoduleOfFree:
    """Kernel of R^r -> R^m -> R^m / target, where the m x r matrix gives
    the first map by columns."""
    m = len(matrix)
    if m != target.rank:
        raise ValueError("matrix row count must equal the ambient rank of the target")
    r = len(matrix[0]) if m else 0
    if r < 1:
        raise ValueError("the matrix needs at least one column")
    if any(len(row) != r for row in matrix):
        raise ValueError("ragged matrix")
    nvars, field = target.nvars, target.field
    columns = [tuple(matrix[i][j] for i in range(m)) for j in range(r)]
    stacked = columns + [tuple(v) for v in target.generators]
    syz = syzygies(stacked, m, nvars, field, order, budget)
    kernel_gens = []
    for vec in syz:
        head = vec[:r]
        if any(not v.is_zero() for v in head):
            kernel_gens.append(head)
    return SubmoduleOfFree(r, kernel_gens, nvars, field)


def koszul_relations(forms: Sequence[Polynomial]) -> SubmoduleOfFree:
    """The Koszul syzygies F_j e_i - F_i e_j of a list of ring elements."""
    polys = [f.poly if hasattr(f, "poly") else f for f in forms]
    if not polys:
        raise ValueError("need at least one form")
    nvars, field = polys[0].nvars, polys[0].field
    c = len(polys)
    zero = Polynomial.zero(nvars, field)
    gens = []
    for i in range(c):
        for j in range(i + 1, c):
            vec = [zero] * c
            vec[i] = polys[j]
            vec[j] = -polys[i]
            gens.append(tuple(vec))
    return SubmoduleOfFree(c, gens, nvars, field)


# ----- free resolutions -----


class FreeResolution:
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

    def __setattr__(self, name, value):
        raise AttributeError("FreeResolution is immutable")

    @property
    def length(self) -> int:
        return len(self.matrices)

    @property
    def ranks(self) -> list[int]:
        """Ranks of F_1, ..., F_L."""
        out = []
        for k, mat in enumerate(self.matrices):
            ncols = len(mat[0]) if mat else 0
            out.append(ncols)
        return out

    def verify(self) -> bool:
        """Consecutive matrices compose to the zero matrix."""
        zero = Polynomial.zero(self.nvars, self.field)
        for a, b in zip(self.matrices, self.matrices[1:]):
            rows, mid = len(a), len(b)
            cols = len(b[0]) if b else 0
            if mid != (len(a[0]) if a else 0):
                return False
            for i in range(rows):
                for j in range(cols):
                    acc = zero
                    for t in range(mid):
                        acc = acc + a[i][t] * b[t][j]
                    if not acc.is_zero():
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


def _schreyer_syzygies(gb: list[VecDict], keyf, field: CoefficientField) -> list[VecDict]:
    """Syzygies of a monic Groebner basis from its S-pair reductions."""
    p = field.p
    prepped = _Divisors(_prep(g, keyf) for g in gb)
    sigmas: list[VecDict] = []
    one = field.one
    for i in range(len(gb)):
        ic, im = prepped[i][2]
        for j in range(i + 1, len(gb)):
            jc, jm = prepped[j][2]
            if ic != jc:
                continue
            lcm = (ic, tuple(map(max, im, jm)))
            spair = _s_pair(prepped[i], prepped[j], lcm, keyf(lcm), p)
            rem, records = normal_form_vec(spair, prepped, keyf, p, track=True)
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


def _schreyer_sort(gb: list[VecDict], keyf) -> list[VecDict]:
    """Order a basis by descending lex leading monomial (Schreyer's sort,
    which bounds the iterated construction by the variable count)."""
    return sorted(gb, key=lambda g: (max(g, key=keyf)[1],
                                     -max(g, key=keyf)[0]), reverse=True)


def free_resolution(sub: SubmoduleOfFree, order: TermOrder = GREVLEX,
                    budget: Budget | None = None,
                    minimize: bool = True) -> FreeResolution:
    """Finite free resolution of a submodule by iterated Schreyer steps.

    With ``minimize`` (default) unit entries are pruned; for graded input
    the result is the minimal graded resolution.
    """
    budget = budget or DEFAULT_BUDGET
    nvars, field = sub.nvars, sub.field
    if sub.is_zero():
        return FreeResolution(sub.rank, [], nvars, field)
    keyf = pot_key(order)
    gb = buchberger([_vec_to_dict(v) for v in sub.generators], keyf,
                    sub.field, budget=budget, rank1=(sub.rank == 1))
    gb = _schreyer_sort(autoreduce(gb, keyf, field), keyf)
    matrices: list = []
    current_rank = sub.rank
    while gb:
        cols = [_dict_to_vec(g, current_rank, nvars, field) for g in gb]
        matrices.append([[cols[j][i] for j in range(len(cols))]
                         for i in range(current_rank)])
        if len(matrices) > nvars + 2:
            raise BudgetExceededError("resolution length", nvars + 2)
        sigmas = _schreyer_syzygies(gb, keyf, field)
        if not sigmas:
            break
        keyf = _schreyer_key([max(g, key=keyf) for g in gb], keyf)
        sigmas = _schreyer_sort(autoreduce(sigmas, keyf, field), keyf)
        current_rank = len(gb)
        gb = sigmas
    base_rank = sub.rank
    if minimize:
        matrices = _prune_units(matrices, nvars, field)
        if matrices:
            base_rank = len(matrices[0])
    resolution = FreeResolution(base_rank, matrices, nvars, field)
    if not resolution.verify():
        raise InternalError("resolution matrices do not compose to zero")
    return resolution


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


def projective_dimension(sub: SubmoduleOfFree, order: TermOrder = GREVLEX,
                         budget: Budget | None = None) -> int:
    """Length of the minimal resolution of R^rank / sub (graded input)."""
    return free_resolution(sub, order, budget, minimize=True).length
