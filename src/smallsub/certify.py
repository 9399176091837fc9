"""Regular-sequence and Serre R_eta certificates via Jacobian heights.

A sequence of forms of positive degree is regular exactly when the
ideal it generates has height equal to its length.  For a regular
sequence of c forms, the singular locus of the complete intersection is
cut out by the forms together with the c x c minors of their Jacobian
matrix; its codimension inside the quotient is the measured height
minus c.  R_eta holds when that codimension is at least eta + 1.

Heights are stable under field extension, so certificates computed over
F_p are valid over the algebraic closure.  In small characteristic the
Jacobian criterion may overstate the singular locus (inseparability),
making a PASS verdict the reliable side; reports carry that caveat.

The distinct-degree minors check is the randomized harness for the
height inequality on matrices whose rows are forms of mutually distinct
degrees: with h rows, each spanning a row ideal of height at least b,
the maximal minors generate an ideal of height at least b - h + 1.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from math import inf
from typing import Sequence

from .budget import Budget, Counter, DEFAULT_BUDGET
from .groebner import Ideal, exact_divide
from .poly import Form, Polynomial, as_form, jacobian


@dataclass(frozen=True)
class RetaCertificate:
    """Verdict and audit trail for one R_eta check."""

    forms: tuple[Form, ...]
    eta: int
    codim_singular: int
    verdict: bool
    heights: dict
    smooth: bool = False
    note: str = ""

    def __post_init__(self):
        if self.verdict != (self.codim_singular >= self.eta + 1):
            raise ValueError("verdict must equal codim_singular >= eta + 1")


def _ideal_of(forms: Sequence[Form], extra: Sequence[Polynomial] = ()) -> Ideal:
    return Ideal([*forms, *extra], forms[0].nvars, forms[0].field)


def is_regular_sequence(forms: Sequence[Polynomial],
                        budget: Budget | None = None) -> bool:
    """Height criterion: homogeneous forms of positive degree are a regular
    sequence iff their ideal has height equal to their number."""
    forms = [as_form(f) for f in forms]
    if not forms:
        raise ValueError("need at least one form")
    return _ideal_of(forms).height_at_least(len(forms), budget)


def determinant(matrix: Sequence[Sequence[Polynomial]]) -> Polynomial:
    """Exact determinant: expansion along the first row up to 3 x 3, and
    fraction-free (Bareiss) elimination above.

    Bareiss step k replaces each entry below and right of the pivot by
    (a_kk * a_ij - a_ik * a_kj) / a_{k-1,k-1}, a division that is exact
    (Bareiss, "Sylvester's identity and multistep integer-preserving
    Gaussian elimination", Math. Comp. 1968), so the work is cubic in n.
    A zero pivot swaps in a later row with a nonzero entry, or the
    determinant is zero.  On small matrices of forms the expansion is
    cheaper: it multiplies each entry once and divides nothing.
    """
    n = len(matrix)
    if any(len(row) != n for row in matrix):
        raise ValueError("determinant needs a square matrix")
    if n == 0:
        raise ValueError("empty matrix")
    if n <= 3:
        return _expand(matrix)
    rows = [list(row) for row in matrix]
    negate = False
    previous = None  # the previous pivot; 1 before the first step
    for k in range(n - 1):
        if rows[k][k].is_zero():
            swap = next((r for r in range(k + 1, n) if not rows[r][k].is_zero()), None)
            if swap is None:
                return Polynomial.zero(rows[0][0].nvars, rows[0][0].field)
            rows[k], rows[swap] = rows[swap], rows[k]
            negate = not negate
        pivot = rows[k][k]
        for i in range(k + 1, n):
            row, head = rows[i], rows[i][k]
            for j in range(k + 1, n):
                entry = pivot * row[j] - head * rows[k][j]
                row[j] = entry if previous is None else exact_divide(entry, previous)
        previous = pivot
    det = rows[n - 1][n - 1]
    return -det if negate else det


def _expand(matrix: Sequence[Sequence[Polynomial]]) -> Polynomial:
    """Determinant by expansion along the first row."""
    if len(matrix) == 1:
        return matrix[0][0]
    total = None
    for j, entry in enumerate(matrix[0]):
        if entry.is_zero():
            continue
        term = (-entry if j % 2 else entry) * _expand([row[:j] + row[j + 1:]
                                                      for row in matrix[1:]])
        total = term if total is None else total + term
    return matrix[0][0] if total is None else total  # None: a zero first row


def minors_ideal(matrix: Sequence[Sequence[Polynomial]], size: int,
                 budget: Budget | None = None) -> Ideal:
    """Ideal generated by all size x size minors; each determinant costs
    one step of ``budget.max_steps``."""
    rows, cols = len(matrix), len(matrix[0]) if matrix else 0
    if not 1 <= size <= min(rows, cols):
        raise ValueError(f"minor size {size} out of range for {rows}x{cols}")
    sample = matrix[0][0]
    determinants = Counter("minors", (budget or DEFAULT_BUDGET).max_steps)
    gens = []
    for rsel in combinations(range(rows), size):
        for csel in combinations(range(cols), size):
            determinants.tick()
            sub = [[matrix[r][c] for c in csel] for r in rsel]
            gens.append(determinant(sub))
    return Ideal(gens, sample.nvars, sample.field)


def check_reta(forms: Sequence[Polynomial], eta: int,
               budget: Budget | None = None) -> RetaCertificate:
    """Certify Serre's R_eta for the quotient by a regular sequence.

    Checks that the c forms are a regular sequence, then measures the
    height of the ideal of the forms plus the size-c Jacobian minors and
    subtracts c.  A unit minors ideal means a smooth quotient; the
    codimension is then capped at the quotient dimension N - c.
    """
    if eta < 0:
        raise ValueError("eta must be nonnegative")
    forms = tuple(as_form(f) for f in forms)
    if not is_regular_sequence(forms, budget):
        raise ValueError("forms are not a regular sequence")
    c = len(forms)
    minors = minors_ideal(jacobian(forms), c, budget)
    h = _ideal_of(forms, minors.generators).height(budget)
    smooth = h == inf
    codim = (forms[0].nvars - c) if smooth else (h - c)
    p = forms[0].field.characteristic
    note = ("height certificates are extension-stable; in characteristic "
            f"{p} the Jacobian locus may overstate singularity, so PASS "
            "is the reliable side") if p else ""
    return RetaCertificate(
        forms=forms, eta=eta, codim_singular=codim,
        verdict=codim >= eta + 1,
        heights={"forms": c, "forms_plus_minors": h},
        smooth=smooth, note=note)


def singular_locus_codim(forms: Sequence[Polynomial],
                         budget: Budget | None = None) -> int:
    """Codimension of the singular locus inside the complete intersection
    of a regular sequence (see :func:`check_reta`)."""
    return check_reta(forms, 0, budget).codim_singular


def minors_height_check(matrix: Sequence[Sequence[Polynomial]],
                        budget: Budget | None = None) -> bool:
    """Check height(maximal minors) >= b - h + 1 for distinct-degree rows.

    Row i must be homogeneous of one degree d_i, all d_i mutually
    distinct (a scalar row counts as degree 0 and must be nonzero, its
    row ideal height reading +infinity); b is the minimum row-ideal
    height.  The inequality is a theorem, so this harness returns True
    on every valid input unless the implementation is wrong.
    """
    rows = len(matrix)
    if rows == 0:
        raise ValueError("empty matrix")
    if not matrix[0] or any(len(row) != len(matrix[0]) for row in matrix):
        raise ValueError("matrix rows must be non-empty and of one length")
    sample = matrix[0][0]
    degrees = []
    for row in matrix:
        degs = {e.total_degree() for e in row if not e.is_zero()}
        if len(degs) > 1:
            raise ValueError("row entries must share one degree")
        if any(not e.is_homogeneous() for e in row):
            raise ValueError("row entries must be homogeneous")
        degrees.append(degs.pop() if degs else 0)
    if len(set(degrees)) != rows:
        raise ValueError("row degrees must be mutually distinct")
    b: int | float = inf
    for row in matrix:
        gens = [e for e in row if not e.is_zero()]
        if not gens:
            b = min(b, 0)
            continue
        row_ideal = Ideal(gens, sample.nvars, sample.field)
        b = min(b, row_ideal.height(budget))
    size = min(rows, len(matrix[0]))
    return minors_ideal(matrix, size, budget).height_at_least(b - rows + 1, budget)
