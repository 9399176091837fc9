"""Regular-sequence and Serre R_eta certificates via Jacobian heights.

A sequence of forms of positive degree is regular exactly when the
ideal it generates has height equal to its length.  For a regular
sequence of c forms, the singular locus of the complete intersection is
cut out by the forms together with the c x c minors of their Jacobian
matrix; its codimension inside the quotient is the measured height
minus c.  R_eta holds when that codimension is at least eta + 1.  When
the minors generate the unit ideal the singular locus is empty, which
for forms of positive degree happens only when every form is linear:
the quotient is then a polynomial ring, its codimension reads +infinity
and R_eta holds for every eta.

Heights are stable under field extension, so certificates computed over
F_p are valid over the algebraic closure.  In small characteristic the
Jacobian criterion may overstate the singular locus (inseparability),
making a PASS verdict the reliable side; reports carry that caveat.

Minors, determinants included, come from one table per call, which
shares each smaller minor among the larger ones, divides no polynomial
and charges every minor it builds to ``Budget.max_steps`` (see
:func:`minors_ideal`).

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
from .groebner import Ideal
from .poly import Form, Polynomial, as_form, jacobian


@dataclass(frozen=True)
class RetaCertificate:
    """Verdict and audit trail for one R_eta check."""

    forms: tuple[Form, ...]
    eta: int
    codim_singular: int | float
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
    """Exact determinant of a square matrix: the n x n entry of the
    minors table (see :func:`minors_ideal`), about n * 2^(n-1) products
    and no division.  Each table entry of size >= 2 costs one step of
    the default budget's ``max_steps``.
    """
    n = len(matrix)
    if any(len(row) != n for row in matrix):
        raise ValueError("determinant needs a square matrix")
    if n == 0:
        raise ValueError("empty matrix")
    every = tuple(range(n))
    return _minor(matrix, every, every, {}, Counter("minors", DEFAULT_BUDGET.max_steps))


def _minor(matrix: Sequence[Sequence[Polynomial]], rows: tuple, cols: tuple,
           table: dict, steps: Counter) -> Polynomial:
    """The minor on ascending row and column tuples of one length, from
    the ``table`` :func:`minors_ideal` describes; ``steps`` ticks as each
    entry is built.  A 1 x 1 minor is the matrix entry and takes no
    slot, and a zero entry of the expanded row builds no cofactor."""
    if len(rows) == 1:
        return matrix[rows[0]][cols[0]]
    det = table.get((rows, cols))
    if det is None:
        steps.tick()
        above, last, k = rows[:-1], matrix[rows[-1]], len(rows)
        for j, c in enumerate(cols):
            entry = last[c]
            if entry.is_zero():
                continue
            cofactor = _minor(matrix, above, cols[:j] + cols[j + 1:], table, steps)
            # position (k - 1, j) has the sign (-1)^(k - 1 + j)
            term = (-entry if (k - 1 + j) % 2 else entry) * cofactor
            det = term if det is None else det + term
        if det is None:  # the expanded row is zero on cols
            det = last[cols[0]]
        table[rows, cols] = det
    return det


def minors_ideal(matrix: Sequence[Sequence[Polynomial]], size: int,
                 budget: Budget | None = None) -> Ideal:
    """Ideal generated by all size x size minors, listed by row tuple,
    then column tuple, each in lexicographic order.

    The minors come from one table built for this call: a k x k minor is
    the expansion along its last row, over the (k-1) x (k-1) minors on
    its other rows, which every minor sharing those rows reuses (one
    n x n determinant takes about n * 2^(n-1) products), and no
    polynomial is divided.  Each table entry of size >= 2 costs one step
    of ``budget.max_steps`` when it is built, and so does each 1 x 1
    minor returned: the sizes 1 and 2 cost one step a minor.
    """
    rows, cols = len(matrix), len(matrix[0]) if matrix else 0
    if any(len(row) != cols for row in matrix):
        raise ValueError("matrix rows must be of one length")
    if not 1 <= size <= min(rows, cols):
        raise ValueError(f"minor size {size} out of range for {rows}x{cols}")
    sample = matrix[0][0]
    steps = Counter("minors", (budget or DEFAULT_BUDGET).max_steps)
    if size == 1:
        steps.tick(rows * cols)
    table: dict = {}
    gens = [_minor(matrix, rsel, csel, table, steps)
            for rsel in combinations(range(rows), size)
            for csel in combinations(range(cols), size)]
    return Ideal(gens, sample.nvars, sample.field)


def check_reta(forms: Sequence[Polynomial], eta: int,
               budget: Budget | None = None) -> RetaCertificate:
    """Certify Serre's R_eta for the quotient by a regular sequence.

    Checks that the c forms are a regular sequence, then measures the
    height of the ideal of the forms plus the size-c Jacobian minors and
    subtracts c.  A unit minors ideal means an empty singular locus, of
    codimension ``inf``, so every eta passes; it happens only when every
    form is linear, as a c x c minor has degree sum(d_i - 1).  When some
    form has degree at least 2, its partials all vanish at the origin, so
    the vertex is singular and the codimension is at most N - c.
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
    codim = inf if smooth else h - c
    p = forms[0].field.characteristic
    note = ("height certificates are extension-stable; in characteristic "
            f"{p} the Jacobian locus may overstate singularity, so PASS "
            "is the reliable side") if p else ""
    return RetaCertificate(
        forms=forms, eta=eta, codim_singular=codim,
        verdict=codim >= eta + 1,
        heights={"forms": c, "forms_plus_minors": h},
        smooth=smooth, note=note)


def minors_height_check(matrix: Sequence[Sequence[Polynomial]],
                        budget: Budget | None = None) -> bool:
    """Check height(maximal minors) >= b - h + 1 for distinct-degree rows.

    Row i must be homogeneous of one degree d_i, all d_i mutually
    distinct (a scalar row counts as degree 0 and must be nonzero, its
    row ideal height reading +infinity); b is the minimum row-ideal
    height.  The inequality is a theorem, so this harness returns True
    on every valid input unless the implementation is wrong.

    Row heights are taken by ascending degree, and the minors are
    checked against b_j - h + 1 each time the least row height so far
    b_j drops: since b <= b_j, a check that holds decides, and the rows
    of higher degree are never measured.  Only when every check fails
    is each row height computed, the last check being the one at b.
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
    minors = minors_ideal(matrix, min(rows, len(matrix[0])), budget)
    b: int | float | None = None
    for i in sorted(range(rows), key=degrees.__getitem__):
        gens = [e for e in matrix[i] if not e.is_zero()]
        height = Ideal(gens, sample.nvars, sample.field).height(budget) if gens else 0
        if b is not None and height >= b:
            continue
        b = height
        if minors.height_at_least(b - rows + 1, budget):
            return True
    return False
