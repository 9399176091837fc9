"""Explicit bound formulas and recursions.

Closed forms for spaces of quadrics and cubics, the derivative-ideal
threshold built from a degree-(d-1) bound, and the descent recursion
over the well-ordered dimension sequences together with the matrix
bound it induces for projective dimension.

Base values exist only for degrees up to 3; asking for a higher degree
is an error by design rather than a fabricated constant.  The descent
recursion is finite but can be astronomically large, so it runs under a
node budget whose exhaustion is a hard error, never an approximation.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import ceil, comb
from typing import Callable, Mapping

from .budget import Budget, BudgetExceededError, Counter, DEFAULT_BUDGET
from .poly import DimensionSequence, monomials


@dataclass(frozen=True)
class BoundTable:
    """Pluggable base values eta_A(i) plus the threshold rule they induce.

    ``base`` maps a degree i to the single-form strength threshold; the
    per-space threshold for degree i at dimension sequence delta is
    base(i) + 3(n-1) with n the total dimension, unless ``eta_i_fn``
    overrides the rule entirely.
    """

    base: Mapping[int, int]
    eta: int = 1
    characteristic: int = 0
    eta_i_fn: Callable | None = None

    def __post_init__(self):
        object.__setattr__(self, "base", dict(self.base))
        if self.eta < 0:
            raise ValueError("eta must be nonnegative")
        if self.characteristic < 0:
            raise ValueError("characteristic must be nonnegative")
        last = None
        for d in sorted(self.base):
            v = self.base[d]
            if d < 1:
                raise ValueError("degrees start at 1")
            if v < 0:
                raise ValueError("base values must be nonnegative")
            if v < d - 1:
                raise ValueError(f"base value for degree {d} must be at least {d - 1}")
            if last is not None and v < last:
                raise ValueError("base values must be ascending in the degree")
            last = v

    @classmethod
    def default(cls, eta: int = 1, characteristic: int = 0) -> "BoundTable":
        """Base thresholds for degrees 1..3 from the closed forms.

        Linear forms never collapse, so their base is 0; the degree-2 and
        degree-3 values are the single-form thresholds of the quadric and
        cubic formulas at the given eta and characteristic.
        """
        if eta < 1:
            raise ValueError("the default table needs eta >= 1")
        cubic = cubic_eta_A(0, 0, 1, eta, characteristic)
        return cls(base={1: 0, 2: ceil(eta / 2), 3: cubic[2]},
                   eta=eta, characteristic=characteristic)


def eta_A_i(delta, i: int, table: BoundTable) -> int:
    """Strength threshold for the degree-i piece of a space with dimension
    sequence delta: base(i) + 3(n-1), n the total dimension."""
    delta = DimensionSequence(delta)
    n = delta.total
    if n < 1:
        raise ValueError("the space must be nonzero")
    if table.eta_i_fn is not None:
        return int(table.eta_i_fn(delta, i))
    if i not in table.base:
        raise ValueError(f"no base value for degree {i} in this table")
    return table.base[i] + 3 * (n - 1)


def quadric_thresholds(n: int, eta: int) -> tuple[int, int]:
    """Strength thresholds for an n-dimensional space of quadrics:
    (n-1) forces regular sequences, (n-1) + ceil(eta/2) forces R_eta."""
    if n < 1:
        raise ValueError("n must be positive")
    if eta < 1:
        raise ValueError("eta must be positive")
    return (n - 1, n - 1 + ceil(eta / 2))


def quadric_B(n: int) -> int:
    """Generator count bounding a subalgebra containing an n-dimensional
    space of quadrics: 2^(n+1) (n-2) + 4."""
    if n < 1:
        raise ValueError("n must be positive")
    return 2 ** (n + 1) * (n - 2) + 4


def cubic_eta_A(n1: int, n2: int, n3: int, eta: int,
                characteristic: int = 0) -> tuple[int, int, int]:
    """Degree-(1,2,3) thresholds for a space of dimension sequence
    (n1, n2, n3), with the characteristic-dependent cubic branch."""
    if min(n1, n2, n3) < 0:
        raise ValueError("entries must be nonnegative")
    if eta < 1:
        raise ValueError("eta must be positive")
    if characteristic < 0:
        raise ValueError("characteristic must be nonnegative")
    b = 2 * (n2 + n3) + eta + (1 if n2 != 0 else 0)
    if characteristic == 2:
        r = 2 * (2 * b + 1) * (b - 1)
    elif characteristic == 3:
        r = 2 * b * b - b
    else:
        r = (2 * b + 1) * (b - 1)
    return (0, ceil(b / 2) + n1, r + n1)


def _descent_children(d: tuple, table: BoundTable):
    """Every sequence reachable from d by one descent step: the degree-i
    entry drops by one and the lower entries gain 2 * threshold in total."""
    for i in range(2, len(d) + 1):
        if d[i - 1] == 0:
            continue
        t = eta_A_i(d, i, table)
        for extra in monomials(i - 1, 2 * t):
            child = list(d)
            child[i - 1] -= 1
            for j, amount in enumerate(extra):
                child[j] += amount
            while child and child[-1] == 0:
                child.pop()
            yield tuple(child)


def B_recursion(delta, table: BoundTable, budget: Budget | None = None) -> int:
    """Upper bound for the generator count reachable by descent from delta.

    Memoized over the well-order: the value at delta is the maximum of
    its total dimension and the values at every sequence reachable by
    one descent step, maximized over all distributions.  The walk is
    depth-first on an explicit stack, bounded by the node budget alone.
    Entries can grow geometrically along a descent chain, so a node
    costs one step plus one per 64 bits of its entries: the budget then
    bounds the memory of the stack as well as the node count.
    """
    budget = budget or DEFAULT_BUDGET
    counter = Counter("bound recursion nodes", budget.max_steps)
    memo: dict[tuple, int] = {}

    def enter(d: tuple) -> list:
        counter.tick(1 + sum(x.bit_length() for x in d) // 64)
        return [d, _descent_children(d, table), sum(d)]

    root = tuple(DimensionSequence(delta))
    stack = [enter(root)]  # frames: [node, its unvisited children, best so far]
    while stack:
        frame = stack[-1]
        for child in frame[1]:
            if child in memo:
                frame[2] = max(frame[2], memo[child])
            else:
                stack.append(enter(child))
                break
        else:
            stack.pop()
            memo[frame[0]] = frame[2]
            if stack:
                stack[-1][2] = max(stack[-1][2], frame[2])
    return memo[root]


def stillman_C(m: int, n: int, d: int, table: BoundTable,
               budget: Budget | None = None) -> int:
    """Projective-dimension bound for cokernels of m x n matrices with
    entries of degree at most d: the maximum of the descent bound over
    all dimension sequences of length at most d with entry sum m*n*d."""
    if min(m, n, d) < 1:
        raise ValueError("m, n, d must be positive")
    budget = budget or DEFAULT_BUDGET
    total = m * n * d
    if comb(total + d - 1, d - 1) > budget.max_steps:
        raise BudgetExceededError("dimension sequence enumeration", budget.max_steps)
    best = 0
    for delta in monomials(d, total):
        best = max(best, B_recursion(delta, table, budget))
    return best


def default_cubic_B3(h: int, budget: Budget | None = None) -> int:
    """A stand-in for the degree-2 bound at eta = 3, built by composing the
    quadric thresholds with the descent recursion.

    This is a labeled composition default, not a printed constant: the
    closed quadric generator-count formula covers the regular-sequence
    flavor only.
    """
    if h < 0:
        raise ValueError("h must be nonnegative")
    if h == 0:
        return 0
    table = BoundTable(base={1: 0, 2: 2},
                       eta=3,
                       eta_i_fn=lambda delta, i:
                       quadric_thresholds(max(delta.total, 1), 3)[1]
                       if i == 2 else 0)
    best = 0
    for d1 in range(h + 1):
        for d2 in range(h + 1 - d1):
            if d1 + d2 == 0:
                continue
            best = max(best, B_recursion((d1, d2), table, budget))
    return best


def phi(h: int, d: int, characteristic: int | None = None,
        budget: Budget | None = None) -> int:
    """Threshold past which the derivative space of a degree-d form cannot
    lie in an ideal generated by h forms of degree at most d-1.

    When the characteristic is known not to divide d the Euler identity
    gives h directly.  Otherwise the value is B3(h, d-1) + 1 for a
    degree-(d-1) bound B3, which is known for d = 3 only: the
    composition default :func:`default_cubic_B3`.
    """
    if h < 0 or d < 1:
        raise ValueError("need h >= 0 and d >= 1")
    if characteristic is not None and characteristic < 0:
        raise ValueError("characteristic must be nonnegative")
    if characteristic is not None and (characteristic == 0 or d % characteristic):
        return h
    if h == 0:
        return 1
    if d != 3:
        raise ValueError(f"no degree-{d - 1} bound is known: phi needs d = 3 or a "
                         "characteristic that does not divide d")
    return default_cubic_B3(h, budget) + 1
