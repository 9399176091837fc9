"""Computation budgets and the distinguished failure outcomes.

Every potentially long-running computation takes an explicit budget.
Exceeding it raises :class:`BudgetExceededError`, a distinguished
outcome that is never silently converted into a wrong answer.  A broken
internal invariant raises :class:`InternalError`.
"""

from __future__ import annotations

from dataclasses import dataclass


class BudgetExceededError(RuntimeError):
    """A configured cap (pairs, degree, candidates, steps) was hit."""

    def __init__(self, what: str, limit: int):
        super().__init__(f"budget exceeded: {what} limit {limit}")
        self.what = what
        self.limit = limit


class InternalError(RuntimeError):
    """An internal invariant failed: a bug, never a property of the input."""


@dataclass(frozen=True)
class Budget:
    """Caps for the engines.

    max_pairs: S-pairs reduced per Groebner run; a pair that the
        syzygy or the rewrite criterion drops costs nothing, and neither
        does the reduction of an input.  Each Schreyer step of a free
        resolution counts its pair reductions against the same cap.
    max_degree: lcm degree ceiling during a Groebner run (None = no cap).
    max_candidates: generator tuples enumerated per collapse search;
        for a form of degree d these are the tuples of forms of degree
        at most floor(d/2), the only generators a collapse needs.  A
        tuple the search skips, because an earlier tuple has the same
        spans, still counts.
    max_steps: descent steps / recursion nodes / search nodes of one
        height (``Ideal.height``, ``height_at_least``, ``dimension``) /
        minors of one minors table: each minor of size >= 2 that
        ``minors_ideal`` or ``determinant`` builds, the smaller ones it
        expands over included, and each 1 x 1 minor ``minors_ideal``
        returns.  Each coordinate section ``height_at_least`` tries is
        a height of its own, with its own node count and Groebner run
        under ``max_pairs``.
    """

    max_pairs: int = 200_000
    max_degree: int | None = None
    max_candidates: int = 20_000
    max_steps: int = 100_000

    def __post_init__(self):
        for name in ("max_pairs", "max_candidates", "max_steps"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")
        if self.max_degree is not None and self.max_degree <= 0:
            raise ValueError("max_degree must be positive")


DEFAULT_BUDGET = Budget()


class Counter:
    """A mutable tally checked against one budget cap."""

    __slots__ = ("what", "limit", "used")

    def __init__(self, what: str, limit: int):
        self.what = what
        self.limit = limit
        self.used = 0

    def tick(self, amount: int = 1):
        self.used += amount
        if self.used > self.limit:
            raise BudgetExceededError(self.what, self.limit)
