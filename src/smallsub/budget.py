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

    max_pairs: S-pairs processed per Groebner run.
    max_degree: lcm degree ceiling during a Groebner run (None = no cap).
    max_candidates: tuples tested per collapse enumeration.
    max_steps: descent steps / recursion nodes / saturation rounds.
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
