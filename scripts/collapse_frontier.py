"""Time exact strength on the collapse search's frontier forms.

Runs ``strength_exact`` with no practical candidate budget on five seeded
random forms, each ``polytext.random_form(random.Random(seed), n, d, p)``
from the benchmark's own arithmetic: cubics in 7 variables over F2 (seeds
0 and 1), a cubic in 6 variables over F3, a quadric in 6 variables over
F3 and a cubic in 6 variables over F2.  These searches decide tens of
thousands of tuples each, far more than the benchmark's collapse pool,
so they show the cost of the walk itself.  For each form it prints the
wall time, the exact strength, the witness size and the witness's first
factors, one line each; it exits 1 when an exact strength differs from
the recorded one.

    PYTHONPATH=src python3 scripts/collapse_frontier.py
"""

from __future__ import annotations

import random
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))

import polytext  # noqa: E402

from smallsub.budget import Budget  # noqa: E402
from smallsub.fields import GF  # noqa: E402
from smallsub.grammar import format_polynomial, parse_polynomial  # noqa: E402
from smallsub.poly import Form  # noqa: E402
from smallsub.strength import strength_exact  # noqa: E402

#: (p, variables, degree, seed, recorded exact strength)
CASES = [
    (2, 7, 3, 0, 3),
    (2, 7, 3, 1, 3),
    (3, 6, 3, 0, 3),
    (3, 6, 2, 0, 2),
    (2, 6, 3, 2, 2),
]

#: far more tuples than any case enumerates
UNLIMITED = Budget(max_candidates=10**18)


def main() -> int:
    wrong = 0
    for p, n, d, seed, recorded in CASES:
        text = polytext.format_text(polytext.random_form(random.Random(seed), n, d, p))
        form = Form(parse_polynomial(text, GF(p), n))
        began = time.perf_counter()
        report = strength_exact(form, UNLIMITED)
        seconds = time.perf_counter() - began
        firsts = [format_polynomial(g) for g, _ in report.witness.pairs] if report.witness else []
        print(f"p={p} n={n} d={d} seed={seed}: {seconds:.2f} s, strength {report.exact}, "
              f"witness k={len(firsts)}: {'; '.join(firsts)}")
        if report.exact != recorded:
            print(f"  expected strength {recorded}")
            wrong += 1
    return 1 if wrong else 0


if __name__ == "__main__":
    sys.exit(main())
