"""Print CLI reports that run on the Groebner engine, one JSON line each.

Runs ``gb --verbose`` on the five ideals of the benchmark's engine
workload (its stderr holds the ``trace:`` line with the pair counts),
``pdim`` on the resolution items of the certify pool, ``certify`` on its
R_eta items, ``sat``, ``colon``, ``intersect``, ``leading-ideal`` and
lex ``gb``/``pdim`` on fixed small inputs, and ``sat`` and
``leading-ideal`` on edge cases: a constant saturating polynomial, a
saturation that is the unit ideal, generators that contain a constant,
and further inputs over Q.  It also runs ``pdim`` on ideals whose
Schreyer frames are far from minimal, so that the unit pruning does
real work: 4 dense quadrics in 5 variables over F_32003 and over Q
(frame ranks 12, 27, 22, 6 against 4, 6, 4, 1), and an inhomogeneous
ideal over F2.  Each line holds the argv, the
exit code, the report text and stderr.  Run it in two checkouts and
compare the outputs to show that a change leaves every report
byte-identical:

    PYTHONPATH=src python3 scripts/engine_reports.py > reports.jsonl
"""

from __future__ import annotations

import json
import random
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))

import workloads  # noqa: E402

import smallsub  # noqa: E402
import smallsub.cli  # noqa: E402

#: (field, generators, second argument) of the ideal-calculus reports.
SMALL_IDEALS = [
    ("p=5", "x1*x2; x1*x3", "x1"),
    ("p=7", "x1^2 - x2*x3; x2^2 - x1*x3; x3^2 - x1*x2", "x1 + x2"),
    ("Q", "x1^2*x2 - x3^2; x1*x3 - x2^2", "x3"),
    ("p=32003", "x1*x2 - x3*x4; x1*x3 - x2*x4; x1*x4 - x2*x3", "x4"),
    ("p=2", "x1^3 + x2*x3; x2^3 + x1*x4; x3^2 + x4^2", "x1*x2"),
]

#: Reports on the edge cases of saturation and top-degree forms.
EDGE_CASES = [
    ["sat", "--field", "p=5", "--gens", "x1*x2; x1*x3", "--by", "3"],
    ["sat", "--field", "Q", "--gens", "x1^2 - x2; x2*x3", "--by", "-2"],
    ["sat", "--field", "p=7", "--gens", "x1^2; x1*x2 + x3", "--by", "x1"],
    ["sat", "--field", "p=5", "--gens", "x1*x2 - 1; x2^3", "--by", "x2"],
    ["sat", "--field", "Q", "--gens", "x1^2*x3 - x2^3; x1*x3^2 - x2", "--by", "x1*x3"],
    ["sat", "--field", "Q", "--gens", "x1*x2 - x3^2; x2^2 - 2*x1*x3", "--by", "x1 - x2"],
    ["leading-ideal", "--field", "p=5", "--gens", "x1*x2 + 1; 2"],
    ["leading-ideal", "--field", "p=3", "--gens", "x1; x1 + x2^2 + 1; x2^2"],
    ["leading-ideal", "--field", "Q", "--gens", "x1^3 - 2*x2 + 1; x1*x2^2 + 3*x3 - x1"],
    ["leading-ideal", "--field", "Q", "--gens", "x1^2 + x2*x3 - 1; x1*x2 + x3^2 + 2*x1"],
]


def dense_quadrics(count: int, nvars: int, seed: int, coeff) -> str:
    """``count`` quadrics in ``nvars`` variables, each coefficient drawn
    by ``coeff(rng)`` from a generator seeded with ``seed``."""
    rng = random.Random(seed)
    monos = [(i, j) for i in range(1, nvars + 1) for j in range(i, nvars + 1)]
    forms = []
    for _ in range(count):
        terms = [f"{c}*x{i}*x{j}" for i, j in monos if (c := coeff(rng))]
        forms.append(" + ".join(terms).replace("+ -", "- "))
    return "; ".join(forms)


#: ``pdim`` reports on frames far from minimal.
FRAMES = [
    ["pdim", "--field", "p=32003",
     "--gens", dense_quadrics(4, 5, 1, lambda rng: rng.randrange(32003))],
    ["pdim", "--field", "Q",
     "--gens", dense_quadrics(4, 5, 1, lambda rng: rng.randint(-9, 9))],
    ["pdim", "--field", "p=2", "--gens",
     "x1*x2 + x3 + 1; x2*x3 + x1*x4 + x2; x1*x3 + x4^2 + x1; x2*x4 + x3*x4 + x4 + 1"],
]


def argvs():
    for inst in workloads.engine_inputs():
        yield ["gb", "--field", inst["field"], "--nvars", str(inst["nvars"]),
               "--gens", "; ".join(inst["gens"]), "--verbose"]
    for field, gens, other in SMALL_IDEALS:
        yield ["gb", "--field", field, "--gens", gens, "--order", "lex", "--verbose"]
        yield ["sat", "--field", field, "--gens", gens, "--by", other]
        yield ["colon", "--field", field, "--gens", gens, "--with", other]
        yield ["intersect", "--field", field, "--gens", gens, "--with", other]
        yield ["leading-ideal", "--field", field, "--gens", f"{gens}; {other} + 1"]
        yield ["pdim", "--field", field, "--gens", gens]
        yield ["pdim", "--field", field, "--gens", gens, "--order", "lex"]
    yield from EDGE_CASES
    yield from FRAMES
    p = f"p={workloads.CERTIFY_PRIME}"
    for item in workloads.certify_pool():
        n, forms = str(item["nvars"]), "; ".join(item.get("forms", []))
        if item["kind"] in ("koszul-res", "monomial-res"):
            yield ["pdim", "--field", p, "--nvars", n, "--gens", forms]
        elif item["kind"] == "reta":
            yield ["certify", "--field", p, "--nvars", n, "--forms", forms,
                   "--eta", str(item["eta"])]


def main() -> int:
    for argv in argvs():
        code, out, err = workloads.run_cli(smallsub, argv)
        print(json.dumps({"argv": argv, "code": code, "stdout": out, "stderr": err}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
