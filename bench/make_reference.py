"""Write the reference answers in ``bench/reference/``.

    python3 bench/make_reference.py {engine,collapse,certify} ...

Answers are computed by ``smallsub`` from ``src/`` of this checkout, for
every item of the fixed input pools in ``workloads.py``.  The engine bases
are also compared once with sympy's ``groebner`` (sympy is not a runtime
dependency); each ideal records whether sympy finished within the limit
and agreed.  Run this only when the pools change: a PR that changes an
answer should fail the benchmark, not rewrite the reference.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import polytext  # noqa: E402
import workloads  # noqa: E402
from worker import import_smallsub  # noqa: E402

SYMPY_LIMIT_S = 600


def _monic(poly: dict, p) -> frozenset:
    lead = poly[polytext.leading_monomial(poly)]
    if p:
        inv = pow(lead, -1, p)
        return frozenset((m, c * inv % p) for m, c in poly.items())
    return frozenset((m, Fraction(c) / lead) for m, c in poly.items())


def sympy_basis(entry: dict):
    """Reduced grevlex basis by sympy, as grammar texts, or None on timeout."""
    code = (
        "import json, sys, sympy\n"
        "e = json.loads(sys.argv[1]); n = e['nvars']\n"
        "xs = sympy.symbols(' '.join(f'x{i + 1}' for i in range(n)))\n"
        "gens = [sympy.sympify(t.replace('^', '**')) for t in e['gens']]\n"
        "kw = {} if e['field'] == 'Q' else {'modulus': int(e['field'][2:])}\n"
        "gb = sympy.groebner(gens, *xs, order='grevlex', **kw)\n"
        "print(json.dumps([[[list(m), str(c)] for m, c in g.terms()] "
        "for g in gb.polys]))\n")
    try:
        out = subprocess.run([sys.executable, "-c", code, json.dumps(entry)],
                             capture_output=True, text=True, check=True,
                             timeout=SYMPY_LIMIT_S).stdout
    except subprocess.TimeoutExpired:
        return None
    return json.loads(out)


def engine(ss) -> dict:
    ideals = []
    for entry in workloads.engine_inputs():
        field = ss.fields.parse_field_spec(entry["field"])
        gens = [ss.grammar.parse_polynomial(t, field, entry["nvars"])
                for t in entry["gens"]]
        basis = [ss.grammar.format_polynomial(g)
                 for g in ss.groebner.Ideal(gens).groebner_basis()]
        p = field.p
        ours = {_monic(polytext.normalize(polytext.parse(t, entry["nvars"]), p), p)
                for t in basis}
        theirs = sympy_basis(entry)
        checked = theirs is not None
        if checked:
            theirs = {_monic(polytext.normalize(
                {tuple(m): Fraction(c) if p is None else int(c) for m, c in g}, p), p)
                for g in theirs}
            if theirs != ours:
                raise SystemExit(f"{entry['name']}: smallsub and sympy disagree")
        print(f"engine {entry['name']}: {len(basis)} elements, "
              f"sympy {'agrees' if checked else 'did not finish'}", flush=True)
        ideals.append({**entry, "basis": basis, "sympy_checked": checked})
    return {"ideals": ideals}


def _checked(check, result, answer):
    """Run an op's own check on the result the reference was made from."""
    try:
        check(result, answer)
    except workloads.Unresolved:
        pass
    return answer


def collapse(ss) -> dict:
    forms = []
    for item in workloads.collapse_pool():
        result = workloads.run_cli(ss, workloads.strength_argv(item))
        res = json.loads(result[1])
        strength = None if result[0] == 2 else {
            k: res["result"][k] for k in ("lower", "upper", "exact", "exhausted",
                                          "jacobian_lower")}
        if strength is not None:
            _checked(lambda r, a: workloads.check_strength(r, item, a),
                     result, strength)
        result = workloads.run_cli(ss, workloads.collapse_argv(item))
        found = None if result[0] == 2 else json.loads(result[1])["result"]["found"]
        collapse_k2 = _checked(lambda r, a: workloads.check_collapse(r, item, a),
                               result, {"found": found})
        forms.append({**item, "strength": strength, "collapse_k2": collapse_k2})
    return {"forms": forms}


def certify(ss) -> dict:
    items = []
    for item in workloads.certify_pool():
        result = workloads.certify_run(ss, item)()
        answer = workloads.certify_answer(item, result)
        workloads.check_certify(item, answer, result)
        items.append({**item, "answer": answer})
    return {"items": items}


MAKERS = {"engine": engine, "collapse": collapse, "certify": certify}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("workloads", nargs="+", choices=sorted(MAKERS),
                    help="the reference files to write")
    args = ap.parse_args(argv)
    ss = import_smallsub()
    for name in args.workloads:
        data = MAKERS[name](ss)
        path = workloads.REFERENCE_DIR / f"{name}.json"
        path.parent.mkdir(exist_ok=True)
        path.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")
        print(f"wrote {path.relative_to(BENCH.parent)}")


if __name__ == "__main__":
    main()
