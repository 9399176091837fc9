"""Command-line interface.

One binary, subcommands for every operation, deterministic JSON reports
(schema 1).  Exit codes: 0 success, 1 verdict failure, 2 budget
exceeded, 3 parse error, 4 internal error.  Budgets come from flags or
the environment (SMALLSUB_MAX_PAIRS, SMALLSUB_MAX_DEGREE,
SMALLSUB_MAX_CANDIDATES, SMALLSUB_MAX_STEPS), else from ``Budget()``.
Reports are byte-identical across runs for fixed inputs, seed and
budgets; wall-clock timing is added only on request.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import sys
import time
from math import inf
from pathlib import Path

from .bounds import (BoundTable, B_recursion, cubic_eta_A, phi, quadric_B,
                     quadric_thresholds, stillman_C)
from .budget import Budget, BudgetExceededError, DEFAULT_BUDGET, InternalError
from .certify import check_reta, minors_height_check
from .descent import ThresholdPolicy, small_subalgebra
from .fields import parse_field_spec
from .grammar import (ParseError, format_polynomial, parse_forms_file,
                      parse_generators, parse_polynomial)
from .groebner import GREVLEX, LEX, Ideal, leading_form_ideal
from .modules import SubmoduleOfFree, free_resolution
from .poly import Form, GradedSpace
from .strength import find_collapse, full_report

SCHEMA = 1


class CliError(Exception):
    """Argument or input error mapped to exit code 3."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise CliError(message)


def _num(x):
    if x is None:
        return None
    if x == inf:
        return "inf"
    return x


def _budget(args) -> Budget:
    def pick(flag, name):
        if flag is not None:
            return flag
        raw = os.environ.get(f"SMALLSUB_{name.upper()}")
        return int(raw) if raw else getattr(DEFAULT_BUDGET, name)
    candidates = args.max_candidates
    if candidates is None and getattr(args, "budget", None) is not None:
        candidates = args.budget  # shorthand for the enumeration cap
    return Budget(
        max_pairs=pick(args.max_pairs, "max_pairs"),
        max_degree=pick(args.max_degree, "max_degree"),
        max_candidates=pick(candidates, "max_candidates"),
        max_steps=pick(args.max_steps, "max_steps"),
    )


def _order(args):
    return LEX if getattr(args, "order", "grevlex") == "lex" else GREVLEX


def _load_polys(args, field):
    if getattr(args, "gens", None):
        return parse_generators(args.gens, field, args.nvars)
    if getattr(args, "gens_file", None):
        return parse_forms_file(Path(args.gens_file).read_text(), field, args.nvars)
    raise CliError("need --gens or --gens-file")


def _load_forms(args, field):
    if getattr(args, "forms", None):
        polys = parse_generators(args.forms, field, args.nvars)
    elif getattr(args, "forms_file", None):
        polys = parse_forms_file(Path(args.forms_file).read_text(), field, args.nvars)
    else:
        raise CliError("need --forms or --forms-file")
    return [Form(p) for p in polys]


def _witness_payload(witness):
    if witness is None:
        return None
    return {
        "target": format_polynomial(witness.target.poly),
        "k": witness.k,
        "pairs": [[format_polynomial(g.poly), format_polynomial(h.poly)]
                  for g, h in witness.pairs],
    }


# ----- subcommand handlers: return (payload, exit_code) -----


def _cmd_gb(args, field, budget):
    from .groebner import groebner_basis
    gens = _load_polys(args, field)
    stats = {} if args.verbose else None
    basis = groebner_basis(gens, _order(args), budget, stats=stats)
    if stats is not None:
        print(f"trace: pairs_processed={stats.get('pairs_processed', 0)} "
              f"basis_size={stats.get('basis_size', 0)} "
              f"reduced_basis_size={stats.get('reduced_basis_size', 0)}",
              file=sys.stderr)
    return {"basis": [format_polynomial(g) for g in basis]}, 0


def _shared_ambient(*groups):
    """Extend several polynomial lists to one ambient variable count."""
    nv = max(g.nvars for group in groups for g in group)
    return [[g.extended(nv) for g in group] for group in groups], nv


def _cmd_sat(args, field, budget):
    gens = _load_polys(args, field)
    by = parse_polynomial(args.by, field, args.nvars)
    (gens, (by,)), nv = _shared_ambient(gens, [by])
    result = Ideal(gens, nv, field).saturation(by, budget)
    return {"basis": [format_polynomial(g) for g in result.groebner_basis(budget=budget)],
            "by": format_polynomial(by)}, 0


def _cmd_colon(args, field, budget):
    gens = _load_polys(args, field)
    with_gens = parse_generators(args.with_gens, field, args.nvars)
    (gens, with_gens), nv = _shared_ambient(gens, with_gens)
    result = Ideal(gens, nv, field).colon(Ideal(with_gens, nv, field), budget)
    return {"basis": [format_polynomial(g) for g in result.groebner_basis(budget=budget)]}, 0


def _cmd_intersect(args, field, budget):
    gens = _load_polys(args, field)
    with_gens = parse_generators(args.with_gens, field, args.nvars)
    (gens, with_gens), nv = _shared_ambient(gens, with_gens)
    result = Ideal(gens, nv, field).intersection(Ideal(with_gens, nv, field), budget)
    return {"basis": [format_polynomial(g) for g in result.groebner_basis(budget=budget)]}, 0


def _cmd_leading_ideal(args, field, budget):
    gens = _load_polys(args, field)
    result = leading_form_ideal(gens, budget)
    return {"basis": [format_polynomial(g) for g in result.groebner_basis(budget=budget)]}, 0


def _cmd_pdim(args, field, budget):
    gens = _load_polys(args, field)
    sub = SubmoduleOfFree.from_ideal_generators(gens)
    res = free_resolution(sub, _order(args), budget)
    return {
        "pdim": res.length,
        "ranks": res.ranks,
        "matrices": [[[format_polynomial(e) for e in row] for row in mat]
                     for mat in res.matrices],
    }, 0


def _cmd_strength(args, field, budget):
    form = Form(parse_polynomial(args.form, field, args.nvars))
    report = full_report(form, budget, args.max_k)
    payload = {
        "form": format_polynomial(form.poly),
        "lower": _num(report.lower),
        "upper": _num(report.upper),
        "exact": _num(report.exact),
        "field_caveat": report.field_caveat,
        "jacobian_lower": _num(report.jacobian_lower),
        "exhausted": report.exhausted,
        "witness": _witness_payload(report.witness),
    }
    return payload, 0


def _cmd_collapse(args, field, budget):
    form = Form(parse_polynomial(args.form, field, args.nvars))
    witness = find_collapse(form, args.k, budget)
    return {
        "form": format_polynomial(form.poly),
        "k": args.k,
        "witness": _witness_payload(witness),
        "found": witness is not None,
    }, 0


def _cmd_certify(args, field, budget):
    if args.matrix:
        spec = json.loads(Path(args.matrix).read_text())
        mfield = parse_field_spec(spec.get("field", field.spec()))
        nvars = spec.get("nvars")
        rows = [[parse_polynomial(text, mfield, nvars) for text in row]
                for row in spec["rows"]]
        if args.theorem != "max-minors":
            raise CliError(f"unknown matrix theorem {args.theorem!r}")
        ok = minors_height_check(rows, budget)
        return {"theorem": "max-minors", "holds": ok}, 0 if ok else 1
    forms = _load_forms(args, field)
    if args.eta is None:
        raise CliError("need --eta for the R_eta certificate")
    cert = check_reta(forms, args.eta, budget)
    payload = {
        "forms": [format_polynomial(f.poly) for f in cert.forms],
        "eta": cert.eta,
        "codim_singular": cert.codim_singular,
        "verdict": "pass" if cert.verdict else "fail",
        "heights": {k: _num(v) for k, v in cert.heights.items()},
        "smooth": cert.smooth,
        "note": cert.note,
    }
    return payload, 0 if cert.verdict else 1


def _parse_policy(args, field):
    text = args.policy
    if text == "maximal":
        return ThresholdPolicy.maximal(max_k=args.max_k)
    if text.startswith("k="):
        return ThresholdPolicy.constant(int(text[2:]))
    if text == "table":
        eta = args.eta if args.eta is not None else 1
        table = BoundTable.default(eta=eta, characteristic=field.characteristic)
        return ThresholdPolicy.from_table(table)
    raise CliError(f"unknown policy {text!r} (use maximal, k=INT, or table)")


def _cmd_descend(args, field, budget):
    forms = _load_forms(args, field)
    space = GradedSpace.from_forms(forms)
    policy = _parse_policy(args, field)
    rng = random.Random(args.seed)
    trace = small_subalgebra(space, policy, budget, rng)
    payload = {
        "input": [format_polynomial(f.poly) for f in space.basis],
        "policy": args.policy,
        "steps": [{
            "before": list(s.before),
            "degree": s.degree,
            "after": list(s.after),
            "regime": s.regime,
            "witness": _witness_payload(s.witness),
        } for s in trace.steps],
        "final_generators": [format_polynomial(f.poly)
                             for f in trace.final_generators],
        "s": len(trace.final_generators),
        "complete": trace.complete,
        "exhaustive": trace.exhaustive,
        "membership": list(trace.membership),
        "regular_sequence": trace.regular_sequence,
    }
    code = 0 if (trace.complete and all(trace.membership)) else (2 if not trace.complete else 1)
    return payload, code


def _cmd_bounds(args, field, budget):
    table_kind = args.table
    char = args.char if args.char is not None else 0
    eta = args.eta if args.eta is not None else 1
    if table_kind == "quadric-B":
        if args.n is None:
            raise CliError("quadric-B needs --n")
        return {"table": table_kind, "n": args.n, "value": quadric_B(args.n),
                "provenance": "closed form 2^(n+1)(n-2)+4 for quadric spaces"}, 0
    if table_kind == "quadric-thresholds":
        if args.n is None:
            raise CliError("quadric-thresholds needs --n")
        regular, reta = quadric_thresholds(args.n, eta)
        return {"table": table_kind, "n": args.n, "eta": eta,
                "regular_sequence_threshold": regular, "reta_threshold": reta,
                "provenance": "closed quadric-space thresholds"}, 0
    if table_kind == "cubic":
        if args.delta is None:
            raise CliError("cubic needs --delta n1,n2,n3")
        parts = [int(x) for x in args.delta.split(",")]
        if len(parts) != 3:
            raise CliError("cubic --delta needs exactly three entries")
        triple = cubic_eta_A(parts[0], parts[1], parts[2], eta, char)
        return {"table": table_kind, "delta": parts, "eta": eta, "char": char,
                "value": list(triple),
                "provenance": "closed cubic-space thresholds, characteristic branch"}, 0
    if table_kind == "phi":
        if args.h is None or args.d is None:
            raise CliError("phi needs --h and --d")
        value = phi(args.h, args.d, characteristic=args.char, budget=budget)
        prov = ("Euler shortcut (characteristic does not divide d)"
                if args.char is not None and (args.char == 0 or args.d % args.char)
                else "degree-2 composition default, not a printed constant")
        return {"table": table_kind, "h": args.h, "d": args.d, "char": args.char,
                "value": value, "provenance": prov}, 0
    if table_kind == "B":
        if args.delta is None:
            raise CliError("B needs --delta")
        delta = [int(x) for x in args.delta.split(",")]
        table = BoundTable.default(eta=eta, characteristic=char)
        return {"table": table_kind, "delta": delta, "eta": eta, "char": char,
                "value": B_recursion(delta, table, budget),
                "provenance": "descent recursion over the default degree<=3 table"}, 0
    if table_kind == "C":
        for name in ("m", "n", "d"):
            if getattr(args, name) is None:
                raise CliError("C needs --m, --n and --d")
        table = BoundTable.default(eta=eta, characteristic=char)
        return {"table": table_kind, "m": args.m, "n": args.n, "d": args.d,
                "eta": eta, "char": char,
                "value": stillman_C(args.m, args.n, args.d, table, budget),
                "provenance": "max of the descent recursion over sequences with sum mnd"}, 0
    raise CliError(f"unknown bounds table {table_kind!r}")


def _cmd_selftest(args, field, budget):
    import pytest
    tests = Path(__file__).resolve().parents[2] / "tests" / "test_acceptance.py"
    if not tests.exists():
        raise CliError("acceptance tests not found (run from a source checkout)")
    code = pytest.main(["-q", str(tests)])
    return {"pytest_exit": int(code)}, 0 if code == 0 else 1


_HANDLERS = {
    "gb": _cmd_gb,
    "sat": _cmd_sat,
    "colon": _cmd_colon,
    "intersect": _cmd_intersect,
    "leading-ideal": _cmd_leading_ideal,
    "pdim": _cmd_pdim,
    "strength": _cmd_strength,
    "collapse": _cmd_collapse,
    "certify": _cmd_certify,
    "descend": _cmd_descend,
    "bounds": _cmd_bounds,
    "selftest": _cmd_selftest,
}


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="smallsub",
                     description="strength, regular sequences, and small "
                                 "subalgebras of polynomial rings")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--field", default="Q", help="p=<prime> or Q")
        p.add_argument("--nvars", type=int, default=None)
        p.add_argument("--order", choices=["grevlex", "lex"], default="grevlex")
        p.add_argument("--output", choices=["json", "text"], default="json")
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--timing", action="store_true")
        p.add_argument("--verbose", action="store_true",
                       help="trace output (pair counts) on stderr")
        p.add_argument("--budget", type=int, default=None,
                       help="shorthand for --max-candidates")
        p.add_argument("--max-pairs", type=int, default=None)
        p.add_argument("--max-degree", type=int, default=None)
        p.add_argument("--max-candidates", type=int, default=None)
        p.add_argument("--max-steps", type=int, default=None)

    for name in ("gb", "sat", "colon", "intersect", "leading-ideal", "pdim"):
        p = sub.add_parser(name)
        common(p)
        p.add_argument("--gens", help="semicolon-separated generator list")
        p.add_argument("--gens-file", help="file with one polynomial per line")
        if name == "sat":
            p.add_argument("--by", required=True, help="saturate by this polynomial")
        if name in ("colon", "intersect"):
            p.add_argument("--with", dest="with_gens", required=True,
                           help="second generator list")

    p = sub.add_parser("strength")
    common(p)
    p.add_argument("--form", required=True)
    p.add_argument("--max-k", type=int, default=None)

    p = sub.add_parser("collapse")
    common(p)
    p.add_argument("--form", required=True)
    p.add_argument("--k", type=int, required=True)

    p = sub.add_parser("certify")
    common(p)
    p.add_argument("--forms")
    p.add_argument("--forms-file")
    p.add_argument("--eta", type=int, default=None)
    p.add_argument("--matrix", help="JSON matrix file for theorem harnesses")
    p.add_argument("--theorem", default="max-minors")

    p = sub.add_parser("descend")
    common(p)
    p.add_argument("--forms")
    p.add_argument("--forms-file")
    p.add_argument("--policy", default="maximal")
    p.add_argument("--eta", type=int, default=None)
    p.add_argument("--max-k", type=int, default=None)

    p = sub.add_parser("bounds")
    common(p)
    p.add_argument("--table", required=True,
                   choices=["quadric-B", "quadric-thresholds", "cubic",
                            "phi", "B", "C"])
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--m", type=int, default=None)
    p.add_argument("--d", type=int, default=None)
    p.add_argument("--h", type=int, default=None)
    p.add_argument("--eta", type=int, default=None)
    p.add_argument("--char", type=int, default=None)
    p.add_argument("--delta", default=None)

    p = sub.add_parser("selftest")
    common(p)

    return parser


def _print_payload(report: dict, output: str):
    if output == "json":
        print(json.dumps(report, sort_keys=True, indent=2))
        return
    def emit(prefix, value):
        if isinstance(value, dict):
            for k in sorted(value):
                emit(f"{prefix}{k}.", value[k])
        elif isinstance(value, list):
            print(f"{prefix[:-1]}: {value}")
        else:
            print(f"{prefix[:-1]}: {value}")
    emit("", report)


def run(argv=None) -> tuple[int, dict | None]:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3, None
    started = time.monotonic()
    try:
        field = parse_field_spec(args.field)
        budget = _budget(args)
        payload, code = _HANDLERS[args.command](args, field, budget)
    except (CliError, ParseError, ValueError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3, None
    except BudgetExceededError as exc:
        report = {"schema": SCHEMA, "command": args.command,
                  "error": str(exc), "budget_exceeded": True}
        print(json.dumps(report, sort_keys=True, indent=2))
        return 2, report
    except InternalError as exc:
        report = {"schema": SCHEMA, "command": args.command,
                  "error": str(exc), "internal_error": True}
        print(json.dumps(report, sort_keys=True, indent=2))
        return 4, report
    report = {
        "schema": SCHEMA,
        "command": args.command,
        "config": {
            "field": args.field,
            "order": getattr(args, "order", "grevlex"),
            "seed": args.seed,
            "budgets": {
                "max_pairs": budget.max_pairs,
                "max_degree": budget.max_degree,
                "max_candidates": budget.max_candidates,
                "max_steps": budget.max_steps,
            },
        },
        "result": payload,
    }
    if args.timing:
        report["timing_ms"] = round(1000 * (time.monotonic() - started), 3)
    _print_payload(report, args.output)
    return code, report


def main(argv=None) -> int:
    code, _ = run(argv)
    return code


if __name__ == "__main__":
    sys.exit(main())
