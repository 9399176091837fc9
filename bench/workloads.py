"""The three benchmark workloads: seeded inputs, ops and answer checks.

Each workload turns ``(seed, rounds)`` into a list of :class:`Op`.  An op
has a timed ``run`` that calls into ``smallsub`` and an untimed ``check``
that compares the result with the stored reference answer and with checks
that do not use ``smallsub`` at all.

The collapse and certify inputs are fixed pools, generated here from
``POOL_SEED`` with the benchmark's own arithmetic, and the reference file
of each workload stores the answer for every pool item.  Every round runs
the whole pool, so runs with different seeds do the same work: on a host
whose speed drifts by 10-20% from second to second, a run that sampled
part of a heavy-tailed pool would spread by more than any useful bound.
The run seed sets the order of the ops, the seeds of the descents, and
the random cofactors of every engine query.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import polytext

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"
POOL_SEED = 1610_09268
ENGINE_PRIME = 32003


class AnswerMismatch(Exception):
    """The program's answer disagrees with the reference or a check."""


class Unresolved(Exception):
    """The op stopped at a budget cap; its partial answer was consistent."""


@dataclass
class Op:
    name: str
    run: Callable[[], object]
    check: Callable[[object], None]


def expect(cond: bool, message: str):
    if not cond:
        raise AnswerMismatch(message)


def load_reference(workload: str) -> dict:
    return json.loads((REFERENCE_DIR / f"{workload}.json").read_text())


def _smoke_subset(items: list, key) -> list:
    """The first item of each of the first four strata."""
    firsts: dict = {}
    for item in items:
        firsts.setdefault(key(item), item)
    return list(firsts.values())[:4]


# ----- engine -----

def cyclic(n: int) -> list[dict]:
    """Cyclic-n: the elementary cyclic sums of degree 1..n-1 and x1...xn - 1."""
    gens = []
    for k in range(1, n):
        poly: dict = {}
        for s in range(n):
            mono = [0] * n
            for j in range(k):
                mono[(s + j) % n] += 1
            poly = polytext.add(poly, {tuple(mono): 1}, None)
        gens.append(poly)
    gens.append({(1,) * n: 1, (0,) * n: -1})
    return gens


def katsura(n: int) -> list[dict]:
    """Katsura-n in the n+1 variables u_0..u_n (written x1..x_{n+1}):
    u_m = sum_{l=-n..n} u_|l| u_|m-l| for m = 0..n-1, and
    1 = sum_{l=-n..n} u_|l|."""
    nv = n + 1

    def var(i, e=1):
        mono = [0] * nv
        mono[i] += e
        return tuple(mono)

    gens = []
    for m in range(n):
        poly: dict = {var(m): -1}
        for l in range(-n, n + 1):
            a, b = abs(l), abs(m - l)
            if b <= n:
                mono = tuple(x + y for x, y in zip(var(a), var(b)))
                poly = polytext.add(poly, {mono: 1}, None)
        gens.append(poly)
    linear: dict = {(0,) * nv: -1}
    for l in range(-n, n + 1):
        linear = polytext.add(linear, {var(abs(l)): 1}, None)
    gens.append(linear)
    return gens


#: (instance, prime or None for Q, generators); katsura-4 over Q exercises
#: Fraction arithmetic in ``fields``.
ENGINE_IDEALS = [
    ("cyclic-5", ENGINE_PRIME, cyclic(5)),
    ("cyclic-6", ENGINE_PRIME, cyclic(6)),
    ("katsura-5", ENGINE_PRIME, katsura(5)),
    ("katsura-6", ENGINE_PRIME, katsura(6)),
    ("katsura-4", None, katsura(4)),
]
SMOKE_IDEALS = ("cyclic-5", "katsura-4")
QUERIES_PER_IDEAL = 60


def engine_inputs() -> list[dict]:
    """The engine instances as grammar text, as stored in the reference."""
    out = []
    for name, p, gens in ENGINE_IDEALS:
        nvars = len(next(iter(gens[0])))
        out.append({"name": name, "field": f"p={p}" if p else "Q",
                    "nvars": nvars,
                    "gens": [polytext.format_text(polytext.normalize(g, p))
                             for g in gens]})
    return out


def standard_monomials(leading: list, nvars: int, max_degree: int = 3) -> list:
    """Monomials up to ``max_degree`` divisible by no leading monomial."""
    out = []
    for d in range(max_degree + 1):
        for m in polytext.monomials(nvars, d):
            if not any(all(a <= b for a, b in zip(lm, m)) for lm in leading):
                out.append(m)
    return out


def _engine_query(rng, gens, p, standard, member: bool) -> dict:
    """A member sum(c_i g_i) with degree-1 cofactors, or a member plus a
    standard monomial of the reduced basis, which is then a non-member.

    Every query has the same shape, so that its cost varies little from
    seed to seed: every generator times a*x_i + b, with a random variable
    x_i and random nonzero a, b."""
    nvars = len(next(iter(gens[0])))
    linear = [tuple(int(i == j) for j in range(nvars)) for i in range(nvars)]
    coeff = (lambda: rng.randrange(1, p)) if p else (lambda: rng.choice((-3, -2, -1, 1, 2, 3)))
    total: dict = {}
    while not total:
        for g in gens:
            cof = {rng.choice(linear): coeff(), (0,) * nvars: coeff()}
            total = polytext.add(total, polytext.mul(cof, g, p), p)
    if not member:
        total = polytext.add(total, {rng.choice(standard): coeff()}, p)
    return total


def build_engine(ss, seed: int, rounds: int, ref: dict, smoke: bool) -> list[Op]:
    Ideal, fmt = ss.groebner.Ideal, ss.grammar.format_polynomial
    expect([{k: e[k] for k in ("name", "field", "nvars", "gens")}
            for e in ref["ideals"]] == engine_inputs(),
           "engine reference was made for other inputs")
    rng = random.Random(seed)
    instances = []
    for (name, p, gens), entry in zip(ENGINE_IDEALS, ref["ideals"]):
        if smoke and name not in SMOKE_IDEALS:
            continue
        field = ss.fields.parse_field_spec(entry["field"])
        nvars = entry["nvars"]
        leading = [polytext.leading_monomial(polytext.parse(t, nvars))
                   for t in entry["basis"]]
        standard = standard_monomials(leading, nvars)
        parse = ss.grammar.parse_polynomial
        instances.append((name, field, [parse(t, field, nvars) for t in entry["gens"]],
                          entry["basis"], gens, p, standard, nvars))

    queries_per_ideal = 4 if smoke else QUERIES_PER_IDEAL
    ops: list[Op] = []
    for _ in range(rounds):
        tokens = []
        for idx in range(len(instances)):
            tokens.append((idx, None))
            tokens.extend((idx, q % 2 == 0) for q in range(queries_per_ideal))
        rng.shuffle(tokens)
        seen: set = set()
        order = []
        for idx, member in tokens:
            if idx not in seen:  # a build precedes every query on its ideal
                seen.add(idx)
                order.append((idx, None))
            if member is not None:
                order.append((idx, member))
        cells = {}
        for idx, member in order:
            name, field, gens, basis, raw, p, standard, nvars = instances[idx]
            if member is None:
                ideal = Ideal(gens)
                cells[idx] = ideal

                def check_build(result, basis=basis):
                    expect([fmt(g) for g in result] == basis,
                           "reduced basis differs from the reference")
                ops.append(Op(f"engine/{name}/build",
                              lambda ideal=ideal: ideal.groebner_basis(),
                              check_build))
                continue
            query = ss.grammar.parse_polynomial(
                polytext.format_text(_engine_query(rng, raw, p, standard, member)),
                field, nvars)

            def check_query(result, member=member):
                expect(result is member, f"contains() gave {result}, expected {member}")
            kind = "member" if member else "nonmember"
            ops.append(Op(f"engine/{name}/{kind}",
                          lambda ideal=cells[idx], f=query: ideal.contains(f),
                          check_query))
    return ops


# ----- collapse -----

COLLAPSE_SHAPES = [(p, n, d, kind) for p in (2, 3) for n in (2, 3, 4)
                   for d in (2, 3) for kind in ("product", "random")]
#: Forms per shape.  The heavy shape (4 variables, degree 3, random) gets
#: more, so that p90 falls inside the cluster of slow ops rather than in
#: the gap below it, where it would jump from run to run.
COLLAPSE_POOL_SIZE = {(4, 3, "random"): 7}
COLLAPSE_POOL_DEFAULT = 3
COLLAPSE_CANDIDATES = "1500"

#: The 20 graded spaces of the acceptance suite's descent criterion:
#: (prime, variables, forms).
DESCENT_FIXTURES = [
    (2, 2, ["x1*x2"]),
    (2, 4, ["x1*x2+x3*x4"]),
    (2, 2, ["x1^2"]),
    (3, 2, ["x1^2+x1*x2"]),
    (3, 2, ["x1", "x1^2+x1*x2"]),
    (2, 4, ["x1*x2", "x3*x4"]),
    (3, 2, ["x1^2+x2^2", "x1*x2"]),
    (2, 2, ["x1^3"]),
    (2, 2, ["x1^2*x2"]),
    (2, 2, ["x1^3+x2^3"]),
    (2, 3, ["x1", "x2"]),
    (3, 3, ["x1*x2+x2*x3"]),
    (3, 2, ["x1^2+x2^2"]),
    (2, 3, ["x1*x2", "x2*x3", "x1*x3"]),
    (3, 3, ["x1", "x1*x2+x3^2"]),
    (2, 2, ["x1^2+x1*x2+x2^2"]),
    (2, 4, ["x1*x2+x3*x4", "x1*x3"]),
    (3, 3, ["x2^3+x1*x2*x3"]),
    (2, 2, ["x1^2*x2+x1*x2^2"]),
    (3, 3, ["x1", "x2", "x1*x2+x3^2"]),
]


def collapse_pool() -> list[dict]:
    """Seeded forms over F2/F3, degree 2-3; half are products g*h."""
    rng = random.Random(POOL_SEED)
    out = []
    for p, n, d, kind in COLLAPSE_SHAPES:
        for _ in range(COLLAPSE_POOL_SIZE.get((n, d, kind), COLLAPSE_POOL_DEFAULT)):
            if kind == "product":
                dg = rng.randint(1, d - 1)
                form = polytext.mul(polytext.random_form(rng, n, dg, p),
                                    polytext.random_form(rng, n, d - dg, p), p)
            else:
                form = polytext.random_form(rng, n, d, p)
            out.append({"shape": f"p{p}-n{n}-d{d}-{kind}", "p": p, "nvars": n,
                        "form": polytext.format_text(form)})
    return out


def strength_argv(item: dict) -> list[str]:
    return ["strength", "--field", f"p={item['p']}", "--nvars", str(item["nvars"]),
            "--form", item["form"], "--max-candidates", COLLAPSE_CANDIDATES]


def collapse_argv(item: dict) -> list[str]:
    return ["collapse", "--field", f"p={item['p']}", "--nvars", str(item["nvars"]),
            "--form", item["form"], "--k", "2",
            "--max-candidates", COLLAPSE_CANDIDATES]


def descend_argv(fixture, seed: int) -> list[str]:
    p, n, forms = fixture
    return ["descend", "--field", f"p={p}", "--nvars", str(n),
            "--forms", "; ".join(forms), "--policy", "maximal",
            "--seed", str(seed)]


def _num(value):
    return math.inf if value == "inf" else value


def _check_witness(witness, target_text: str, p: int, nvars: int, max_k: int):
    """Re-multiply a witness from its report text: sum g*h == target."""
    target = polytext.normalize(polytext.parse(target_text, nvars), p)
    expect(polytext.normalize(polytext.parse(witness["target"], nvars), p) == target,
           "witness target is not the input form")
    expect(1 <= witness["k"] == len(witness["pairs"]) <= max_k,
           "witness pair count out of range")
    d = polytext.degree(target)
    total: dict = {}
    for g_text, h_text in witness["pairs"]:
        g = polytext.normalize(polytext.parse(g_text, nvars), p)
        h = polytext.normalize(polytext.parse(h_text, nvars), p)
        expect(0 < polytext.degree(g) < d and 0 < polytext.degree(h) < d,
               "witness factor degree out of range")
        total = polytext.add(total, polytext.mul(g, h, p), p)
    expect(total == target, "witness does not multiply back to the form")


def run_cli(ss, argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code, _ = ss.cli.run(argv)
    return code, out.getvalue(), err.getvalue()


def _report(result, command: str) -> tuple[int, dict]:
    code, out, err = result
    expect(code in (0, 1, 2), f"exit code {code}: {err.strip()}")
    report = json.loads(out)
    expect(report.get("schema") == 1 and report.get("command") == command,
           "report schema or command is wrong")
    if code == 2:
        expect(report.get("budget_exceeded") is True, "exit 2 without budget_exceeded")
        raise Unresolved(report.get("error", ""))
    expect(set(report) >= {"config", "result"}, "report lacks config or result")
    return code, report["result"]


STRENGTH_KEYS = {"form", "lower", "upper", "exact", "field_caveat",
                 "jacobian_lower", "exhausted", "witness"}


def check_strength(result, item: dict, answer: dict):
    code, res = _report(result, "strength")
    expect(code == 0 and set(res) == STRENGTH_KEYS, "strength report schema")
    lower, upper, exact = _num(res["lower"]), _num(res["upper"]), _num(res["exact"])
    expect(lower <= upper, "lower bound above upper bound")
    if answer is not None:  # None: the reference run hit a budget cap
        ref_lower, ref_upper = _num(answer["lower"]), _num(answer["upper"])
        expect(max(lower, ref_lower) <= min(upper, ref_upper),
               f"strength [{lower}, {upper}] contradicts reference "
               f"[{ref_lower}, {ref_upper}]")
        expect(_num(res["jacobian_lower"]) == _num(answer["jacobian_lower"]),
               "Jacobian lower bound differs from the reference")
    if res["witness"] is not None:
        _check_witness(res["witness"], item["form"], item["p"], item["nvars"],
                       item["nvars"])
        expect(exact == res["witness"]["k"] - 1, "witness size disagrees with exact")
    elif exact is not None and exact != math.inf:
        raise AnswerMismatch("finite exact strength without a witness")
    if res["exhausted"]:
        raise Unresolved("candidate budget exhausted")


def check_collapse(result, item: dict, answer: dict):
    code, res = _report(result, "collapse")
    expect(code == 0 and res["found"] == (res["witness"] is not None),
           "collapse report schema")
    if answer["found"] is not None:
        expect(res["found"] == answer["found"],
               f"found={res['found']}, reference {answer['found']}")
    if res["witness"] is not None:
        _check_witness(res["witness"], item["form"], item["p"], item["nvars"], 2)


def check_descend(result):
    code, res = _report(result, "descend")
    expect(res["complete"] is True and all(res["membership"]) and code == 0,
           "descent finished without every form in the subalgebra")


def build_collapse(ss, seed: int, rounds: int, ref: dict, smoke: bool) -> list[Op]:
    pool = collapse_pool()
    expect([{"shape": r["shape"], "p": r["p"], "nvars": r["nvars"], "form": r["form"]}
            for r in ref["forms"]] == pool,
           "collapse reference was made for other inputs")
    rng = random.Random(seed)
    entries = ref["forms"]
    fixtures = DESCENT_FIXTURES
    if smoke:
        entries = _smoke_subset(entries, lambda e: e["shape"])
        fixtures = fixtures[:3]
    ops: list[Op] = []
    for _ in range(rounds):
        batch = []
        for entry in entries:
            item = {k: entry[k] for k in ("shape", "p", "nvars", "form")}
            batch.append(Op(f"collapse/{item['shape']}/strength",
                            lambda a=strength_argv(item): run_cli(ss, a),
                            lambda res, i=item, a=entry["strength"]:
                                check_strength(res, i, a)))
            batch.append(Op(f"collapse/{item['shape']}/collapse-k2",
                            lambda a=collapse_argv(item): run_cli(ss, a),
                            lambda res, i=item, a=entry["collapse_k2"]:
                                check_collapse(res, i, a)))
        op_seed = rng.randrange(2 ** 31)
        for j, fixture in enumerate(fixtures):
            batch.append(Op(f"collapse/descent-{j:02d}/descend",
                            lambda a=descend_argv(fixture, op_seed + j): run_cli(ss, a),
                            check_descend))
        rng.shuffle(batch)
        ops.extend(batch)
    return ops


# ----- certify -----

CERTIFY_PRIME = 5
CERTIFY_STRATA = (
    [("minors", n) for n in (3, 4, 5)]
    + [("regseq", n) for n in (3, 4, 5)]
    + [("reta", n) for n in (3, 4, 5)]
    + [("koszul-res", c) for c in (2, 3, 4)]
    + [("monomial-res", n) for n in (3, 4)]
)
#: Items per stratum.  minors-5 and minors-3 get more, so that p90 and p50
#: fall inside a cluster of ops of like cost rather than in a gap between
#: clusters, where they would jump from run to run.
CERTIFY_POOL_SIZE = {("minors", 5): 24, ("minors", 3): 36}
CERTIFY_POOL_DEFAULT = 12


def _texts(polys, p):
    return [polytext.format_text(polytext.normalize(f, p)) for f in polys]


def certify_pool() -> list[dict]:
    """Seeded inputs of the height and syzygy certificates, over F5."""
    rng = random.Random(POOL_SEED + 1)
    p = CERTIFY_PRIME
    out = []
    for kind, size in CERTIFY_STRATA:
        for i in range(CERTIFY_POOL_SIZE.get((kind, size), CERTIFY_POOL_DEFAULT)):
            if kind == "minors":
                # 2 x n with rows of degrees 1 and 2, as in criterion 4
                rows = [_texts([polytext.random_form(rng, size, deg, p)
                                for _ in range(size)], p) for deg in (1, 2)]
                item = {"nvars": size, "rows": rows}
            elif kind == "regseq":
                # every fourth sequence repeats a multiple of its first form
                c = rng.choice([2, 2, 3])
                polys = [polytext.random_form(rng, size, rng.randint(1, 3), p)
                         for _ in range(c)]
                if i % 4 == 0:
                    polys[-1] = polytext.mul(polys[0],
                                             polytext.random_form(rng, size, 1, p), p)
                item = {"nvars": size, "forms": _texts(polys, p)}
            elif kind == "reta":
                c = rng.choice([1, 2])
                polys = [polytext.random_form(rng, size, rng.randint(2, 3), p)
                         for _ in range(c)]
                item = {"nvars": size, "forms": _texts(polys, p), "eta": 1}
            elif kind == "koszul-res":
                # c forms of degree 1-2 in c+1 variables
                polys = [polytext.random_form(rng, size + 1, rng.randint(1, 2), p)
                         for _ in range(size)]
                item = {"nvars": size + 1, "forms": _texts(polys, p)}
            else:
                gens = {tuple(rng.choice(polytext.monomials(size, rng.randint(2, 3))))
                        for _ in range(rng.randint(3, 5))}
                item = {"nvars": size,
                        "forms": _texts([{m: 1} for m in sorted(gens)], p)}
            out.append({"stratum": f"{kind}-{size}", "kind": kind, **item})
    return out


def certify_answer(item: dict, result) -> dict:
    """The comparable part of an op's result (also used to make the reference)."""
    kind = item["kind"]
    if kind == "minors":
        return {"holds": result}
    if kind == "regseq":
        return {"regular": result[0], "koszul": result[1]}
    if kind == "reta":
        if isinstance(result, str):
            return {"error": result}
        return {"codim_singular": result.codim_singular,
                "verdict": result.verdict, "smooth": result.smooth}
    return {"length": result.length, "ranks": result.ranks}


def certify_run(ss, item: dict):
    """The timed callable of one certify op."""
    field = ss.fields.GF(CERTIFY_PRIME)
    parse = ss.grammar.parse_polynomial
    n = item["nvars"]
    kind = item["kind"]
    if kind == "minors":
        rows = [[parse(t, field, n) for t in row] for row in item["rows"]]
        return lambda: ss.certify.minors_height_check(rows)
    polys = [parse(t, field, n) for t in item["forms"]]
    if kind == "regseq":
        def run():
            by_height = ss.certify.is_regular_sequence(polys)
            kernel = ss.modules.kernel_of_map(
                [polys], ss.modules.SubmoduleOfFree(1, [], n, field))
            by_koszul = ss.modules.submodule_equals(
                kernel, ss.modules.koszul_relations(polys))
            return by_height, by_koszul
        return run
    if kind == "reta":
        def run():
            try:
                return ss.certify.check_reta(polys, item["eta"])
            except ValueError as exc:  # documented: not a regular sequence
                return str(exc)
        return run
    return lambda: ss.modules.free_resolution(
        ss.modules.SubmoduleOfFree.from_ideal_generators(polys))


def check_certify(item: dict, answer: dict, result):
    got = certify_answer(item, result)
    expect(got == answer, f"{got} differs from reference {answer}")
    kind = item["kind"]
    if kind == "minors":
        expect(result is True, "the minors height inequality failed")
    elif kind == "regseq":
        expect(result[0] == result[1], "height verdict differs from Koszul verdict")
    elif kind in ("koszul-res", "monomial-res"):
        expect(result.verify(), "resolution matrices do not compose to zero")


def build_certify(ss, seed: int, rounds: int, ref: dict, smoke: bool) -> list[Op]:
    pool = certify_pool()
    expect([{k: v for k, v in r.items() if k != "answer"} for r in ref["items"]] == pool,
           "certify reference was made for other inputs")
    rng = random.Random(seed)
    entries = ref["items"]
    if smoke:
        entries = _smoke_subset(entries, lambda e: e["kind"])
    ops: list[Op] = []
    for _ in range(rounds):
        batch = []
        for entry in entries:
            item = {k: v for k, v in entry.items() if k != "answer"}
            batch.append(Op(f"certify/{item['stratum']}", certify_run(ss, item),
                            lambda res, i=item, a=entry["answer"]:
                                check_certify(i, a, res)))
        rng.shuffle(batch)
        ops.extend(batch)
    return ops


BUILDERS = {"engine": build_engine, "collapse": build_collapse,
            "certify": build_certify}

#: Nominal seconds of one round of any workload on a 2-vCPU x86 VM; the
#: round count of a run is ``--seconds`` divided by this, so the work done
#: is a function of the seed and ``--seconds`` only and traced counts
#: repeat exactly.
ROUND_SECONDS = 25.0


def rounds_for(seconds: float) -> int:
    return max(1, round(seconds / ROUND_SECONDS))
