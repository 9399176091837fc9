"""Spans and counters around the public functions of each ``smallsub`` layer.

:class:`Tracer` replaces each traced function by a wrapper in every
``smallsub`` module that binds it (``modules`` imports ``buchberger``
directly, for instance), and each traced method on its class.  A wrapper
records one span: name, start, end, parent span and op id.  Spans stay in
compact arrays until the run ends.  Counts that the program does not
report itself are taken at the same boundaries: S-pairs from the
``stats`` argument of ``buchberger``, collapse candidates and their
repeats, ``Ideal`` basis-cache hits, and budget overruns.

``uninstall`` puts every original back; the untraced run installs nothing.
"""

from __future__ import annotations

import importlib
import time
from array import array
from collections import Counter
from pathlib import Path

#: (module, attribute path) of every traced callable; the span name is
#: ``<module>.<attribute path>`` and the layer is the module.
SPANS = [
    ("groebner", "buchberger"), ("groebner", "normal_form_vec"),
    ("groebner", "autoreduce"), ("groebner", "groebner_basis"),
    ("groebner", "normal_form"), ("groebner", "membership_cofactors"),
    ("groebner", "Ideal.groebner_basis"), ("groebner", "Ideal.dimension"),
    ("strength", "find_collapse"), ("strength", "strength_exact"),
    ("descent", "small_subalgebra"), ("descent", "subalgebra_membership"),
    ("certify", "minors_height_check"), ("certify", "check_reta"),
    ("certify", "is_regular_sequence"), ("certify", "minors_ideal"),
    ("certify", "determinant"),
    ("modules", "syzygies"), ("modules", "kernel_of_map"),
    ("modules", "submodule_contains"), ("modules", "free_resolution"),
    ("poly", "Polynomial.__mul__"),
    ("cli", "run"), ("grammar", "parse_polynomial"),
    ("grammar", "format_polynomial"),
]
#: Traced callables that only count calls: too many and too short for spans.
COUNTED = [("fields", "CoefficientField.coerce")]

#: The per-layer metrics of a traced run, in the order they are printed.
PER_LAYER = (
    [(f"{m}.{a}.calls", "count") for m, a in SPANS]
    + [(f"{m}.{a}.self_s", "s") for m, a in SPANS]
    + [(f"{m}.{a}.calls", "count") for m, a in COUNTED]
    + [
        ("groebner.buchberger.pairs", "count"),
        ("groebner.Ideal.groebner_basis.hit_ratio", "ratio"),
        ("strength.find_collapse.candidates", "count"),
        ("strength.find_collapse.witness_ratio", "ratio"),
        ("strength.find_collapse.repeat_ratio", "ratio"),
        ("descent.small_subalgebra.steps", "count"),
        ("certify.minors_ideal.generators", "count"),
        ("modules.submodule_contains.gb_runs", "count"),
        ("budget.exceeded", "count"),
        ("trace.overhead_ratio", "ratio"),
    ]
)


class Tracer:
    """Installs the wrappers into an imported ``smallsub`` package."""

    def __init__(self, package):
        self.package = package
        self.modules = [package] + [
            importlib.import_module(f"{package.__name__}.{m}")
            for m in ("budget", "fields", "poly", "grammar", "groebner",
                      "modules", "strength", "certify", "descent", "bounds",
                      "cli")]
        self.budget_error = importlib.import_module(
            f"{package.__name__}.budget").BudgetExceededError
        self.names: list[str] = []
        self.span_name = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_parent = array("i")
        self.span_op = array("i")
        self.stack: list[int] = []
        self.counts: Counter = Counter()
        self.op_id = -1
        self.enabled = False
        self._patches: list[tuple[object, str, object]] = []
        self._candidates: dict[int, set] = {}
        self._overruns: list = []
        self._determinant_depth = 0

    # --- installation ---

    def _module(self, name):
        return importlib.import_module(f"{self.package.__name__}.{name}")

    def install(self):
        for module, attr in SPANS + COUNTED:
            owner, _, name = attr.rpartition(".")
            full = f"{module}.{attr}"
            if owner:
                cls = getattr(self._module(module), owner)
                original = cls.__dict__[name]
                wrapper = (self._counter(full, original) if (module, attr) in COUNTED
                           else self._span(full, original))
                self._patch(cls, name, original, wrapper)
                continue
            original = getattr(self._module(module), name)
            wrapper = self._span(full, original)
            for mod in self.modules:  # every module that binds the name
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, key, original, wrapper)

    def _patch(self, owner, name, original, wrapper):
        setattr(owner, name, wrapper)
        self._patches.append((owner, name, original))

    def uninstall(self):
        self.enabled = False
        for owner, name, original in reversed(self._patches):
            setattr(owner, name, original)
        self._patches.clear()

    def begin_op(self, op_id: int):
        self.op_id = op_id
        self._candidates.clear()
        self._overruns.clear()
        self.enabled = True

    def end_op(self):
        self.enabled = False

    # --- wrappers ---

    def _counter(self, full, original):
        counts, tracer = self.counts, self
        calls_key = f"{full}.calls"

        def wrapper(*args, **kwargs):
            if tracer.enabled:
                counts[calls_key] += 1
            return original(*args, **kwargs)
        wrapper.__wrapped__ = original
        return wrapper

    def _span(self, full, original):
        nid = len(self.names)
        self.names.append(full)
        tracer = self
        before = _BEFORE.get(full)
        after = _AFTER.get(full)
        recursive = full == "certify.determinant"
        calls_key = f"{full}.calls"

        def wrapper(*args, **kwargs):
            if not tracer.enabled or (recursive and tracer._determinant_depth):
                return original(*args, **kwargs)
            stack = tracer.stack
            parent = stack[-1] if stack else -1
            sid = len(tracer.span_start)
            tracer.span_name.append(nid)
            tracer.span_parent.append(parent)
            tracer.span_op.append(tracer.op_id)
            tracer.span_end.append(0.0)
            if before is not None:
                args, kwargs = before(tracer, parent, args, kwargs)
            state = tracer.counts["groebner.groebner_basis.calls"]
            stack.append(sid)
            if recursive:
                tracer._determinant_depth += 1
            tracer.span_start.append(time.perf_counter())
            try:
                result = original(*args, **kwargs)
            except tracer.budget_error as exc:
                if not any(e is exc for e in tracer._overruns):
                    tracer._overruns.append(exc)
                    tracer.counts["budget.exceeded"] += 1
                raise
            finally:
                tracer.span_end[sid] = time.perf_counter()
                stack.pop()
                if recursive:
                    tracer._determinant_depth -= 1
                tracer.counts[calls_key] += 1
            if after is not None:
                after(tracer, parent, args, kwargs, result, state)
            return result
        wrapper.__wrapped__ = original
        return wrapper

    # --- results ---

    def self_times(self) -> dict[str, float]:
        """Span duration minus the part its child spans cover, per name."""
        n = len(self.span_start)
        child = [0.0] * n
        start, end, parent = self.span_start, self.span_end, self.span_parent
        for i in range(n):
            p = parent[i]
            if p >= 0:
                child[p] += end[i] - start[i]
        totals = [0.0] * len(self.names)
        names = self.span_name
        for i in range(n):
            totals[names[i]] += end[i] - start[i] - child[i]
        return dict(zip(self.names, totals))

    def metrics(self) -> dict[str, float]:
        c = self.counts
        out: dict[str, float] = {}
        selfs = self.self_times()
        for module, attr in SPANS + COUNTED:
            full = f"{module}.{attr}"
            out[f"{full}.calls"] = c[f"{full}.calls"]
            if full in selfs:
                out[f"{full}.self_s"] = selfs[full]
        out["groebner.buchberger.pairs"] = c["pairs"]
        out["groebner.Ideal.groebner_basis.hit_ratio"] = _ratio(
            c["ideal_gb_hits"], c["groebner.Ideal.groebner_basis.calls"])
        out["strength.find_collapse.candidates"] = c["candidates"]
        out["strength.find_collapse.witness_ratio"] = _ratio(
            c["witnesses"], c["candidates"])
        out["strength.find_collapse.repeat_ratio"] = _ratio(
            c["repeats"], c["candidates_in_strength_exact"])
        out["descent.small_subalgebra.steps"] = c["descent_steps"]
        out["certify.minors_ideal.generators"] = c["minors_generators"]
        out["modules.submodule_contains.gb_runs"] = c["submodule_gb_runs"]
        out["budget.exceeded"] = c["budget.exceeded"]
        return out

    def write(self, path: Path, op_names: list[str]):
        """Write every span as a tab-separated line, and the op names."""
        path.parent.mkdir(parents=True, exist_ok=True)
        lines = ["span\tname\tstart_s\tend_s\tparent\top"]
        for i in range(len(self.span_start)):
            lines.append(f"{i}\t{self.names[self.span_name[i]]}\t"
                         f"{self.span_start[i]:.9f}\t{self.span_end[i]:.9f}\t"
                         f"{self.span_parent[i]}\t{self.span_op[i]}")
        lines.append("")
        path.write_text("\n".join(lines))
        path.with_suffix(".ops").write_text(
            "".join(f"{i}\t{name}\n" for i, name in enumerate(op_names)))


def _ratio(num, den) -> float:
    return num / den if den else 0.0


def _enclosing(tracer, name: str) -> int:
    """Innermost open span with the given name, or -1."""
    for open_sid in reversed(tracer.stack):
        if tracer.names[tracer.span_name[open_sid]] == name:
            return open_sid
    return -1


def _name_of(tracer, sid: int) -> str:
    return tracer.names[tracer.span_name[sid]] if sid >= 0 else ""


def _before_buchberger(tracer, parent, args, kwargs):
    if kwargs.get("stats") is None and len(args) < 7:
        kwargs = {**kwargs, "stats": {}}
    if _name_of(tracer, parent) == "modules.submodule_contains":
        tracer.counts["submodule_gb_runs"] += 1
    return args, kwargs


def _after_buchberger(tracer, parent, args, kwargs, result, state):
    stats = kwargs.get("stats") if len(args) < 7 else args[6]
    tracer.counts["pairs"] += stats.get("pairs_processed", 0)


def _before_groebner_basis(tracer, parent, args, kwargs):
    if _name_of(tracer, parent) == "strength.find_collapse":
        tracer.counts["candidates"] += 1
        outer = _enclosing(tracer, "strength.strength_exact")
        if outer >= 0:
            tried = tracer._candidates.setdefault(outer, set())
            key = tuple(args[0])
            tracer.counts["candidates_in_strength_exact"] += 1
            if key in tried:
                tracer.counts["repeats"] += 1
            tried.add(key)
    return args, kwargs


def _after_ideal_gb(tracer, parent, args, kwargs, result, state):
    if tracer.counts["groebner.groebner_basis.calls"] == state:
        tracer.counts["ideal_gb_hits"] += 1


def _after_find_collapse(tracer, parent, args, kwargs, result, state):
    if result is not None:
        tracer.counts["witnesses"] += 1


def _after_small_subalgebra(tracer, parent, args, kwargs, result, state):
    tracer.counts["descent_steps"] += len(result.steps)


def _after_minors_ideal(tracer, parent, args, kwargs, result, state):
    tracer.counts["minors_generators"] += len(result.generators)


_BEFORE = {"groebner.buchberger": _before_buchberger,
           "groebner.groebner_basis": _before_groebner_basis}
_AFTER = {"groebner.buchberger": _after_buchberger,
          "groebner.Ideal.groebner_basis": _after_ideal_gb,
          "strength.find_collapse": _after_find_collapse,
          "descent.small_subalgebra": _after_small_subalgebra,
          "certify.minors_ideal": _after_minors_ideal}
