"""The benchmark's tracer still fits the package.

``bench/run.py --trace 1`` wraps the functions named in ``bench/spans.py``
and reads the pair count from ``buchberger``'s ``stats`` keyword.  The
benchmark's own tests are not part of tier 1, so an engine change that
renames a traced function or drops that keyword would break a traced run
unnoticed; this test builds the tracer on the package and runs two
subcommands under it."""

import importlib.util
from pathlib import Path

import smallsub
from smallsub import cli

SPANS_PY = Path(__file__).resolve().parents[1] / "bench" / "spans.py"


def _spans_module():
    spec = importlib.util.spec_from_file_location("spans", SPANS_PY)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_run_counts_pairs_and_autoreductions(capsys):
    spans = _spans_module()
    tracer = spans.Tracer(smallsub)
    before = {m.__name__: dict(vars(m)) for m in tracer.modules}
    classes = [smallsub.Ideal, smallsub.Polynomial, smallsub.CoefficientField]
    before_classes = {c: dict(vars(c)) for c in classes}
    try:
        tracer.install()  # every name in SPANS and COUNTED must resolve
        assert smallsub.groebner.buchberger is not before["smallsub.groebner"]["buchberger"]
        tracer.begin_op(0)
        gb_code, _ = cli.run(["gb", "--field", "p=5", "--gens", "x1^2 + x2*x3; x1*x2 - x3^2"])
        pdim_code, _ = cli.run(["pdim", "--field", "p=5", "--gens", "x1^2; x1*x2; x2^3"])
        tracer.end_op()
    finally:
        tracer.uninstall()
    capsys.readouterr()
    assert gb_code == pdim_code == 0
    metrics = tracer.metrics()
    assert metrics["groebner.buchberger.pairs"] > 0
    assert metrics["groebner.autoreduce.calls"] > 0
    for m in tracer.modules:
        assert dict(vars(m)) == before[m.__name__], m.__name__
    for c in classes:
        assert dict(vars(c)) == before_classes[c], c.__name__
