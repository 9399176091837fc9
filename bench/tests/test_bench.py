"""Tests of the benchmark itself: ``python3 -m pytest bench/tests``."""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def run_bench(workload, trace=0, seed=7, root=ROOT, env=None):
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", str(trace), "--smoke"],
        cwd=root, capture_output=True, text=True, timeout=600,
        env={**os.environ, **(env or {})})
    return proc


def result_of(proc):
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_run_prints_every_metric_with_its_unit(workload):
    proc = run_bench(workload)
    result = result_of(proc)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    assert all(v["value"] > 0 for v in result["metrics"].values())
    lines = proc.stdout.splitlines()
    for name, unit in [*expected.items(), ("failed_ratio", "ratio"),
                       ("unresolved_ratio", "ratio")]:
        assert any(line.split()[:1] == [name] and line.split()[2] == unit
                   for line in lines), name


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_counts_repeat_exactly(workload):
    first, second = (result_of(run_bench(workload, trace=1)) for _ in range(2))
    units = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert {k: v["unit"] for k, v in first["metrics"].items()} == units
    counts = {k for k, u in units.items() if u == "count"}
    assert {k: first["metrics"][k] for k in counts} == \
        {k: second["metrics"][k] for k in counts}
    assert first["metrics"]["groebner.groebner_basis.calls"]["value"] > 0


def _copy_checkout(tmp_path, with_source=True):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    if with_source:
        shutil.copytree(ROOT / "src", tmp_path / "src",
                        ignore=shutil.ignore_patterns("__pycache__"))
    return tmp_path


def test_tampered_reference_counts_as_failed(tmp_path):
    root = _copy_checkout(tmp_path)
    path = root / "bench" / "reference" / "engine.json"
    ref = json.loads(path.read_text())
    for ideal in ref["ideals"]:
        ideal["basis"][-1] = ideal["basis"][-1] + " + 1"
    path.write_text(json.dumps(ref))
    proc = run_bench("engine", root=root)
    result = result_of(proc)
    assert not result["correct"] and result["failed"] >= 1
    assert result["metrics"]["correct_ratio"]["value"] < 1
    assert "FAILED engine/" in proc.stdout


def test_tiny_budget_counts_as_unresolved():
    result = result_of(run_bench("collapse", env={"SMALLSUB_MAX_PAIRS": "1"}))
    assert result["correct"] and result["failed"] == 0
    assert result["metrics"]["resolved_ratio"]["value"] < 1


def test_fails_without_the_program(tmp_path):
    root = _copy_checkout(tmp_path, with_source=False)
    proc = run_bench("certify", root=root)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def test_no_wrapper_stays_installed():
    sys.path[:0] = [str(BENCH), str(ROOT / "src")]
    try:
        import smallsub.cli  # noqa: F401
        import spans
        tracer = spans.Tracer(smallsub)
        before = {id(m): dict(vars(m)) for m in tracer.modules}
        classes = [smallsub.Ideal, smallsub.Polynomial, smallsub.CoefficientField]
        before_cls = {c: dict(vars(c)) for c in classes}
        tracer.install()
        assert smallsub.groebner.buchberger is not before[id(smallsub.groebner)]["buchberger"]
        assert smallsub.modules.buchberger is smallsub.groebner.buchberger
        tracer.begin_op(0)
        x = smallsub.parse_polynomial("x1^2 + x2", smallsub.GF(5), 2)
        smallsub.Ideal([x * x]).groebner_basis()
        tracer.end_op()
        tracer.uninstall()
        assert tracer.metrics()["groebner.buchberger.calls"] == 1
        for m in tracer.modules:
            assert dict(vars(m)) == before[id(m)], m.__name__
        for c in classes:
            assert dict(vars(c)) == before_cls[c], c.__name__
    finally:
        del sys.path[:2]
