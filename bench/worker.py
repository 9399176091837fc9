"""One measured run of one workload, in a fresh process.

    python3 bench/worker.py --workload NAME --seed N --rounds R [--trace]
                            [--setup-only] [--smoke]

Imports ``smallsub`` from ``src/`` of the checkout this file sits in, builds
the seeded op list, and runs it in a closed loop: one op at a time, each
starting when the previous one has returned.  Only the call into
``smallsub`` is timed; answer checks run between ops, untimed and untraced.
Prints one JSON object as its last line of output.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from pathlib import Path

import workloads
from spans import Tracer

ROOT = Path(__file__).resolve().parents[1]
OUT = Path(__file__).resolve().parent / "out"


def import_smallsub():
    """The ``smallsub`` of this checkout, with every submodule loaded."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import smallsub
    if Path(smallsub.__file__).resolve().parent != src / "smallsub":
        raise SystemExit(f"smallsub imported from {smallsub.__file__}, "
                         f"not from {src}")
    import smallsub.cli  # noqa: F401  (the package does not import cli)
    return smallsub


def run_ops(ops, tracer, budget_error):
    records = []
    for i, op in enumerate(ops):
        detail = ""
        if tracer is not None:
            tracer.begin_op(i)
        t0 = time.perf_counter()
        try:
            result = op.run()
            status = None
        except budget_error as exc:
            status, detail = "unresolved", str(exc)
        except Exception as exc:  # counted as a failed op; the run goes on
            status, detail = "failed", f"{type(exc).__name__}: {exc}"
        elapsed = time.perf_counter() - t0
        if tracer is not None:
            tracer.end_op()
        if status is None:
            try:
                op.check(result)
                status = "ok"
            except workloads.Unresolved as exc:
                status, detail = "unresolved", str(exc)
            except Exception as exc:  # a wrong or malformed answer
                status, detail = "failed", f"{type(exc).__name__}: {exc}"
        records.append([op.name, elapsed, status, detail])
    return records


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--rounds", type=int, required=True)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--smoke", action="store_true")
    args = ap.parse_args(argv)

    smallsub = import_smallsub()
    ref = workloads.load_reference(args.workload)
    ops = workloads.BUILDERS[args.workload](smallsub, args.seed, args.rounds,
                                            ref, args.smoke)
    ready = time.monotonic()
    if args.setup_only:
        print(json.dumps({"ready": ready}))
        return

    tracer = None
    if args.trace:
        tracer = Tracer(smallsub)
        tracer.install()
    try:
        records = run_ops(ops, tracer, smallsub.BudgetExceededError)
    finally:
        if tracer is not None:
            tracer.uninstall()
    out = {"ready": ready, "records": records,
           "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024}
    if tracer is not None:
        out["per_layer"] = tracer.metrics()
        trace_path = OUT / f"trace-{args.workload}-{args.seed}.tsv"
        tracer.write(trace_path, [op.name for op in ops])
        out["trace_file"] = str(trace_path.relative_to(ROOT))
    print(json.dumps(out))


if __name__ == "__main__":
    main()
