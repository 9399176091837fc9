"""Benchmark command for smallsub.

    python3 bench/run.py --workload {engine,collapse,certify} --seed N
                         --seconds S --trace {0,1} [--smoke]

Run from the root of a source checkout.  Each measured run is a fresh
worker process (``bench/worker.py``) with one thread and a closed loop of
ops, so module-level caches start cold, as for a user of the CLI.

``--trace 0`` starts the worker nine times: eight times only to set up,
and once to run the ops.  It prints every end-to-end metric: ``setup_s`` is
the median time from starting a worker process to having its op list
ready (interpreter start, ``import smallsub``, generating and parsing
the inputs).  ``--trace 1`` runs the same op list once untraced and once
traced and prints the per-layer metrics of the traced run, with
``trace.overhead_ratio``; its spans go to ``bench/out/``.

``--seconds`` sets the number of rounds of the op list (see
``workloads.ROUND_SECONDS``), so the work done depends only on the seed and
``--seconds``.  ``--smoke`` runs a tiny op list, for the benchmark's tests.

The last line of output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  The exit code is 0 whenever
that line is printed, also when an answer was wrong.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from collections import Counter, defaultdict
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import spans  # noqa: E402
import workloads  # noqa: E402

SETUP_SAMPLES = 8
DEADLINE_S = 170.0

#: (name, unit) of the end-to-end metrics, in the order they are printed.
END_TO_END = [
    ("setup_s", "s"), ("ops_per_s", "ops/s"), ("op_p50_ms", "ms"),
    ("op_p90_ms", "ms"), ("correct_ratio", "ratio"), ("resolved_ratio", "ratio"),
    ("peak_rss_mb", "MB"),
]
#: Printed beside the metrics; not in the JSON line, because they are 0 on
#: a healthy run and the JSON line carries their complements.
SHARES = [("failed_ratio", "ratio"), ("unresolved_ratio", "ratio")]


class WorkerError(Exception):
    pass


def spawn(cmd: list[str], deadline: float) -> tuple[float, dict]:
    """Run one worker; return its start time and its JSON result."""
    started = time.monotonic()
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True)
    try:
        out, err = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise WorkerError("worker exceeded the time limit") from None
    if proc.returncode != 0:
        raise WorkerError(f"worker exited with code {proc.returncode}:\n"
                          + "\n".join(err.strip().splitlines()[-15:]))
    return started, json.loads(out.strip().splitlines()[-1])


def summarize(records) -> dict:
    latencies = [r[1] for r in records]
    status = Counter(r[2] for r in records)
    n = len(records)
    wall = sum(latencies)
    return {
        "attempted": n, "ok": status["ok"], "unresolved": status["unresolved"],
        "failed": status["failed"], "wall_s": wall,
        "ops_per_s": n / wall,
        "op_p50_ms": 1000 * statistics.median(latencies),
        "op_p90_ms": 1000 * (statistics.quantiles(latencies, n=10)[-1]
                             if n >= 2 else latencies[0]),
        "failed_ratio": status["failed"] / n,
        "unresolved_ratio": status["unresolved"] / n,
        "correct_ratio": 1 - status["failed"] / n,
        "resolved_ratio": 1 - status["unresolved"] / n,
    }


def print_ops(workload, seed, rounds, summary, records):
    print(f"workload {workload}  seed {seed}  rounds {rounds}  "
          f"closed loop, 1 client, 1 process, 1 thread")
    print(f"ops {summary['attempted']}: ok {summary['ok']}, "
          f"unresolved {summary['unresolved']}, failed {summary['failed']}; "
          f"timed wall {summary['wall_s']:.3f} s (answer checks untimed)")
    groups = defaultdict(list)
    for name, elapsed, status, _ in records:
        groups[name].append((elapsed, status))
    print(f"{'instance':44} {'n':>4} {'p50_ms':>10} {'max_ms':>10} "
          f"{'ok':>4} {'unres':>5} {'failed':>6}")
    for name in sorted(groups):
        times = [t for t, _ in groups[name]]
        st = Counter(s for _, s in groups[name])
        print(f"{name:44} {len(times):4d} {1000 * statistics.median(times):10.2f} "
              f"{1000 * max(times):10.2f} {st['ok']:4d} {st['unresolved']:5d} "
              f"{st['failed']:6d}")
    for name, _, status, detail in [r for r in records if r[2] == "failed"][:10]:
        print(f"FAILED {name}: {detail}")


def print_metrics(rows):
    print(f"{'metric':44} {'value':>16} unit")
    for name, value, unit, note in rows:
        print(f"{name:44} {value:16.6f} {unit}{'  ' + note if note else ''}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.BUILDERS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true")
    args = ap.parse_args(argv)

    deadline = time.monotonic() + DEADLINE_S
    rounds = workloads.rounds_for(args.seconds)
    cmd = [sys.executable, str(BENCH / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--rounds", str(rounds)]
    if args.smoke:
        cmd.append("--smoke")
    try:
        if args.trace:
            _, plain = spawn(cmd, deadline)
            _, traced = spawn(cmd + ["--trace"], deadline)
        else:
            setups = []
            for _ in range(SETUP_SAMPLES):
                started, data = spawn(cmd + ["--setup-only"], deadline)
                setups.append(data["ready"] - started)
            started, plain = spawn(cmd, deadline)
            setups.append(plain["ready"] - started)
    except WorkerError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    summary = summarize(plain["records"])
    if args.trace:
        traced_summary = summarize(traced["records"])
        print_ops(args.workload, args.seed, rounds, traced_summary, traced["records"])
        layer = dict(traced["per_layer"])
        layer["trace.overhead_ratio"] = traced_summary["wall_s"] / summary["wall_s"]
        print_metrics([(name, layer[name], unit, "") for name, unit in spans.PER_LAYER])
        print(f"spans: {traced['trace_file']}")
        metrics = {name: {"value": layer[name], "unit": unit}
                   for name, unit in spans.PER_LAYER}
        failed = summary["failed"] + traced_summary["failed"]
        attempted = summary["attempted"] + traced_summary["attempted"]
    else:
        print_ops(args.workload, args.seed, rounds, summary, plain["records"])
        n = summary["attempted"]
        values = {**summary, "setup_s": statistics.median(setups),
                  "peak_rss_mb": plain["peak_rss_mb"]}
        notes = {"setup_s": f"median of {len(setups)} worker set-ups",
                 "op_p50_ms": f"{n} samples",
                 "op_p90_ms": f"{n} samples, {n - int(0.9 * n)} beyond p90"}
        print_metrics([(name, values[name], unit, notes.get(name, ""))
                       for name, unit in END_TO_END + SHARES])
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in END_TO_END}
        failed, attempted = summary["failed"], n
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
