"""Print every CLI report of the benchmark's collapse workload, one JSON line each.

Runs ``strength`` and ``collapse --k 2`` on each of the 80 collapse-pool
forms, and ``descend --policy maximal`` on the 20 descent fixtures with
seeds 0 and 1, exactly as ``bench/workloads.py`` builds them.  Each line
holds the argv, the exit code and the report text.  Run it in two
checkouts and compare the outputs to show that a change leaves every
report byte-identical:

    PYTHONPATH=src python3 scripts/collapse_reports.py > reports.jsonl
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))

import workloads  # noqa: E402

import smallsub  # noqa: E402
import smallsub.cli  # noqa: E402


def argvs():
    for item in workloads.collapse_pool():
        yield workloads.strength_argv(item)
        yield workloads.collapse_argv(item)
    for seed in (0, 1):
        for j, fixture in enumerate(workloads.DESCENT_FIXTURES):
            yield workloads.descend_argv(fixture, seed + j)


def main() -> int:
    for argv in argvs():
        code, out, err = workloads.run_cli(smallsub, argv)
        print(json.dumps({"argv": argv, "code": code, "stdout": out, "stderr": err}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
