"""The report scripts print byte-identical output for the fixed inputs.

``scripts/engine_reports.py`` and ``scripts/collapse_reports.py`` print one
JSON line per CLI report.  This test pins the line count and the SHA-256
of each stdout, so any change to a verdict, height, strength, basis,
witness or report layout fails here.  A change that alters a report on
purpose updates the digest below and lists the old and new digest in
CHANGES.md.
"""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]

REPORTS = {
    "engine_reports.py": (
        149, "e2bcb8e5ee168357adf7b8ca49dc8402ab2234311d98c47e7347c7aad2a614ad"),
    "collapse_reports.py": (
        200, "81d0c8ec1061a003d31de3194e0505190aeeb33c0debd878e9d20fbd6eed5007"),
}


@pytest.mark.parametrize("script", sorted(REPORTS))
def test_report_script_is_byte_identical(script):
    lines, digest = REPORTS[script]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    done = subprocess.run([sys.executable, str(ROOT / "scripts" / script)],
                          cwd=ROOT, env=env, capture_output=True, timeout=300)
    assert done.returncode == 0, done.stderr.decode()
    assert done.stdout.count(b"\n") == lines
    assert hashlib.sha256(done.stdout).hexdigest() == digest
