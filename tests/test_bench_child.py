"""The benchmark's child process runs against this tree.

`perfbench/` wraps and reads topab's functions by name, and its own tests
sit outside `testpaths`; this spawns one traced child on the seconds-long
`tiny` workload, so a renamed or deleted name fails here too.
"""

import json
import os
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_the_traced_bench_child_runs_every_step(tmp_path):
    proc = subprocess.run(
        [
            sys.executable,
            str(ROOT / "perfbench" / "child.py"),
            "tiny",
            "0",
            "trace",
            repr(time.monotonic()),
            str(tmp_path / "spans.json"),
        ],
        cwd=ROOT,
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout)
    assert [step["theorem"] for step in out["steps"]] == ["open_fibers", "five_lemma_topological"]
    assert not [step["error"] for step in out["steps"] if "error" in step]
    assert isinstance(out["layers"], dict) and out["layers"]
