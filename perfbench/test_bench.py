"""The benchmark's own test, on a seconds-long spec (max order 2).

    python3 -m pytest perfbench/test_bench.py
"""

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import tracer  # noqa: E402

BENCH = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
TINY = ["--workload", "tiny", "--seed", "0", "--seconds", "1"]


def drive(cwd, *args):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=170,
    )


@pytest.mark.parametrize("trace, key", [("0", "end_to_end"), ("1", "per_layer")])
def test_every_metric_is_emitted_with_its_unit(trace, key):
    proc = drive(ROOT, *TINY, "--trace", trace)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 2
    emitted = {name: m["unit"] for name, m in result["metrics"].items()}
    assert emitted == {m["name"]: m["unit"] for m in BENCH[key]}
    assert any(line.startswith("ops_failed_share: 0 ratio") for line in lines)
    assert any(line.startswith("run record: ") for line in lines)


def test_benchmark_json_lists_the_traced_metrics():
    assert [(m["name"], m["unit"]) for m in BENCH["per_layer"]] == list(tracer.PER_LAYER)
    assert [(m["name"], m["unit"]) for m in BENCH["end_to_end"]] == list(run.END_TO_END)


def test_verdict_check_fires_on_a_tampered_count(monkeypatch, capsys):
    tiny = run.WORKLOADS["tiny"]
    evaluated, filtered, failures = tiny.expected["open_fibers"]
    tampered = {**tiny.expected, "open_fibers": (evaluated, filtered, failures + 1)}
    monkeypatch.setitem(run.WORKLOADS, "tiny", dataclasses.replace(tiny, expected=tampered))
    code = run.main([*TINY, "--trace", "0"])
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert code != 0
    assert not result["correct"] and result["failed"] == 1


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__", "out"))
    proc = drive(tmp_path, *TINY, "--trace", "0")
    assert proc.returncode != 0
    assert proc.stdout == ""
