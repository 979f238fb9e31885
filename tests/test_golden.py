"""Golden reports: every theorem's JSONL and Markdown at a small pinned spec,
byte for byte.

The `.jsonl` files under tests/golden/ were written by
`run_search(...).to_jsonl()` at GOLDEN_SPEC before the runner and the instance
code were refactored; the `.md` files by `run_search(...).to_markdown()`
before the verifiers were gathered into one module.  The `.jsonl` files were
rewritten once since, when failure records stopped carrying the witness a
second time under `instance`: each line is the old line without that key.
The two `choice_discrete` files were rewritten when its family stopped
keeping only discrete quotients: only the filtered and strata counts moved.
The spec covers every stratum of every family and 293 witnesses, so a change
to the family order, a verdict, a detail or a shrunk witness shows here.
Regenerate a file only for an intended change of the reports, and say why.
`topab report` renders each `.md` file from its `.jsonl` file alone.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from topab.cli import main
from topab.search import THEOREMS, FamilySpec, SearchTask, run_search

GOLDEN = Path(__file__).parent / "golden"
GOLDEN_SPEC = FamilySpec(max_group_order=3, sample_count=60, seed=0)


def test_one_golden_file_per_theorem():
    for suffix in (".jsonl", ".md"):
        assert sorted(p.stem for p in GOLDEN.glob(f"*{suffix}")) == sorted(THEOREMS), suffix


@pytest.mark.parametrize("theorem", sorted(THEOREMS))
def test_report_matches_golden(theorem):
    result = run_search(SearchTask(theorem, (), GOLDEN_SPEC))
    for suffix, got in ((".jsonl", result.to_jsonl()), (".md", result.to_markdown())):
        expected = (GOLDEN / f"{theorem}{suffix}").read_text(encoding="utf-8")
        assert got == expected, f"{theorem}{suffix}"


@pytest.mark.parametrize("theorem", sorted(THEOREMS))
def test_report_command_prints_the_golden_markdown(theorem, capsys):
    """`topab report T.jsonl` prints the Markdown that verify wrote for the run."""
    assert main(["report", str(GOLDEN / f"{theorem}.jsonl")]) == 0
    out = capsys.readouterr()
    assert out.err == ""
    assert out.out == (GOLDEN / f"{theorem}.md").read_text(encoding="utf-8")


@pytest.mark.parametrize("theorem", ["open_fibers", "nagao_comparison"])
def test_verify_writes_the_golden_bytes_under_any_hash_seed(theorem, tmp_path):
    """Interned values hash by identity, so a set of them would iterate in
    another order in each process.  A square law and a cocycle law, run by
    `python -m topab verify` at GOLDEN_SPEC under two hash seeds, write the
    golden files and print the golden Markdown."""
    src = Path(__file__).resolve().parents[1] / "src"
    spec = GOLDEN_SPEC
    argv = [sys.executable, "-m", "topab", "verify", theorem]
    argv += ["--max-order", str(spec.max_group_order), "--sample", str(spec.sample_count)]
    argv += ["--seed", str(spec.seed)]
    jsonl = (GOLDEN / f"{theorem}.jsonl").read_bytes()
    md = (GOLDEN / f"{theorem}.md").read_bytes()
    failures = json.loads(jsonl.splitlines()[-1])["failures"]
    for hash_seed in ("0", "1"):
        out = tmp_path / hash_seed
        proc = subprocess.run(
            [*argv, "--out", str(out)],
            env={**os.environ, "PYTHONPATH": str(src), "PYTHONHASHSEED": hash_seed},
            capture_output=True,
            timeout=300,
        )
        assert (proc.returncode, proc.stderr) == (1 if failures else 0, b"")
        assert proc.stdout == md
        assert (out / f"{theorem}.jsonl").read_bytes() == jsonl
        assert (out / f"{theorem}.md").read_bytes() == md
