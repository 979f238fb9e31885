"""Golden reports: every theorem's JSONL and Markdown at a small pinned spec,
byte for byte.

The `.jsonl` files under tests/golden/ were written by
`run_search(...).to_jsonl()` at GOLDEN_SPEC before the runner and the instance
code were refactored; the `.md` files by `run_search(...).to_markdown()`
before the verifiers were gathered into one module.  The `.jsonl` files were
rewritten once since, when failure records stopped carrying the witness a
second time under `instance`: each line is the old line without that key.
The spec covers every stratum of every family and 293 witnesses, so a change
to the family order, a verdict, a detail or a shrunk witness shows here.
Regenerate a file only for an intended change of the reports, and say why.
"""

from pathlib import Path

import pytest

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
