"""Golden reports: every theorem's JSONL at a small pinned spec, byte for byte.

The files under tests/golden/ were written by `run_search(...).to_jsonl()` at
GOLDEN_SPEC before the runner and the instance code were refactored.  The
spec covers every stratum of every family and 293 witnesses, so a change to
the family order, a verdict, a detail or a shrunk witness shows here.
Regenerate a file only for an intended change of the reports, and say why.
"""

from pathlib import Path

import pytest

from topab.search import THEOREMS, FamilySpec, SearchTask, run_search

GOLDEN = Path(__file__).parent / "golden"
GOLDEN_SPEC = FamilySpec(max_group_order=3, sample_count=60, seed=0)


def test_one_golden_file_per_theorem():
    assert sorted(p.stem for p in GOLDEN.glob("*.jsonl")) == sorted(THEOREMS)


@pytest.mark.parametrize("theorem", sorted(THEOREMS))
def test_report_matches_golden(theorem):
    expected = (GOLDEN / f"{theorem}.jsonl").read_text(encoding="utf-8")
    got = run_search(SearchTask(theorem, (), GOLDEN_SPEC)).to_jsonl()
    assert got == expected
