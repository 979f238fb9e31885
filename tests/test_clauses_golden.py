"""Every clause of every law on every instance, pinned by digest.

The golden reports list only the failures of a law under its hypotheses.
`golden/clauses.txt` pins every verdict: each law below is evaluated on
every instance of its family with every hypothesis dropped, so each instance
reports its hypotheses, its conclusion and all of its conclusion clauses.
Per law the file holds the instance count, the number of instances on which
each clause fails, and a SHA-256 over one canonical JSON line per instance,
in family order: `[index, hypotheses, conclusion, details]`.  The file was
written before the exactness of extensions, of the `haus_exactness`
sequences and of the five-lemma rows was decided in one place; the lines of
the other eight laws, at the golden spec, before factor sets were interned.
Regenerate it only for an intended change of a verdict, and say why.
"""

import hashlib
import json
from pathlib import Path

import pytest
from test_golden import GOLDEN_SPEC

from topab.search import THEOREMS, FamilySpec

GOLDEN_FILE = Path(__file__).parent / "golden" / "clauses.txt"
DEFAULT_SPEC = FamilySpec(max_group_order=4, sample_count=400, seed=0)

LAWS = {
    "haus_exactness": DEFAULT_SPEC,
    "five_lemma_topological": GOLDEN_SPEC,
    "five_lemma_topological_relaxed": GOLDEN_SPEC,
    "p3_generalized": GOLDEN_SPEC,
    "open_fibers": GOLDEN_SPEC,
    "p3_discrete": GOLDEN_SPEC,
    "five_lemma_nagao": GOLDEN_SPEC,
    "strictness_injectivity": GOLDEN_SPEC,
    "nagao_comparison": GOLDEN_SPEC,
    "choice_discrete": GOLDEN_SPEC,
    "topologizable": GOLDEN_SPEC,
}


def clause_lines(theorem_id: str, spec: FamilySpec) -> list[str]:
    info = THEOREMS[theorem_id]
    dropped = frozenset(info.law.droppable)
    digest, failing, count = hashlib.sha256(), {}, 0
    for i, (_, inst) in enumerate(info.build_family(spec)):
        rep = info.law(inst.build(), dropped)
        line = [i, rep.hypotheses_checked, rep.conclusion_checked, rep.details]
        digest.update((json.dumps(line, separators=(",", ":")) + "\n").encode())
        for name, ok in rep.details:
            failing[name] = failing.get(name, 0) + (not ok)
        count += 1
    return [
        f"{theorem_id}\tinstances\t{count}\n",
        f"{theorem_id}\tfailing\t{json.dumps(failing, sort_keys=True)}\n",
        f"{theorem_id}\tsha256\t{digest.hexdigest()}\n",
    ]


def golden_lines(theorem_id: str) -> list[str]:
    lines = GOLDEN_FILE.read_text(encoding="utf-8").splitlines(keepends=True)
    return [line for line in lines if line.split("\t")[0] == theorem_id]


@pytest.mark.parametrize("theorem_id", LAWS)
def test_every_clause_matches_golden(theorem_id):
    assert clause_lines(theorem_id, LAWS[theorem_id]) == golden_lines(theorem_id)
