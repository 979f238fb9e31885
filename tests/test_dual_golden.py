"""The dual groups and dual maps of every small topologized group, pinned by digest.

`golden/dual.txt` holds two lines, each a label, a tab, and a SHA-256:
- over `jsonio.dumps(to_json(dual_group(T)))`, one line per topologized
  group T of order <= 16;
- over the table of `dual_hom(f)`, one line per continuous map f between
  topologized groups of order <= 6, whose exponents 1 to 6 exercise the
  rescaling of character values.

The file was written while characters were a class of their own, before
they became homomorphisms into a cyclic group.  Regenerate it only for an
intended change of the dual, and say why.
"""

import hashlib
from pathlib import Path

from topab import jsonio
from topab.duality import dual_group, dual_hom
from topab.groups import hom_set
from topab.search import topologized_groups
from topab.topology import TopHom, is_continuous

GOLDEN_FILE = Path(__file__).parent / "golden" / "dual.txt"


def _digest(lines) -> tuple[int, str]:
    digest, count = hashlib.sha256(), 0
    for line in lines:
        digest.update((line + "\n").encode())
        count += 1
    return count, digest.hexdigest()


def dual_group_lines():
    for t in topologized_groups(16):
        yield jsonio.dumps(jsonio.to_json(dual_group(t)))


def dual_hom_lines():
    tops = topologized_groups(6)
    for s in tops:
        for t in tops:
            for f in hom_set(s.group, t.group):
                th = TopHom(f, s, t)
                if is_continuous(th):
                    df = dual_hom(th)
                    yield jsonio.dumps(
                        jsonio.to_json((s, t, f, df.source, df.target, tuple(df.table.items())))
                    )


def digest_lines() -> list[str]:
    lines = []
    for label, gen in (("dual_group", dual_group_lines), ("dual_hom", dual_hom_lines)):
        count, sha = _digest(gen())
        lines.append(f"{label} {count}\t{sha}\n")
    return lines


def test_duals_match_golden():
    got = digest_lines()
    assert [line.split("\t")[0] for line in got] == ["dual_group 215", "dual_hom 936"]
    assert got == GOLDEN_FILE.read_text(encoding="utf-8").splitlines(keepends=True)
