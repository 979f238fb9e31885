"""`topab sections` on every small extension, pinned by one SHA-256 per input.

The inputs are the extensions of every pair of topologized groups (every
pair of open cores) with |A| * |B| <= 8, each by the first 6 cocycles of its
pair, realized as `topab extend` realizes them.  Each line of
`golden/sections.txt` is a label, a tab, and the SHA-256 of the exit code
and the standard output of `topab sections` on that extension.  The file was
written before the command took its sections from the section census.
Regenerate it only for an intended change of the command's output, and say
why.
"""

import hashlib
import json
from pathlib import Path

from topab import jsonio
from topab.cli import main
from topab.extensions import realize_cocycle
from topab.search import all_cocycles, topologized_groups

GOLDEN_FILE = Path(__file__).parent / "golden" / "sections.txt"


def extension_inputs():
    """(label, extension JSON) for each input, in a fixed order."""
    tops = topologized_groups(8)
    for A_top in tops:
        for B_top in tops:
            A, B = A_top.group, B_top.group
            if A.order * B.order > 8:
                continue
            for i, h in enumerate(all_cocycles(A, B)[:6]):
                real = realize_cocycle(h)
                G = jsonio.to_json(real.G)
                data = {
                    "A": jsonio.to_json(A_top),
                    "G": G,
                    "B": jsonio.to_json(B_top),
                    "iota": {
                        "source": jsonio.to_json(A),
                        "target": G,
                        "gen_images": jsonio.to_json(real.iota),
                    },
                    "pi": {
                        "source": G,
                        "target": jsonio.to_json(B),
                        "gen_images": jsonio.to_json(real.pi),
                    },
                }
                label = f"{jsonio.dumps(data['A'])} {jsonio.dumps(data['B'])} {i}"
                yield label, data


def test_sections_command_matches_golden(tmp_path, capsys):
    got = []
    path = tmp_path / "e.json"
    for label, data in extension_inputs():
        path.write_text(json.dumps(data), encoding="utf-8")
        code = main(["sections", str(path)])
        out = capsys.readouterr().out
        digest = hashlib.sha256(f"{code}\n{out}".encode()).hexdigest()
        got.append(f"{label}\t{digest}\n")
    expected = GOLDEN_FILE.read_text(encoding="utf-8").splitlines(keepends=True)
    assert len(got) == 293 == len(expected)
    for line, want in zip(got, expected):
        assert line == want, line.split("\t")[0]
