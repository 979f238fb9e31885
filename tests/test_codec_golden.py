"""The JSON of every witness kind and of the extend, dual and sections
commands, byte for byte.

The golden reports pin only the witness kinds that some law reports at their
spec (squares with sections, five-lemma squares and cocycles), and other
tests read back only a few keys of the command outputs.  `golden/codec.txt`
pins the rest: one line per first instance of each (theorem, stratum) pair at
CODEC_SPEC, then one line per command on the small fixed inputs below.  Each
line is a label, a tab, and the JSON text.  The file was written before the
per-type encoders were gathered into `jsonio.to_json`.  Regenerate it only
for an intended change of the JSON format, and say why.
"""

import json
from pathlib import Path

from topab import jsonio
from topab.cli import main
from topab.search import THEOREMS, FamilySpec

GOLDEN_FILE = Path(__file__).parent / "golden" / "codec.txt"
CODEC_SPEC = FamilySpec(max_group_order=2, sample_count=10)

Z2 = {"moduli": [2]}

# name -> (command, {input file: JSON}, arguments after the command)
COMMANDS = {
    # the Z/4 extension of a discrete Z/2 by an indiscrete Z/2, its section
    # given in pair coordinates: s(1) = (1, 1)
    "extend": (
        "extend",
        {
            "a.json": {"group": Z2, "open_core": {"elements": [[0], [1]]}},
            "b.json": {"group": Z2, "open_core": {"elements": [[0]]}},
            "h.json": {
                "A": Z2,
                "B": Z2,
                "table": [[[x], [y], [x * y]] for x in range(2) for y in range(2)],
            },
            "s.json": {"table": [[[0], [0, 0]], [[1], [1, 1]]]},
        },
        ["a.json", "b.json", "h.json", "--section", "s.json"],
    ),
    # Z/2 + Z/4 with the open core generated by (0, 2)
    "dual": (
        "dual",
        {
            "g.json": {
                "group": {"moduli": [2, 4]},
                "open_core": {"elements": [[0, 0], [0, 2]]},
            }
        },
        ["g.json"],
    ),
    # Z/2 -> Z/2 + Z/4 -> Z/4, the quotient topologized by {0, 2}
    "sections": (
        "sections",
        {
            "e.json": {
                "A": {"group": Z2, "open_core": {"elements": [[0]]}},
                "G": {"moduli": [2, 4]},
                "B": {
                    "group": {"moduli": [4]},
                    "open_core": {"elements": [[0], [2]]},
                },
                "iota": {"source": Z2, "target": {"moduli": [2, 4]}, "gen_images": [[1, 0]]},
                "pi": {
                    "source": {"moduli": [2, 4]},
                    "target": {"moduli": [4]},
                    "gen_images": [[0], [1]],
                },
            }
        },
        ["e.json"],
    ),
}


def instance_lines() -> list[str]:
    lines = []
    for tid in THEOREMS:
        seen = set()
        for stratum, inst in THEOREMS[tid].build_family(CODEC_SPEC):
            if stratum not in seen:
                seen.add(stratum)
                lines.append(f"{tid}/{stratum}\t{jsonio.dumps(inst.to_json())}\n")
    return lines


def command_lines(tmp_path: Path) -> list[str]:
    lines = []
    for name, (command, inputs, args) in COMMANDS.items():
        d = tmp_path / name
        d.mkdir()
        for file, data in inputs.items():
            (d / file).write_text(json.dumps(data), encoding="utf-8")
        argv = [command] + [str(d / a) if a in inputs else a for a in args]
        out = d / "out.json"
        assert main(argv + ["--out", str(out)]) == 0, name
        lines.append(f"{name}\t{out.read_text(encoding='utf-8')}")
    return lines


def test_codec_matches_golden(tmp_path):
    got = instance_lines() + command_lines(tmp_path)
    expected = GOLDEN_FILE.read_text(encoding="utf-8").splitlines(keepends=True)
    assert len(got) == 26 + len(COMMANDS) == len(expected)
    for line, want in zip(got, expected):
        assert line == want, line.split("\t")[0]
