import json

import pytest

from topab.cli import main
from topab import jsonio
from topab.groups import make_group
from topab.search import THEOREMS, FamilySpec
from topab.topology import discrete, indiscrete, topologize


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def write(tmp_path, name, data):
    p = tmp_path / name
    p.write_text(json.dumps(data), encoding="utf-8")
    return str(p)


def test_verify_small_pass(tmp_path, capsys):
    code, out, _ = run_cli(
        capsys,
        "verify",
        "p3_generalized",
        "--max-order",
        "2",
        "--strata",
        "squares_small",
        "--out",
        str(tmp_path / "reports"),
    )
    assert code == 0
    assert "conclusion failures: 0" in out
    jsonl = (tmp_path / "reports" / "p3_generalized.jsonl").read_text()
    assert json.loads(jsonl.splitlines()[-1])["failures"] == 0


def test_verify_unknown_theorem(capsys):
    code, _, err = run_cli(capsys, "verify", "bogus")
    assert code == 2
    assert "unknown theorem" in err


def test_verify_failure_exit_code(tmp_path, capsys):
    code, out, _ = run_cli(
        capsys,
        "verify",
        "five_lemma_nagao",
        "--max-order",
        "2",
        "--strata",
        "squares_small",
    )
    assert code == 1


def test_search_finds_witnesses(capsys):
    code, out, _ = run_cli(
        capsys,
        "search",
        "p3_generalized",
        "--drop",
        "alpha_continuous",
        "--max-order",
        "2",
        "--strata",
        "squares_small",
        "--stop-at-first",
    )
    assert code == 0
    assert "witnesses: 1" in out


def test_search_unknown_hypothesis(capsys):
    code, _, err = run_cli(capsys, "search", "p3_generalized", "--drop", "nope")
    assert code == 2
    assert "droppable" in err


@pytest.mark.parametrize(
    "theorem, hypothesis",
    [
        ("nagao_comparison", "has_topologizing_sections"),
        ("choice_discrete", "b_discrete"),
    ],
)
def test_search_drops_every_reported_hypothesis(capsys, theorem, hypothesis):
    code, out, err = run_cli(
        capsys, "search", theorem, "--drop", hypothesis, "--max-order", "2"
    )
    assert code == 0, err
    assert f"dropped hypotheses: {hypothesis}" in out


@pytest.mark.parametrize(
    "strata, bad", [("foo", "foo"), ("diagonal,squars_small", "squars_small")]
)
def test_verify_unknown_stratum(capsys, strata, bad):
    code, out, err = run_cli(
        capsys, "verify", "open_fibers", "--max-order", "2", "--strata", strata
    )
    assert code == 2
    assert out == ""
    [line] = err.splitlines()
    assert repr(bad) in line
    assert "squares_small, diagonal, sampled" in line


def test_strata_come_in_declaration_order():
    spec = FamilySpec(max_group_order=2, generators=("diagonal", "squares_small"))
    strata = [name for name, _ in THEOREMS["open_fibers"].build_family(spec)]
    small, diagonal = strata.count("squares_small"), strata.count("diagonal")
    assert small > 0 and diagonal > 0
    assert strata == ["squares_small"] * small + ["diagonal"] * diagonal


def test_extend_zero_cocycle(tmp_path, capsys):
    z2 = make_group([2])
    a = write(tmp_path, "a.json", jsonio.topgroup_to_json(discrete(z2)))
    b = write(tmp_path, "b.json", jsonio.topgroup_to_json(discrete(z2)))
    h = write(
        tmp_path,
        "h.json",
        {
            "A": {"moduli": [2]},
            "B": {"moduli": [2]},
            "table": [[[0], [0], [0]], [[0], [1], [0]], [[1], [0], [0]], [[1], [1], [0]]],
        },
    )
    code, out, _ = run_cli(capsys, "extend", a, b, h)
    assert code == 0
    data = json.loads(out)
    assert data["group"]["moduli"] == [2, 2]
    assert len(data["theta_table"]) == 4


def test_extend_twisted_cocycle_gives_z4(tmp_path, capsys):
    z2 = make_group([2])
    a = write(tmp_path, "a.json", jsonio.topgroup_to_json(discrete(z2)))
    b = write(tmp_path, "b.json", jsonio.topgroup_to_json(discrete(z2)))
    h = write(
        tmp_path,
        "h.json",
        {
            "A": {"moduli": [2]},
            "B": {"moduli": [2]},
            "table": [[[0], [0], [0]], [[0], [1], [0]], [[1], [0], [0]], [[1], [1], [1]]],
        },
    )
    code, out, _ = run_cli(capsys, "extend", a, b, h)
    assert code == 0
    data = json.loads(out)
    assert data["group"]["moduli"] == [4]
    assert data["open_core"]["elements"] == [[0]]


def test_extend_not_topologizing_exit_3(tmp_path, capsys):
    z2 = make_group([2])
    a = write(tmp_path, "a.json", jsonio.topgroup_to_json(discrete(z2)))
    b = write(tmp_path, "b.json", jsonio.topgroup_to_json(indiscrete(z2)))
    h = write(
        tmp_path,
        "h.json",
        {
            "A": {"moduli": [2]},
            "B": {"moduli": [2]},
            "table": [[[0], [0], [0]], [[0], [1], [0]], [[1], [0], [0]], [[1], [1], [1]]],
        },
    )
    code, _, err = run_cli(capsys, "extend", a, b, h)
    assert code == 3
    assert "not topologizing" in err


def test_extend_with_explicit_section(tmp_path, capsys):
    z2 = make_group([2])
    a = write(tmp_path, "a.json", jsonio.topgroup_to_json(discrete(z2)))
    b = write(tmp_path, "b.json", jsonio.topgroup_to_json(discrete(z2)))
    h = write(
        tmp_path,
        "h.json",
        {
            "A": {"moduli": [2]},
            "B": {"moduli": [2]},
            "table": [[[0], [0], [0]], [[0], [1], [0]], [[1], [0], [0]], [[1], [1], [1]]],
        },
    )
    # section in pair coordinates: s(1) = (1, 1)
    s = write(tmp_path, "s.json", {"table": [[[0], [0, 0]], [[1], [1, 1]]]})
    code, out, _ = run_cli(capsys, "extend", a, b, h, "--section", s)
    assert code == 0


def test_extend_malformed_exit_2(tmp_path, capsys):
    a = write(tmp_path, "a.json", {"nope": 1})
    code, _, _ = run_cli(capsys, "extend", a, a, a)
    assert code == 2


def test_dual_command(tmp_path, capsys):
    z4 = make_group([4])
    g = write(tmp_path, "g.json", jsonio.topgroup_to_json(topologize(z4, [(0,), (2,)])))
    code, out, _ = run_cli(capsys, "dual", g)
    assert code == 0
    data = json.loads(out)
    assert data["structure"]["moduli"] == [2]
    assert len(data["characters"]) == 2


def test_dual_trivial(tmp_path, capsys):
    g = write(
        tmp_path,
        "g.json",
        jsonio.topgroup_to_json(discrete(make_group([]))),
    )
    code, out, _ = run_cli(capsys, "dual", g)
    assert code == 0
    assert json.loads(out)["structure"]["moduli"] == []


def test_sections_command(tmp_path, capsys):
    # the Z/4 extension over Z/2 by Z/2, everything discrete
    z2, z4 = make_group([2]), make_group([4])
    e = write(
        tmp_path,
        "e.json",
        {
            "A": jsonio.topgroup_to_json(discrete(z2)),
            "G": {"moduli": [4]},
            "B": jsonio.topgroup_to_json(discrete(z2)),
            "iota": {
                "source": {"moduli": [2]},
                "target": {"moduli": [4]},
                "gen_images": [[2]],
            },
            "pi": {
                "source": {"moduli": [4]},
                "target": {"moduli": [2]},
                "gen_images": [[1]],
            },
        },
    )
    code, out, _ = run_cli(capsys, "sections", e)
    assert code == 0
    data = json.loads(out)
    assert len(data["sections"]) == 2
    assert data["topologizing"] == [0, 1]
    assert len(data["topology_classes"]) == 1


def test_report_roundtrip(tmp_path, capsys):
    out_dir = tmp_path / "reports"
    code, _, _ = run_cli(
        capsys,
        "verify",
        "five_lemma_nagao",
        "--max-order",
        "2",
        "--strata",
        "squares_small",
        "--out",
        str(out_dir),
    )
    assert code == 1
    code, out, _ = run_cli(capsys, "report", str(out_dir / "five_lemma_nagao.jsonl"))
    assert code == 0
    assert "# five_lemma_nagao" in out
    assert "failures:" in out


def test_outputs_reparse_roundtrip(tmp_path, capsys):
    z4 = make_group([4])
    g = write(tmp_path, "g.json", jsonio.topgroup_to_json(topologize(z4, [(0,), (2,)])))
    code, out, _ = run_cli(capsys, "dual", g)
    data = json.loads(out)
    # characters are characters of the base group
    for cj in data["characters"]:
        chi = jsonio.character_from_json(z4, cj)
        assert chi((2,)) == 0  # they all kill the open core


def assert_usage_error(code, out, err, *needles):
    """Exit 2 with a one-line message on stderr and nothing on stdout."""
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1, err
    for needle in needles:
        assert needle in err


def test_verify_max_order_zero_exit_2(capsys):
    code, out, err = run_cli(capsys, "verify", "p3_generalized", "--max-order", "0")
    assert_usage_error(code, out, err, "max_group_order must be at least 1")


def test_verify_budget_exceeded_exit_2(capsys):
    code, out, err = run_cli(
        capsys,
        "verify",
        "p3_generalized",
        "--max-order",
        "8",
        "--strata",
        "sampled",
        "--sample",
        "1",
    )
    assert_usage_error(code, out, err, "exceed the budget")


def test_report_malformed_jsonl_exit_2(tmp_path, capsys):
    bad = tmp_path / "bad.jsonl"
    bad.write_text('{"type": "summary"\n', encoding="utf-8")
    code, out, err = run_cli(capsys, "report", str(bad))
    assert_usage_error(code, out, err, "malformed report")


def test_search_negative_max_cocycles_exit_2(capsys):
    code, out, err = run_cli(
        capsys, "search", "p3_generalized", "--max-order", "2", "--max-cocycles", "-1"
    )
    assert_usage_error(code, out, err, "max_cocycle_count must be at least 0")


def test_verify_negative_sample_exit_2(capsys):
    code, out, err = run_cli(
        capsys, "verify", "p3_generalized", "--max-order", "2", "--sample", "-1"
    )
    assert_usage_error(code, out, err, "sample_count must be at least 0")



@pytest.mark.parametrize(
    "command, data",
    [
        ("dual", {"group": {"moduli": [2]}}),  # no open_core
        ("dual", [{"moduli": [2]}]),  # a top-level array
        ("dual", {"group": {"moduli": ["x"]}, "open_core": {"elements": []}}),
        ("sections", []),
        ("extend", []),
    ],
)
def test_input_of_wrong_shape_exit_2(tmp_path, capsys, command, data):
    path = write(tmp_path, "in.json", data)
    args = [path] * (3 if command == "extend" else 1)
    assert_usage_error(*run_cli(capsys, command, *args))


@pytest.mark.parametrize(
    "data",
    [
        {"group": {"moduli": [2.7]}, "open_core": {"elements": [[0]]}},
        {"group": {"moduli": [True, "3"]}, "open_core": {"elements": [[0, 0]]}},
        {"group": {"moduli": [4]}, "open_core": {"elements": [[0], [2.9]]}},
    ],
    ids=["float_modulus", "bool_and_string_moduli", "float_core_element"],
)
def test_non_integer_json_entry_exit_2(tmp_path, capsys, data):
    path = write(tmp_path, "in.json", data)
    assert_usage_error(*run_cli(capsys, "dual", path), "expected an array of integers")


@pytest.mark.parametrize(
    "theorem, argv, code",
    [
        ("five_lemma_nagao", ["--max-order", "1"], 0),
        ("open_fibers", ["--max-order", "2", "--strata", "squares_small"], 1),
    ],
)
def test_verify_exit_code_ignores_expect_zero_failures(capsys, theorem, argv, code):
    """verify exits 1 exactly when it finds a failure, also for the refuted
    laws that the registry declares with expect_zero_failures=False."""
    assert THEOREMS[theorem].expect_zero_failures is False
    got, out, _ = run_cli(capsys, "verify", theorem, *argv)
    assert got == code
    assert "instances evaluated: 0 " not in out
    assert ("conclusion failures: 0" in out) == (code == 0)
