import json
import os
import resource
import subprocess
import sys
from pathlib import Path

import pytest

from topab.cli import main
from topab import jsonio
from topab.groups import FinAbGroup
from topab.search import THEOREMS, FamilySpec
from topab.topology import discrete

from builders import (
    alg_extension_to_json,
    factor_set,
    indiscrete,
    split_extension,
    topologize,
)


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
    "argv, evaluated, filtered, failures",
    [((), 43, 38, 0), (("--drop", "b_discrete"), 81, 0, 4)],
)
def test_choice_discrete_filters_b_discrete(tmp_path, capsys, argv, evaluated, filtered, failures):
    """The family holds every cocycle instance, so `b_discrete` filters the
    non-discrete quotients, and dropping it finds the laws' witnesses."""
    code, out, err = run_cli(
        capsys, "search", "choice_discrete", "--max-order", "3", "--out", str(tmp_path), *argv
    )
    assert code == 0, err
    assert f"witnesses: {failures}" in out
    summary = json.loads((tmp_path / "choice_discrete.jsonl").read_text().splitlines()[-1])
    assert (summary["evaluated"], summary["filtered"], summary["failures"]) == (
        evaluated,
        filtered,
        failures,
    )
    assert summary["strata"] == {"cocycles": 81}


def test_python_m_topab_runs_the_cli():
    src = Path(__file__).resolve().parents[1] / "src"
    proc = subprocess.run(
        [sys.executable, "-m", "topab", "verify", "bogus"],
        env={**os.environ, "PYTHONPATH": str(src)},
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 2
    assert "unknown theorem" in proc.stderr


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
    z2 = FinAbGroup([2])
    a = write(tmp_path, "a.json", jsonio.to_json(discrete(z2)))
    b = write(tmp_path, "b.json", jsonio.to_json(discrete(z2)))
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
    z2 = FinAbGroup([2])
    a = write(tmp_path, "a.json", jsonio.to_json(discrete(z2)))
    b = write(tmp_path, "b.json", jsonio.to_json(discrete(z2)))
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
    z2 = FinAbGroup([2])
    a = write(tmp_path, "a.json", jsonio.to_json(discrete(z2)))
    b = write(tmp_path, "b.json", jsonio.to_json(indiscrete(z2)))
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
    z2 = FinAbGroup([2])
    a = write(tmp_path, "a.json", jsonio.to_json(discrete(z2)))
    b = write(tmp_path, "b.json", jsonio.to_json(discrete(z2)))
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


@pytest.mark.parametrize(
    "entry",
    [[[1.9], [1, 1]], [[1], [True, 1]], [[1], [1, 3]], [[1], [1, 0]]],
    ids=["float_b", "bool_pair_coordinate", "out_of_range_coordinate", "not_a_section"],
)
def test_extend_section_entries_decode_strictly(tmp_path, capsys, entry):
    """Section entries are decoded like every other JSON element: a float,
    a bool or an unreduced coordinate exits 2 instead of being coerced, and
    so does a table that is not a section of the projection."""
    z2 = {"moduli": [2]}
    top = write(tmp_path, "t.json", {"group": z2, "open_core": {"elements": [[0]]}})
    table = [[[x], [y], [x * y]] for x in range(2) for y in range(2)]
    h = write(tmp_path, "h.json", {"A": z2, "B": z2, "table": table})
    s = write(tmp_path, "s.json", {"table": [[[0], [0, 0]], entry]})
    assert_usage_error(*run_cli(capsys, "extend", top, top, h, "--section", s))


@pytest.mark.parametrize(
    "last_cocycle_entries, section",
    [
        ([[[1], [1], [1]], [[1], [1], [0]]], None),
        ([[[1], [1], [0]]], [[[0], [0, 0]], [[1], [1, 1]], [[1], [0, 1]]]),
    ],
    ids=["cocycle_lists_a_pair_twice", "section_lists_an_element_twice"],
)
def test_extend_rejects_repeated_table_keys(tmp_path, capsys, last_cocycle_entries, section):
    """A table that gives one key two values is malformed, whichever value
    comes last."""
    z2 = {"moduli": [2]}
    top = write(tmp_path, "t.json", {"group": z2, "open_core": {"elements": [[0]]}})
    table = [[[0], [0], [0]], [[0], [1], [0]], [[1], [0], [0]], *last_cocycle_entries]
    h = write(tmp_path, "h.json", {"A": z2, "B": z2, "table": table})
    argv = ["extend", top, top, h]
    if section is not None:
        argv += ["--section", write(tmp_path, "s.json", {"table": section})]
    assert_usage_error(*run_cli(capsys, *argv), "twice")


def test_extend_kernel_of_modulus_one(tmp_path, capsys):
    """Z/1 + Z/2 is Z/2: the generator of a Z/1 factor is 0, an element."""
    z1, z2 = {"moduli": [1]}, {"moduli": [2]}
    a = write(tmp_path, "a.json", {"group": z1, "open_core": {"elements": [[0]]}})
    b = write(tmp_path, "b.json", {"group": z2, "open_core": {"elements": [[0]]}})
    table = [[[x], [y], [0]] for x in range(2) for y in range(2)]
    h = write(tmp_path, "h.json", {"A": z1, "B": z2, "table": table})
    code, out, err = run_cli(capsys, "extend", a, b, h)
    assert code == 0, err
    assert json.loads(out)["group"]["moduli"] == [2]


def test_extend_malformed_exit_2(tmp_path, capsys):
    a = write(tmp_path, "a.json", {"nope": 1})
    code, _, _ = run_cli(capsys, "extend", a, a, a)
    assert code == 2


def test_extend_cocycle_over_other_groups_exit_2(tmp_path, capsys):
    """A cocycle over Z/2 with a kernel Z/4 is refused with the message of
    the witness decoders."""
    a = write(tmp_path, "a.json", jsonio.to_json(discrete(FinAbGroup([4]))))
    b = write(tmp_path, "b.json", jsonio.to_json(discrete(FinAbGroup([2]))))
    h = write(tmp_path, "h.json", jsonio.to_json(factor_set(FinAbGroup([2]), FinAbGroup([2]), {})))
    assert_usage_error(*run_cli(capsys, "extend", a, b, h), "cocycle groups do not match")


def test_dual_command(tmp_path, capsys):
    z4 = FinAbGroup([4])
    g = write(tmp_path, "g.json", jsonio.to_json(topologize(z4, [(0,), (2,)])))
    code, out, _ = run_cli(capsys, "dual", g)
    assert code == 0
    data = json.loads(out)
    assert data["structure"]["moduli"] == [2]
    assert len(data["characters"]) == 2


def test_dual_trivial(tmp_path, capsys):
    g = write(
        tmp_path,
        "g.json",
        jsonio.to_json(discrete(FinAbGroup([]))),
    )
    code, out, _ = run_cli(capsys, "dual", g)
    assert code == 0
    assert json.loads(out)["structure"]["moduli"] == []


def test_sections_command(tmp_path, capsys):
    # the Z/4 extension over Z/2 by Z/2, everything discrete
    z2, z4 = FinAbGroup([2]), FinAbGroup([4])
    e = write(
        tmp_path,
        "e.json",
        {
            "A": jsonio.to_json(discrete(z2)),
            "G": {"moduli": [4]},
            "B": jsonio.to_json(discrete(z2)),
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
    z4 = FinAbGroup([4])
    g = write(tmp_path, "g.json", jsonio.to_json(topologize(z4, [(0,), (2,)])))
    code, out, _ = run_cli(capsys, "dual", g)
    data = json.loads(out)
    # characters are characters of the base group
    for cj in data["characters"]:
        assert cj["denominator"] == z4.exponent
        values = {tuple(x): v for x, v in cj["values"]}
        assert sorted(values) == list(z4.elements)
        assert values[(2,)] == 0  # they all kill the open core


def assert_usage_error(code, out, err, *needles):
    """Exit 2 with a one-line message on stderr and nothing on stdout."""
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1, err
    for needle in needles:
        assert needle in err


@pytest.mark.parametrize(
    "command", ["verify", "search", "extend", "dual", "sections", "report"]
)
def test_unwritable_out_exit_2(tmp_path, capsys, command):
    """An --out path that cannot be written is a usage error: verify and
    search get an existing file for their report directory, the other
    commands a file in a missing directory."""
    z2 = discrete(FinAbGroup([2]))
    top = write(tmp_path, "t.json", jsonio.to_json(z2))
    h = write(tmp_path, "h.json", jsonio.to_json(factor_set(z2.group, z2.group, {})))
    inputs = {
        "verify": ["p3_generalized", "--max-order", "1"],
        "search": ["p3_generalized", "--max-order", "1"],
        "extend": [top, top, h],
        "dual": [top],
        "sections": [write(tmp_path, "e.json", alg_extension_to_json(split_extension(z2, z2).alg))],
        "report": [str(Path(__file__).parent / "golden" / "open_fibers.jsonl")],
    }
    out = top if command in ("verify", "search") else str(tmp_path / "missing" / "out")
    code, stdout, err = run_cli(capsys, command, *inputs[command], "--out", out)
    assert_usage_error(code, stdout, err, "cannot write")


@pytest.mark.parametrize("command", ["verify", "search"])
def test_unwritable_out_exits_before_the_search(tmp_path, capsys, monkeypatch, command):
    """The report directory is made before the family is built, so an
    existing file for it exits 2 with no search run."""
    from topab import cli

    def no_search(task):
        raise AssertionError("the search ran")

    monkeypatch.setattr(cli, "run_search", no_search)
    out = write(tmp_path, "file.json", {})
    code, stdout, err = run_cli(capsys, command, "p3_generalized", "--out", out)
    assert_usage_error(code, stdout, err, "cannot write")


@pytest.mark.parametrize("command, arity", [("extend", 3), ("dual", 1), ("sections", 1)])
def test_missing_input_returns_2(tmp_path, capsys, command, arity):
    """main returns 2 for an input that cannot be read, raising nothing, and
    does not call it an output error."""
    missing = str(tmp_path / "missing.json")
    code, stdout, err = run_cli(capsys, command, *[missing] * arity)
    assert_usage_error(code, stdout, err, f"cannot read {missing}")
    assert "output" not in err


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


def _limit_address_space():
    resource.setrlimit(resource.RLIMIT_AS, (2**30, 2**30))


@pytest.mark.parametrize("theorem", ["topologizable", "p3_generalized"])
def test_an_over_budget_order_is_refused_before_any_table_is_built(theorem):
    """At order 16 the first pair of groups over the budget is A = Z/3,
    B = Z/2 x Z/7, and the pairs before it hold about 1.2 M cocycle tables:
    the spec is refused before any of them is built, within 1 GB."""
    src = Path(__file__).resolve().parents[1] / "src"
    proc = subprocess.run(
        [sys.executable, "-m", "topab", "verify", theorem, "--max-order", "16"],
        env={**os.environ, "PYTHONPATH": str(src)},
        capture_output=True,
        text=True,
        timeout=60,
        preexec_fn=_limit_address_space,
    )
    assert_usage_error(proc.returncode, proc.stdout, proc.stderr, "A = Z/3,", "B = Z/2 x Z/7 ")


def _limit_address_space_to_100_mb():
    resource.setrlimit(resource.RLIMIT_AS, (100 << 20, 100 << 20))


def test_running_out_of_memory_is_one_line_and_exit_2():
    """topologizable at order 6 peaks near 500 MB: under a 100 MB address
    space the search raises MemoryError within seconds, and verify exits 2
    with one line that names the spec."""
    src = Path(__file__).resolve().parents[1] / "src"
    proc = subprocess.run(
        [sys.executable, "-m", "topab", "verify", "topologizable", "--max-order", "6"],
        env={**os.environ, "PYTHONPATH": str(src)},
        capture_output=True,
        text=True,
        timeout=60,
        preexec_fn=_limit_address_space_to_100_mb,
    )
    assert_usage_error(
        proc.returncode,
        proc.stdout,
        proc.stderr,
        "out of memory on topologizable at max order 6",
        "lower --max-order",
    )


def test_verify_writes_the_report_line_by_line(tmp_path, capsys, monkeypatch):
    """verify never joins the report: the JSONL it writes one line at a time
    is run_search(task).to_jsonl() byte for byte."""
    from topab.search import RunResult, SearchTask, run_search

    task = SearchTask("five_lemma_nagao", family=FamilySpec(max_group_order=2))
    expected = run_search(task).to_jsonl()
    assert expected.count("\n") > 1

    def joined(self):
        raise AssertionError("the whole report was joined")

    monkeypatch.setattr(RunResult, "to_jsonl", joined)
    code, out, err = run_cli(
        capsys, "verify", "five_lemma_nagao", "--max-order", "2", "--out", str(tmp_path)
    )
    assert (code, err) == (1, "")
    assert (tmp_path / "five_lemma_nagao.jsonl").read_bytes() == expected.encode()


def test_report_malformed_jsonl_exit_2(tmp_path, capsys):
    bad = tmp_path / "bad.jsonl"
    bad.write_text('{"type": "summary"\n', encoding="utf-8")
    code, out, err = run_cli(capsys, "report", str(bad))
    assert_usage_error(code, out, err, "malformed report")


@pytest.mark.parametrize("failure", [None, {"type": "failure", "details": 5}])
def test_report_incomplete_records_exit_2(tmp_path, capsys, failure):
    """A summary without its task, or a failure whose details are not a list
    of clauses, is a malformed report too."""
    golden = Path(__file__).parent / "golden" / "open_fibers.jsonl"
    summary = json.loads(golden.read_text(encoding="utf-8").splitlines()[-1])
    if failure is None:
        del summary["task"]
    records = [failure, summary] if failure else [summary]
    bad = tmp_path / "bad.jsonl"
    bad.write_text("".join(json.dumps(r) + "\n" for r in records), encoding="utf-8")
    assert_usage_error(*run_cli(capsys, "report", str(bad)), "malformed report")


@pytest.mark.parametrize(
    "edit, needle",
    [
        (lambda summary, _: summary["task"].update(dropped_hypotheses="abc"), "dropped_hypotheses"),
        (lambda summary, _: summary.update(evaluated="many"), "evaluated"),
        (lambda summary, _: summary.update(failures=summary["failures"] + 1), "failures"),
        (lambda summary, _: summary["task"].update(theorem=["a"]), "theorem"),
        (lambda summary, _: summary["task"]["family"].update(seed="x"), "seed"),
        (lambda summary, _: summary["task"]["family"].update(max_group_order="4"), "max_group_order"),
        (lambda summary, _: summary.update(strata={"diagonal": "lots"}), "strata"),
        (lambda summary, _: summary.update(strata=["diagonal"]), "strata"),
        (lambda _, failure: failure["details"][1].update(ok="no"), "details"),
        (lambda _, failure: failure.update(model_collapse="xy"), "model_collapse"),
    ],
    ids=[
        "dropped_not_a_list",
        "count_not_an_int",
        "failure_lines_missing",
        "theorem_not_a_string",
        "seed_not_an_int",
        "max_order_not_an_int",
        "stratum_count_not_an_int",
        "strata_not_a_mapping",
        "detail_ok_not_a_bool",
        "model_collapse_not_a_list",
    ],
)
def test_report_malformed_summary_exit_2(tmp_path, capsys, edit, needle):
    """A summary field or a failure-line field of the wrong type, or a
    failure count that is not the number of failure lines, is a malformed
    report, not a rendered one."""
    golden = Path(__file__).parent / "golden" / "open_fibers.jsonl"
    records = [json.loads(line) for line in golden.read_text(encoding="utf-8").splitlines()]
    edit(records[-1], records[0])
    bad = tmp_path / "bad.jsonl"
    bad.write_text("".join(json.dumps(r) + "\n" for r in records), encoding="utf-8")
    assert_usage_error(*run_cli(capsys, "report", str(bad)), "malformed report", needle)


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
    """verify exits 1 exactly when it finds a failure, also for a law that
    its golden report refutes: only the run's own failures set the code."""
    golden = Path(__file__).parent / "golden" / f"{theorem}.jsonl"
    assert json.loads(golden.read_text(encoding="utf-8").splitlines()[-1])["failures"] > 0
    got, out, _ = run_cli(capsys, "verify", theorem, *argv)
    assert got == code
    assert "instances evaluated: 0 " not in out
    assert ("conclusion failures: 0" in out) == (code == 0)


def test_sections_over_budget_exit_2_without_enumerating(tmp_path, capsys, monkeypatch):
    """A = Z/4, B = Z/11 has 4^10 sections, just over the budget: the command
    exits 2 with one line before it enumerates a section or builds a census."""
    from topab import cli

    assert cli._COCYCLE_BUDGET < 4**10 < 2 * cli._COCYCLE_BUDGET
    built = []
    monkeypatch.setattr(cli, "enumerate_sections", lambda alg: built.append(alg) or iter(()))
    monkeypatch.setattr(cli, "section_census", lambda alg: built.append(alg))
    e = write(
        tmp_path,
        "e.json",
        {
            "A": jsonio.to_json(discrete(FinAbGroup([4]))),
            "G": {"moduli": [44]},
            "B": jsonio.to_json(discrete(FinAbGroup([11]))),
            "iota": {"source": {"moduli": [4]}, "target": {"moduli": [44]}, "gen_images": [[11]]},
            "pi": {"source": {"moduli": [44]}, "target": {"moduli": [11]}, "gen_images": [[1]]},
        },
    )
    code, out, err = run_cli(capsys, "sections", e)
    assert_usage_error(code, out, err, "4^10 sections exceed the budget")
    assert built == []


def test_dual_over_budget_exit_2_without_building_characters(tmp_path, capsys, monkeypatch):
    """(Z/2)^10 has 1024 characters of 1024 values each, just over the budget:
    the command exits 2 with one line before it builds a character."""
    from topab import cli, duality

    assert cli._COCYCLE_BUDGET < 1024**2 < 2 * cli._COCYCLE_BUDGET
    built = []
    monkeypatch.setattr(duality, "hom_set", lambda G, circle: built.append(G) or ())
    g = write(tmp_path, "g.json", jsonio.to_json(discrete(FinAbGroup([2] * 10))))
    code, out, err = run_cli(capsys, "dual", g)
    assert_usage_error(code, out, err, "1024^2 character values exceed the budget")
    assert built == []
