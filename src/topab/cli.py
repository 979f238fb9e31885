"""Command-line front end: verify, search, extend, dual, sections, report.

Exit codes: 0 success (for verify: zero conclusion failures), 1 conclusion
failures found in verify mode, 2 usage, malformed input or an --out path that
cannot be written, 3 domain rejection (a non-topologizing section).  All
outputs are deterministic given the inputs and seed.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .errors import (
    BudgetExceeded,
    InvalidFamilySpec,
    InvalidSection,
    NotTopologizing,
    TopabError,
    UnknownHypothesis,
    UnknownTheorem,
)
from .extensions import (
    canonical_section,
    cocycle_extension,
    enumerate_sections,
    nagao_topology,
    realize_cocycle,
    section_census,
    section_for,
)
from .duality import dual_group
from . import jsonio
from .search import (
    _COCYCLE_BUDGET,
    FamilySpec,
    SearchTask,
    _check_task,
    markdown_report,
    run_search,
)


def _read(path: str):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise TopabError(f"cannot read {path}: {exc}") from None


def _emit(data: dict, out: str | None) -> None:
    text = jsonio.dumps(data) + "\n"
    if out:
        Path(out).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)


def _family_from_args(args) -> FamilySpec:
    return FamilySpec(
        max_group_order=args.max_order,
        max_cocycle_count="all" if args.max_cocycles is None else args.max_cocycles,
        seed=args.seed,
        generators=tuple(args.strata.split(",")) if args.strata else (),
        sample_count=args.sample,
    )


# Errors of a verify or search request, reported as usage errors (exit 2).
_RUN_ERRORS = (UnknownTheorem, UnknownHypothesis, InvalidFamilySpec, BudgetExceeded)

# Errors of decoding a JSON input that has the wrong shape (a missing key, an
# array for an object, a non-integer entry) or denotes no valid value; exit 2.
_DECODE_ERRORS = (TopabError, KeyError, ValueError, IndexError, TypeError)


def cmd_run(args) -> int:
    """`verify` and `search`: run the theorem over its family and write the
    report.  `search` may drop hypotheses and stop at the first witness; it
    prints the witness count and exits 0, where `verify` exits 1 on a failure.
    Running out of memory is exit 2 and one line."""
    hook, sys.unraisablehook = sys.unraisablehook, _quiet_memory_errors
    try:
        task = SearchTask(
            args.theorem,
            tuple(args.drop or ()),
            _family_from_args(args),
            stop_at_first=args.stop_at_first,
        )
        # a bad task or an unwritable report directory fails before the search
        _check_task(task)
        if args.out:
            Path(args.out).mkdir(parents=True, exist_ok=True)
        code = _run_and_write(task, args)
    except _RUN_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError:
        code = None  # reported below, once the handler has let the run's frames go
    finally:
        sys.unraisablehook = hook
    if code is None:
        family = task.family
        print(
            f"error: out of memory on {task.theorem_id} at max order"
            f" {family.max_group_order}, seed {family.seed}; lower --max-order",
            file=sys.stderr,
        )
        return 2
    return code


def _quiet_memory_errors(unraisable) -> None:
    """A generator that a MemoryError closes on its way out of the run may
    fail to allocate its own GeneratorExit; cmd_run reports the first one."""
    if not issubclass(unraisable.exc_type, MemoryError):
        sys.__unraisablehook__(unraisable)


def _run_and_write(task: SearchTask, args) -> int:
    """Search, then write the JSONL report line by line and the Markdown."""
    result = run_search(task)
    md = result.to_markdown()
    if args.out:
        d = Path(args.out)
        with open(d / f"{task.theorem_id}.jsonl", "w", encoding="utf-8") as fh:
            fh.writelines(result.lines())
        (d / f"{task.theorem_id}.md").write_text(md, encoding="utf-8")
    sys.stdout.write(md)
    if args.command == "search":
        print(f"witnesses: {result.failure_count}")
        return 0
    return 0 if result.failure_count == 0 else 1


def cmd_extend(args) -> int:
    try:
        a_top = jsonio.topgroup_from_json(_read(args.kernel))
        b_top = jsonio.topgroup_from_json(_read(args.quotient))
        h = jsonio.cocycle_from_json(_read(args.cocycle))
        alg = cocycle_extension(a_top, b_top, h)
        real = realize_cocycle(h)
        if args.section:
            data = _read(args.section)
            A, B = a_top.group, b_top.group
            mapping = {}
            for b_raw, g_raw in data["table"]:
                b = jsonio.element_from_json(B, b_raw)
                if b in mapping:
                    raise InvalidSection(f"section table lists {b} twice")
                pair_a = jsonio.element_from_json(A, g_raw[: A.rank])
                pair_b = jsonio.element_from_json(B, g_raw[A.rank :])
                mapping[b] = real.from_pair[(pair_a, pair_b)]
            s = section_for(alg, mapping)
        else:
            s = canonical_section(alg)
    except _DECODE_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        ext = nagao_topology(alg, s)
    except NotTopologizing as exc:
        print(f"not topologizing: {exc}", file=sys.stderr)
        return 3
    theta = tuple((a + b, real.from_pair[(a, b)]) for a, b in sorted(real.from_pair))
    _emit({**jsonio.to_json(ext.G), "theta_table": jsonio.to_json(theta)}, args.out)
    return 0


def cmd_dual(args) -> int:
    try:
        t = jsonio.topgroup_from_json(_read(args.group))
        n = t.group.order
        if n**2 > _COCYCLE_BUDGET:
            raise BudgetExceeded(
                f"{n}^2 character values exceed the budget; take a smaller group"
            )
    except _DECODE_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    d = dual_group(t)
    _emit(jsonio.to_json(d), args.out)
    return 0


def cmd_sections(args) -> int:
    try:
        alg = jsonio.alg_extension_from_json(_read(args.extension))
        a, free = alg.A.group.order, alg.B.group.order - 1
        if a**free > _COCYCLE_BUDGET:
            raise BudgetExceeded(
                f"{a}^{free} sections exceed the budget; take a smaller extension"
            )
    except _DECODE_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    sections = list(enumerate_sections(alg))
    census = section_census(alg)
    passing = set(census.restrictions)
    topologizing, classes = [], {}
    for i, s in enumerate(sections):
        r = tuple(map(s, alg.B.open_core))
        if r in passing:
            topologizing.append(i)
            classes.setdefault(census.core(r).elements, []).append(i)
    out = {
        "sections": [{"table": jsonio.to_json(s)} for s in sections],
        "topologizing": topologizing,
        "topology_classes": [
            {"open_core": jsonio.to_json(core), "sections": idxs}
            for core, idxs in sorted(classes.items())
        ],
    }
    _emit(out, args.out)
    return 0


def _render_report(text: str) -> str:
    """The Markdown that verify writes, rendered from a JSONL report;
    ValueError, KeyError or TypeError if it is malformed."""
    records = [json.loads(line) for line in text.splitlines() if line.strip()]
    if not all(isinstance(r, dict) for r in records):
        raise ValueError("every line must be a JSON object")
    summary = next((r for r in records if r.get("type") == "summary"), None)
    if summary is None:
        raise ValueError("no summary record found")
    failures = [r for r in records if r.get("type") == "failure"]
    task = summary["task"]
    if type(task["theorem"]) is not str:
        raise ValueError(f"theorem must be a string, got {task['theorem']!r}")
    if not _is_list_of(str, task["dropped_hypotheses"]):
        raise ValueError("dropped_hypotheses must be a list of strings")
    integers = [(key, task["family"][key]) for key in ("max_group_order", "seed")]
    integers += [(key, summary[key]) for key in ("evaluated", "filtered", "failures")]
    for key, value in integers:
        if type(value) is not int:
            raise ValueError(f"{key} must be an integer, got {value!r}")
    strata = summary["strata"]
    if not isinstance(strata, dict) or not all(type(n) is int for n in strata.values()):
        raise ValueError(f"strata must map each stratum to an integer, got {strata!r}")
    if summary["failures"] != len(failures):
        raise ValueError(
            f"the summary counts {summary['failures']} failures"
            f" but the report lists {len(failures)}"
        )
    for r in failures:
        details = r["details"]
        if not _is_list_of(dict, details) or not all(
            type(d["name"]) is str and type(d["ok"]) is bool for d in details
        ):
            raise ValueError("details must be a list of {name: string, ok: boolean}")
        if not _is_list_of(str, r["model_collapse"]):
            raise ValueError("model_collapse must be a list of strings")
    broken = [[d["name"] for d in r["details"] if not d["ok"]] for r in failures]
    return markdown_report(summary, broken, failures[0]["model_collapse"] if failures else ())


def _is_list_of(t: type, value) -> bool:
    return type(value) is list and all(type(x) is t for x in value)


def cmd_report(args) -> int:
    try:
        text = _render_report(Path(args.reports).read_text(encoding="utf-8"))
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, KeyError, TypeError) as exc:
        print(f"error: malformed report {args.reports}: {exc}", file=sys.stderr)
        return 2
    if args.out:
        Path(args.out).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)
    return 0


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="topab",
        description="Verify or refute continuity-transfer laws over finite "
        "topological abelian groups.",
    )
    sub = p.add_subparsers(dest="command", required=True)

    def add_family_flags(sp):
        sp.add_argument("--max-order", type=int, default=4)
        sp.add_argument("--seed", type=int, default=0)
        sp.add_argument("--sample", type=int, default=400)
        sp.add_argument("--max-cocycles", type=int, default=None)
        sp.add_argument("--strata", type=str, default=None)
        sp.add_argument("--out", type=str, default=None)

    sp = sub.add_parser("verify", help="run a theorem over its default family")
    sp.add_argument("theorem", choices=None, metavar="THEOREM")
    add_family_flags(sp)
    sp.set_defaults(fn=cmd_run, drop=None, stop_at_first=False)

    sp = sub.add_parser("search", help="drop hypotheses and hunt for witnesses")
    sp.add_argument("theorem", metavar="THEOREM")
    sp.add_argument("--drop", action="append", metavar="HYPOTHESIS")
    sp.add_argument("--stop-at-first", action="store_true")
    add_family_flags(sp)
    sp.set_defaults(fn=cmd_run)

    sp = sub.add_parser("extend", help="twist two groups by a cocycle")
    sp.add_argument("kernel", help="topological group JSON for the kernel")
    sp.add_argument("quotient", help="topological group JSON for the quotient")
    sp.add_argument("cocycle", help="factor set JSON")
    sp.add_argument("--section", help="section JSON (pair coordinates)")
    sp.add_argument("--out")
    sp.set_defaults(fn=cmd_extend)

    sp = sub.add_parser("dual", help="Pontryagin dual of a topological group")
    sp.add_argument("group")
    sp.add_argument("--out")
    sp.set_defaults(fn=cmd_dual)

    sp = sub.add_parser("sections", help="section census of an extension")
    sp.add_argument("extension")
    sp.add_argument("--out")
    sp.set_defaults(fn=cmd_sections)

    sp = sub.add_parser("report", help="render a JSONL report as Markdown")
    sp.add_argument("reports")
    sp.add_argument("--out")
    sp.set_defaults(fn=cmd_report)

    return p


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors already
        return int(exc.code or 0)
    try:
        return args.fn(args)
    except OSError as exc:
        # _read and cmd_report handle the inputs, so this is an output
        print(f"error: cannot write the output: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
