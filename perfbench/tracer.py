"""Spans and counts around topab's public functions, installed from outside.

`install` rebinds each traced function in every `topab` module namespace that
holds it, wraps the registered theorems' family builders and evaluators, and
wraps methods on their classes.  No file under `src/` changes.

A span is (id, name, start, end, parent id).  Every span adds to its name's
call count, inclusive time and self time (its duration minus the time its
child spans cover).  Only the coarse names in `DETAILED` keep their span
records, because the fine ones run millions of times.  Evaluations and
instance builds made while a witness is being shrunk open no span of their
own, so their time counts as shrinking.
"""

import dataclasses
import functools
import statistics
import sys
import time
from collections import defaultdict

DETAILED = frozenset(
    {
        "search.run_search",
        "search.family_build",
        "search.all_cocycles",
        "search.class_reps",
        "search.shrink",
        "duality.dual_extension",
        "jsonio.report",
    }
)

# Every per-layer metric the traced run emits, with its unit; BENCHMARK.json
# lists the same names.
PER_LAYER = (
    ("search.family_build_s", "s"),
    ("search.family_instances", "count"),
    ("search.all_cocycles_s", "s"),
    ("search.cocycle_tables", "count"),
    ("search.cocycle_yield", "ratio"),
    ("search.class_reps_s", "s"),
    ("search.gamma_lifts_s", "s"),
    ("search.gamma_lifts_calls", "count"),
    ("search.lift_yield", "ratio"),
    ("search.evaluate_s", "s"),
    ("search.eval_p50_us", "us"),
    ("search.eval_p99_us", "us"),
    ("search.evaluated", "count"),
    ("search.filtered", "count"),
    ("search.filter_ratio", "ratio"),
    ("search.instance_build_s", "s"),
    ("search.shrink_s", "s"),
    ("search.shrink_evals", "count"),
    ("search.witnesses", "count"),
    ("search.cache_entries", "count"),
    ("search.cache_hit_ratio", "ratio"),
    ("groups.add_calls", "count"),
    ("groups.sub_calls", "count"),
    ("groups.all_homs_s", "s"),
    ("groups.homs_yielded", "count"),
    ("groups.hom_from_table_s", "s"),
    ("groups.hom_from_table_calls", "count"),
    ("groups.all_subgroups_s", "s"),
    ("extensions.realize_cocycle_s", "s"),
    ("extensions.realize_cocycle_calls", "count"),
    ("extensions.enumerate_sections_s", "s"),
    ("extensions.sections_enumerated", "count"),
    ("extensions.is_topologizing_calls", "count"),
    ("extensions.topologizing_yield", "ratio"),
    ("extensions.factor_set_misses", "count"),
    ("extensions.validate_cocycle_calls", "count"),
    ("extensions.nagao_core_s", "s"),
    ("extensions.comparison_map_s", "s"),
    ("extensions.comparison_map_calls", "count"),
    ("topology.is_continuous_calls", "count"),
    ("topology.is_strict_calls", "count"),
    ("topology.predicates_s", "s"),
    ("topology.separation_s", "s"),
    ("diagrams.verify_s", "s"),
    ("diagrams.verify_calls", "count"),
    ("duality.dual_extension_s", "s"),
    ("jsonio.instance_json_s", "s"),
    ("jsonio.report_s", "s"),
    ("jsonio.report_bytes", "bytes"),
    ("trace.wall_s", "s"),
    ("trace.untraced_wall_s", "s"),
    ("trace.overhead_share", "ratio"),
)


class Tracer:
    def __init__(self):
        self.stack = []  # open frames: [name, start, child coverage, span id]
        self.spans = []  # (id, name, start, end, parent id) of DETAILED names
        self.calls = defaultdict(int)
        self.counts = defaultdict(int)
        self.self_s = defaultdict(float)
        self.incl_s = defaultdict(float)
        self.eval_s = []  # inclusive duration of each evaluation outside shrinking
        self.shrinking = 0
        self._next_id = 1

    def enter(self, name):
        span_id = 0
        if name in DETAILED:
            span_id = self._next_id
            self._next_id += 1
        frame = [name, 0.0, 0.0, span_id]
        self.stack.append(frame)
        frame[1] = time.perf_counter()
        return frame

    def exit(self, frame):
        end = time.perf_counter()
        self.stack.pop()
        name, start, covered, span_id = frame
        duration = end - start
        self.self_s[name] += duration - covered
        self.incl_s[name] += duration
        if self.stack:
            self.stack[-1][2] += duration
        if span_id:
            parent = next((f[3] for f in reversed(self.stack) if f[3]), 0)
            self.spans.append((span_id, name, start, end, parent))
        return duration

    def timed(self, name, fn, on_result=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.calls[name] += 1
            frame = self.enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.exit(frame)
            if on_result is not None:
                on_result(args, result)
            return result

        return wrapper

    def counted(self, name, fn, on_result=None):
        calls = self.calls

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            calls[name] += 1
            result = fn(*args, **kwargs)
            if on_result is not None:
                on_result(args, result)
            return result

        return wrapper

    def generator(self, name, fn, yielded):
        """Time each step of a generator; count the items it yields."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.calls[name] += 1
            it = fn(*args, **kwargs)
            try:
                while True:
                    frame = self.enter(name)
                    try:
                        item = next(it)
                    except StopIteration:
                        return
                    finally:
                        self.exit(frame)
                    self.counts[yielded] += 1
                    yield item
            finally:
                it.close()

        return wrapper

    def unless_shrinking(self, name, fn, shrink_count=None, durations=None):
        """Like `timed`, but inside a shrink span only count the call."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self.shrinking:
                if shrink_count:
                    self.counts[shrink_count] += 1
                return fn(*args, **kwargs)
            self.calls[name] += 1
            frame = self.enter(name)
            try:
                return fn(*args, **kwargs)
            finally:
                duration = self.exit(frame)
                if durations is not None:
                    durations.append(duration)

        return wrapper

    def shrink(self, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.calls["search.shrink"] += 1
            frame = self.enter("search.shrink")
            self.shrinking += 1
            try:
                return fn(*args, **kwargs)
            finally:
                self.shrinking -= 1
                self.exit(frame)

        return wrapper


def _topab_modules():
    return [m for name, m in sorted(sys.modules.items()) if name.split(".")[0] == "topab"]


def _rebind(modules, fn, wrapper):
    """Point every module-level name bound to `fn` at `wrapper` instead."""
    for m in modules:
        for attr, value in list(vars(m).items()):
            if value is fn:
                setattr(m, attr, wrapper)


def install(tr):
    """Wrap topab's public functions so that `tr` records them."""
    from topab import diagrams, duality, extensions, groups, search, topology

    modules = _topab_modules()
    counts = tr.counts

    def wrap(module, attr, make):
        fn = getattr(module, attr)
        _rebind(modules, fn, make(fn))

    # search
    cocycles = search.all_cocycles
    misses_seen = [cocycles.cache_info().misses]

    def on_cocycles(args, result):
        misses = cocycles.cache_info().misses
        if misses > misses_seen[0]:
            misses_seen[0] = misses
            A, B = args[0], args[1]
            nonzero = B.order - 1
            counts["cocycle_tables"] += A.order ** (nonzero * (nonzero + 1) // 2)
            counts["cocycles_kept"] += len(result)

    def on_lifts(args, result):
        alg1, _, alg2 = args[:3]
        counts["lift_candidates"] += alg2.A.group.order ** (alg1.B.group.order - 1)
        counts["lifts"] += len(result)

    wrap(search, "all_cocycles", lambda f: tr.timed("search.all_cocycles", f, on_cocycles))
    wrap(search, "cocycle_class_representatives", lambda f: tr.timed("search.class_reps", f))
    wrap(search, "gamma_lifts", lambda f: tr.timed("search.gamma_lifts", f, on_lifts))
    wrap(search, "shrink_witness", tr.shrink)
    wrap(search, "run_search", lambda f: tr.timed("search.run_search", f))

    families_seen = {}

    def on_family(args, result):
        if id(result) not in families_seen:
            families_seen[id(result)] = result
            counts["family_instances"] += len(result)

    for tid, spec in list(search.THEOREMS.items()):
        search.THEOREMS[tid] = dataclasses.replace(
            spec,
            build_family=tr.timed("search.family_build", spec.build_family, on_family),
            evaluate=tr.unless_shrinking(
                "search.evaluate", spec.evaluate, "shrink_evals", tr.eval_s
            ),
        )
    instance_classes = (
        search.P3Instance,
        search.InjSquareInstance,
        search.ExtensionInstance,
        search.FiveLemmaInstance,
    )
    for cls in instance_classes:
        cls.build = tr.unless_shrinking("search.instance_build", cls.build)
    for cls in instance_classes + (search.CocycleInstance,):
        cls.to_json = tr.timed("jsonio.instance_json", cls.to_json)

    def on_report(args, result):
        counts["report_bytes"] += len(result.encode())

    for attr in ("to_jsonl", "to_markdown"):
        setattr(
            search.RunResult,
            attr,
            tr.timed("jsonio.report", getattr(search.RunResult, attr), on_report),
        )

    # groups: add and sub only count, as they run millions of times
    add, sub = groups.FinAbGroup.add, groups.FinAbGroup.sub

    def counted_add(self, x, y):
        counts["add_calls"] += 1
        return add(self, x, y)

    def counted_sub(self, x, y):
        counts["sub_calls"] += 1
        return sub(self, x, y)

    groups.FinAbGroup.add = counted_add
    groups.FinAbGroup.sub = counted_sub
    wrap(groups, "all_homs", lambda f: tr.generator("groups.all_homs", f, "homs_yielded"))
    wrap(groups, "hom_from_table", lambda f: tr.timed("groups.hom_from_table", f))
    wrap(groups, "all_subgroups", lambda f: tr.timed("groups.all_subgroups", f))

    # extensions
    def on_topologizing(args, result):
        if result:
            counts["topologizing"] += 1

    wrap(extensions, "realize_cocycle", lambda f: tr.timed("extensions.realize_cocycle", f))
    wrap(
        extensions,
        "enumerate_sections",
        lambda f: tr.generator("extensions.enumerate_sections", f, "sections_enumerated"),
    )
    wrap(
        extensions,
        "is_topologizing",
        lambda f: tr.counted("extensions.is_topologizing", f, on_topologizing),
    )
    wrap(extensions, "validate_cocycle", lambda f: tr.counted("extensions.validate_cocycle", f))
    wrap(extensions, "nagao_core", lambda f: tr.timed("extensions.nagao_core", f))
    wrap(extensions, "comparison_map", lambda f: tr.timed("extensions.comparison_map", f))

    # topology
    wrap(topology, "is_continuous", lambda f: tr.timed("topology.is_continuous", f))
    wrap(topology, "is_strict", lambda f: tr.timed("topology.is_strict", f))
    wrap(topology, "separation", lambda f: tr.timed("topology.separation", f))
    wrap(topology, "separation_hom", lambda f: tr.timed("topology.separation", f))

    # diagrams: every verifier shares one layer name
    for attr in sorted(vars(diagrams)):
        if attr.startswith("verify_"):
            wrap(diagrams, attr, lambda f: tr.timed("diagrams.verify", f))

    # duality
    wrap(duality, "dual_extension", lambda f: tr.timed("duality.dual_extension", f))


def _ratio(num, den):
    return num / den if den else 0.0


def _percentile_us(durations, q):
    if not durations:
        return 0.0
    if len(durations) == 1:
        return durations[0] * 1e6
    return statistics.quantiles(durations, n=100, method="inclusive")[q - 1] * 1e6


def layer_metrics(tr, steps, census):
    """Per-layer metric values (without the trace.* ones) from one traced child."""
    s, c, n = tr.self_s, tr.counts, tr.calls
    evaluated = sum(step["evaluated"] for step in steps)
    filtered = sum(step["filtered"] for step in steps)
    lookups = census["hits"] + census["misses"]
    return {
        "search.family_build_s": s["search.family_build"],
        "search.family_instances": c["family_instances"],
        "search.all_cocycles_s": s["search.all_cocycles"],
        "search.cocycle_tables": c["cocycle_tables"],
        "search.cocycle_yield": _ratio(c["cocycles_kept"], c["cocycle_tables"]),
        "search.class_reps_s": s["search.class_reps"],
        "search.gamma_lifts_s": s["search.gamma_lifts"],
        "search.gamma_lifts_calls": n["search.gamma_lifts"],
        "search.lift_yield": _ratio(c["lifts"], c["lift_candidates"]),
        "search.evaluate_s": s["search.evaluate"],
        "search.eval_p50_us": _percentile_us(tr.eval_s, 50),
        "search.eval_p99_us": _percentile_us(tr.eval_s, 99),
        "search.evaluated": evaluated,
        "search.filtered": filtered,
        "search.filter_ratio": _ratio(filtered, evaluated + filtered),
        "search.instance_build_s": s["search.instance_build"],
        "search.shrink_s": s["search.shrink"],
        "search.shrink_evals": c["shrink_evals"],
        "search.witnesses": sum(step["failures"] for step in steps),
        "search.cache_entries": census["entries"],
        "search.cache_hit_ratio": _ratio(census["hits"], lookups),
        "groups.add_calls": c["add_calls"],
        "groups.sub_calls": c["sub_calls"],
        "groups.all_homs_s": s["groups.all_homs"],
        "groups.homs_yielded": c["homs_yielded"],
        "groups.hom_from_table_s": s["groups.hom_from_table"],
        "groups.hom_from_table_calls": n["groups.hom_from_table"],
        "groups.all_subgroups_s": s["groups.all_subgroups"],
        "extensions.realize_cocycle_s": s["extensions.realize_cocycle"],
        "extensions.realize_cocycle_calls": n["extensions.realize_cocycle"],
        "extensions.enumerate_sections_s": s["extensions.enumerate_sections"],
        "extensions.sections_enumerated": c["sections_enumerated"],
        "extensions.is_topologizing_calls": n["extensions.is_topologizing"],
        "extensions.topologizing_yield": _ratio(
            c["topologizing"], n["extensions.is_topologizing"]
        ),
        "extensions.factor_set_misses": census["functions"]
        .get("topab.extensions.factor_set_from_section", {})
        .get("misses", 0),
        "extensions.validate_cocycle_calls": n["extensions.validate_cocycle"],
        "extensions.nagao_core_s": s["extensions.nagao_core"],
        "extensions.comparison_map_s": s["extensions.comparison_map"],
        "extensions.comparison_map_calls": n["extensions.comparison_map"],
        "topology.is_continuous_calls": n["topology.is_continuous"],
        "topology.is_strict_calls": n["topology.is_strict"],
        "topology.predicates_s": s["topology.is_continuous"] + s["topology.is_strict"],
        "topology.separation_s": s["topology.separation"],
        "diagrams.verify_s": s["diagrams.verify"],
        "diagrams.verify_calls": n["diagrams.verify"],
        "duality.dual_extension_s": s["duality.dual_extension"],
        "jsonio.instance_json_s": s["jsonio.instance_json"],
        "jsonio.report_s": s["jsonio.report"],
        "jsonio.report_bytes": c["report_bytes"],
    }


def dump(tr):
    """Everything the tracer recorded, as a JSON-ready dict."""
    return {
        "layers": {
            name: {
                "calls": tr.calls[name],
                "self_s": tr.self_s[name],
                "inclusive_s": tr.incl_s[name],
            }
            for name in sorted(tr.calls)
        },
        "counts": dict(sorted(tr.counts.items())),
        "spans": [
            {"id": i, "name": name, "start": start, "end": end, "parent": parent}
            for i, name, start, end, parent in sorted(tr.spans)
        ],
    }
