"""One cold `topab verify` process, spawned by run.py.

    child.py WORKLOAD SEED MODE SPAWNED_AT [SPANS_FILE]

MODE is `setup` (import topab and build the tasks, then stop), `run` (run
the steps too) or `trace` (as `run`, with spans recorded and written to
SPANS_FILE).  Every mode times calibration chunks from the start of main
(see speed.py), with a lap where set-up ends.  SPANS_FILE is
relative to the checkout root.  SPAWNED_AT is the parent's time.monotonic()
just before the spawn.  Prints one JSON object on stdout.
"""

import json
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def cached_functions():
    """Every functools-cached function in topab's modules, by qualified name."""
    found = {}
    for name, module in sorted(sys.modules.items()):
        if name.split(".")[0] != "topab":
            continue
        for value in vars(module).values():
            if callable(getattr(value, "cache_info", None)):
                found[f"{value.__module__}.{value.__qualname__}"] = value
    return dict(sorted(found.items()))


def cache_census(functions):
    per_function = {name: fn.cache_info()._asdict() for name, fn in functions.items()}
    return {
        "entries": sum(info["currsize"] for info in per_function.values()),
        "hits": sum(info["hits"] for info in per_function.values()),
        "misses": sum(info["misses"] for info in per_function.values()),
        "functions": per_function,
    }


def main(argv):
    workload_name, seed, mode, spawned_at = argv[0], int(argv[1]), argv[2], float(argv[3])
    import speed

    meter = speed.Meter()
    meter.start()
    from workloads import WORKLOADS

    import topab
    from topab import search

    if Path(topab.__file__).resolve().parent != ROOT / "src" / "topab":
        print(f"imported topab from {topab.__file__}, not from this checkout", file=sys.stderr)
        return 2
    w = WORKLOADS[workload_name]
    spec = search.FamilySpec(
        max_group_order=w.max_group_order,
        max_cocycle_count=w.max_cocycle_count,
        seed=seed,
        sample_count=w.sample_count,
    )
    tasks = [search.SearchTask(theorem, family=spec) for theorem in w.theorems]
    out = {"setup_s": time.monotonic() - spawned_at}
    if mode == "setup":
        out["meter"] = meter.stop()
        print(json.dumps(out))
        return 0
    meter.lap()

    cached = cached_functions()
    tr = None
    if mode == "trace":
        import tracer

        tr = tracer.Tracer()
        tracer.install(tr)

    steps = []
    for task in tasks:
        t0 = time.perf_counter()
        try:
            result = search.run_search(task)
            jsonl = result.to_jsonl()
            result.to_markdown()
        except Exception:
            steps.append({"theorem": task.theorem_id, "error": traceback.format_exc()})
            continue
        steps.append(
            {
                "theorem": task.theorem_id,
                "seconds": time.perf_counter() - t0,
                "evaluated": result.evaluated,
                "filtered": result.filtered,
                "failures": result.failure_count,
                "jsonl": jsonl,
            }
        )
    out["meter"] = meter.stop()
    out["steps"] = steps
    out["census"] = cache_census(cached)
    if tr is not None:
        done = [step for step in steps if "error" not in step]
        out["layers"] = tracer.layer_metrics(tr, done, out["census"])
        spans_file = ROOT / argv[4]
        spans_file.parent.mkdir(parents=True, exist_ok=True)
        spans_file.write_text(json.dumps(tracer.dump(tr)), encoding="utf-8")
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
