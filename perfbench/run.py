"""The topab benchmark: cold `topab verify` runs, end to end and layer by layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Each measurement is a fresh child process
(child.py) that imports topab from this checkout's `src/`, builds the
workload's tasks from the seed and runs each step as `topab verify` does:
`run_search`, then `to_jsonl()` and `to_markdown()`.  Children run one at a
time, with TOPAB_THREADS unset, so the runner takes its serial path.

With --trace 0 it spawns a few set-up-only children, then work
children until the next one would end after S seconds (at least one), and
reports medians.  Those times are in reference seconds: wall time scaled by
the host's speed, which calibration chunks timed next to the work measure
(speed.py); the raw wall times are printed beside them.  With --trace 1 it
spawns one traced child and one untraced child and reports the per-layer
metrics.  Span times are in wall seconds; the two children's wall times,
and so the tracing overhead, are in reference seconds.  S does not apply.

Every step's output is checked after its child has exited, outside the
timed region (see `verdict_errors`).  The last line of standard output is
one JSON object; the exit code is 0 only if every check passed.
"""

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import speed
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_PROBES = 15
END_TO_END = (
    ("wall_s", "s"),
    ("setup_s", "s"),
    ("instances_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
)


def spawn(workload, seed, mode, spans_file=None):
    """Run one child to completion; return what it printed and what it cost."""
    env = dict(os.environ)
    env.pop("TOPAB_THREADS", None)
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONHASHSEED"] = "0"
    argv = [sys.executable, str(HERE / "child.py"), workload, str(seed), mode]
    start = time.monotonic()
    argv.append(repr(start))
    if spans_file is not None:
        argv.append(spans_file)
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE, cwd=ROOT, env=env)
    with proc.stdout:
        raw = proc.stdout.read()
    _, status, usage = os.wait4(proc.pid, 0)
    wall = time.monotonic() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    child = {"wall_s": wall, "rss_mb": usage.ru_maxrss / 1024, "exit": proc.returncode}
    try:
        child["out"] = json.loads(raw.decode().strip().splitlines()[-1])
    except (ValueError, IndexError):
        child["out"] = None
    return child


class Verdict:
    """Checks each step's output; a step that fails a check is a failed operation."""

    def __init__(self, workload, seed):
        self.workload = WORKLOADS[workload]
        self.seed = seed
        self.attempted = 0
        self.errors = []
        self._checked = set()  # digests of step outputs already checked in full
        sys.path.insert(0, str(SRC))
        from topab import search

        self.search = search

    def check_child(self, child):
        """Check every step of one child; count them as attempted operations."""
        self.attempted += len(self.workload.theorems)
        out = child["out"]
        if child["exit"] != 0 or out is None or "steps" not in out:
            self.errors += [f"child exited with {child['exit']} without a result"] * len(
                self.workload.theorems
            )
            return
        for theorem, step in zip(self.workload.theorems, out["steps"]):
            problem = self.verdict_errors(theorem, step)
            if problem:
                self.errors.append(f"{theorem}: {problem}")

    def verdict_errors(self, theorem, step):
        """Why a step's output is wrong, or None if it passes every check."""
        if step.get("theorem") != theorem:
            return f"step ran {step.get('theorem')!r}"
        if "error" in step:
            return "raised:\n" + step["error"]
        digest = hashlib.sha256(step["jsonl"].encode()).hexdigest()
        if digest in self._checked:
            return None
        lines = [json.loads(line) for line in step["jsonl"].splitlines()]
        summary, failures = lines[-1], lines[:-1]
        counts = (summary["evaluated"], summary["filtered"], summary["failures"])
        if counts != (step["evaluated"], step["filtered"], step["failures"]):
            return f"summary {counts} disagrees with the run result"
        if len(failures) != summary["failures"]:
            return f"{len(failures)} failure lines for {summary['failures']} failures"
        family_size = sum(summary["strata"].values())
        if summary["evaluated"] + summary["filtered"] != family_size:
            return f"evaluated + filtered = {counts[0] + counts[1]}, family has {family_size}"
        expected = self.workload.expected.get(theorem)
        if self.seed == 0 and expected is not None and counts != tuple(expected):
            return f"(evaluated, filtered, failures) = {counts}, expected {tuple(expected)}"
        dropped = summary["task"]["dropped_hypotheses"]
        for i, failure in enumerate(failures):
            report = self.search.replay_witness(theorem, failure["witness"], dropped)
            if report.conclusion_checked is not False:
                return f"witness {i} replays with conclusion {report.conclusion_checked}"
        self._checked.add(digest)
        return None


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


def run_record():
    """Where and on what the run was made; recorded, never gated on."""
    commit = "unknown"
    head = ROOT / ".git" / "HEAD"
    if head.is_file():
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            ref_file = ROOT / ".git" / ref[5:]
            ref = ref_file.read_text().strip() if ref_file.is_file() else ref
        commit = ref
    src_lines = sum(
        len(p.read_text(encoding="utf-8").splitlines()) for p in sorted(SRC.rglob("*.py"))
    )
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "commit": commit,
        "loadavg": os.getloadavg(),
        "src_lines": src_lines,
    }


def metered(workload, seed, mode, spans_file=None):
    """Spawn one metered child between two calibration samples.

    Return the child and its set-up and wall times in reference seconds.
    """
    before = speed.sample()
    child = spawn(workload, seed, mode, spans_file)
    after = speed.sample()
    out = child["out"]
    if child["exit"] != 0 or out is None or "meter" not in out:
        return child, None, None
    m = out["meter"]
    laps = m["laps"]
    startup = out["setup_s"] - laps[0]["window_s"]  # before the child's meter started
    setup = speed.scaled(startup, before, m["first_chunk_s"]) + laps[0]["work_ref_s"]
    tail = child["wall_s"] - startup - sum(lap["window_s"] for lap in laps)
    wall = setup + sum(lap["work_ref_s"] for lap in laps[1:])
    wall += speed.scaled(tail, m["last_chunk_s"], after)
    return child, setup, wall


def measure(workload, seed, seconds, verdict):
    """Set-up children, then work children until `seconds` are used; every time
    in reference seconds (speed.py)."""
    deadline = time.monotonic() + seconds
    spawn(workload, seed, "setup")  # warm-up: byte code and file cache
    setups = []
    for _ in range(SETUP_PROBES):
        child, setup, _ = metered(workload, seed, "setup")
        if setup is None:
            verdict.errors.append(f"set-up child exited with {child['exit']}")
            return None
        setups.append(setup)
    walls, ips, rss = [], [], []
    longest = 0.0
    while True:
        began = time.monotonic()
        child, setup, wall = metered(workload, seed, "run")
        verdict.check_child(child)
        out = child["out"]
        if wall is not None and "steps" in out:
            done = [s for s in out["steps"] if "error" not in s]
            instances = sum(s["evaluated"] + s["filtered"] for s in done)
            m = out["meter"]
            setups.append(setup)
            walls.append(wall)
            ips.append(instances / (wall - setup))
            rss.append(child["rss_mb"])
            print(
                f"child: wall {wall:.3f} ref s ({child['wall_s']:.3f} s), "
                f"set-up {setup:.3f} ref s ({out['setup_s']:.3f} s), "
                f"steps {[round(s.get('seconds', 0), 3) for s in out['steps']]} s, "
                f"{m['chunks']} chunks, median {m['median_chunk_s'] * 1e3:.3f} ms, "
                f"peak RSS {child['rss_mb']:.1f} MB, cache entries {out['census']['entries']}"
            )
        longest = max(longest, time.monotonic() - began)
        if not walls or time.monotonic() + longest > deadline:
            break
    if not walls:
        return None
    return {"wall_s": walls, "setup_s": setups, "instances_per_s": ips, "peak_rss_mb": rss}


def trace(workload, seed, verdict):
    spans_file = f"perfbench/out/{workload}.seed{seed}.spans.json"
    traced, _, traced_wall = metered(workload, seed, "trace", spans_file)
    verdict.check_child(traced)
    untraced, _, untraced_wall = metered(workload, seed, "run")
    verdict.check_child(untraced)
    if traced_wall is None or "layers" not in traced["out"] or untraced_wall is None:
        return None
    layers = dict(traced["out"]["layers"])
    layers["trace.wall_s"] = traced_wall
    layers["trace.untraced_wall_s"] = untraced_wall
    layers["trace.overhead_share"] = traced_wall / untraced_wall - 1
    print(f"spans written to {spans_file}")
    census = traced["out"]["census"]
    print(f"cache census: {census['entries']} entries, {census['hits']} hits, {census['misses']} misses")
    return layers


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "topab" / "__init__.py").is_file():
        print(f"no topab sources under {SRC}", file=sys.stderr)
        return 2
    if hasattr(os, "sched_setaffinity"):
        # The calibration chunks must run on the vCPU the children run on.
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    print("run record: " + json.dumps(run_record()))
    verdict = Verdict(args.workload, args.seed)
    if args.trace:
        import tracer

        layers = trace(args.workload, args.seed, verdict)
        metrics = {}
        if layers is not None:
            metrics = {name: {"value": layers[name], "unit": unit} for name, unit in tracer.PER_LAYER}
            for name, metric in metrics.items():
                print(f"{name}: {metric['value']:.6g} {metric['unit']}")
    else:
        samples = measure(args.workload, args.seed, args.seconds, verdict)
        metrics = {}
        if samples is not None:
            for name, unit in END_TO_END:
                q1, median, q3 = quartiles(samples[name])
                metrics[name] = {"value": median, "unit": unit}
                print(
                    f"{name}: median {median:.6g} {unit}, "
                    f"quartiles {q1:.6g} .. {q3:.6g}, n={len(samples[name])}"
                )
    failed = len(verdict.errors)
    attempted = max(verdict.attempted, 1)
    print(f"ops_failed_share: {failed / attempted:.6g} ratio ({failed} of {attempted} run_search calls)")
    for error in verdict.errors:
        print(f"verdict check failed: {error}", file=sys.stderr)
    correct = failed == 0 and bool(metrics)
    print(
        json.dumps(
            {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}
        )
    )
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
