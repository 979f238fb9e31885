"""The benchmark's workloads: which theorems a cold child verifies, on which family.

Each workload is two `topab verify` steps run back to back in one fresh
process, so the second step meets the caches the first one filled.  The
reasons for each choice are in NOTES.md.
"""

from dataclasses import dataclass


@dataclass(frozen=True)
class Workload:
    theorems: tuple[str, ...]
    max_group_order: int
    max_cocycle_count: object  # int or "all", as in topab.search.FamilySpec
    sample_count: int
    # (evaluated, filtered, failures) of each step at seed 0, as produced by
    # the tree this benchmark was written against.  Checked only at seed 0.
    expected: dict


WORKLOADS = {
    "p3_order4": Workload(
        ("open_fibers", "five_lemma_nagao"),
        max_group_order=4,
        max_cocycle_count=1,
        sample_count=400,
        expected={
            "open_fibers": (2502, 2827, 56),
            "five_lemma_nagao": (2549, 2780, 349),
        },
    ),
    "cocycles_order4": Workload(
        ("nagao_comparison", "haus_exactness"),
        max_group_order=4,
        max_cocycle_count=4,
        sample_count=400,
        expected={
            "nagao_comparison": (496, 93, 0),
            "haus_exactness": (375, 285, 0),
        },
    ),
    "sampled_order3": Workload(
        ("five_lemma_topological", "strictness_injectivity"),
        max_group_order=3,
        max_cocycle_count="all",
        sample_count=6000,
        expected={
            "five_lemma_topological": (352, 7347, 18),
            "strictness_injectivity": (133, 6188, 0),
        },
    ),
    # Not in BENCHMARK.json: a seconds-long spec for the benchmark's own test.
    "tiny": Workload(
        ("open_fibers", "five_lemma_topological"),
        max_group_order=2,
        max_cocycle_count="all",
        sample_count=40,
        expected={
            "open_fibers": (1171, 281, 102),
            "five_lemma_topological": (234, 1463, 16),
        },
    ),
}
