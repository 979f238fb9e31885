"""Criterion 4 by partitions, checked against the pairwise definition.

`verify_nagao_comparison` compares two partitions of the topologizing
sections (by Nagao core and by comparison key).  The reference below is the
pairwise loop it replaced: it builds `comparison_map` for every pair (i, j),
i <= j, and reports the first pair on which the two criteria disagree.
"""

import functools

import pytest
from hypothesis import given, settings, strategies as st

from topab.diagrams import first_disagreeing_pair, verify_nagao_comparison
from topab.extensions import (
    comparison_map,
    nagao_core,
    section_census,
)
from topab.search import (
    FamilySpec,
    cocycle_family,
)

from oracles import comparison_key, law_report, same_topology

DROP = frozenset({"has_topologizing_sections"})


def topologizing(alg):
    return tuple(section_census(alg).sections())


def reference_nagao_comparison(alg, dropped=frozenset()):
    secs = topologizing(alg)

    def conclude():
        cores = [nagao_core(alg, s).element_set for s in secs]
        core_a = alg.A.core_set
        nb = list(alg.B.open_core)
        for i in range(len(secs)):
            for j in range(i, len(secs)):
                f = comparison_map(alg, secs[i], secs[j])
                if (cores[i] == cores[j]) != all(f[b] in core_a for b in nb):
                    return (
                        ("criteria_agree_on_all_pairs", False),
                        (f"disagreeing_pair_{i}_{j}", False),
                    )
        return (("criteria_agree_on_all_pairs", True),)

    hyps = (("has_topologizing_sections", bool(secs)),)
    return law_report("nagao_comparison", hyps, conclude, dropped)


@pytest.mark.parametrize(
    "spec",
    [
        FamilySpec(max_group_order=3),
        # the cocycles_order4 benchmark family
        FamilySpec(max_group_order=4, max_cocycle_count=4),
    ],
    ids=["order3_all", "order4_cap4"],
)
def test_partitions_match_pairwise_reference(spec):
    family = cocycle_family(spec)
    no_sections = 0
    for _, inst in family:
        alg = inst.build()
        no_sections += not topologizing(alg)
        for dropped in (frozenset(), DROP):
            got = verify_nagao_comparison(alg, dropped)
            reference = reference_nagao_comparison(alg, dropped)
            assert (got is None) == (reference is None)
            assert got is None or got.to_json() == reference.to_json()
    assert no_sections > 0  # the dropped-hypothesis path meets empty censuses


def test_no_topologizing_sections_with_hypothesis_dropped():
    """Z/4 over indiscrete Z/2 by discrete Z/2 has no topologizing section."""
    family = cocycle_family(FamilySpec(max_group_order=2))
    empty = [
        alg
        for alg in (inst.build() for _, inst in family)
        if not topologizing(alg)
    ]
    assert empty
    for alg in empty:
        assert verify_nagao_comparison(alg) is None
        rep = verify_nagao_comparison(alg, DROP)
        assert rep.conclusion_checked is True
        assert rep.details == (("criteria_agree_on_all_pairs", True),)


def brute_first_disagreeing_pair(xs, ys):
    n = len(xs)
    for i in range(n):
        for j in range(i, n):
            if (xs[i] == xs[j]) != (ys[i] == ys[j]):
                return (i, j)
    return None


labelings = st.integers(0, 12).flatmap(
    lambda n: st.tuples(
        st.lists(st.integers(0, 3), min_size=n, max_size=n),
        st.lists(st.integers(0, 3), min_size=n, max_size=n),
    )
)


@settings(max_examples=500, deadline=None, derandomize=True, database=None)
@given(labelings)
def test_first_disagreeing_pair_matches_brute_force(xy):
    xs, ys = xy
    assert first_disagreeing_pair(xs, ys) == brute_first_disagreeing_pair(xs, ys)


@pytest.mark.parametrize(
    "xs, ys, pair",
    [
        ([], [], None),
        ([0], [5], None),
        ([0, 0, 1], ["a", "a", "b"], None),
        ([0, 0, 1], [0, 1, 1], (0, 1)),
        ([0, 1, 2, 0], [0, 1, 2, 3], (0, 3)),
        ([0, 1, 1, 2], [0, 1, 2, 2], (1, 2)),
    ],
)
def test_first_disagreeing_pair_examples(xs, ys, pair):
    assert first_disagreeing_pair(xs, ys) == pair


@functools.cache
def extensions_with_two_topologies():
    """The extensions of topologized groups of order <= 4 whose topologizing
    sections induce at least two topologies (985 of the 5,073)."""
    algs = (inst.build() for _, inst in cocycle_family(FamilySpec(max_group_order=4)))
    return [
        alg
        for alg in algs
        if len({nagao_core(alg, s) for s in topologizing(alg)}) > 1
    ]


@st.composite
def sections_of_small_extensions(draw):
    """An extension and three of its topologizing sections: two to compare
    and a base for the keys."""
    alg = draw(st.sampled_from(extensions_with_two_topologies()))
    secs = st.sampled_from(topologizing(alg))
    return alg, draw(secs), draw(secs), draw(secs)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(sections_of_small_extensions())
def test_comparison_keys_decide_same_topology(case):
    alg, si, sj, base = case
    by_keys = comparison_key(alg, si, base) == comparison_key(alg, sj, base)
    f = comparison_map(alg, si, sj)
    by_map = all(f[b] in alg.A.core_set for b in alg.B.open_core)
    assert by_keys == by_map == same_topology(alg, si, sj)
