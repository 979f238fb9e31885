"""The topologizing-section census and the Nagao cores, checked against the
per-section definitions.

`topologizing_sections` tests each restriction of a section to N_B once, and
`nagao_core` builds each core once per restriction.  The references below are
the per-section constructions they replaced: the full factor set of every
section, filtered by `is_topologizing`, and the subgroup
{iota(a) + s(b) : a in N_A, b in N_B} built for each section.
"""

import pytest

from topab.extensions import (
    _core_on,
    enumerate_sections,
    factor_set_from_section,
    is_topologizing,
    nagao_core,
    topologizing_sections,
)
from topab.search import FamilySpec, _cached_alg, _cocycle_triples

ORDERS = [1, 2, 3, 4]


def _algs(max_order):
    """Every extension (A_top, B_top, h) with every cocycle up to max_order."""
    spec = FamilySpec(max_group_order=max_order)
    return [_cached_alg(*t) for t in _cocycle_triples(spec, max_order, reps=False)]


def _new_algs(max_order):
    """The extensions of order max_order that no smaller bound already has."""
    smaller = set(_algs(max_order - 1)) if max_order > 1 else set()
    return [alg for alg in _algs(max_order) if alg not in smaller]


def reference_census(alg):
    # the uncached factor set keeps the reference from filling the cache
    build = factor_set_from_section.__wrapped__
    return tuple(
        s
        for s in enumerate_sections(alg)
        if is_topologizing(alg.A, alg.B, build(alg.iota, alg.pi, s))
    )


def reference_core(alg, s):
    """The element set of the per-section core; closure under addition is
    still checked once per restriction, when `nagao_core` builds its
    `Subgroup`."""
    G = alg.G
    return frozenset(
        G.add(alg.iota(a), s(b)) for a in alg.A.open_core for b in alg.B.open_core
    )


def _restriction(alg, s):
    return tuple(s(b) for b in alg.B.open_core)


@pytest.mark.parametrize("max_order", ORDERS)
def test_census_matches_per_section_reference(max_order):
    algs = _new_algs(max_order)
    assert algs
    for alg in algs:
        assert topologizing_sections(alg) == reference_census(alg)


@pytest.mark.parametrize("max_order", ORDERS)
def test_census_count_is_restrictions_times_free_choices(max_order):
    """Each passing N_B-restriction extends to every choice off N_B."""
    for alg in _new_algs(max_order):
        secs = topologizing_sections(alg)
        restrictions = {_restriction(alg, s) for s in secs}
        A, B, N_B = alg.A.group, alg.B.group, alg.B.open_core
        assert len(secs) == len(restrictions) * A.order ** (B.order - N_B.order)


@pytest.mark.parametrize("max_order", ORDERS)
def test_nagao_core_matches_per_section_reference(max_order):
    for alg in _new_algs(max_order):
        for s in topologizing_sections(alg):
            assert nagao_core(alg, s).element_set == reference_core(alg, s)


def test_nagao_core_is_built_once_per_restriction():
    _core_on.cache_clear()
    restrictions = set()
    sections = empty = partial = 0
    for alg in _algs(4):
        secs = topologizing_sections(alg)
        for s in secs:
            nagao_core(alg, s)
            restrictions.add((alg, _restriction(alg, s)))
        sections += len(secs)
        empty += not secs
        partial += 0 < len(secs) < alg.A.group.order ** (alg.B.group.order - 1)
    assert empty and partial  # both kinds of census occur
    info = _core_on.cache_info()
    assert info.misses == info.currsize == len(restrictions)
    assert info.hits == sections - len(restrictions) > 0
