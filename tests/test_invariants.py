"""Cross-module invariant sweeps at desk scale."""

import pytest

from topab.duality import dual_group, dual_hom
from topab.errors import NotContinuous
from topab.extensions import (
    cocycle_extension,
    nagao_core,
    nagao_topology,
    factor_set_from_section,
    is_topologizing,
    enumerate_sections,
)
from topab.groups import all_homs, compose
from topab.search import all_cocycles, topologized_groups
from topab.topology import TopHom, is_continuous, is_discrete, is_hausdorff

from oracles import has_property_p, open_sets


def extensions_up_to(max_order):
    for a_top in topologized_groups(max_order):
        for b_top in topologized_groups(max_order):
            for h in all_cocycles(a_top.group, b_top.group):
                alg = cocycle_extension(a_top, b_top, h)
                seen = set()
                for s in enumerate_sections(alg):
                    hs = factor_set_from_section(alg.iota, alg.pi, s)
                    if not is_topologizing(a_top, b_top, hs):
                        continue
                    core = nagao_core(alg, s).elements
                    if core in seen:
                        continue
                    seen.add(core)
                    yield nagao_topology(alg, s)


def test_extension_property_closure():
    """Hausdorff, discrete, and property-P each pass from the ends to the
    middle of every topological extension in range."""
    for e in extensions_up_to(3):
        if is_hausdorff(e.A) and is_hausdorff(e.B):
            assert is_hausdorff(e.G)
        if is_discrete(e.A) and is_discrete(e.B):
            assert is_discrete(e.G)
        if has_property_p(e.A) and has_property_p(e.B):
            assert has_property_p(e.G)


def test_composition_of_continuous_is_continuous():
    tops = topologized_groups(3)
    for s in tops:
        for t in tops:
            for u in tops:
                for f in all_homs(s.group, t.group):
                    tf = TopHom(f, s, t)
                    if not is_continuous(tf):
                        continue
                    for g in all_homs(t.group, u.group):
                        tg = TopHom(g, t, u)
                        if not is_continuous(tg):
                            continue
                        assert is_continuous(TopHom(compose(g, f), s, u))


def test_dual_hom_defined_exactly_on_continuous_maps():
    tops = topologized_groups(3)
    for s in tops:
        for t in tops:
            for f in all_homs(s.group, t.group):
                th = TopHom(f, s, t)
                if is_continuous(th):
                    dual_hom(th)  # must not raise
                else:
                    with pytest.raises(NotContinuous):
                        dual_hom(th)


def test_dual_size_matches_separation_up_to_16():
    for t in topologized_groups(16):
        d = dual_group(t)
        assert d.order == t.group.order // t.open_core.order


def test_open_set_counts():
    for t in topologized_groups(4):
        k = t.group.order // t.open_core.order
        assert len(open_sets(t)) == 2**k
