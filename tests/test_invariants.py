"""Cross-module invariant sweeps at desk scale."""

import random
import re

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
from topab.search import THEOREMS, FamilySpec, all_cocycles, cocycle_family, topologized_groups
from topab.topology import TopHom, is_continuous, is_discrete, is_hausdorff

from oracles import has_property_p, open_sets
from transport import random_cocycle_copy


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


def _cocycle_outcome(theorem: str, A, B, h, dropped):
    """None if the law filters (A, B, h), else its hypotheses, conclusion and
    clauses, with the section indices cut from each clause name."""
    report = THEOREMS[theorem].evaluate(cocycle_extension(A, B, h), dropped)
    if report is None:
        return None
    details = tuple((re.sub(r"(_\d+)+$", "", name), ok) for name, ok in report.details)
    return report.hypotheses_checked, report.conclusion_checked, details


@pytest.mark.parametrize("drop", [False, True], ids=["gated", "all_dropped"])
def test_cocycle_verdicts_are_invariant_under_isomorphism(drop):
    """Each cocycle instance at the default spec and 3 seeded copies of it,
    moved along automorphisms of A and B and a coboundary, get the same
    outcome from each law on cocycles."""
    rng = random.Random(0)
    family = cocycle_family(FamilySpec())
    assert len(family) == 5073
    changed, moved = [], 0
    for theorem in ("nagao_comparison", "choice_discrete", "topologizable"):
        law = THEOREMS[theorem].law
        dropped = frozenset(law.droppable if drop else ())
        for _, inst in family:
            outcome = _cocycle_outcome(theorem, inst.A, inst.B, inst.h, dropped)
            for _ in range(3):
                copy = random_cocycle_copy(rng, inst.A, inst.B, inst.h)
                moved += copy != (inst.A, inst.B, inst.h)
                if _cocycle_outcome(theorem, *copy, dropped) != outcome:
                    changed.append((theorem, inst, copy))
    assert moved > 3 * 3 * len(family) * 0.9, "the copies must be other instances"
    assert not changed, f"{len(changed)} copies change their verdict"
