"""Pinned counterexamples the verification harness turns up at tiny scale.

Each test freezes a finding: a transfer law whose stated hypotheses admit a
concrete finite counterexample.  The harness is required to keep detecting
these; the acceptance suite separately records which bundled criteria the
findings contradict.
"""

from topab.diagrams import (
    verify_five_lemma_nagao,
    verify_open_fibers,
    verify_p3_discrete,
    verify_topological_five_lemma,
)
from topab.extensions import (
    canonical_section,
    enumerate_sections,
    extension_square,
    is_compatible,
    is_topologizing,
)
from topab.groups import FinAbGroup, zero_hom
from topab.search import run_search, FamilySpec, SearchTask
from topab.topology import discrete, is_continuous, is_strict

from builders import indiscrete, make_hom, split_extension
from oracles import compatible_section_via_eta, factor_set_from_section, open_sets

Z2 = FinAbGroup([2])

# The instances tested here are built by the fixtures in conftest.py, which
# the acceptance suite uses too.


def test_five_lemma_nagao_case_b_fails(shear_square):
    """Shear on (discrete Z2) x (indiscrete Z2): case (b)(i) holds, alpha and
    beta are continuous, yet gamma does not descend to the separations."""
    sws = shear_square.build()
    rep = verify_five_lemma_nagao(sws)
    assert all(ok for _, ok in rep.hypotheses_checked), rep.hypotheses_checked
    assert any("b_i=True" in n for n in rep.model_collapse)
    assert rep.conclusion_checked is False
    assert dict(rep.details)["gamma_haus_well_defined"] is False


def test_five_lemma_topological_case_b_fails(shear_five_term):
    """The same shear, zero-padded: the five-term case (b) clause fails."""
    rep = verify_topological_five_lemma(shear_five_term.build())
    assert all(ok for _, ok in rep.hypotheses_checked)
    assert rep.conclusion_checked is False
    assert dict(rep.details)["gamma_haus_well_defined"] is False


def test_open_fibers_strict_clause_fails_forward(forward_open_fibers_square):
    """alpha and beta continuous strict, sigma with open fibers, but gamma is
    not strict: sigma takes a value outside the image of alpha."""
    sws = forward_open_fibers_square.build()
    rep = verify_open_fibers(sws)
    assert all(ok for _, ok in rep.hypotheses_checked)
    assert dict(rep.details)["continuity_iff"] is True
    assert dict(rep.details)["strictness_iff"] is False
    # the same square breaks the strict clause of the discrete corollary
    rep2 = verify_p3_discrete(sws)
    assert dict(rep2.details)["b1_discrete_strictness_iff"] is False
    assert dict(rep2.details)["b1_discrete_alpha_iff"] is True


def test_open_fibers_strict_clause_fails_converse(converse_open_fibers_square):
    """gamma continuous and strict but beta is not strict (discrete B1 into
    indiscrete B2); fibers are open since B1 is discrete."""
    sws = converse_open_fibers_square.build()
    rep = verify_open_fibers(sws)
    assert all(ok for _, ok in rep.hypotheses_checked)
    assert dict(rep.details)["strictness_iff"] is False
    _, gamma, beta = sws.square.verticals
    assert is_continuous(gamma) and is_strict(gamma)
    assert is_continuous(beta) and not is_strict(beta)


def test_non_topologizable_algebraic_extension_exists():
    """Z/4 over indiscrete Z/2 by discrete Z/2 admits no topologizing section
    (indeed no compatible topology at all)."""
    Z4 = FinAbGroup([4])
    a_top = discrete(Z2)
    b_top = indiscrete(Z2)
    from topab.extensions import AlgExtension

    alg = AlgExtension(a_top, Z4, b_top, make_hom(Z2, Z4, [(2,)]), make_hom(Z4, Z2, [(1,)]))
    for s in enumerate_sections(alg):
        hs = factor_set_from_section(alg.iota, alg.pi, s)
        assert not is_topologizing(a_top, b_top, hs)


def test_surjective_beta_need_not_admit_compatible_section():
    """The gamma o s1 o eta construction yields a section, but compatibility
    can fail for every section of pi2."""
    triv = FinAbGroup([])
    row1 = split_extension(discrete(triv), indiscrete(Z2))
    row2 = split_extension(discrete(Z2), discrete(triv))
    g1, g2 = row1.G.group, row2.G.group
    gamma = make_hom(g1, g2, [g2.generators[0]])
    sq = extension_square(
        row1, row2, zero_hom(triv, Z2), gamma, zero_hom(Z2, triv)
    )
    s1 = canonical_section(row1.alg)
    s2 = compatible_section_via_eta(sq, s1)
    assert all(row2.alg.pi(s2(b)) == b for b in triv.elements)
    for s2 in enumerate_sections(row2.alg):
        assert not is_compatible(sq, s1, s2)


def test_neighborhood_criterion_only_forward():
    """iota-preimage and pi-image of an open neighborhood of 0 are open
    neighborhoods; the converse direction is false."""
    e = split_extension(discrete(Z2), indiscrete(Z2))
    alg = e.alg
    opens = set(open_sets(e.G))
    iota_image = {alg.iota(a) for a in alg.A.group.elements}
    # forward: every open neighborhood of 0 has open images
    opens_a = set(open_sets(e.A))
    opens_b = set(open_sets(e.B))
    for u in opens:
        if e.G.group.zero not in u:
            continue
        pre = frozenset(a for a in alg.A.group.elements if alg.iota(a) in u)
        img = frozenset(alg.pi(g) for g in u)
        assert pre in opens_a and img in opens_b
    # converse fails: the diagonal contains 0, has open images, is not open
    diag = frozenset({e.G.group.zero, e.G.group.add(alg.iota((1,)), dict(canonical_section(alg).entries)[(1,)])})
    pre = frozenset(a for a in alg.A.group.elements if alg.iota(a) in diag)
    img = frozenset(alg.pi(g) for g in diag)
    assert pre in opens_a and img in opens_b
    assert diag not in opens


def test_search_exposes_findings_in_small_family():
    """The small exhaustive square stratum detects the case-(b) failure."""
    spec = FamilySpec(max_group_order=2, generators=("squares_small",))
    res = run_search(SearchTask("five_lemma_nagao", family=spec))
    assert res.failure_count > 0
    for rep in res.failures:
        assert any("b_i=True" in n or "b_ii=True" in n for n in rep.model_collapse)
        assert not any("a=True" in n for n in rep.model_collapse)
