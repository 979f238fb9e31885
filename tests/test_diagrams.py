import itertools
from dataclasses import replace

import pytest

from topab import topology
from topab.diagrams import (
    Law,
    is_strict_exact,
    verify_five_lemma_nagao,
    verify_haus_exactness,
    verify_lemma_strictness_injectivity,
    verify_open_fibers,
    verify_p3_discrete,
    verify_p3_generalized,
    verify_topological_five_lemma,
)
from topab.errors import DiagramError
from topab.extensions import Section, cocycle_extension, section_census
from topab.groups import FinAbGroup, hom_set, identity_hom, zero_hom
from topab.search import (
    THEOREMS,
    FamilySpec,
    FiveLemmaInstance,
    P3Instance,
    RowData,
    _commuting_squares,
    five_lemma_family,
    topologized_groups,
)
from topab.topology import Ladder, TopHom, discrete

from builders import factor_set, indiscrete, split_extension, topologize
from oracles import commutes_by_compose
from test_golden import GOLDEN_SPEC

Z2 = FinAbGroup([2])
Z4 = FinAbGroup([4])


def make_row(a_top, b_top, h=None, s_index=0):
    h = h if h is not None else factor_set(a_top.group, b_top.group, {})
    census = section_census(cocycle_extension(a_top, b_top, h))
    return RowData(a_top, b_top, h, census.section(s_index))


def unmet(law, x):
    """The names of the hypotheses of law that x does not meet."""
    return [n for n, holds in law.hypotheses if not holds(x)]


def identity_p3_instance(row):
    return P3Instance(
        row, row, identity_hom(row.A.group), identity_hom(row.B.group), row.s
    )


def test_strictness_injectivity_identity():
    t = topologize(Z4, [(0,), (2,)])
    idm = TopHom(identity_hom(Z4), t, t)
    sq = Ladder((idm,), (idm,), (idm, idm))
    rep = verify_lemma_strictness_injectivity(sq)
    assert rep.conclusion_checked is True


def test_strictness_injectivity_gate():
    # g and beta not strict -> no conclusion unless both are dropped
    a = discrete(Z2)
    b = indiscrete(Z2)
    idm = TopHom(identity_hom(Z2), a, b)
    ida = TopHom(identity_hom(Z2), a, a)
    sq = Ladder((ida,), (idm,), (ida, idm))
    assert verify_lemma_strictness_injectivity(sq) is None
    assert unmet(verify_lemma_strictness_injectivity, sq) == ["g_strict", "beta_strict"]
    rep = verify_lemma_strictness_injectivity(sq, frozenset({"g_strict", "beta_strict"}))
    assert rep.conclusion_checked is True


def test_haus_exactness_cases():
    # all discrete: trivially fine
    e = split_extension(discrete(Z2), discrete(Z2))
    rep = verify_haus_exactness(e)
    assert rep.conclusion_checked is True
    # case (a): A Hausdorff
    e = split_extension(discrete(Z2), indiscrete(Z2))
    rep = verify_haus_exactness(e)
    assert rep.conclusion_checked is True
    # neither case: gate
    e = split_extension(indiscrete(Z2), indiscrete(Z2))
    assert verify_haus_exactness(e) is None
    assert unmet(verify_haus_exactness, e) == ["case_gate"]


def test_p3_generalized_identity_and_pfunc_case():
    row = make_row(discrete(Z2), discrete(Z2))
    inst = identity_p3_instance(row)
    rep = verify_p3_generalized(inst.build())
    assert rep.conclusion_checked is True
    assert rep.details == (("gamma_continuous", True),)


def test_p3_generalized_incompatible_gate():
    # gamma o s1 differs from s2 o beta into a Hausdorff kernel with
    # indiscrete B1: sigma lands outside N_A2, so p3 does not apply
    a1 = discrete(FinAbGroup([]))
    b1 = indiscrete(Z2)
    row1 = make_row(a1, b1)
    a2 = discrete(Z2)
    b2 = discrete(FinAbGroup([]))
    row2 = make_row(a2, b2)
    alg2 = cocycle_extension(row2.A, row2.B, row2.h)
    alpha = zero_hom(a1.group, a2.group)
    beta = zero_hom(b1.group, b2.group)
    # lift sending the generator of B1 into iota2(1)
    lift = Section(b1.group, alg2.G, ((b1.group.zero, alg2.G.zero), ((1,), alg2.iota((1,)))))
    inst = P3Instance(row1, row2, alpha, beta, lift)
    sws = inst.build()
    assert unmet(verify_p3_generalized, sws) == ["sections_compatible"]
    assert verify_p3_generalized(sws) is None


def test_open_fibers_and_discrete_verifiers_pass_basic():
    row = make_row(discrete(Z2), discrete(Z2))
    sws = identity_p3_instance(row).build()
    assert verify_open_fibers(sws).conclusion_checked is True
    assert verify_p3_discrete(sws).conclusion_checked is True
    assert verify_five_lemma_nagao(sws).conclusion_checked is True


def test_p3_discrete_gate():
    # B1 not discrete and A2 not indiscrete -> gate
    row = make_row(discrete(Z2), indiscrete(Z2))
    sws = identity_p3_instance(row).build()
    assert verify_p3_discrete(sws) is None
    assert unmet(verify_p3_discrete, sws) == ["case_gate"]


def test_five_lemma_nagao_case_gate():
    # B1 indiscrete, A2 indiscrete (so not Hausdorff): neither case applies
    row = make_row(indiscrete(Z2), indiscrete(Z2))
    sws = identity_p3_instance(row).build()
    assert verify_five_lemma_nagao(sws) is None
    assert unmet(verify_five_lemma_nagao, sws) == ["case_gate"]


def zero_pad_instance(row, v_a=None, v_b=None, lift=None):
    v_a = v_a or identity_hom(row.A.group)
    v_b = v_b or identity_hom(row.B.group)
    lift = lift or row.s
    return FiveLemmaInstance("zero_pad", row, row, None, v_a, v_b, lift)


def test_five_lemma_topological_identity():
    row = make_row(discrete(Z2), discrete(Z2))
    fts = zero_pad_instance(row).build()
    rep = verify_topological_five_lemma(fts)
    assert rep.conclusion_checked is True
    assert is_strict_exact(fts.top) and is_strict_exact(fts.bottom)


def test_five_lemma_topological_case_gate():
    # B-slot (= A of the padded extension) not Hausdorff, D-slot not discrete
    row = make_row(indiscrete(Z2), indiscrete(Z2))
    fts = zero_pad_instance(row).build()
    assert verify_topological_five_lemma(fts) is None
    assert unmet(verify_topological_five_lemma, fts) == ["case_gate"]


def test_five_lemma_glued_shape():
    base = make_row(discrete(Z2), discrete(Z2))
    chain = make_row(discrete(Z2), discrete(Z2))
    # chain A-slot must equal base B-slot: both are discrete Z2 with the
    # canonical section of the split extension
    inst = FiveLemmaInstance(
        "glued",
        base,
        base,
        chain,
        identity_hom(Z2),
        identity_hom(Z2),
        chain.s,
    )
    fts = inst.build()
    rep = verify_topological_five_lemma(fts)
    assert rep.conclusion_checked is True
    # a chain over another topology of the base's quotient is refused on
    # every build, also once the glued row of the matching chain is cached
    other = replace(inst, chain1=make_row(indiscrete(Z2), discrete(Z2)))
    for _ in range(2):
        with pytest.raises(DiagramError, match="chain must extend the base row's quotient"):
            other.build()
        assert inst.build().top is fts.top


def builds(make) -> bool:
    """True if make() returns, False if it raises DiagramError."""
    try:
        make()
    except DiagramError:
        return False
    return True


def test_five_term_square_commutes_as_composites_do():
    """Every square of five_lemma_family at max order 2, and each with one
    vertical replaced by every homomorphism between the same groups: the
    square builds exactly when the composites agree in all four cells."""
    squares = {inst.build() for _, inst in five_lemma_family(FamilySpec(max_group_order=2))}
    outcomes = {True: 0, False: 0}
    for sq in squares:
        m1, m2 = [f.map for f in sq.top], [g.map for g in sq.bottom]
        for i, v in enumerate(sq.verticals):
            for w in hom_set(v.source.group, v.target.group):
                vs = sq.verticals[:i] + (TopHom(w, v.source, v.target),) + sq.verticals[i + 1 :]
                expected = all(
                    commutes_by_compose(m1[j], m2[j], vs[j].map, vs[j + 1].map)
                    for j in range(4)
                )
                assert builds(lambda: Ladder(sq.top, sq.bottom, vs)) == expected
                outcomes[expected] += 1
    assert len(squares) > 100 and min(outcomes.values()) > 1000, outcomes


def test_injective_square_commutes_as_composites_do():
    """Over every input that _commuting_squares tries, the one-square Ladder
    builds exactly when the composites agree, and the stratum keeps exactly
    those."""
    tops = topologized_groups(2)
    commuting, tried = set(), 0
    for A, B, Ap, Bp in itertools.product(tops, repeat=4):
        for f, g, alpha, beta in itertools.product(
            hom_set(A.group, B.group),
            hom_set(Ap.group, Bp.group),
            hom_set(A.group, Ap.group),
            hom_set(B.group, Bp.group),
        ):
            tried += 1
            expected = commutes_by_compose(f, g, alpha, beta)
            rows = (TopHom(f, A, B),), (TopHom(g, Ap, Bp),)
            verticals = TopHom(alpha, A, Ap), TopHom(beta, B, Bp)
            assert builds(lambda: Ladder(*rows, verticals)) == expected
            if expected:
                commuting.add((A, B, Ap, Bp, f, g, alpha, beta))
    stratum = [
        (s.A, s.B, s.Ap, s.Bp, s.f, s.g, s.alpha, s.beta)
        for s in _commuting_squares(FamilySpec(max_group_order=2))
    ]
    assert len(stratum) == len(commuting) and set(stratum) == commuting
    assert 0 < len(commuting) < tried


@pytest.mark.parametrize("n", [1, 2, 4])
def test_ladder_names_the_square_it_rejects(n):
    """A ladder of n identity squares on discrete Z2 builds.  A wrong number
    of maps is refused by the length message; a map moved to other endpoints
    (indiscrete Z2) or a zero map in a row is refused by the index of the
    first square it breaks, for every square.  A vertical other than the
    first is in two squares, so v_(i+1) is the one moved for square i."""
    t, other = discrete(Z2), indiscrete(Z2)
    ident = TopHom(identity_hom(Z2), t, t)
    row, verts = (ident,) * n, (ident,) * (n + 1)
    Ladder(row, row, verts)
    length = r"^a ladder has n maps in each row and n \+ 1 verticals$"
    for top, bottom, vs in (
        (row[1:], row, verts),
        (row, row + (ident,), verts),
        (row, row, verts[1:]),
        (row, row, verts + (ident,)),
    ):
        with pytest.raises(DiagramError, match=length):
            Ladder(top, bottom, vs)

    def at(seq, i, m):
        return seq[:i] + (m,) + seq[i + 1 :]

    for i in range(n):
        for top, bottom, vs in (
            (at(row, i, TopHom(identity_hom(Z2), t, other)), row, verts),  # f.target
            (row, at(row, i, TopHom(identity_hom(Z2), other, t)), verts),  # g.source
            (row, row, at(verts, i + 1, TopHom(identity_hom(Z2), other, t))),  # v_(i+1).source
            (row, row, at(verts, i + 1, TopHom(identity_hom(Z2), t, other))),  # v_(i+1).target
        ):
            with pytest.raises(DiagramError, match=rf"^square {i} does not line up$"):
                Ladder(top, bottom, vs)
        zero = TopHom(zero_hom(Z2, Z2), t, t)
        for top, bottom in ((at(row, i, zero), row), (row, at(row, i, zero))):
            with pytest.raises(DiagramError, match=rf"^square {i} does not commute$"):
                Ladder(top, bottom, verts)


def test_a_ladder_is_checked_on_every_build_after_its_square_is_memoized():
    """The commutativity of a square's four maps is memoized, and a ladder
    that does not commute, or whose maps commute but do not line up, still
    raises on every build once the memo holds the result for its maps."""
    t, other = discrete(Z2), indiscrete(Z2)
    ident, zero = identity_hom(Z2), zero_hom(Z2, Z2)
    good = TopHom(ident, t, t)
    Ladder((good,), (good,), (good, good))
    assert topology._square_commutes(ident, ident, ident, ident) is True
    bad = TopHom(zero, t, t)
    assert topology._square_commutes(zero, ident, ident, ident) is False
    for _ in range(3):
        with pytest.raises(DiagramError, match=r"^square 0 does not commute$"):
            Ladder((bad,), (good,), (good, good))
        with pytest.raises(DiagramError, match=r"^square 0 does not line up$"):
            Ladder((TopHom(ident, t, other),), (good,), (good, good))


def _dropped_choices(droppable):
    """No hypothesis, each one alone, and all of them."""
    return {frozenset(), frozenset(droppable)} | {frozenset([n]) for n in droppable}


@pytest.mark.parametrize("theorem", sorted(THEOREMS))
def test_the_runner_filters_exactly_the_instances_the_full_report_filters(theorem):
    """On every instance of the family at the golden spec, under each choice
    of dropped hypotheses, the runner's path (`TheoremSpec.evaluate`)
    filters exactly when one of the law's own predicates is false on a
    hypothesis that is not dropped, and otherwise reports the value of
    every predicate, in declared order, and a conclusion that holds exactly
    when every clause does."""
    info = THEOREMS[theorem]
    built = [inst.build() for _, inst in info.build_family(GOLDEN_SPEC)]
    for dropped in _dropped_choices(info.law.droppable):
        filtered = 0
        for i, x in enumerate(built):
            values = tuple((n, holds(x)) for n, holds in info.law.hypotheses)
            rep = info.evaluate(x, dropped)
            assert (rep is None) == any(not ok and n not in dropped for n, ok in values)
            if rep is None:
                filtered += 1
                continue
            assert rep.hypotheses_checked == values, (dropped, i)
            assert rep.conclusion_checked is all(ok for _, ok in rep.details), (dropped, i)
        if dropped == frozenset(info.law.droppable):
            assert filtered == 0


def _spy_law(values: dict[str, bool]):
    """A law whose hypotheses, conclusion and notes record their calls."""
    calls = []

    def recorded(name, value):
        return lambda x: calls.append(name) or value

    law = Law(
        "spy",
        tuple((name, recorded(name, ok)) for name, ok in values.items()),
        recorded("conclusion", (("clause", True),)),
        recorded("notes", ("a note",)),
    )
    return law, calls


@pytest.mark.parametrize(
    "dropped, gate_calls",
    [
        ((), ["h1", "h2"]),
        (("h2",), ["h1", "h3"]),
        (("h1", "h2"), ["h3"]),
    ],
)
def test_the_gate_stops_at_the_first_unmet_hypothesis_that_is_not_dropped(
    dropped, gate_calls
):
    """No hypothesis after the first unmet kept one runs, nor do the
    conclusion and the notes: the instance is filtered."""
    law, calls = _spy_law({"h1": True, "h2": False, "h3": False, "h4": True})
    assert law(None, frozenset(dropped)) is None
    assert calls == gate_calls


def test_the_gate_runs_each_hypothesis_once_when_it_passes():
    """When every kept hypothesis holds, the law runs each hypothesis once,
    the kept ones first and the dropped ones for the report, then the
    conclusion and the notes."""
    law, calls = _spy_law({"h1": True, "h2": False, "h3": False, "h4": True})
    rep = law(None, frozenset({"h2", "h3"}))
    assert calls == ["h1", "h4", "h2", "h3", "conclusion", "notes"]
    assert rep.hypotheses_checked == (("h1", True), ("h2", False), ("h3", False), ("h4", True))
    assert rep.conclusion_checked is True
    assert rep.model_collapse[-1] == "a note"
