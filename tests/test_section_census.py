"""The topologizing-section census and the Nagao cores, checked against the
per-section definitions.

`section_census` lists the splittings over N_B in closed form, and the
census cores are built once per splitting.  The references in
tests/oracles.py are per-section constructions: every section, kept when
its cocycle h_s maps N_B x N_B into N_A, the subgroup
{iota(a) + s(b) : a in N_A, b in N_B} built for each section, and the cocycle
laws and the extension stratum computed section by section.
"""

import functools

import pytest
from hypothesis import given, settings, strategies as st

from topab import diagrams
from topab.diagrams import (
    verify_choice_discrete,
    verify_nagao_comparison,
    verify_topologizable,
)
from topab.extensions import (
    Section,
    _core_on,
    cocycle_extension,
    factor_set_from_section,
    is_topologizing,
    nagao_core,
    section_census,
)
from topab.groups import hom_set, quotient, subgroup_as_group
from topab.search import (
    ExtensionInstance,
    FamilySpec,
    RowData,
    SearchTask,
    _cocycle_triples,
    _extensions,
    all_cocycles,
    run_search,
    topologized_groups,
)

from oracles import (
    cocycle_law_by_section,
    comparison_key,
    core_by_definition,
    first_section_per_core,
    topologizing_sections_by_filter,
)

ORDERS = [1, 2, 3, 4]
COCYCLE_LAWS = (verify_nagao_comparison, verify_choice_discrete, verify_topologizable)


def _algs(max_order):
    """Every extension (A_top, B_top, h) with every cocycle up to max_order."""
    spec = FamilySpec(max_group_order=max_order)
    return [cocycle_extension(*t) for t in _cocycle_triples(spec, max_order, reps=False)]


def _new_algs(max_order):
    """The extensions of order max_order that no smaller bound already has."""
    smaller = set(_algs(max_order - 1)) if max_order > 1 else set()
    return [alg for alg in _algs(max_order) if alg not in smaller]


def _restriction(alg, s):
    return tuple(s(b) for b in alg.B.open_core)


def _sections(alg):
    return tuple(section_census(alg).sections())


@pytest.mark.parametrize("max_order", ORDERS)
def test_census_matches_per_section_reference(max_order, monkeypatch):
    """On every extension up to order 4, with the per-section reference
    computed once per extension:
    - the materialized census is the filtered list of sections, and the
      census counts them and builds the k-th of them by its index alone;
    - the census lists one splitting per comparison class of the sections,
      in the order the sections first meet the classes; each is the least
      restriction to N_B in its class, covers |N_A|^(|N_B| - 1) *
      |A|^(|B| - |N_B|) sections, and its core is their per-section core;
    - the three cocycle laws, with and without their hypotheses, report
      what the per-section reference reports, and build no Section.
    Each section's core and comparison key are computed once and shared by
    the six references."""
    algs = _new_algs(max_order)
    assert algs
    built = []
    init = Section.__post_init__

    def counted(self):
        built.append(self)
        init(self)

    empty = 0
    for alg in algs:
        secs = topologizing_sections_by_filter(alg)
        cores = [core_by_definition(alg, s) for s in secs]
        keys = [comparison_key(alg, s, secs[0]) for s in secs]
        empty += not secs
        census = section_census(alg)
        assert census.section_count == len(secs)
        assert tuple(census.sections()) == secs
        # each section is kept under its own index
        assert [census.built[k] for k in range(len(secs))] == list(secs)
        with pytest.raises(IndexError):
            census.section(census.section_count)
        by_class = {}
        for s, core, key in zip(secs, cores, keys):
            by_class.setdefault(key, []).append((s, core))
        assert len(census.splittings) == len(by_class)
        A, B, N_A, N_B = alg.A.group, alg.B.group, alg.A.open_core, alg.B.open_core
        free = N_A.order ** (N_B.order - 1) * A.order ** (B.order - N_B.order)
        for sp, covered in zip(census.splittings, by_class.values()):
            assert len(covered) == free
            assert sp == min(_restriction(alg, s) for s, _ in covered)
            first, core = covered[0]
            assert census.first_section(sp) == first
            assert census.core(sp).element_set == core
        for law in COCYCLE_LAWS:
            for dropped in (frozenset(), frozenset(law.droppable)):
                with monkeypatch.context() as m:
                    m.setattr(Section, "__post_init__", counted)
                    got = law(alg, dropped)
                reference = cocycle_law_by_section(
                    law.theorem_id, alg, secs, cores, keys, dropped
                )
                assert (got is None) == (reference is None)
                assert got is None or got.to_json() == reference.to_json()
    assert built == []
    # the dropped hypothesis meets empty censuses from order 2 on
    assert empty or max_order == 1


# (evaluated, filtered, failures) of `topab verify LAW --max-order 5`
ORDER_5_COUNTS = {
    "nagao_comparison": (12_279, 1_902, 0),
    "choice_discrete": (5_432, 8_749, 0),
    "topologizable": (14_181, 0, 1_902),
    "haus_exactness": (8_491, 5_690, 0),
}


@pytest.mark.parametrize("theorem_id", ORDER_5_COUNTS)
def test_census_laws_keep_their_counts_at_max_order_5(theorem_id):
    """The laws that read the census, one order past the default spec,
    which the golden reports stop at: their counts are pinned here."""
    res = run_search(SearchTask(theorem_id, family=FamilySpec(max_group_order=5)))
    assert (res.evaluated, res.filtered, res.failure_count) == ORDER_5_COUNTS[theorem_id]


@functools.cache
def _ends_up_to_16():
    """Every pair (A_top, B_top) of topologized groups with |A| * |B| <= 16."""
    tops = topologized_groups(16)
    return [(A, B) for A in tops for B in tops if A.group.order * B.group.order <= 16]


@st.composite
def drawn_sections(draw):
    """An extension with |A| * |B| <= 16, any cocycle, and a section index
    below its census count (None if no section topologizes)."""
    A_top, B_top = draw(st.sampled_from(_ends_up_to_16()))
    h = draw(st.sampled_from(all_cocycles(A_top.group, B_top.group)))
    alg = cocycle_extension(A_top, B_top, h)
    count = section_census(alg).section_count
    return alg, draw(st.integers(0, count - 1)) if count else None


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(drawn_sections())
def test_drawn_section_topologizes_and_count_has_closed_form(case):
    """A nonempty census lists |Hom(N_B, A/N_A)| splittings, one Nagao core
    each, and counts |Hom(N_B, A/N_A)| * |N_A|^(|N_B| - 1) *
    |A|^(|B| - |N_B|) sections, and the section drawn by index passes the
    definition: its full factor set maps N_B x N_B into N_A."""
    alg, k = case
    if k is None:
        return
    census = section_census(alg)
    A, B, N_A, N_B = alg.A.group, alg.B.group, alg.A.open_core, alg.B.open_core
    homs = len(hom_set(subgroup_as_group(N_B).group, quotient(A, N_A)[0]))
    assert len(census.splittings) == homs
    assert len({census.core(r).elements for r in census.splittings}) == homs
    assert census.section_count == (
        homs * N_A.order ** (N_B.order - 1) * A.order ** (B.order - N_B.order)
    )
    s = census.section(k)
    assert is_topologizing(alg.A, alg.B, factor_set_from_section(alg.iota, alg.pi, s))


def test_extensions_stratum_matches_per_section_walk():
    """`_extensions` yields, for every cocycle up to order 4, the first
    section with each core, as the walk over every section did."""
    spec = FamilySpec(max_group_order=4)
    expected = [
        ExtensionInstance(RowData(A_top, B_top, h, s))
        for A_top, B_top, h in _cocycle_triples(spec, 4, reps=False)
        for s in first_section_per_core(
            cocycle_extension(A_top, B_top, h), _sections(cocycle_extension(A_top, B_top, h))
        )
    ]
    assert list(_extensions(spec)) == expected


@pytest.mark.parametrize("max_order", ORDERS)
def test_census_count_is_restrictions_times_free_choices(max_order):
    """Each passing N_B-restriction extends to every choice off N_B."""
    for alg in _new_algs(max_order):
        secs = _sections(alg)
        restrictions = {_restriction(alg, s) for s in secs}
        A, B, N_B = alg.A.group, alg.B.group, alg.B.open_core
        assert len(secs) == len(restrictions) * A.order ** (B.order - N_B.order)


@pytest.mark.parametrize("max_order", ORDERS)
def test_nagao_core_matches_per_section_reference(max_order):
    for alg in _new_algs(max_order):
        for s in _sections(alg):
            assert nagao_core(alg, s).element_set == core_by_definition(alg, s)


def test_nagao_core_is_built_once_per_restriction():
    _core_on.cache_clear()
    restrictions = set()
    sections = empty = partial = 0
    for alg in _algs(4):
        secs = _sections(alg)
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


def test_disagreement_is_traced_back_to_the_first_pair_of_sections(monkeypatch):
    """The two criteria provably agree, so the expansion from splittings
    to section indices only runs on a broken key.  With one coset
    representative for all of G, every section has the same key, and the
    reported pair must be the first pair of sections with different cores."""
    monkeypatch.setattr(diagrams, "coset_reps", lambda G, K: {x: G.zero for x in G.elements})
    disagreeing = 0
    for alg in _algs(3):
        secs = topologizing_sections_by_filter(alg)
        cores = [core_by_definition(alg, s) for s in secs]
        pair = diagrams.first_disagreeing_pair(cores, [()] * len(secs))
        every = frozenset(verify_nagao_comparison.droppable)
        details = verify_nagao_comparison(alg, every).details
        if pair is None:
            assert details[1:] == ()
        else:
            disagreeing += 1
            assert details[1:] == (("disagreeing_pair_%d_%d" % pair, False),)
    assert disagreeing
