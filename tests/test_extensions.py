import dataclasses
import functools
import gc
import itertools
import json
import weakref

import pytest
from hypothesis import assume, given, strategies as st

from topab import jsonio
from topab.errors import (
    DiagramError,
    ElementNotInGroup,
    InvalidCocycle,
    InvalidSection,
    NotASubgroup,
    NotAnExtension,
    NotTopologizing,
)
from topab.extensions import (
    AlgExtension,
    Extension,
    FactorSet,
    Section,
    canonical_section,
    cocycle_extension,
    cocycle_violations,
    comparison_map,
    enumerate_sections,
    extension_square,
    factor_set_from_section,
    has_open_fibers,
    is_compatible,
    is_topologizing,
    nagao_topology,
    realize_cocycle,
    section_census,
    section_for,
    sigma,
    snake_haus_sequence,
    validate_cocycle,
)
from topab.groups import (
    FinAbGroup,
    Homomorphism,
    Interned,
    Subgroup,
    exactness_failure,
    group_structure,
    hom_from_table,
    identity_hom,
    zero_hom,
)
from topab.diagrams import verify_haus_exactness
from topab.duality import dual_extension
from topab.search import (
    FamilySpec,
    RowData,
    all_cocycles,
    all_groups_up_to_order,
    extension_family,
    five_lemma_family,
    p3_family,
    topologized_groups,
)
from topab.topology import (
    TopAbGroup,
    discrete,
    is_continuous,
    is_strict,
    is_topological_extension,
    separation_hom,
)

from builders import (
    alg_extension_to_json,
    factor_set,
    indiscrete,
    make_hom,
    split_extension,
    topologize,
)
from oracles import (
    TwistedGroup,
    check_group_laws,
    checked_theta,
    compatible_section_via_eta,
    psi_maps,
    same_topology,
    violations_by_triple_loop,
)
from test_groups import PROPERTIES

Z2 = FinAbGroup([2])
Z4 = FinAbGroup([4])
K4 = FinAbGroup([2, 2])


def z4_extension(a_core="discrete", b_core="discrete", g_core=None):
    """0 -> Z/2 -> Z/4 -> Z/2 -> 0 with chosen topologies."""
    a = discrete(Z2) if a_core == "discrete" else indiscrete(Z2)
    b = discrete(Z2) if b_core == "discrete" else indiscrete(Z2)
    alg = AlgExtension(a, Z4, b, make_hom(Z2, Z4, [(2,)]), make_hom(Z4, Z2, [(1,)]))
    return alg


def test_cocycle_validation():
    h0 = factor_set(Z2, Z2, {})
    assert validate_cocycle(h0)
    h1 = factor_set(Z2, Z2, {((1,), (1,)): (1,)})
    assert validate_cocycle(h1)
    bad = FactorSet(
        Z2,
        Z2,
        tuple(
            ((b,), (bp,), (1,) if (b, bp) == (0, 1) else (0,))
            for b in range(2)
            for bp in range(2)
        ),
    )
    assert not validate_cocycle(bad)
    assert any("normalization" in v for v in cocycle_violations(bad))


# entries that break a valid cocycle Z4 x Z4 -> Z4 at one law
BROKEN_LAWS = pytest.mark.parametrize(
    "law, edits",
    [
        ("normalization", {((1,), (0,)): (1,)}),
        ("normalization", {((0,), (3,)): (2,)}),
        ("symmetry", {((1,), (2,)): (3,)}),
        ("cocycle identity", {((1,), (2,)): (1,), ((2,), (1,)): (1,)}),
    ],
)


def _z4_cocycle_with(edits) -> FactorSet:
    """The carry cocycle Z4 x Z4 -> Z4 with the entries of edits overwritten."""
    h = factor_set(Z4, Z4, {(b, bp): ((b[0] + bp[0]) // 4,) for b in Z4.elements for bp in Z4.elements})
    assert cocycle_violations(h) == ()
    return FactorSet(Z4, Z4, tuple((b, bp, edits.get((b, bp), a)) for b, bp, a in h.entries))


@BROKEN_LAWS
def test_cocycle_violations_read_off_the_tables_as_the_triple_loop(law, edits):
    """A valid cocycle with entries overwritten so that it breaks the law:
    the table-reading diagnostics are the triple loop's, message for message
    and in order."""
    bad = _z4_cocycle_with(edits)
    got = cocycle_violations(bad)
    assert any(m.startswith(f"{law} fails") for m in got)
    assert got == violations_by_triple_loop(bad)


@BROKEN_LAWS
def test_realize_cocycle_raises_the_first_violation(law, edits):
    """realize_cocycle checks the cocycle itself: on a table broken at the
    law it raises InvalidCocycle with the first diagnostic, and raises again
    on a second call, since a raise leaves nothing in its cache."""
    bad = _z4_cocycle_with(edits)
    for _ in range(2):
        with pytest.raises(InvalidCocycle) as exc:
            realize_cocycle(bad)
        assert str(exc.value) == cocycle_violations(bad)[0]


def test_realize_cocycle_is_the_twisted_group_path():
    """Every cocycle over groups of order <= 4 realizes as group_structure
    over TwistedGroup.add, with the same canonical group, pair map, iota
    and pi."""
    groups = all_groups_up_to_order(4)
    cocycles = [h for A in groups for B in groups for h in all_cocycles(A, B)]
    assert len(cocycles) == 393
    for h in cocycles:
        A, B = h.A, h.B
        tw = TwistedGroup(h)
        G, pairs = group_structure(tw.elements, tw.add, tw.zero)
        from_pair = dict(zip(pairs, G.elements))
        iota = hom_from_table(A, G, {a: from_pair[(a, B.zero)] for a in A.elements})
        pi = hom_from_table(G, B, {y: b for y, (_, b) in zip(G.elements, pairs)})
        real = realize_cocycle(h)
        assert (real.G, real.from_pair, real.iota, real.pi) == (G, from_pair, iota, pi)


def test_twisted_group_z4():
    h = factor_set(Z2, Z2, {((1,), (1,)): (1,)})
    t = TwistedGroup(h)
    check_group_laws(t)
    x = ((0,), (1,))
    assert t.add(x, x) == ((1,), (0,))
    # order of (0, 1) is 4
    y, n = t.zero, 0
    while True:
        y = t.add(y, x)
        n += 1
        if y == t.zero:
            break
    assert n == 4


def test_twisted_group_rejects_bad_cocycle():
    bad = FactorSet(
        Z2,
        Z2,
        tuple(
            ((b,), (bp,), (1,) if (b, bp) == (0, 1) else (0,))
            for b in range(2)
            for bp in range(2)
        ),
    )
    with pytest.raises(InvalidCocycle):
        TwistedGroup(bad)


def test_cord_zero_identity():
    """(a, b) + (a', 0) = (a + a', b) in every twisted group."""
    for h in [
        factor_set(Z2, Z2, {}),
        factor_set(Z2, Z2, {((1,), (1,)): (1,)}),
        factor_set(Z4, Z2, {((1,), (1,)): (2,)}),
    ]:
        t = TwistedGroup(h)
        for a, b in t.elements:
            for ap in t.A.elements:
                assert t.add((a, b), (ap, t.B.zero)) == (t.A.add(a, ap), b)


def test_enumerate_sections_counts():
    alg = z4_extension()
    secs = list(enumerate_sections(alg))
    assert len(secs) == 2
    assert sorted(s((1,)) for s in secs) == [(1,), (3,)]
    split = cocycle_extension(discrete(Z2), discrete(Z2), factor_set(Z2, Z2, {}))
    assert len(list(enumerate_sections(split))) == 2
    b_trivial = cocycle_extension(
        discrete(Z4), discrete(FinAbGroup([])), factor_set(Z4, FinAbGroup([]), {})
    )
    assert len(list(enumerate_sections(b_trivial))) == 1


def test_factor_set_from_section_z4():
    alg = z4_extension()
    s1 = section_for(alg, {(0,): (0,), (1,): (1,)})
    h1 = factor_set_from_section(alg.iota, alg.pi, s1)
    assert h1((1,), (1,)) == (1,)
    s3 = section_for(alg, {(0,): (0,), (1,): (3,)})
    h3 = factor_set_from_section(alg.iota, alg.pi, s3)
    assert h3((1,), (1,)) == (1,)
    # split extension with a homomorphic section gives the zero cocycle
    split = cocycle_extension(discrete(Z2), discrete(Z2), factor_set(Z2, Z2, {}))
    s = canonical_section(split)
    h = factor_set_from_section(split.iota, split.pi, s)
    assert all(h(b, bp) == Z2.zero for b in Z2.elements for bp in Z2.elements)


def test_section_validation():
    alg = z4_extension()
    with pytest.raises(InvalidSection):
        section_for(alg, {(0,): (0,), (1,): (2,)})  # lands in the kernel
    with pytest.raises(InvalidSection):
        Section(Z2, Z4, (((0,), (2,)), ((1,), (1,))))  # s(0) != 0
    with pytest.raises(InvalidSection):
        Section(Z2, Z4, (((0,), (0,)), ((1,), (1,)), ((1,), (3,))))  # s(1) twice


def test_theta_roundtrip_exhaustive_small():
    """Criterion-2 shaped check at tiny scale (full sweep in acceptance)."""
    for mods_a, mods_b in [((2,), (2,)), ((2,), (2, 2))]:
        A, B = FinAbGroup(mods_a), FinAbGroup(mods_b)
        from topab.search import all_cocycles

        for h in all_cocycles(A, B):
            alg = cocycle_extension(discrete(A), discrete(B), h)
            for s in enumerate_sections(alg):
                th = checked_theta(alg, s)
                assert len(set(th.mapping.values())) == alg.G.order
                assert th((A.zero, B.zero)) == alg.G.zero
                for b in B.elements:
                    assert th((A.zero, b)) == s(b)


def test_is_topologizing():
    h = factor_set(Z2, Z2, {((1,), (1,)): (1,)})
    assert is_topologizing(discrete(Z2), discrete(Z2), h)
    assert not is_topologizing(discrete(Z2), indiscrete(Z2), h)
    assert is_topologizing(indiscrete(Z2), indiscrete(Z2), h)
    assert is_topologizing(discrete(Z2), indiscrete(Z2), factor_set(Z2, Z2, {}))


def test_nagao_topology_cores():
    # B discrete: core is iota(N_A) whatever the section
    alg = z4_extension(a_core="indiscrete", b_core="discrete")
    for s in enumerate_sections(alg):
        ext = nagao_topology(alg, s)
        assert ext.G.core_set == frozenset({(0,), (2,)})
    # both discrete -> G discrete; both indiscrete -> G indiscrete
    alg = z4_extension()
    ext = nagao_topology(alg, canonical_section(alg))
    assert ext.G.open_core.order == 1
    alg = z4_extension(a_core="indiscrete", b_core="indiscrete")
    ext = nagao_topology(alg, canonical_section(alg))
    assert ext.G.open_core.order == 4


def test_nagao_topology_rejects_non_topologizing():
    alg = z4_extension(a_core="discrete", b_core="indiscrete")
    for s in enumerate_sections(alg):
        with pytest.raises(NotTopologizing):
            nagao_topology(alg, s)


def test_nagao_is_topological_extension():
    from topab.search import all_cocycles
    from topab.groups import all_subgroups

    for mods_a, mods_b in [((2,), (2,)), ((4,), (2,))]:
        A, B = FinAbGroup(mods_a), FinAbGroup(mods_b)
        for na in all_subgroups(A):
            for nb in all_subgroups(B):
                at, bt = TopAbGroup(A, na), TopAbGroup(B, nb)
                for h in all_cocycles(A, B):
                    alg = cocycle_extension(at, bt, h)
                    for s in enumerate_sections(alg):
                        hs = factor_set_from_section(alg.iota, alg.pi, s)
                        if not is_topologizing(at, bt, hs):
                            continue
                        ext = nagao_topology(alg, s)
                        assert is_continuous(ext.iota) and is_strict(ext.iota)
                        assert is_continuous(ext.pi) and is_strict(ext.pi)


def test_same_topology():
    alg = z4_extension()
    s1 = section_for(alg, {(0,): (0,), (1,): (1,)})
    s3 = section_for(alg, {(0,): (0,), (1,): (3,)})
    assert same_topology(alg, s1, s1)
    assert same_topology(alg, s1, s3)  # both give the discrete topology
    f = comparison_map(alg, s1, s3)
    assert f[(1,)] == (1,)


def test_same_topology_rejects_non_topologizing():
    alg = z4_extension(a_core="discrete", b_core="indiscrete")
    s1 = section_for(alg, {(0,): (0,), (1,): (1,)})
    s3 = section_for(alg, {(0,): (0,), (1,): (3,)})
    with pytest.raises(NotTopologizing):
        same_topology(alg, s1, s3)


def identity_square(ext):
    return extension_square(
        ext,
        ext,
        identity_hom(ext.A.group),
        identity_hom(ext.G.group),
        identity_hom(ext.B.group),
    )


def test_extension_square_names_the_square_that_does_not_commute():
    alg = z4_extension()
    ext = nagao_topology(alg, canonical_section(alg))
    ida, idg = identity_hom(Z2), identity_hom(Z4)
    zero_a, zero_g = zero_hom(Z2, Z2), zero_hom(Z4, Z4)
    # gamma = 0 under alpha = id: gamma(iota(1)) = 0 but iota(alpha(1)) != 0
    with pytest.raises(DiagramError, match="square 0 does not commute"):
        extension_square(ext, ext, ida, zero_g, ida)
    # alpha = gamma = 0 under beta = id: pi(gamma(1)) = 0 but beta(pi(1)) != 0
    with pytest.raises(DiagramError, match="square 1 does not commute"):
        extension_square(ext, ext, zero_a, zero_g, ida)
    extension_square(ext, ext, ida, idg, ida)


def test_sigma_identity_square():
    alg = z4_extension()
    ext = nagao_topology(alg, canonical_section(alg))
    sq = identity_square(ext)
    s1 = section_for(alg, {(0,): (0,), (1,): (1,)})
    s3 = section_for(alg, {(0,): (0,), (1,): (3,)})
    sg = sigma(sq, s1, s3)
    assert sg[(1,)] == (1,)
    assert sg[(0,)] == (0,)
    # gamma o s1 = s2 o beta gives sigma == 0
    sg0 = sigma(sq, s1, s1)
    assert all(v == (0,) for v in sg0.values())


def test_compatibility_and_open_fibers():
    alg = z4_extension()
    ext = nagao_topology(alg, canonical_section(alg))
    sq = identity_square(ext)
    s1 = section_for(alg, {(0,): (0,), (1,): (1,)})
    s3 = section_for(alg, {(0,): (0,), (1,): (3,)})
    # B1 discrete: always compatible, fibers always open
    assert is_compatible(sq, s1, s3)
    assert has_open_fibers(sigma(sq, s1, s3), ext.B)
    # sigma == 0 is compatible with open fibers
    assert is_compatible(sq, s1, s1)
    assert has_open_fibers(sigma(sq, s1, s1), ext.B)


def test_psi_decomposition_identity_square():
    alg = z4_extension()
    ext = nagao_topology(alg, canonical_section(alg))
    sq = identity_square(ext)
    s1 = section_for(alg, {(0,): (0,), (1,): (1,)})
    s3 = section_for(alg, {(0,): (0,), (1,): (3,)})
    psi, psi1, psi2 = psi_maps(sq, s1, s3)
    p = ((0,), (1,))
    assert psi1[p] == ((0,), (0,))
    assert psi2[p] == ((1,), (1,))
    assert psi[p] == ((1,), (1,))
    zero_pair = ((0,), (0,))
    assert psi[zero_pair] == psi1[zero_pair] == psi2[zero_pair] == zero_pair


def test_psi_and_theta_on_every_p3_square_at_order_3():
    """On every square of the p3 family at the golden spec (max order 3,
    every stratum): both theta charts are bijective and additive, and
    psi = psi1 + psi2 holds pointwise."""
    fam = p3_family(FamilySpec(max_group_order=3, sample_count=60, seed=0))
    assert {stratum for stratum, _ in fam} == {"squares_small", "diagonal", "sampled"}
    for _, inst in fam:
        sws = inst.build()
        checked_theta(inst.row1.alg, sws.s1)
        checked_theta(inst.row2.alg, sws.s2)
        psi_maps(*sws)


def test_compatible_section_via_eta_is_a_section():
    a1 = split_extension(discrete(Z2), discrete(Z2))
    a2 = split_extension(discrete(Z2), discrete(Z2))
    sq = extension_square(
        a1,
        a2,
        identity_hom(Z2),
        identity_hom(a1.G.group),
        identity_hom(Z2),
    )
    s1 = canonical_section(a1.alg)
    s2 = compatible_section_via_eta(sq, s1)
    for b in Z2.elements:
        assert a2.alg.pi(s2(b)) == b
    assert is_compatible(sq, s1, s2)


def _snake(e):
    """Whether the snake sequence of e is exact, and the orders of ker f, N_G,
    N_B and coker f, read off the endpoints of its maps."""
    m1, m2, m3 = snake_haus_sequence(e)
    assert m1.target == m2.source and m2.target == m3.source
    exact = exactness_failure(m1=m1, m2=m2, m3=m3) is None
    return exact, (m1.source.order, m2.source.order, m3.source.order, m3.target.order)


def test_split_extension_and_snake():
    e = split_extension(discrete(Z2), indiscrete(Z2))
    exact, (ker_f, core_g, core_b, coker_f) = _snake(e)
    assert exact
    assert ker_f == 1
    assert core_g == 2
    assert core_b == 2
    assert coker_f == 1


def test_snake_hausdorff_kernel_case():
    # with A Hausdorff (N_A = 0), ker f and coker f vanish
    e = split_extension(discrete(Z2), indiscrete(Z4))
    exact, (ker_f, _, _, coker_f) = _snake(e)
    assert exact and ker_f == 1 and coker_f == 1


def test_snake_all_trivial():
    e = split_extension(discrete(Z2), discrete(Z2))
    exact, (_, core_g, core_b, _) = _snake(e)
    assert exact
    assert core_g == 1 and core_b == 1


@functools.cache
def _ends_up_to_32():
    """Every pair (A_top, B_top) of topologized groups with |A| * |B| <= 32."""
    tops = topologized_groups(16)
    return [(A, B) for A in tops for B in tops if A.group.order * B.group.order <= 32]


def _draw_cocycle(draw, A: FinAbGroup, B: FinAbGroup) -> FactorSet:
    """The carry cocycle of random c_j in A plus the coboundary of a random
    t: B -> A with t(0) = 0."""
    c = [draw(st.sampled_from(A.elements)) for _ in B.moduli]
    t = {b: draw(st.sampled_from(A.elements)) for b in B.elements[1:]}
    t[B.zero] = A.zero
    entries = []
    for x, y in itertools.product(B.elements, repeat=2):
        carry = A.zero
        for j, n in enumerate(B.moduli):
            if x[j] + y[j] >= n:
                carry = A.add(carry, c[j])
        dt = A.sub(A.add(t[x], t[y]), t[B.add(x, y)])
        entries.append((x, y, A.add(carry, dt)))
    return FactorSet(A, B, tuple(entries))


@st.composite
def topologized_extensions(draw):
    """An extension of B_top by A_top, |A| * |B| <= 32, by a drawn cocycle,
    topologized by a section drawn from its census."""
    A_top, B_top = draw(st.sampled_from(_ends_up_to_32()))
    alg = cocycle_extension(A_top, B_top, _draw_cocycle(draw, A_top.group, B_top.group))
    census = section_census(alg)
    assume(census.section_count)
    return nagao_topology(alg, census.section(draw(st.integers(0, census.section_count - 1))))


@st.composite
def cocycles_up_to_32(draw):
    """A drawn cocycle B x B -> A with |A| * |B| <= 32."""
    groups = all_groups_up_to_order(16)
    A, B = draw(
        st.sampled_from([(A, B) for A in groups for B in groups if A.order * B.order <= 32])
    )
    return _draw_cocycle(draw, A, B)


@PROPERTIES
@given(cocycles_up_to_32())
def test_a_cocycles_realization_is_an_extension_with_the_twisted_sum(h):
    """realize_cocycle(h) is an exact 0 -> A -> G -> B -> 0 whose from_pair
    is a bijection carrying the twisted sum of A x B to the sum of G, and a
    second construction of the same table is the same object."""
    real = realize_cocycle(h)
    G, tw = real.G, TwistedGroup(h)
    assert real.iota.is_injective()
    assert real.pi.is_surjective()
    assert exactness_failure(iota=real.iota, pi=real.pi) is None
    assert sorted(real.from_pair.values()) == list(G.elements)
    for x in tw.elements:
        row = G.sums[real.from_pair[x]]
        for y in tw.elements:
            assert real.from_pair[tw.add(x, y)] == row[real.from_pair[y]]
    assert FactorSet(h.A, h.B, tuple(map(tuple, reversed(h.entries)))) is h


@PROPERTIES
@given(topologized_extensions())
def test_separated_dual_and_snake_sequences_are_exact(e):
    """With or without the case gate of haus_exactness, the separated and
    the dual sequence of a topological extension are topological extensions
    and its snake sequence is exact; the law reads the same three clauses."""
    m1, m2, m3 = snake_haus_sequence(e)
    assert is_topological_extension(separation_hom(e.iota), separation_hom(e.pi))
    assert is_topological_extension(*dual_extension(e))
    assert exactness_failure(m1=m1, m2=m2, m3=m3) is None
    report = verify_haus_exactness(e, frozenset({"case_gate"}))
    assert report.details == (
        ("separated_sequence_extension", True),
        ("dual_sequence_extension", True),
        ("snake_sequence_exact", True),
    )


def test_extension_rejects_non_strict():
    # Z/4 with the {0,2} core over indiscrete B and discrete A: iota not strict
    a = discrete(Z2)
    b = indiscrete(Z2)
    g = topologize(Z4, [(0,), (2,)])
    with pytest.raises(NotAnExtension):
        Extension(AlgExtension(a, Z4, b, make_hom(Z2, Z4, [(2,)]), make_hom(Z4, Z2, [(1,)])), g)


_to_z4, _onto_z2 = make_hom(Z2, Z4, [(2,)]), make_hom(Z4, Z2, [(1,)])
_K4_FIRST, _K4_SECOND = make_hom(Z2, K4, [(1, 0)]), make_hom(K4, Z2, [(0,), (1,)])
_K4_ONTO_FIRST = make_hom(K4, Z2, [(1,), (0,)])


@pytest.mark.parametrize(
    "iota, pi, message",
    [
        (identity_hom(Z2), _onto_z2, "iota must map A into G"),
        (_to_z4, identity_hom(Z2), "pi must map G onto B"),
    ],
)
def test_alg_extension_refuses_wrong_endpoints(iota, pi, message):
    with pytest.raises(NotAnExtension) as error:
        AlgExtension(discrete(Z2), Z4, discrete(Z2), iota, pi)
    assert str(error.value) == message


# (A, G, B, iota, pi, message): one case per reason a sequence is not exact
ALGEBRAIC_FAILURES = [
    (Z2, Z4, Z2, zero_hom(Z2, Z4), _onto_z2, "iota is not injective"),
    (Z2, Z2, Z2, identity_hom(Z2), zero_hom(Z2, Z2), "pi is not surjective"),
    (Z2, K4, Z2, _K4_FIRST, _K4_ONTO_FIRST, "image of iota differs from kernel of pi"),
    # precedence: injectivity before surjectivity before image = kernel
    (Z2, Z4, Z2, zero_hom(Z2, Z4), zero_hom(Z4, Z2), "iota is not injective"),
    (Z2, Z4, Z2, _to_z4, zero_hom(Z4, Z2), "pi is not surjective"),
]


@pytest.mark.parametrize("A, G, B, iota, pi, message", ALGEBRAIC_FAILURES)
def test_each_algebraic_failure_has_its_message(A, G, B, iota, pi, message):
    with pytest.raises(NotAnExtension) as alg_error:
        AlgExtension(discrete(A), G, discrete(B), iota, pi)
    assert str(alg_error.value) == message


def _k4_extension(a, g_core, b):
    return Extension(AlgExtension(a, K4, b, _K4_FIRST, _K4_SECOND), topologize(K4, g_core))


# one case per reason an exact sequence with a topology on G is not a
# topological extension
TOPOLOGICAL_FAILURES = {
    "G must topologize the middle group of alg": lambda: Extension(
        AlgExtension(discrete(Z2), Z4, discrete(Z2), _to_z4, _onto_z2), discrete(K4)
    ),
    "iota is not continuous": lambda: _k4_extension(indiscrete(Z2), [(0, 0)], discrete(Z2)),
    "iota is not strict": lambda: _k4_extension(discrete(Z2), K4.elements, indiscrete(Z2)),
    "pi is not continuous": lambda: _k4_extension(discrete(Z2), [(0, 0), (0, 1)], discrete(Z2)),
    "pi is not strict": lambda: _k4_extension(discrete(Z2), [(0, 0)], indiscrete(Z2)),
}


@pytest.mark.parametrize("message", TOPOLOGICAL_FAILURES)
def test_each_topological_failure_has_its_message(message):
    with pytest.raises(NotAnExtension) as error:
        TOPOLOGICAL_FAILURES[message]()
    assert str(error.value) == message


def test_one_alg_extension_per_extension(monkeypatch):
    """nagao_topology checks no exactness that is checked already: it builds
    no AlgExtension, and its Extension is over the AlgExtension it was
    given, whatever the section."""
    calls = []
    post_init = AlgExtension.__post_init__
    monkeypatch.setattr(
        AlgExtension, "__post_init__", lambda self: calls.append(1) or post_init(self)
    )
    alg = z4_extension(a_core="indiscrete", b_core="discrete")
    calls.clear()
    for s in enumerate_sections(alg):
        assert nagao_topology(alg, s).alg is alg
    assert calls == []


def test_an_extension_is_one_object_per_algebra_and_topology():
    """Extension(alg, G) is pooled by (alg, G), so the two sections of
    Z/4 over discrete Z/2, which agree on N_B = 0, topologize to one
    extension."""
    alg = z4_extension(a_core="indiscrete")
    g = topologize(Z4, [(0,), (2,)])
    e = Extension(alg, g)
    assert Extension(alg, g) is e and dataclasses.replace(e) is e
    assert (e.A, e.B, e.iota.map, e.pi.map) == (alg.A, alg.B, alg.iota, alg.pi)
    s1, s2 = enumerate_sections(alg)
    assert s1 is not s2
    assert nagao_topology(alg, s1) is nagao_topology(alg, s2) is e


def test_rows_whose_cocycles_realize_one_algebra_share_one_extension():
    """The zero cocycle of Z/3 by Z/2 and a coboundary realize one
    AlgExtension, so their rows with one section hold one extension."""
    z3 = FinAbGroup([3])
    a, b = discrete(Z2), discrete(z3)
    h1 = factor_set(Z2, z3, {})
    h2 = factor_set(Z2, z3, {((1,), (2,)): (1,), ((2,), (1,)): (1,), ((2,), (2,)): (1,)})
    alg = cocycle_extension(a, b, h1)
    assert h1 is not h2 and cocycle_extension(a, b, h2) is alg
    s = canonical_section(alg)
    assert RowData(a, b, h1, s).extension is RowData(a, b, h2, s).extension


def test_equal_topologized_groups_and_sections_are_one_object():
    """A constructor call with the value of a live object returns that object:
    a section's entries in any order, through `dataclasses.replace` and
    through JSON decoding."""
    t = TopAbGroup(Z4, Subgroup(Z4, ((0,), (2,))))
    assert TopAbGroup(FinAbGroup([4]), Subgroup(Z4, [(2,), (0,)])) is t
    assert dataclasses.replace(discrete(Z4), open_core=t.open_core) is t
    assert jsonio.topgroup_from_json(jsonio.to_json(t)) is t
    alg = z4_extension()
    s = Section(Z2, Z4, (((0,), (0,)), ((1,), (1,))))
    assert Section(FinAbGroup([2]), Z4, [((1,), (1,)), ((0,), (0,))]) is s
    assert canonical_section(alg) is s is next(enumerate_sections(alg))
    assert section_for(alg, {(1,): (1,), (0,): (0,)}) is s
    s3 = section_for(alg, {(0,): (0,), (1,): (3,)})
    assert dataclasses.replace(s, entries=(((1,), (3,)), ((0,), (0,)))) is s3
    row = RowData(discrete(Z2), discrete(Z2), factor_set(Z2, Z2, {((1,), (1,)): (1,)}), s)
    assert RowData.from_json(jsonio.to_json(row)).s is s


# a live cocycle, so that a key that forgot a repeated entry would meet it
_Z4_COCYCLE = factor_set(Z2, Z2, {((1,), (1,)): (1,)})


@pytest.mark.parametrize(
    "cls, args, error",
    [
        (TopAbGroup, (Z2, Subgroup(Z4, ((0,),))), NotASubgroup),
        (Section, (Z2, Z4, (((0,), (2,)), ((1,), (1,)))), InvalidSection),  # s(0) != 0
        (Section, (Z2, Z4, (((0,), (0,)), ((1,), (1,)), ((1,), (1,)))), InvalidSection),
        (Section, (Z2, Z4, (((0,), (0,)), ((1,), (1,)), ((1,), (3,)))), InvalidSection),
        (Section, (Z2, Z4, (((0,), (0,)), ((1,), (4,)))), ElementNotInGroup),
        (
            AlgExtension,
            (discrete(Z2), Z4, discrete(Z2), zero_hom(Z2, Z4), make_hom(Z4, Z2, [(1,)])),
            NotAnExtension,
        ),
        (FactorSet, (Z2, Z2, _Z4_COCYCLE.entries * 2), InvalidCocycle),
        (FactorSet, (Z2, Z2, _Z4_COCYCLE.entries[:3] + (((1,), (1,), (2,)),)), ElementNotInGroup),
        (
            Extension,  # iota of the discrete Z/2 into the indiscrete Z/4 is not strict
            (AlgExtension(discrete(Z2), Z4, discrete(Z2), _to_z4, _onto_z2), indiscrete(Z4)),
            NotAnExtension,
        ),
    ],
)
def test_invalid_values_raise_on_every_call_and_are_never_pooled(cls, args, error):
    for _ in range(3):
        with pytest.raises(error):
            cls(*args)
    assert cls._pool.get(cls._pool_key(*args)) is None


def test_unhashable_arguments_skip_the_pool():
    """An unhashable argument skips the pool and reaches the constructor: an
    open core that is no subgroup raises AttributeError, and a section table
    of lists is read as pairs."""
    with pytest.raises(AttributeError):
        TopAbGroup(Z2, [(0,)])
    s = Section(Z2, Z4, [[(0,), (0,)], [(1,), (1,)]])
    assert s == Section(Z2, Z4, (((0,), (0,)), ((1,), (1,))))


INTERNED = (
    FinAbGroup,
    Subgroup,
    Homomorphism,
    TopAbGroup,
    FactorSet,
    Section,
    AlgExtension,
    Extension,
    RowData,
)


@pytest.mark.parametrize("cls", INTERNED)
def test_interned_values_compare_and_hash_by_identity(cls):
    assert cls.__eq__ is object.__eq__
    assert cls.__hash__ is object.__hash__


def test_one_object_per_value_on_every_path():
    """An unhashable argument, `dataclasses.replace` and a JSON round trip
    through `jsonio` all return the pooled object of each interned type."""
    s = Section(Z2, Z4, [[(0,), (0,)], [(1,), (1,)]])
    assert s is Section(Z2, Z4, (((0,), (0,)), ((1,), (1,))))
    h = factor_set(Z2, Z2, {((1,), (1,)): (1,)})
    assert h is FactorSet(Z2, Z2, [list(e) for e in reversed(h.entries)])
    alg = z4_extension(a_core="indiscrete")
    A = alg.A
    row = RowData(A, alg.B, h, s)
    e = row.extension
    round_trips = [
        (Z4, jsonio.group_from_json),
        (A.open_core, lambda d: jsonio.subgroup_from_json(Z2, d)),
        (alg.iota, lambda d: jsonio.map_from_json(Z2, Z4, d)),
        (A, jsonio.topgroup_from_json),
        (h, jsonio.cocycle_from_json),
        (s, lambda d: jsonio.section_from_json(Z2, Z4, d)),
        (alg, jsonio.alg_extension_from_json),
        (e, _extension_from_json),
        (row, RowData.from_json),
    ]
    assert [type(x) for x, _ in round_trips] == list(INTERNED)
    for x, decode in round_trips:
        data = alg_extension_to_json(x) if x is alg else jsonio.to_json(x)
        assert decode(json.loads(jsonio.dumps(data))) is x
        assert dataclasses.replace(x) is x


def _extension_from_json(data) -> Extension:
    """The extension of the field-by-field JSON of `jsonio.to_json`, whose
    maps leave out their endpoints."""
    a = data["alg"]
    A, B = jsonio.topgroup_from_json(a["A"]), jsonio.topgroup_from_json(a["B"])
    G = jsonio.group_from_json(a["G"])
    iota = jsonio.map_from_json(A.group, G, a["iota"])
    alg = AlgExtension(A, G, B, iota, jsonio.map_from_json(G, B.group, a["pi"]))
    return Extension(alg, jsonio.topgroup_from_json(data["G"]))


def test_an_object_nothing_holds_leaves_the_pool():
    b, g = FinAbGroup([5]), FinAbGroup([5, 7])
    core = tuple((0, y) for y in range(7))
    t = TopAbGroup(g, Subgroup(g, core))
    s = Section(b, g, tuple(((x,), (x, 0)) for x in range(5)))
    refs = [weakref.ref(t), weakref.ref(t.open_core), weakref.ref(s)]
    del t, s
    gc.collect()
    assert all(ref() is None for ref in refs)
    assert Subgroup._pool.get(Subgroup._pool_key(g, core)) is None
    assert Section._pool.get(Section._pool_key(b, g, [((x,), (x, 0)) for x in range(5)])) is None


def _interned_objects(roots):
    """Every object of an Interned class reachable from `roots` through
    topab objects, tuples, lists, sets and dicts."""
    found, seen, stack = [], set(), list(roots)
    while stack:
        x = stack.pop()
        if id(x) in seen:
            continue
        seen.add(id(x))
        if isinstance(type(x), Interned):
            found.append(x)
        if isinstance(x, dict):
            stack.extend(x.keys())
            stack.extend(x.values())
        elif isinstance(x, (tuple, list, set, frozenset)):
            stack.extend(x)
        elif type(x).__module__.startswith("topab.") and hasattr(x, "__dict__"):
            stack.extend(vars(x).values())
    return found


def test_no_two_distinct_interned_objects_are_equal_across_the_families():
    """Every instance of the square and five-lemma families at max order 2
    and of the extension family at max order 4, and what it builds: each
    value of an interned type is one object.  At order 4 `first_section`
    lists the entries of some sections in the fiber order of two different
    projections, so a section key that did not sort them would show here."""
    spec = FamilySpec(max_group_order=2)
    instances = [x for family in (p3_family, five_lemma_family) for _, x in family(spec)]
    instances += [x for _, x in extension_family(FamilySpec(max_group_order=4))]
    objects = _interned_objects([*instances, *(x.build() for x in instances)])
    by_type = {}
    for x in objects:
        by_type.setdefault(type(x), []).append(x)
    assert set(by_type) == set(INTERNED)
    for cls, xs in by_type.items():
        # the value of x: the pool key of its fields.  Its interned fields
        # are keyed by identity, which the check of their own type covers.
        values = {cls._pool_key(*(getattr(x, f.name) for f in dataclasses.fields(x))) for x in xs}
        assert len(values) == len(xs)  # distinct objects, so distinct values
