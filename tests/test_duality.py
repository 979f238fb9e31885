import itertools

import pytest

from topab.errors import NotContinuous
from topab.duality import dual_extension, dual_group, dual_hom
from topab.extensions import canonical_section, cocycle_extension, nagao_topology
from topab.groups import FinAbGroup, all_subgroups, compose, hom_set, identity_hom, zero_hom
from topab.search import all_groups_up_to_order
from topab.topology import (
    TopAbGroup,
    TopHom,
    discrete,
    is_continuous,
    is_topological_extension,
    separation,
)

from builders import factor_set, indiscrete, make_hom, split_extension, topologize
from oracles import evaluation, pull_back, separation_dual_iso

Z2 = FinAbGroup([2])
Z4 = FinAbGroup([4])


def test_all_characters_count_and_additivity():
    """The characters of G, its homomorphisms into Z/exponent, are |G| in
    number, and on the discrete G they are the dual."""
    for mods in [(), (2,), (4,), (2, 2), (2, 4), (6,)]:
        G = FinAbGroup(mods)
        circle = FinAbGroup([G.exponent])
        chars = hom_set(G, circle)
        assert len(chars) == G.order == len(set(chars))
        assert dual_group(discrete(G)).characters == chars
        for chi in chars:
            for x in G.elements:
                for y in G.elements:
                    assert chi(G.add(x, y)) == circle.add(chi(x), chi(y))


def test_dual_group_sizes():
    d = dual_group(discrete(Z4))
    assert d.order == 4 and d.structure.moduli == (4,)
    d = dual_group(topologize(Z4, [(0,), (2,)]))
    assert d.order == 2 and d.structure.moduli == (2,)
    d = dual_group(indiscrete(Z4))
    assert d.order == 1 and d.structure.moduli == ()


def test_dual_is_discrete_and_sized_like_separation():
    for G in all_groups_up_to_order(8):
        for s in all_subgroups(G):
            t = TopAbGroup(G, s)
            d = dual_group(t)
            haus, _ = separation(t)
            assert d.order == haus.group.order
            assert d.as_top.open_core.order == 1
            # structure is isomorphic to the separation
            assert d.structure.moduli == haus.group.moduli


def test_elem_char_tables_are_isomorphisms():
    t = topologize(FinAbGroup([2, 4]), [(0, 0), (0, 2)])
    d = dual_group(t)
    st = d.structure
    circle = FinAbGroup([t.group.exponent])
    for x in st.elements:
        for y in st.elements:
            lhs = d.elem_to_char[st.add(x, y)]
            rhs_images = tuple(
                map(circle.add, d.elem_to_char[x].gen_images, d.elem_to_char[y].gen_images)
            )
            assert lhs.gen_images == rhs_images


def test_dual_hom_contravariant():
    f = TopHom(make_hom(Z4, Z2, [(1,)]), discrete(Z4), discrete(Z2))
    g = TopHom(make_hom(Z2, Z4, [(2,)]), discrete(Z2), discrete(Z4))
    df, dg = dual_hom(f), dual_hom(g)
    # dual of a surjection is injective; dual of an injection is surjective
    assert df.is_injective()
    assert dg.is_surjective()
    # contravariance: (g o f)* = f* o g* -- compose f after g: f o g = 0 here
    fg = TopHom(compose(f.map, g.map), g.source, f.target)
    assert dual_hom(fg).table == compose(dg, df).table


def test_dual_hom_rejects_discontinuous():
    f = TopHom(identity_hom(Z2), indiscrete(Z2), discrete(Z2))
    assert not is_continuous(f)
    with pytest.raises(NotContinuous):
        dual_hom(f)


def test_dual_of_identity_and_zero():
    t = discrete(Z4)
    did = dual_hom(TopHom(identity_hom(Z4), t, t))
    assert did.table == identity_hom(dual_group(t).structure).table
    z = dual_hom(TopHom(zero_hom(Z4, Z2), t, discrete(Z2)))
    assert set(z.table.values()) == {z.target.zero}


def test_evaluation_kernel_is_core():
    for G in [Z2, Z4, FinAbGroup([2, 2]), FinAbGroup([2, 4])]:
        for s in all_subgroups(G):
            t = TopAbGroup(G, s)
            ev = evaluation(t)
            assert ev.map.kernel.elements == t.open_core.elements
            # induced map on the separation is an isomorphism
            haus, q = separation(t)
            assert ev.map.image.order == haus.group.order


def test_evaluation_discrete_is_iso():
    ev = evaluation(discrete(Z4))
    assert ev.map.is_bijective()
    ev = evaluation(indiscrete(Z4))
    assert ev.target.group.order == 1


def test_pullback_rescaling():
    f = make_hom(Z2, Z4, [(2,)])
    chi = make_hom(Z4, Z4, [(1,)])
    back = pull_back(chi, f)
    assert back.source == Z2 and back.target == Z2 and back((1,)) == (1,)  # 2/4 becomes 1/2


def test_dual_hom_matches_pull_back():
    """dual_hom(f) sends each character chi to chi o f, by the reference
    pull_back, for every continuous f between topologized groups on these
    moduli, whose exponents differ, so that values are rescaled."""
    moduli = [(), (2,), (3,), (4,), (2, 2), (6,), (8,), (2, 4)]
    tops = [TopAbGroup(G, s) for G in map(FinAbGroup, moduli) for s in all_subgroups(G)]
    checked = 0
    for s, t in itertools.product(tops, repeat=2):
        for f in hom_set(s.group, t.group):
            th = TopHom(f, s, t)
            if not is_continuous(th):
                continue
            d_src, d_tgt, df = dual_group(s), dual_group(t), dual_hom(th)
            for x, chi in d_tgt.elem_to_char.items():
                assert d_src.elem_to_char[df(x)] == pull_back(chi, f)
            checked += 1
    assert checked > 1000


def _dual_sequence(e):
    """Whether the dual sequence of e is a topological extension, and the
    orders of B*, G* and A*, read off the endpoints of its maps."""
    pi_dual, iota_dual = dual_extension(e)
    assert pi_dual.target == iota_dual.source
    orders = (pi_dual.source.group.order, pi_dual.target.group.order, iota_dual.target.group.order)
    return is_topological_extension(pi_dual, iota_dual), orders


def test_dual_extension_discrete_z4():
    alg = cocycle_extension(
        discrete(Z2), discrete(Z2), factor_set(Z2, Z2, {((1,), (1,)): (1,)})
    )
    e = nagao_topology(alg, canonical_section(alg))
    assert e.G.group.moduli == (4,)
    is_extension, (b_dual, g_dual, a_dual) = _dual_sequence(e)
    assert is_extension
    assert b_dual == 2 and g_dual == 4 and a_dual == 2


def test_dual_extension_degenerate():
    e = split_extension(indiscrete(Z2), discrete(Z2))
    is_extension, (_, _, a_dual) = _dual_sequence(e)
    assert a_dual == 1
    assert is_extension


def test_duals_isomorphic():
    # dual structures are in canonical form, so isomorphic duals are equal
    def structure(t):
        return dual_group(t).structure

    assert structure(discrete(Z4)) == structure(discrete(Z4))
    assert structure(discrete(Z4)) != structure(discrete(FinAbGroup([2, 2])))
    assert structure(discrete(FinAbGroup([]))) != structure(discrete(Z2))
    # a group and its separation have isomorphic duals
    t = topologize(Z4, [(0,), (2,)])
    haus, _ = separation(t)
    assert structure(t) == structure(haus)


def test_separation_dual_iso():
    for G in [Z4, FinAbGroup([2, 2]), FinAbGroup([2, 4])]:
        for s in all_subgroups(G):
            t = TopAbGroup(G, s)
            f = separation_dual_iso(t)
            assert f.is_bijective()
