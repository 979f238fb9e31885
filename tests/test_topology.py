import itertools

import pytest

from topab.errors import NotContinuous, NotWellDefined
from topab.groups import (
    FinAbGroup,
    all_homs,
    all_subgroups,
    compose,
    exactness_failure,
    hom_set,
    identity_hom,
    quotient,
    subgroup,
    zero_hom,
)
from topab.search import topologized_groups
from topab.topology import (
    TopAbGroup,
    TopHom,
    discrete,
    is_continuous,
    is_discrete,
    is_hausdorff,
    is_indiscrete,
    is_strict,
    is_topological_isomorphism,
    quotient_top,
    separation,
    separation_hom,
    strictness_failure,
    subspace_top,
)

from builders import indiscrete, make_hom, split_extension, topologize
from oracles import (
    closure_of_zero,
    has_property_p,
    is_continuous_oracle,
    is_strict_exact_oracle,
    is_strict_oracle,
    open_sets,
)

Z2 = FinAbGroup([2])
Z4 = FinAbGroup([4])


def all_topologies(G):
    return [TopAbGroup(G, s) for s in all_subgroups(G)]


def test_open_sets_indiscrete_discrete():
    t = indiscrete(Z2)
    assert set(open_sets(t)) == {frozenset(), frozenset({(0,), (1,)})}
    d = discrete(Z2)
    assert len(open_sets(d)) == 4


def test_open_sets_z4_half():
    t = topologize(Z4, [(0,), (2,)])
    assert set(open_sets(t)) == {
        frozenset(),
        frozenset({(0,), (2,)}),
        frozenset({(1,), (3,)}),
        frozenset({(0,), (1,), (2,), (3,)}),
    }


def test_closure_of_zero_equals_core():
    for G in [Z2, Z4, FinAbGroup([2, 2]), FinAbGroup([6])]:
        for t in all_topologies(G):
            assert closure_of_zero(t).elements == t.open_core.elements


def test_is_continuous_examples():
    idmap = identity_hom(Z4)
    assert is_continuous(TopHom(idmap, discrete(Z4), topologize(Z4, [(0,), (2,)])))
    assert not is_continuous(TopHom(idmap, topologize(Z4, [(0,), (2,)]), discrete(Z4)))
    proj = make_hom(Z4, Z2, [(1,)])
    assert is_continuous(TopHom(proj, topologize(Z4, [(0,), (2,)]), discrete(Z2)))


def test_strict_needs_continuity():
    f = TopHom(identity_hom(Z2), indiscrete(Z2), discrete(Z2))
    with pytest.raises(NotContinuous):
        is_strict(f)
    with pytest.raises(NotContinuous):
        is_strict_oracle(f)


def test_strict_examples():
    # into a discrete target, every continuous map is strict
    for f in all_homs(Z4, Z2):
        th = TopHom(f, discrete(Z4), discrete(Z2))
        assert is_strict(th)
    # zero maps are strict
    th = TopHom(zero_hom(Z4, Z2), topologize(Z4, [(0,), (2,)]), indiscrete(Z2))
    assert is_strict(th)
    # identity is strict
    for t in all_topologies(Z4):
        assert is_strict(TopHom(identity_hom(Z4), t, t))


def test_oracle_agreement_order_up_to_6():
    """Mini version of acceptance criterion 1 (full version in acceptance suite)."""
    groups = [FinAbGroup(m) for m in [(), (2,), (3,), (4,), (2, 2)]]
    tops = [t for g in groups for t in all_topologies(g)]
    for s in tops:
        for t in tops:
            for f in all_homs(s.group, t.group):
                th = TopHom(f, s, t)
                fast, slow = is_continuous(th), is_continuous_oracle(th)
                assert fast == slow
                if fast:
                    assert is_strict(th) == is_strict_oracle(th)


def test_separation():
    t = topologize(Z4, [(0,), (2,)])
    haus, q = separation(t)
    assert haus.group.moduli == (2,)
    assert is_discrete(haus)
    assert q((1,)) == (1,)
    assert is_continuous(q) and is_strict(q)
    # hausdorff group separates to itself
    d = discrete(Z4)
    haus2, q2 = separation(d)
    assert haus2.group.order == 4 and q2.map.is_bijective()
    # indiscrete collapses
    haus3, _ = separation(indiscrete(Z4))
    assert haus3.group.order == 1


def test_separation_is_the_quotient_by_the_core_with_the_discrete_topology():
    tops = topologized_groups(16)
    assert len(tops) == 215
    for t in tops:
        Q, proj = quotient(t.group, t.open_core)
        assert separation(t) == (discrete(Q), TopHom(proj, t, discrete(Q)))


def test_separation_hom_functorial():
    tops = all_topologies(Z4) + all_topologies(FinAbGroup([2, 2]))
    for s in tops:
        for t in tops:
            for f in all_homs(s.group, t.group):
                th = TopHom(f, s, t)
                if not is_continuous(th):
                    with pytest.raises(NotWellDefined):
                        separation_hom(th)
                    continue
                fh = separation_hom(th)
                assert is_continuous(fh)
                # the induced map commutes with the separation projections
                _, q_s = separation(s)
                _, q_t = separation(t)
                assert all(fh(q_s(x)) == q_t(f(x)) for x in s.group.elements)
                # compose with identity
                ih = separation_hom(TopHom(identity_hom(s.group), s, s))
                assert ih.map == identity_hom(ih.source.group)
                for u in tops:
                    for g in all_homs(t.group, u.group):
                        gh = TopHom(g, t, u)
                        if not is_continuous(gh):
                            continue
                        lhs = separation_hom(TopHom(compose(g, f), s, u)).map
                        rhs = compose(separation_hom(gh).map, fh.map)
                        assert lhs == rhs


def test_separation_hom_preserves_strict_surjective():
    tops = all_topologies(Z4)
    for s in tops:
        for t in tops:
            for f in all_homs(s.group, t.group):
                th = TopHom(f, s, t)
                if not is_continuous(th):
                    continue
                fh = separation_hom(th)
                if is_strict(th):
                    assert is_strict(fh)
                if f.is_surjective():
                    assert fh.map.is_surjective()


def test_product_subspace_quotient_cores():
    # the product topology is the Nagao topology of the split extension,
    # whose core is iota(N_T) + s(N_U) = N_T x 0
    t = topologize(Z4, [(0,), (2,)])
    d2 = discrete(Z2)
    p = split_extension(t, d2)
    assert p.G.group.order == 8
    assert p.G.core_set == {p.iota(n) for n in t.open_core}

    sub, incl = subspace_top(t, subgroup(Z4, [(0,), (2,)]))
    assert sub.group.order == 2
    assert is_indiscrete(sub)
    assert is_continuous(incl) and is_strict(incl)

    q, proj = quotient_top(t, subgroup(Z4, [(0,), (2,)]))
    assert q.group.moduli == (2,) and is_discrete(q)
    assert is_continuous(proj) and is_strict(proj)


def test_product_of_discrete_is_discrete():
    assert is_discrete(split_extension(discrete(Z2), discrete(Z4)).G)
    assert is_indiscrete(split_extension(indiscrete(Z2), indiscrete(Z4)).G)


def test_predicates():
    t = topologize(Z4, [(0,), (2,)])
    assert not is_hausdorff(t) and not is_discrete(t) and not is_indiscrete(t)
    assert is_hausdorff(discrete(Z4)) and is_discrete(discrete(Z4))
    assert is_indiscrete(indiscrete(Z4))
    triv = FinAbGroup([])
    assert is_discrete(discrete(triv)) and is_indiscrete(discrete(triv))


def test_property_p_collapses_to_discreteness():
    # The trivial subgroup always has finite index, so "all finite-index
    # subgroups open" forces the core into {0}; checked by enumeration.
    for G in [Z2, Z4, FinAbGroup([2, 2]), FinAbGroup([6])]:
        for t in all_topologies(G):
            assert has_property_p(t) == is_discrete(t)
    # the explicit spec-style instances
    assert not has_property_p(topologize(Z4, [(0,), (2,)]))
    k = FinAbGroup([2, 2])
    assert not has_property_p(topologize(k, [(0, 0), (1, 0)]))
    assert has_property_p(discrete(k))


def test_topological_isomorphism():
    t = topologize(Z4, [(0,), (2,)])
    assert is_topological_isomorphism(TopHom(identity_hom(Z4), t, t))
    assert not is_topological_isomorphism(TopHom(identity_hom(Z4), t, discrete(Z4)))


def test_extension_decision_matches_the_oracle_on_every_small_sequence():
    """0 -> A -> G -> B -> 0 is a topological extension, by the exactness
    decision and then the strictness decision, exactly when the open-set
    oracle finds the zero-padded row strict exact; over every A, G, B of
    order <= 4 with every topology and every iota, pi.  Each reason occurs."""
    tops = topologized_groups(4)
    zero = discrete(FinAbGroup(()))
    reasons = {}
    for A, G, B in itertools.product(tops, repeat=3):
        for iota, pi in itertools.product(hom_set(A.group, G.group), hom_set(G.group, B.group)):
            reason = exactness_failure(iota=iota, pi=pi) or strictness_failure(
                iota=TopHom(iota, A, G), pi=TopHom(pi, G, B)
            )
            row = (zero_hom(zero.group, A.group), iota, pi, zero_hom(B.group, zero.group))
            assert (reason is None) == is_strict_exact_oracle((zero, A, G, B, zero), row)
            reasons[reason] = reasons.get(reason, 0) + 1
    assert reasons == {
        "iota is not injective": 40044,
        "pi is not surjective": 13332,
        "image of iota differs from kernel of pi": 6724,
        "iota is not continuous": 107,
        "iota is not strict": 67,
        "pi is not continuous": 97,
        "pi is not strict": 59,
        None: 103,
    }
