import dataclasses
import gc
import itertools
import os
import subprocess
import sys
from math import prod
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from topab.errors import (
    CompositionMismatch,
    ElementNotInGroup,
    IllDefined,
    NonPositiveModulus,
    NotASubgroup,
)
from topab import jsonio
from topab.groups import (
    FinAbGroup,
    Homomorphism,
    Subgroup,
    all_homs,
    all_subgroups,
    compose,
    corestricted,
    coset_reps,
    group_structure,
    hom_from_table,
    hom_set,
    identity_hom,
    induced,
    is_exact_at,
    isomorphism_class_moduli,
    quotient,
    subgroup,
    subgroup_as_group,
    subgroup_generated,
    trivial_subgroup,
    zero_hom,
)

from builders import make_hom
from oracles import homs_by_brute_force, invariant_factors


def test_make_group_basics():
    t = FinAbGroup([])
    assert t.order == 1 and t.exponent == 1 and t.elements == ((),)
    klein = FinAbGroup([2, 2])
    assert klein.order == 4 and klein.exponent == 2
    z4 = FinAbGroup([4])
    assert z4.order == 4 and z4.exponent == 4


def test_make_group_rejects_nonpositive():
    with pytest.raises(NonPositiveModulus):
        FinAbGroup([0])
    with pytest.raises(NonPositiveModulus):
        FinAbGroup([3, -1])


def test_element_arithmetic():
    g = FinAbGroup([4, 6])
    assert g.add((3, 5), (2, 2)) == (1, 1)
    assert g.negation[(1, 0)] == (3, 0)
    assert g.scale(5, (1, 1)) == (1, 5)
    assert g.element_order((2, 3)) == 2
    assert g.element_order(g.zero) == 1
    with pytest.raises(ElementNotInGroup):
        g.check_element((4, 0))


@pytest.mark.parametrize(
    "call",
    [
        lambda g: g.add((5,), (0,)),
        lambda g: g.add((0,), (5,)),
        lambda g: g.sub((1,), (2,)),
        lambda g: g.sub((-1,), (0,)),
        lambda g: g.sub((0,), (0, 0)),
        lambda g: g.scale(3, (2,)),
    ],
)
def test_arithmetic_rejects_non_elements(call):
    # the coordinate formulas reduced these silently: add((5,), (0,)) was (1,)
    with pytest.raises(ElementNotInGroup, match="is not an element of Z/2") as exc:
        call(FinAbGroup([2]))
    assert not isinstance(exc.value, KeyError)


def test_membership_builds_no_table():
    big = FinAbGroup([100, 1000])  # a sum table would hold 10**10 entries
    assert big.check_element((99, 999)) == (99, 999)
    with pytest.raises(ElementNotInGroup):
        big.check_element((100, 0))
    assert len(big.elements) == len(big.index) == 10**5
    assert "sums" not in vars(big) and "multiples" not in vars(big)


def test_import_builds_no_table():
    code = (
        "import topab.cli, topab.groups as g; tables = ('sums', 'negation', 'multiples');"
        "print(sum(t in vars(x) for x in g.FinAbGroup._pool.values() for t in tables))"
    )
    src = Path(__file__).resolve().parents[1] / "src"
    out = subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": str(src)},
        capture_output=True,
        text=True,
        check=True,
    ).stdout
    assert out.strip() == "0"


@st.composite
def groups_up_to_order_32(draw):
    moduli = []
    while len(moduli) < 4 and draw(st.booleans()):
        moduli.append(draw(st.integers(1, 32 // prod(moduli))))
    return FinAbGroup(moduli)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(groups_up_to_order_32())
def test_tables_equal_the_coordinate_formulas(g):
    ms = g.moduli
    assert g.elements == tuple(itertools.product(*(range(m) for m in ms)))
    canonical = {x: x for x in g.elements}
    for x in g.elements:
        assert g.negation[x] == tuple(-a % m for a, m in zip(x, ms))
        for y in g.elements:
            total = g.add(x, y)
            assert total == tuple((a + b) % m for a, b, m in zip(x, y, ms))
            assert total is canonical[total]
            assert g.sub(x, y) == tuple((a - b) % m for a, b, m in zip(x, y, ms))
        for k in range(-2 * g.exponent - 1, 2 * g.exponent + 2):
            assert g.scale(k, x) == tuple(k * a % m for a, m in zip(x, ms))


@st.composite
def groups_with_subgroup(draw):
    """A group of order at most 32 and the subgroup of up to three of its
    elements."""
    g = draw(groups_up_to_order_32())
    gens = draw(st.lists(st.sampled_from(g.elements), max_size=3))
    return g, subgroup_generated(g, gens)


@st.composite
def homomorphisms(draw, groups=groups_up_to_order_32()):
    """A homomorphism between groups drawn from `groups`, by default of order
    at most 32."""
    source, target = draw(groups), draw(groups)
    # the image of a generator of order m is an element killed by m
    images = [
        draw(st.sampled_from([y for y in target.elements if not any(target.scale(m, y))]))
        for m in source.moduli
    ]
    return Homomorphism(source, target, tuple(images))


@st.composite
def homs_with_subgroups(draw):
    """A homomorphism f: X -> Y, K <= X generated by one or two drawn
    elements and L <= Y by at most one; for half of the draws L is generated
    by f(K) as well, so that it contains f(K).  X and Y have order at most
    32 and moduli in 2, 3, 4, 6, 8, so that f is seldom zero."""
    moduli = st.lists(st.sampled_from([2, 3, 4, 6, 8]), min_size=1, max_size=3)
    f = draw(homomorphisms(moduli.filter(lambda ms: prod(ms) <= 32).map(FinAbGroup)))
    K = subgroup_generated(
        f.source, draw(st.lists(st.sampled_from(f.source.elements), min_size=1, max_size=2))
    )
    gens = draw(st.lists(st.sampled_from(f.target.elements), max_size=1))
    if draw(st.booleans()):
        gens += [f(k) for k in K]
    return f, K, subgroup_generated(f.target, gens)


PROPERTIES = settings(max_examples=100, deadline=None, derandomize=True, database=None)


@PROPERTIES
@given(groups_with_subgroup())
def test_group_structure_coordinates_are_a_bijection(gs):
    g, s = gs
    h, values = group_structure(s.elements, g.add, g.zero)
    assert sorted(values) == list(s.elements)
    assert all(b % a == 0 for a, b in zip(h.moduli, h.moduli[1:]))
    assert hom_from_table(h, g, dict(zip(h.elements, values))).is_injective()


@PROPERTIES
@given(groups_with_subgroup())
def test_quotient_has_kernel_k(gs):
    g, k = gs
    q, proj = quotient(g, k)
    assert proj.kernel().elements == k.elements
    assert q.order * k.order == g.order
    assert proj.is_surjective()


@PROPERTIES
@given(groups_with_subgroup())
def test_subgroup_as_group_round_trips(gs):
    _, s = gs
    emb = subgroup_as_group(s)
    assert emb.include.image().elements == s.elements
    assert {x: emb.include(y) for x, y in emb.coords.items()} == {x: x for x in s}
    assert sorted(emb.coords.values()) == list(emb.group.elements)


@PROPERTIES
@given(groups_with_subgroup())
def test_coset_reps_gives_each_coset_its_least_element(gs):
    g, k = gs
    rep = coset_reps(g, k)
    assert rep.keys() == set(g.elements)
    for x in g.elements:
        coset = [g.add(x, n) for n in k]
        assert {rep[y] for y in coset} == {min(coset)}


@PROPERTIES
@given(homomorphisms())
def test_fibers_partition_the_source_in_element_order(f):
    fibers = f.fibers()
    assert fibers.keys() == f.image().element_set
    assert sorted(x for xs in fibers.values() for x in xs) == list(f.source.elements)
    for y, xs in fibers.items():
        assert list(xs) == sorted(xs)
        assert all(f(x) == y for x in xs)


@PROPERTIES
@given(homs_with_subgroups())
def test_induced_map_commutes_with_the_projections(case):
    """induced(f, proj_K, proj_L) o proj_K == proj_L o f on every element
    when f(K) <= L, and IllDefined otherwise."""
    f, K, L = case
    _, p = quotient(f.source, K)
    _, q = quotient(f.target, L)
    if all(f(k) in L for k in K):
        m = induced(f, p, q)
        assert all(m(p(x)) == q(f(x)) for x in f.source.elements)
    else:
        with pytest.raises(IllDefined):
            induced(f, p, q)


@PROPERTIES
@given(homs_with_subgroups())
def test_corestriction_factors_through_the_inclusion(case):
    """f restricted to K, corestricted to L, followed by the inclusion of L,
    is f on every element of K when f(K) <= L, and IllDefined otherwise."""
    f, K, L = case
    k_incl, j = subgroup_as_group(K).include, subgroup_as_group(L).include
    f_on_k = compose(f, k_incl)
    if all(f(k) in L for k in K):
        c = corestricted(f_on_k, j)
        assert c.source == k_incl.source and c.target == j.source
        assert all(j(c(x)) == f_on_k(x) for x in f_on_k.source.elements)
    else:
        with pytest.raises(IllDefined):
            corestricted(f_on_k, j)


def test_induced_and_corestricted_check_endpoints():
    z2, z4 = FinAbGroup([2]), FinAbGroup([4])
    f = make_hom(z4, z2, [(1,)])
    with pytest.raises(CompositionMismatch):
        induced(f, identity_hom(z2), identity_hom(z2))
    with pytest.raises(CompositionMismatch):
        corestricted(f, identity_hom(z4))


def test_subgroup_generated():
    z4 = FinAbGroup([4])
    assert subgroup_generated(z4, {(2,)}).elements == ((0,), (2,))
    assert subgroup_generated(z4, set()).elements == ((0,),)
    klein = FinAbGroup([2, 2])
    assert subgroup_generated(klein, {(1, 0), (0, 1)}).order == 4
    with pytest.raises(ElementNotInGroup):
        subgroup_generated(z4, {(9,)})


def test_subgroup_rejects_non_closed():
    z4 = FinAbGroup([4])
    with pytest.raises(NotASubgroup):
        subgroup(z4, [(0,), (1,)])
    with pytest.raises(NotASubgroup):
        subgroup(z4, [(2,)])
    # contain zero and are closed under negation, but not under addition
    with pytest.raises(NotASubgroup, match=r"addition at \(0, 1\) \+ \(1, 0\)"):
        subgroup(FinAbGroup([2, 2]), [(0, 0), (1, 0), (0, 1)])
    with pytest.raises(NotASubgroup, match="addition"):
        subgroup(FinAbGroup([5]), [(0,), (1,), (4,)])


def test_subgroup_generated_idempotent():
    g = FinAbGroup([2, 4])
    for s in all_subgroups(g):
        again = subgroup_generated(g, s.elements)
        assert again.elements == s.elements


def test_make_hom_ill_defined():
    z2, z4 = FinAbGroup([2]), FinAbGroup([4])
    with pytest.raises(IllDefined):
        make_hom(z2, z4, [(1,)])
    f = make_hom(z2, z4, [(2,)])
    assert f.image().elements == ((0,), (2,))
    g = make_hom(z4, z2, [(1,)])
    assert g.is_surjective() and g.kernel().elements == ((0,), (2,))


def test_hom_additivity_exhaustive_small():
    for mods_a, mods_b in [((4,), (2, 2)), ((2, 4), (4,)), ((3,), (6,))]:
        a, b = FinAbGroup(mods_a), FinAbGroup(mods_b)
        for f in all_homs(a, b):
            for x in a.elements:
                for y in a.elements:
                    assert f(a.add(x, y)) == b.add(f(x), f(y))


def test_hom_from_table_rejects_non_additive():
    z4 = FinAbGroup([4])
    table = {(0,): (0,), (1,): (1,), (2,): (2,), (3,): (0,)}
    with pytest.raises(IllDefined):
        hom_from_table(z4, z4, table)


def test_quotient_z4_by_two():
    z4 = FinAbGroup([4])
    q, proj = quotient(z4, subgroup(z4, [(0,), (2,)]))
    assert q.moduli == (2,)
    assert proj((1,)) == (1,)
    assert proj((2,)) == (0,)


def test_quotient_by_trivial_is_isomorphic():
    for mods in [(4,), (2, 2), (2, 4), (3, 9)]:
        g = FinAbGroup(mods)
        q, proj = quotient(g, trivial_subgroup(g))
        assert q.order == g.order
        assert proj.is_bijective()
        assert q.moduli == invariant_factors(mods)


def test_quotient_order_and_kernel():
    g = FinAbGroup([2, 4])
    for k in all_subgroups(g):
        q, proj = quotient(g, k)
        assert q.order * k.order == g.order
        assert proj.kernel().elements == k.elements


def test_quotient_tower_factors():
    g = FinAbGroup([2, 4])
    subs = all_subgroups(g)
    for k in subs:
        for l in subs:
            if not k.element_set <= l.element_set:
                continue
            qk, pk = quotient(g, k)
            ql, pl = quotient(g, l)
            # G -> G/L factors through G -> G/K
            table = {}
            ok = True
            for x in g.elements:
                key = pk(x)
                if key in table and table[key] != pl(x):
                    ok = False
                    break
                table[key] = pl(x)
            assert ok
            factor = hom_from_table(qk, ql, table)
            for x in g.elements:
                assert factor(pk(x)) == pl(x)


def test_is_exact_at():
    z2, z4 = FinAbGroup([2]), FinAbGroup([4])
    f = make_hom(z2, z4, [(2,)])
    g = make_hom(z4, z2, [(1,)])
    assert is_exact_at(f, g)
    assert is_exact_at(zero_hom(z2, z4), make_hom(z4, z4, [(1,)]))
    i = identity_hom(z2)
    assert not is_exact_at(i, i)
    with pytest.raises(CompositionMismatch):
        is_exact_at(g, g)


def test_kernel_image_module_functions():
    z4, z2 = FinAbGroup([4]), FinAbGroup([2])
    f = make_hom(z4, z2, [(1,)])
    assert f.kernel().elements == ((0,), (2,))
    assert f.image().elements == ((0,), (1,))


def test_modulus_one_generator_is_zero():
    g = FinAbGroup([1, 2])
    assert g.generators == ((0, 0), (0, 1))
    assert identity_hom(g).table == {x: x for x in g.elements}


def test_compose():
    z8 = FinAbGroup([8])
    z4 = FinAbGroup([4])
    z2 = FinAbGroup([2])
    f = make_hom(z8, z4, [(1,)])
    g = make_hom(z4, z2, [(1,)])
    h = compose(g, f)
    assert h((3,)) == (1,)
    with pytest.raises(CompositionMismatch):
        compose(f, g)


def test_group_structure_on_quotient_like_sets():
    g = FinAbGroup([2, 4])
    h, values = group_structure(list(g.elements), g.add, g.zero)
    assert h.moduli == (2, 4)
    basis = [values[h.index[e]] for e in h.generators]
    assert sorted(g.element_order(b) for b in basis) == [2, 4]


def test_group_structure_klein_and_cyclic():
    z6 = FinAbGroup([6])
    h, _ = group_structure(list(z6.elements), z6.add, z6.zero)
    assert h.moduli == (6,)
    k = FinAbGroup([2, 2])
    h, values = group_structure(list(k.elements), k.add, k.zero)
    assert h.moduli == (2, 2)
    assert len({values[h.index[e]] for e in h.generators}) == 2


def test_subgroup_as_group_roundtrip():
    g = FinAbGroup([4, 2])
    for s in all_subgroups(g):
        emb = subgroup_as_group(s)
        assert emb.group.order == s.order
        imgs = {emb.include(x) for x in emb.group.elements}
        assert imgs == s.element_set
        for x in emb.group.elements:
            for y in emb.group.elements:
                assert emb.include(emb.group.add(x, y)) == g.add(
                    emb.include(x), emb.include(y)
                )


def test_all_subgroups_counts():
    assert len(all_subgroups(FinAbGroup([4]))) == 3
    assert len(all_subgroups(FinAbGroup([2, 2]))) == 5
    assert len(all_subgroups(FinAbGroup([]))) == 1
    assert len(all_subgroups(FinAbGroup([2, 2, 2]))) == 16
    assert len(all_subgroups(FinAbGroup([12]))) == 6


def test_invariant_factors():
    assert invariant_factors([2, 4]) == (2, 4)
    assert invariant_factors([4, 2]) == (2, 4)
    assert invariant_factors([2, 3]) == (6,)
    assert invariant_factors([2, 2, 3]) == (2, 6)
    assert invariant_factors([]) == ()
    assert invariant_factors([6, 4]) == (2, 12)


def test_isomorphism_classes_small():
    assert isomorphism_class_moduli(1) == ((),)
    assert isomorphism_class_moduli(4) == ((2, 2), (4,))
    assert isomorphism_class_moduli(8) == ((2, 2, 2), (2, 4), (8,))
    assert isomorphism_class_moduli(12) == ((2, 2, 3), (3, 4))


def test_hom_set_is_shared_complete_and_ordered():
    """On every pair of groups up to order 8, hom_set returns one shared
    tuple per pair, holding every homomorphism of the brute-force reference
    in its order, which is the product order of the generator images."""
    groups = [FinAbGroup(m) for n in range(1, 9) for m in isomorphism_class_moduli(n)]
    for a in groups:
        for b in groups:
            homs = hom_set(a, b)
            assert hom_set(FinAbGroup(a.moduli), FinAbGroup(b.moduli)) is homs
            reference = homs_by_brute_force(a, b)
            assert set(homs) == set(reference)
            assert [f.gen_images for f in homs] == [f.gen_images for f in reference]


def test_identity_and_zero_homs_are_shared():
    a, b = FinAbGroup([2, 4]), FinAbGroup([3])
    assert identity_hom(FinAbGroup([2, 4])) is identity_hom(a)
    assert zero_hom(FinAbGroup([2, 4]), FinAbGroup([3])) is zero_hom(a, b)
    assert zero_hom(a, b).table == {x: b.zero for x in a.elements}


def test_all_homs_count():
    # |Hom(Z/m, Z/n)| = gcd(m, n), multiplicative over factors
    z4, z6 = FinAbGroup([4]), FinAbGroup([6])
    assert len(list(all_homs(z4, z6))) == 2
    k = FinAbGroup([2, 2])
    assert len(list(all_homs(k, k))) == 16


def test_equal_subgroups_and_homomorphisms_are_one_object():
    """A constructor call with the value of a live object returns that object:
    whatever the order and repeats of the elements, from any iterable of
    moduli, through `dataclasses.replace` and through JSON decoding."""
    z4, k4 = FinAbGroup([4]), FinAbGroup([2, 2])
    assert FinAbGroup(iter([2, 2])) is FinAbGroup((2, 2)) is k4
    g = FinAbGroup(iter([3, 5, 7]))  # a value no live group has
    assert g.moduli == (3, 5, 7) and FinAbGroup([3, 5, 7]) is g
    assert dataclasses.replace(z4) is z4 is jsonio.group_from_json({"moduli": [4]})
    s = Subgroup(z4, ((0,), (2,)))
    assert Subgroup(FinAbGroup([4]), [(2,), (0,), (2,)]) is s
    assert subgroup(z4, {(0,), (2,)}) is s is subgroup_generated(z4, [(2,)])
    assert dataclasses.replace(trivial_subgroup(z4), elements=((2,), (0,))) is s
    assert jsonio.subgroup_from_json(z4, jsonio.to_json(s)) is s
    f = Homomorphism(k4, z4, ((2,), (0,)))
    assert Homomorphism(FinAbGroup([2, 2]), z4, [(2,), (0,)]) is f
    assert hom_from_table(k4, z4, f.table) is f
    assert dataclasses.replace(zero_hom(k4, z4), gen_images=((2,), (0,))) is f
    data = {"source": {"moduli": [2, 2]}, "target": {"moduli": [4]}, "gen_images": [[2], [0]]}
    assert jsonio.hom_from_json(data) is f
    assert f.kernel() is Subgroup(k4, ((0, 0), (0, 1)))
    assert f.image() is s


@pytest.mark.parametrize(
    "cls, args, error",
    [
        (Subgroup, (FinAbGroup([4]), ((0,), (1,))), NotASubgroup),  # not closed
        (Subgroup, (FinAbGroup([4]), ((0,), (4,))), ElementNotInGroup),
        (Homomorphism, (FinAbGroup([2]), FinAbGroup([4]), ((1,),)), IllDefined),
        (Homomorphism, (FinAbGroup([2]), FinAbGroup([4]), ((0,), (0,))), IllDefined),
        (Homomorphism, (FinAbGroup([2]), FinAbGroup([4]), ((6,),)), ElementNotInGroup),
        (FinAbGroup, ((2, 0),), NonPositiveModulus),
    ],
)
def test_invalid_values_raise_on_every_call_and_are_never_pooled(cls, args, error):
    for _ in range(3):
        with pytest.raises(error):
            cls(*args)
    assert cls._pool.get(cls._pool_key(*args)) is None


@pytest.mark.parametrize(
    "cls, args",
    [
        (Subgroup, (FinAbGroup([4]), [[0]])),
        (Homomorphism, (FinAbGroup([2]), FinAbGroup([2]), [[1]])),
    ],
)
def test_unhashable_arguments_raise_the_constructors_error(cls, args):
    """An unhashable argument skips the pool and reaches the constructor,
    which raises TypeError."""
    with pytest.raises(TypeError):
        cls(*args)


def test_an_object_nothing_holds_leaves_the_pool():
    g = FinAbGroup([3, 5, 7])
    s = Subgroup(g, ((0, 0, 0), (1, 0, 0), (2, 0, 0)))
    f = Homomorphism(g, g, ((0, 0, 0), (0, 1, 0), (0, 0, 0)))
    keys = [
        (Subgroup, Subgroup._pool_key(g, s.elements)),
        (Homomorphism, Homomorphism._pool_key(g, g, f.gen_images)),
    ]
    assert all(cls._pool.get(key) is not None for cls, key in keys)
    del s, f
    gc.collect()
    assert all(cls._pool.get(key) is None for cls, key in keys)
