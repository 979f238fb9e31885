"""The algebra that every topology over it shares, checked against its
definitions and counted.

A cocycle's realization, a section's factor set, a square's middle map gamma
and a five-term row are built once per algebraic input and then shared by
every choice of open cores and every instance over that input, and each row
(an algebraic extension and a section) is topologized once, by the one
interned row object of its value.  The first tests compare each shared piece
with a reference built from scratch on every instance of the square
families; the last ones count the constructions on a small spec.
"""

import sys

import pytest

from topab import extensions, search, topology
from topab.diagrams import is_strict_exact
from topab.errors import NotAnExtension
from topab.extensions import (
    AlgExtension,
    Extension,
    cocycle_extension,
    factor_set_from_section,
    nagao_topology,
    realize_cocycle,
)
from topab.groups import Subgroup, identity_hom, zero_hom
from topab.topology import TopAbGroup
from topab.search import (
    FamilySpec,
    P3Instance,
    SearchTask,
    five_lemma_family,
    inj_family,
    p3_family,
    run_search,
)

from oracles import gamma_by_definition, is_strict_exact_oracle

SPECS = {
    "order2": FamilySpec(max_group_order=2),
    "order3_sample": FamilySpec(max_group_order=3, seed=5, sample_count=30, generators=("sampled",)),
}


def fresh_alg(row) -> AlgExtension:
    """The row's extension from a realization built anew, not from a cache."""
    real = realize_cocycle.__wrapped__(row.h)
    return AlgExtension(row.A, real.G, row.B, real.iota, real.pi)


def objects(row):
    """The topologized groups X_0 -> ... -> X_n of a row of maps."""
    return (row[0].source, *(f.target for f in row))


def check_row_algebra(row):
    """The shared realization and factor set of a row equal fresh ones."""
    alg, fresh = cocycle_extension(row.A, row.B, row.h), fresh_alg(row)
    assert (alg.G, alg.iota, alg.pi) == (fresh.G, fresh.iota, fresh.pi)
    uncached = factor_set_from_section.__wrapped__(fresh.iota, fresh.pi, row.s)
    assert factor_set_from_section(alg.iota, alg.pi, row.s) == uncached
    return fresh


@pytest.mark.parametrize("spec", SPECS.values(), ids=SPECS.keys())
def test_p3_pieces_equal_their_definitions(spec):
    family = p3_family(spec)
    assert family
    for _, inst in family:
        sws = inst.build()
        fresh1 = check_row_algebra(inst.row1)
        fresh2 = check_row_algebra(inst.row2)
        expected = gamma_by_definition(
            fresh1, inst.row1.s.table, fresh2, inst.alpha, inst.lift.table
        )
        assert sws.square.verticals[1].map.table == expected


@pytest.mark.parametrize("spec", SPECS.values(), ids=SPECS.keys())
def test_five_lemma_pieces_equal_their_definitions(spec):
    family = five_lemma_family(spec)
    shapes = set()
    for _, inst in family:
        fts = inst.build()
        shapes.add(inst.shape)
        for row in (fts.top, fts.bottom):
            maps = [f.map for f in row]
            assert is_strict_exact(row) == is_strict_exact_oracle(objects(row), maps)
        if inst.shape == "zero_pad":
            fresh1 = check_row_algebra(inst.row1)
            fresh2 = check_row_algebra(inst.row2)
            s1, alpha = inst.row1.s.table, inst.v_a
        else:
            fresh1 = fresh2 = check_row_algebra(inst.chain1)
            s1, alpha = inst.chain1.s.table, identity_hom(inst.chain1.h.A)
        expected = gamma_by_definition(fresh1, s1, fresh2, alpha, inst.lift.table)
        assert fts.verticals[2].map.table == expected
    assert shapes == ({"zero_pad", "glued"} if spec is SPECS["order2"] else {"zero_pad"})


# ---------------------------------------------------------------------------
# construction counts

TINY = FamilySpec(max_group_order=2, seed=3, sample_count=20)


@pytest.fixture
def cold_caches():
    """Empty every functools cache of topab's modules, each algebraic piece
    and family among them."""
    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "topab":
            for value in vars(module).values():
                if callable(getattr(value, "cache_info", None)):
                    value.cache_clear()


def test_each_cocycle_is_realized_once(cold_caches, monkeypatch):
    looked_up = []

    def recording(h):
        looked_up.append(h)
        return realize_cocycle(h)

    for module in (search, extensions):
        monkeypatch.setattr(module, "realize_cocycle", recording)
    for theorem in ("open_fibers", "five_lemma_topological"):
        run_search(SearchTask(theorem, family=TINY))
    info = realize_cocycle.cache_info()
    assert info.misses == len(set(looked_up)) > 0
    rows = {r for _, inst in p3_family(TINY) for r in (inst.row1, inst.row2)}
    assert {r.h for r in rows} <= set(looked_up)
    # the same h over several pairs of open cores still has one realization
    assert cocycle_extension.cache_info().misses > info.misses


def test_each_factor_set_is_built_once_per_realization_and_section(
    cold_caches, monkeypatch
):
    cached = extensions.factor_set_from_section
    keys = []

    def recording(iota, pi, s):
        keys.append((iota, pi, s))
        return cached(iota, pi, s)

    for module in (search, extensions):
        monkeypatch.setattr(module, "factor_set_from_section", recording)
    run_search(SearchTask("open_fibers", family=TINY))
    info = cached.cache_info()
    assert info.misses == len(set(keys)) > 0
    assert info.hits == len(keys) - len(set(keys)) > 0


def test_each_middle_map_is_built_once_per_algebraic_input(cold_caches):
    for theorem in ("open_fibers", "five_lemma_topological"):
        run_search(SearchTask(theorem, family=TINY))
    keys = set()
    for _, inst in p3_family(TINY):
        keys.add((inst.row1.h, inst.row1.s, inst.row2.h, inst.alpha, inst.lift))
    for _, inst in five_lemma_family(TINY):
        if inst.shape == "glued":
            c = inst.chain1
            keys.add((c.h, c.s, c.h, identity_hom(c.h.A), inst.lift))
        else:
            keys.add((inst.row1.h, inst.row1.s, inst.row2.h, inst.v_a, inst.lift))
    info = search._gamma_from_lift.cache_info()
    # shrink trials change only open cores, so they add no key
    assert info.misses == len(keys)
    assert info.hits > 0


def test_each_five_term_row_is_built_and_checked_once(cold_caches):
    family = [inst for _, inst in five_lemma_family(TINY)]
    squares = [inst.build() for inst in family]
    rows = [row for fts in squares for row in (fts.top, fts.bottom)]
    # one zero-padded row per extension, one glued row per pair of them; an
    # extension is its (alg, G), as it compares by identity
    def key(e):
        return e.alg, e.G

    extensions_used = set()
    for inst in family:
        if inst.shape == "glued":
            extensions_used.add((key(inst.row1.extension), key(inst.chain1.extension)))
        else:
            extensions_used.update(key(r.extension) for r in (inst.row1, inst.row2))
    assert len({id(row) for row in rows}) == len(extensions_used) < len(rows)
    law = search.THEOREMS["five_lemma_topological"].evaluate
    for fts in squares * 2:
        law(fts)
    checked = set()
    for fts in squares:
        checked.add(fts.top)
        if is_strict_exact(fts.top):
            checked.add(fts.bottom)
    info = is_strict_exact.cache_info()
    assert info.misses == len(checked) > 0


def test_each_square_of_a_ladder_is_compared_once(cold_caches):
    """Building every instance of the three ladder families twice compares
    the maps of each distinct square once; every other build of a square
    reads the memo."""
    squares = []
    for family in (p3_family(TINY), five_lemma_family(TINY), inj_family(TINY)):
        for _, inst in family * 2:
            ladder = inst.build()
            ladder = getattr(ladder, "square", ladder)
            vs = ladder.verticals
            squares += [
                (f.map, g.map, v.map, w.map)
                for f, g, v, w in zip(ladder.top, ladder.bottom, vs, vs[1:])
            ]
    info = topology._square_commutes.cache_info()
    assert info.misses == len(set(squares)) > 0
    assert info.hits == len(squares) - info.misses > info.misses


def recorded_topologies(monkeypatch) -> list:
    """The (alg, s) of every call of nagao_topology that a row makes and
    that returns an extension."""
    calls = []

    def recording(alg, s):
        e = nagao_topology(alg, s)
        calls.append((alg, s))
        return e

    monkeypatch.setattr(search, "nagao_topology", recording)
    return calls


def test_each_row_is_topologized_once(cold_caches, monkeypatch):
    """Building every square of both square families topologizes each
    distinct row, an algebraic extension with a section, exactly once."""
    calls = recorded_topologies(monkeypatch)
    rows, reads = set(), 0
    for family in (p3_family(TINY), five_lemma_family(TINY)):
        for _, inst in family:
            inst.build()
            used = [inst.row1, getattr(inst, "chain1", None) or inst.row2]
            rows.update(used)
            reads += len(used)
    assert len(calls) == len(set(calls)) == len({(r.alg, r.s) for r in rows}) > 0
    assert reads - len(calls) > len(calls)


def test_a_search_topologizes_each_distinct_row_once(cold_caches, monkeypatch):
    """Two searches over both square families, shrink trials included,
    topologize each distinct row once: the pool hands every builder the row
    object that holds its extension.  (A trial row whose section does not
    topologize raises NotTopologizing on every build.)"""
    calls = recorded_topologies(monkeypatch)
    for theorem in ("open_fibers", "five_lemma_topological"):
        run_search(SearchTask(theorem, family=TINY))
    assert len(calls) == len(set(calls)) > 0
    rows = [
        r
        for family in (p3_family(TINY), five_lemma_family(TINY))
        for _, inst in family
        for r in (inst.row1, inst.row2, getattr(inst, "chain1", None))
        if r is not None
    ]
    assert {(r.alg, r.s) for r in rows} <= set(calls)


def test_a_square_carries_the_topologies_of_its_sections(cold_caches, monkeypatch):
    """Row i of a P3 square is (iota, pi) of its row's extension, the
    topology of (alg_i, s_i), with s_i beside it, so the square derives no
    Nagao core to check it, also when it is built again."""
    built = [(inst, inst.build()) for _, inst in p3_family(TINY)]
    cores = []
    nagao_core = extensions.nagao_core
    monkeypatch.setattr(
        extensions, "nagao_core", lambda alg, s: cores.append(s) or nagao_core(alg, s)
    )
    for inst, sws in built:
        e1, e2 = inst.row1.extension, inst.row2.extension
        for sq in (sws, inst.build()):
            assert sq.square.top[0] is e1.iota and sq.square.top[1] is e1.pi
            assert sq.square.bottom[0] is e2.iota and sq.square.bottom[1] is e2.pi
            assert sq.s1 is inst.row1.s and sq.s2 is inst.row2.s
    assert cores == []


def test_square_maps_are_one_top_hom_each():
    """Each vertical of a P3 square is one TopHom, built with the square: it
    joins the groups of its rows and carries the instance's map."""
    spec = FamilySpec(max_group_order=2, generators=("squares_small",))
    family = p3_family(spec)
    assert family
    for _, inst in family:
        assert isinstance(inst, P3Instance)
        e1, e2 = inst.row1.extension, inst.row2.extension
        alpha, gamma, beta = inst.build().square.verticals
        r1, r2 = inst.row1, inst.row2
        middle = search._gamma_from_lift(r1.h, r1.s, r2.h, inst.alpha, inst.lift)
        assert (alpha.source, alpha.target, alpha.map) == (e1.A, e2.A, inst.alpha)
        assert (gamma.source, gamma.target, gamma.map) == (e1.G, e2.G, middle)
        assert (beta.source, beta.target, beta.map) == (e1.B, e2.B, inst.beta)


def test_each_algebraic_extension_is_checked_once(cold_caches, monkeypatch):
    """Every Extension over the same (A, G, B, iota, pi), whatever its
    section or the open core of G, shares one checked AlgExtension."""
    checked, extensions_built = [], []
    post_init = AlgExtension.__post_init__
    monkeypatch.setattr(
        AlgExtension,
        "__post_init__",
        lambda self: checked.append((self.A, self.G, self.B, self.iota, self.pi))
        or post_init(self),
    )
    ext_post_init = Extension.__post_init__
    monkeypatch.setattr(
        Extension,
        "__post_init__",
        lambda self: extensions_built.append(1) or ext_post_init(self),
    )
    for theorem in ("open_fibers", "five_lemma_topological"):
        run_search(SearchTask(theorem, family=TINY))
    assert 0 < len(checked) == len(set(checked)) < len(extensions_built)


def test_a_non_exact_extension_is_refused_on_every_call():
    """Only checked extensions are pooled, so a sequence that is not exact,
    or a topology on G that is not strict, raises NotAnExtension however
    often it is built."""
    family = p3_family(FamilySpec(max_group_order=2, generators=("squares_small",)))
    e = next(
        e
        for _, inst in family
        if (e := inst.row1.extension).A.group.order > 1 and e.A.open_core.order == 1
    )
    alg = e.alg
    zero = zero_hom(alg.A.group, alg.G)
    indiscrete_g = TopAbGroup(alg.G, Subgroup(alg.G, alg.G.elements))
    for _ in range(2):
        with pytest.raises(NotAnExtension, match="iota is not injective"):
            AlgExtension(alg.A, alg.G, alg.B, zero, alg.pi)
        with pytest.raises(NotAnExtension, match="iota is not strict"):
            Extension(alg, indiscrete_g)


def test_a_five_term_row_holds_its_extension_maps():
    """The zero-padded row of an extension is keyed by the extension and
    carries its iota and pi."""
    rows = [inst.row1 for _, inst in five_lemma_family(TINY) if inst.shape == "zero_pad"]
    assert rows
    for e in (r.extension for r in rows):
        row = search._zero_padded_row(e)
        assert row[1] is e.iota and row[2] is e.pi


def test_a_search_builds_one_extension_per_value(cold_caches, monkeypatch):
    """Two searches over both square families, shrink trials included,
    construct one Extension per (alg, G)."""
    built = []
    post_init = Extension.__post_init__
    monkeypatch.setattr(
        Extension, "__post_init__", lambda self: built.append((self.alg, self.G)) or post_init(self)
    )
    for theorem in ("open_fibers", "five_lemma_topological"):
        run_search(SearchTask(theorem, family=TINY))
    assert 0 < len(built) == len(set(built))


def test_five_term_verticals_are_one_top_hom_each():
    """Each vertical of a five-term square is one TopHom, built with the
    square: v_i joins the i-th groups of the two rows and carries the
    instance's map (identities on the ends of the zero-padded shape, and
    everywhere but the middle on the glued one)."""
    family = five_lemma_family(TINY)
    for shape in ("zero_pad", "glued"):
        for inst in [inst for _, inst in family if inst.shape == shape][:50]:
            fts = inst.build()
            ends = zip(fts.verticals, objects(fts.top), objects(fts.bottom))
            assert all(v.source is x and v.target is y for v, x, y in ends)
            outer = [identity_hom(v.source.group) for v in fts.verticals]
            if shape == "zero_pad":
                outer[1], outer[3] = inst.v_a, inst.v_b
            # the middle map is checked against its definition above
            assert all(fts.verticals[i].map is outer[i] for i in (0, 1, 3, 4))
