import itertools
import json
from dataclasses import replace
from math import prod

import pytest

from topab import extensions, jsonio, search
from topab.errors import (
    BudgetExceeded,
    InvalidCocycle,
    InvalidSection,
    UnknownHypothesis,
    UnknownTheorem,
)
from topab.extensions import FactorSet, validate_cocycle
from topab.groups import FinAbGroup, all_homs, identity_hom, zero_hom
from topab.search import (
    THEOREMS,
    CocycleInstance,
    FamilySpec,
    RowData,
    SearchTask,
    all_cocycles,
    all_groups_up_to_order,
    cocycle_class_representatives,
    instance_from_json,
    replay_witness,
    run_search,
    topologized_groups,
)
from topab.topology import discrete

from builders import factor_set, sampled_squares_by_list

Z2 = FinAbGroup([2])
Z4 = FinAbGroup([4])
SMALL = FamilySpec(max_group_order=2, generators=("squares_small",))


def test_all_groups_up_to_order_counts():
    assert [g.moduli for g in all_groups_up_to_order(4)] == [
        (),
        (2,),
        (3,),
        (2, 2),
        (4,),
    ]
    assert len(all_groups_up_to_order(1)) == 1
    # recomputed by partition enumeration: 1+1+1+2+1+1+1+3
    assert len(all_groups_up_to_order(8)) == 11


def test_all_cocycles_census():
    hs = all_cocycles(Z2, Z2)
    assert len(hs) == 2
    # the two twisted groups realize Z/4 and Z/2 x Z/2
    from topab.extensions import realize_cocycle

    structures = sorted(realize_cocycle(h).G.moduli for h in hs)
    assert structures == [(2, 2), (4,)]
    triv = FinAbGroup([])
    assert len(all_cocycles(Z2, triv)) == 1
    assert len(all_cocycles(triv, Z2)) == 1


def test_all_cocycles_budget():
    z16 = FinAbGroup([2, 2, 2, 2])
    with pytest.raises(BudgetExceeded):
        all_cocycles(z16, z16)


def test_all_cocycles_budget_counts_symmetric_slots(monkeypatch):
    # the budget charges the constructed tables: |Z/2 / 4(Z/2)| * 2^3 = 16
    z4_over_z2 = all_cocycles(Z2, Z4)
    caches = (search.all_cocycles, search._cocycles_by_class)

    def under_budget(budget):
        monkeypatch.setattr(search, "_COCYCLE_BUDGET", budget)
        for fn in caches:
            fn.cache_clear()
        return all_cocycles(Z2, Z4)

    try:
        assert under_budget(16) == z4_over_z2
        with pytest.raises(BudgetExceeded, match=r"2 x 2\^3 "):
            under_budget(15)
    finally:
        monkeypatch.undo()
        for fn in caches:
            fn.cache_clear()


def test_cocycle_representatives():
    reps = cocycle_class_representatives(Z4, Z4)
    assert len(reps) == 4  # Ext(Z/4, Z/4) has order 4
    reps = cocycle_class_representatives(Z2, Z2)
    assert len(reps) == 2


def _filtered_cocycles(A, B):
    """Reference: every normalized symmetric table passing the cocycle identity."""
    nonzero = [b for b in B.elements if b != B.zero]
    slots = [(b, bp) for i, b in enumerate(nonzero) for bp in nonzero[i:]]
    out = []
    for values in itertools.product(A.elements, repeat=len(slots)):
        h = {(b, bp): A.zero for b in B.elements for bp in B.elements}
        for (b, bp), a in zip(slots, values):
            h[(b, bp)] = h[(bp, b)] = a
        if all(
            A.add(h[(x, y)], h[(B.add(x, y), z)]) == A.add(h[(y, z)], h[(x, B.add(y, z))])
            for x in B.elements
            for y in B.elements
            for z in B.elements
        ):
            out.append(factor_set(A, B, h))
    return tuple(out)


def _orbit_min_representatives(A, B, cocycles):
    """Reference: key each cocycle by the least table of its coboundary orbit."""
    nonzero = [b for b in B.elements if b != B.zero]
    pairs = [(x, y) for x in B.elements for y in B.elements]
    coboundaries = set()
    for imgs in itertools.product(A.elements, repeat=len(nonzero)):
        t = {B.zero: A.zero}
        t.update(zip(nonzero, imgs))
        coboundaries.add(tuple(A.sub(A.add(t[x], t[y]), t[B.add(x, y)]) for x, y in pairs))
    reps = {}
    for h in cocycles:
        key = min(
            tuple(A.add(h(x, y), c) for (x, y), c in zip(pairs, cob)) for cob in coboundaries
        )
        reps.setdefault(key, h)
    return tuple(reps[k] for k in sorted(reps))


@pytest.mark.parametrize(
    "A,B", itertools.product(all_groups_up_to_order(4), repeat=2), ids=str
)
def test_constructed_cocycles_match_filter_and_orbit_reference(A, B):
    reference = _filtered_cocycles(A, B)
    assert all_cocycles(A, B) == reference
    assert cocycle_class_representatives(A, B) == _orbit_min_representatives(A, B, reference)


def _quotient_order(A, n):
    return A.order // len({A.scale(n, a) for a in A.elements})


@pytest.mark.parametrize(
    "A,B", itertools.product(all_groups_up_to_order(5), repeat=2), ids=str
)
def test_cocycle_counts_follow_ext(A, B):
    # Ext(B, A) = sum_j A/n_jA; each class holds |A|^(|B|-1) / |Hom(B, A)| tables
    classes = prod(_quotient_order(A, n) for n in B.moduli)
    homs = sum(1 for _ in all_homs(B, A))
    assert len(all_cocycles(A, B)) * homs == classes * A.order ** (B.order - 1)
    assert len(cocycle_class_representatives(A, B)) == classes


@pytest.mark.parametrize(
    "A,B", itertools.product(all_groups_up_to_order(4), repeat=2), ids=str
)
def test_cocycle_transversal_builds_each_table_once(A, B, monkeypatch):
    """t walks a transversal of Hom(B, A), so every candidate table is a new
    cocycle, built exactly once: classes * |A|^(|B|-1) / |Hom(B, A)|
    distinct tables, each of which passes validate_cocycle.  The constructor
    calls are counted, since a table in the pool is not built again."""
    built = []

    def counted(*args):
        built.append(FactorSet(*args))
        return built[-1]

    monkeypatch.setattr(search, "FactorSet", counted)
    classes = prod(_quotient_order(A, n) for n in B.moduli)
    homs = sum(1 for _ in all_homs(B, A))
    by_class = search._cocycles_by_class.__wrapped__(A, B)
    assert len(built) * homs == classes * A.order ** (B.order - 1)
    assert [h for hs in by_class for h in hs] == built
    assert len({h.entries for h in built}) == len(built)
    assert all(validate_cocycle(h) for h in built)


def test_order_5_cocycles_fit_the_budget():
    z5 = FinAbGroup([5])
    assert len(all_cocycles(Z4, z5)) == 256
    assert len(cocycle_class_representatives(Z4, z5)) == 1


def test_topologized_groups_count():
    # 5 classes up to order 4 with 1 + 2 + 2 + 5 + 3 subgroups
    assert len(topologized_groups(4)) == 13


def test_unknown_theorem_and_hypothesis():
    with pytest.raises(UnknownTheorem):
        run_search(SearchTask("bogus", family=SMALL))
    with pytest.raises(UnknownHypothesis):
        run_search(SearchTask("p3_generalized", ("not_a_hyp",), SMALL))


def test_determinism_byte_identical():
    task = SearchTask("five_lemma_nagao", family=SMALL)
    out1 = run_search(task).to_jsonl()
    out2 = run_search(task).to_jsonl()
    assert out1 == out2
    sampled = FamilySpec(max_group_order=3, generators=("sampled",), sample_count=40, seed=5)
    t2 = SearchTask("p3_generalized", family=sampled)
    assert run_search(t2).to_jsonl() == run_search(t2).to_jsonl()


def test_negative_control_alpha_dropped():
    """Dropping alpha-continuity lets the search find split-extension
    witnesses with an identity map from an indiscrete to a discrete kernel."""
    task = SearchTask(
        "p3_generalized", ("alpha_continuous",), SMALL
    )
    res = run_search(task)
    assert res.failure_count >= 1
    for rep in res.failures:
        assert rep.witness is not None
        replayed = replay_witness("p3_generalized", rep.witness, ("alpha_continuous",))
        assert replayed.conclusion_checked is False


def test_a_failure_holds_its_shrunk_instance(monkeypatch):
    """Each failure keeps the instance that shrink_witness returned, and
    its witness is that instance's JSON, encoded afresh on each read."""
    shrunk = []
    shrink = search.shrink_witness

    def recorded(*args):
        small, rep = shrink(*args)
        shrunk.append(small)
        return small, rep

    monkeypatch.setattr(search, "shrink_witness", recorded)
    res = run_search(SearchTask("p3_generalized", ("alpha_continuous",), SMALL))
    assert res.failure_count == len(shrunk) > 0
    for rep, small in zip(res.failures, shrunk):
        assert rep.instance is small
        assert rep.witness == small.to_json()
        assert rep.witness is not rep.witness


def test_the_markdown_encodes_no_witness(monkeypatch):
    """to_markdown reads each failure's details and notes, not its witness;
    it renders what `topab report` renders from the JSONL.  The JSONL
    encodes each witness once."""
    from topab.cli import _render_report

    res = run_search(SearchTask("p3_generalized", ("alpha_continuous",), SMALL))
    assert res.failure_count > 0
    encoded = []
    encode = search._Instance.to_json

    def counted(self):
        encoded.append(self)
        return encode(self)

    monkeypatch.setattr(search._Instance, "to_json", counted)
    md = res.to_markdown()
    assert encoded == []
    assert md == _render_report(res.to_jsonl())
    assert encoded == [rep.instance for rep in res.failures]


def test_verify_mode_zero_failures_on_sound_theorems():
    for tid in ("p3_generalized", "strictness_injectivity", "haus_exactness"):
        fam = SMALL if tid != "haus_exactness" else FamilySpec(max_group_order=2)
        res = run_search(SearchTask(tid, family=fam))
        assert res.failure_count == 0, tid


def test_stop_at_first():
    task = SearchTask("five_lemma_nagao", family=SMALL, stop_at_first=True)
    res = run_search(task)
    assert res.failure_count == 1


def test_witnesses_shrink_and_replay():
    task = SearchTask("five_lemma_nagao", family=SMALL)
    res = run_search(task)
    assert res.failure_count > 0
    for rep in res.failures[:5]:
        inst = instance_from_json(rep.witness)
        again = replay_witness("five_lemma_nagao", rep.witness)
        assert again.conclusion_checked is False


def test_topologizable_search_finds_witnesses():
    """The nontrivial class over an indiscrete quotient with Hausdorff kernel
    has no topologizing section: every h_s stays in the class, so h_s(1,1)
    lands outside the trivial core."""
    res = run_search(
        SearchTask("topologizable", family=FamilySpec(max_group_order=2))
    )
    assert res.failure_count > 0
    w = res.failures[0].witness
    assert w["h"]["table"][-1][2] != [0]  # the nontrivial class


def test_nagao_comparison_and_choice_discrete_verify():
    spec = FamilySpec(max_group_order=3)
    assert run_search(SearchTask("nagao_comparison", family=spec)).failure_count == 0
    assert run_search(SearchTask("choice_discrete", family=spec)).failure_count == 0


def _first_instance_of_each_stratum(theorem, spec):
    seen = set()
    for stratum, inst in THEOREMS[theorem].build_family(spec):
        if stratum not in seen:
            seen.add(stratum)
            yield stratum, inst


def test_instance_protocol_covers_every_stratum():
    spec = FamilySpec(max_group_order=2, sample_count=10)
    pairs = [
        (tid, stratum)
        for tid in THEOREMS
        for stratum, _ in _first_instance_of_each_stratum(tid, spec)
    ]
    assert len(pairs) == 26


@pytest.mark.parametrize("theorem", sorted(THEOREMS))
def test_instance_protocol_round_trip_and_replay(theorem):
    """The first instance of each stratum survives JSON text with an equal
    value and hash, and replaying it gives the runner's verdict."""
    info = THEOREMS[theorem]
    spec = FamilySpec(max_group_order=2, sample_count=10)
    for stratum, inst in _first_instance_of_each_stratum(theorem, spec):
        data = inst.to_json()
        back = instance_from_json(json.loads(jsonio.dumps(data)))
        assert back == inst and hash(back) == hash(inst), stratum
        expected = info.evaluate(inst.build(), frozenset())
        replayed = replay_witness(theorem, data)
        if expected is None:  # the runner filters it
            assert replayed is None, stratum
            continue
        assert replayed.conclusion_checked == expected.conclusion_checked, stratum
        assert replayed.details == expected.details, stratum


@pytest.mark.parametrize("key", ["alpha", "beta", "lift"])
def test_witness_elements_decode_strictly(key):
    """Witness maps and pairs are decoded by jsonio: a float coordinate is
    rejected, not truncated to an integer."""
    spec = FamilySpec(max_group_order=2, generators=("squares_small",))
    inst = next(
        i
        for _, i in THEOREMS["p3_generalized"].build_family(spec)
        if all(f.source.rank and f.target.rank for f in (i.alpha, i.beta))
    )
    data = inst.to_json()
    assert instance_from_json(data) == inst
    entries = data[key][-1] if key == "lift" else data[key]
    entries[-1] = [float(c) for c in entries[-1]]
    with pytest.raises(ValueError, match="expected an array of integers"):
        instance_from_json(data)


def _edit_table(case, table):
    """A table of pairs (b, x) from a witness, edited as `case` says; the
    first entry is b = 0 and the last one a nonzero b."""
    b, g = table[-1]
    other = next(x for _, x in table if x != g)
    return {
        "duplicate": table + [[b, g]],
        "conflicting_duplicate": table + [[b, other]],
        "missing": table[:-1],
        "reordered": table[::-1],
    }[case]


@pytest.mark.parametrize("case", ["duplicate", "conflicting_duplicate", "missing", "reordered"])
@pytest.mark.parametrize("theorem", ["open_fibers", "five_lemma_topological"])
def test_witness_lifts_list_each_element_once(theorem, case):
    """A lift table, or a row's section table, from JSON names each element
    of its domain once: listing one twice or missing one raises
    InvalidSection when the witness is decoded, and the order of the
    entries does not matter, as each table is sorted before it keys a
    cache."""
    res = run_search(SearchTask(theorem, family=FamilySpec(max_group_order=2)))
    witness = next(
        r.witness for r in res.failures if len({tuple(g) for _, g in r.witness["lift"]}) > 1
    )
    for owner, key in ((lambda d: d, "lift"), (lambda d: d["row1"], "s")):
        data = json.loads(jsonio.dumps(witness))
        owner(data)[key] = _edit_table(case, owner(data)[key])
        if case == "reordered":
            inst = instance_from_json(data)
            assert list(inst.lift.entries) == sorted(inst.lift.entries)
            assert list(inst.row1.s.entries) == sorted(inst.row1.s.entries)
            assert replay_witness(theorem, data).conclusion_checked is False
            continue
        with pytest.raises(InvalidSection):
            instance_from_json(data)


def test_witness_rows_name_the_groups_of_their_cocycle():
    """A row whose kernel is not the group its cocycle names is rejected
    when the witness is decoded, before any realization is looked up."""
    res = run_search(SearchTask("open_fibers", family=FamilySpec(max_group_order=2)))
    data = next(
        r.witness for r in res.failures if r.witness["row1"]["A"]["group"]["moduli"] == [2]
    )
    data["row1"]["A"] = {"group": {"moduli": [4]}, "open_core": {"elements": [[0]]}}
    with pytest.raises(InvalidCocycle, match="do not match"):
        instance_from_json(data)


def _rows_moved_off_their_section():
    """(row, t) for every row up to order 2 and every homomorphism phi: B -> G
    that pi does not kill, t(b) = s(b) + phi(b): a table that covers B and
    sends 0 to 0, but is no section of pi."""
    for row in search._row_pool(FamilySpec(max_group_order=2), 2):
        alg = row.alg
        for phi in all_homs(alg.B.group, alg.G):
            if not all(alg.pi(phi(b)) == alg.B.group.zero for b in alg.B.group.elements):
                moved = {b: alg.G.add(row.s(b), phi(b)) for b in alg.B.group.elements}
                yield row, extensions.Section(alg.B.group, alg.G, tuple(moved.items()))


def test_witness_rows_are_sections_of_their_projection():
    """A row whose s fails pi(s(b)) = b is rejected with InvalidSection when
    the witness is decoded, in an extension witness and in either row of a
    square witness; the row it was moved from decodes."""
    moved = list(_rows_moved_off_their_section())
    assert len(moved) == 18  # over 10 rows
    for row, t in moved:
        square = search.P3Instance(
            row, row, identity_hom(row.A.group), identity_hom(row.B.group), row.s
        )
        for inst, owners in (
            (search.ExtensionInstance(row), ("row",)),
            (square, ("row1", "row2")),
        ):
            data = json.loads(jsonio.dumps(inst.to_json()))
            assert instance_from_json(data) == inst
            for owner in owners:
                bad = json.loads(jsonio.dumps(data))
                bad[owner]["s"] = jsonio.to_json(t)
                with pytest.raises(InvalidSection, match=r"^pi\(s\("):
                    instance_from_json(bad)


def test_a_row_is_one_object_per_value():
    """Rows are interned: a second construction of a row's value, `replace`
    and the decoding of a witness all return the family's row object, which
    holds one topologized extension."""
    instances = [
        inst
        for theorem, stratum in (
            ("open_fibers", "squares_small"),
            ("five_lemma_topological", "glued_small"),
        )
        for _, inst in THEOREMS[theorem].build_family(
            FamilySpec(max_group_order=2, generators=(stratum,))
        )
    ]
    assert {type(inst).__name__ for inst in instances} == {"P3Instance", "FiveLemmaInstance"}
    for inst in instances:
        decoded = instance_from_json(json.loads(jsonio.dumps(inst.to_json())))
        for name in ("row1", "row2", "chain1"):
            row = getattr(inst, name, None)
            if row is None:
                continue
            assert RowData(row.A, row.B, row.h, row.s) is row
            assert replace(row, s=row.s) is row
            assert getattr(decoded, name) is row
            assert row.extension is row.extension
        assert decoded.lift is inst.lift


@pytest.mark.parametrize("kind", ["square", None, "P3Instance"])
def test_unknown_witness_kind_is_a_decode_error(kind):
    """A witness of no known kind is malformed, like every other bad
    witness: ValueError, not the UnknownTheorem of a bad request."""
    data = CocycleInstance(discrete(Z2), discrete(Z2), factor_set(Z2, Z2, {})).to_json()
    data["kind"] = kind
    with pytest.raises(ValueError, match="unknown instance kind"):
        instance_from_json(data)


def _five_lemma_witness(shape):
    """The JSON of the first five-lemma instance of a shape at max order 2."""
    family = search.five_lemma_family(FamilySpec(max_group_order=2))
    inst = next(i for _, i in family if i.shape == shape)
    return json.loads(jsonio.dumps(inst.to_json()))


@pytest.mark.parametrize("shape", ["glue", "zero_padded", "", None])
def test_unknown_five_term_shape_is_a_decode_error(shape):
    """A five-lemma witness of no known shape is rejected with ValueError
    when it is decoded, so replay fails before anything is built."""
    data = _five_lemma_witness("zero_pad")
    data["shape"] = shape
    with pytest.raises(ValueError, match="unknown shape"):
        instance_from_json(data)
    with pytest.raises(ValueError, match="unknown shape"):
        replay_witness("five_lemma_topological", data)


@pytest.mark.parametrize("chain", ["absent", None, {}])
def test_a_glued_witness_needs_its_chain(chain):
    """A glued five-lemma witness without chain1 is rejected with ValueError
    when it is decoded, and a zero-padded one with a chain1 too."""
    data = _five_lemma_witness("glued")
    if chain == "absent":
        del data["chain1"]
    else:
        data["chain1"] = chain
    for decode in (instance_from_json, lambda d: replay_witness("five_lemma_topological", d)):
        with pytest.raises(ValueError, match="a glued five-term square needs chain1"):
            decode(data)
    padded = _five_lemma_witness("zero_pad")
    padded["chain1"] = _five_lemma_witness("glued")["chain1"]
    with pytest.raises(ValueError, match="a zero_pad five-term square has no chain1"):
        instance_from_json(padded)


@pytest.mark.parametrize("key", ["v_a", "v_b", "row2"])
def test_a_glued_witness_has_no_field_that_its_build_ignores(key):
    """A glued five-term square is built from row1, chain1 and the lift
    alone, so a glued witness whose v_a or v_b is not the identity, or whose
    row2 is not row1, is rejected with ValueError when it is decoded."""
    family = search.five_lemma_family(FamilySpec(max_group_order=2))
    inst = next(
        i
        for _, i in family
        if i.shape == "glued" and i.row1.A.group == i.row1.B.group == Z2
    )
    data = json.loads(jsonio.dumps(inst.to_json()))
    assert instance_from_json(data) == inst
    if key == "row2":
        core = data["row2"]["B"]["open_core"]
        core["elements"] = [[0]] if len(core["elements"]) > 1 else [[0], [1]]
    else:
        data[key] = jsonio.to_json(zero_hom(Z2, Z2))
    for decode in (instance_from_json, lambda d: replay_witness("five_lemma_topological", d)):
        with pytest.raises(ValueError, match="a glued five-term square has row2 = row1"):
            decode(data)


def test_the_glued_chains_obey_the_cocycle_cap():
    """At max_cocycle_count 1, the base row and the chain of each glued
    square take the first cocycle of their pair of groups, as every other
    exhaustive stratum does."""
    spec = FamilySpec(max_group_order=2, max_cocycle_count=1, generators=("glued_small",))
    family = search.five_lemma_family(spec)
    assert len(family) == 99
    for _, inst in family:
        for row in (inst.row1, inst.chain1):
            assert row.h in all_cocycles(row.h.A, row.h.B)[: spec.max_cocycle_count]


def test_cocycle_witness_names_the_groups_of_its_cocycle():
    """A cocycle instance whose h is not a cocycle on its B with values in
    its A is rejected when the witness is decoded, as a row is."""
    Z3 = FinAbGroup([3])
    data = CocycleInstance(discrete(Z2), discrete(Z3), factor_set(Z2, Z3, {})).to_json()
    data = json.loads(jsonio.dumps(data))
    assert instance_from_json(data).h.B == Z3
    data["h"] = jsonio.to_json(factor_set(Z2, FinAbGroup([2, 2]), {}))
    with pytest.raises(InvalidCocycle, match="do not match"):
        instance_from_json(data)


@pytest.mark.parametrize("theorem", sorted(THEOREMS))
def test_reported_hypotheses_are_the_droppable_ones(theorem):
    """Every report checks exactly the hypotheses the registry lets a search
    drop, in the same order, on the first instance of each stratum, with
    every hypothesis dropped so that none is filtered."""
    info = THEOREMS[theorem]
    spec = FamilySpec(max_group_order=2, sample_count=10)
    for stratum, inst in _first_instance_of_each_stratum(theorem, spec):
        rep = info.law(inst.build(), frozenset(info.law.droppable))
        assert tuple(n for n, _ in rep.hypotheses_checked) == info.law.droppable, stratum


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("max_order", [3, 4])
def test_sampled_squares_draw_sections_by_index(max_order, seed, monkeypatch):
    """Each sampled row draws its section by its index in the census and
    yields the squares of the draw from the list of every topologizing
    section, with no such list built: no census enumerates its sections,
    and each keeps only the sections drawn from it."""
    spec = FamilySpec(max_group_order=max_order, seed=seed, sample_count=400)
    drawn = {}
    expected = list(sampled_squares_by_list(spec, drawn))
    censuses, calls = {}, []
    sections = extensions.SectionCensus.sections

    def fresh_census(alg):
        if alg not in censuses:
            censuses[alg] = extensions.section_census.__wrapped__(alg)
        return censuses[alg]

    def counted(census):
        calls.append(census)
        return sections(census)

    monkeypatch.setattr(search, "section_census", fresh_census)
    monkeypatch.setattr(extensions.SectionCensus, "sections", counted)
    assert list(search._sampled_squares(spec)) == expected
    assert len(expected) == 400 and calls == []
    assert {alg: set(c.built) for alg, c in censuses.items()} == {
        alg: drawn.get(alg, set()) for alg in censuses
    }
