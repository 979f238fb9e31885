import itertools
import json
from math import prod

import pytest

from topab import jsonio
from topab.errors import BudgetExceeded, UnknownHypothesis, UnknownTheorem
from topab.extensions import factor_set
from topab.groups import all_homs, make_group
from topab.search import (
    THEOREMS,
    FamilySpec,
    SearchTask,
    all_cocycles,
    all_groups_up_to_order,
    cocycle_class_representatives,
    instance_from_json,
    replay_witness,
    run_search,
    topologized_groups,
)

Z2 = make_group([2])
Z4 = make_group([4])
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

    structures = sorted(realize_cocycle(Z2, Z2, h).G.moduli for h in hs)
    assert structures == [(2, 2), (4,)]
    triv = make_group([])
    assert len(all_cocycles(Z2, triv)) == 1
    assert len(all_cocycles(triv, Z2)) == 1


def test_all_cocycles_budget():
    z16 = make_group([2, 2, 2, 2])
    with pytest.raises(BudgetExceeded):
        all_cocycles(z16, z16)


def test_all_cocycles_budget_counts_symmetric_slots():
    # the budget charges the constructed tables: |Z/2 / 4(Z/2)| * 2^3 = 16
    z4_over_z2 = all_cocycles(Z2, Z4)
    assert all_cocycles(Z2, Z4, budget=16) == z4_over_z2
    with pytest.raises(BudgetExceeded, match=r"2 x 2\^3 "):
        all_cocycles(Z2, Z4, budget=15)


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


def test_order_5_cocycles_fit_the_budget():
    z5 = make_group([5])
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
        assert replayed.conclusion_checked == expected.conclusion_checked, stratum
        assert replayed.details == expected.details, stratum


@pytest.mark.parametrize("theorem", sorted(THEOREMS))
def test_reported_hypotheses_are_the_droppable_ones(theorem):
    """Every report checks exactly the hypotheses the registry lets a search
    drop, in the same order, on the first instance of each stratum."""
    info = THEOREMS[theorem]
    spec = FamilySpec(max_group_order=2, sample_count=10)
    for stratum, inst in _first_instance_of_each_stratum(theorem, spec):
        rep = info.evaluate(inst.build(), frozenset())
        assert tuple(n for n, _ in rep.hypotheses_checked) == info.droppable, stratum
