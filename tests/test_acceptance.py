"""Acceptance suite: one test per criterion, one printed line per criterion.

Criterion 7 computes the verdict of each transfer law over the complete
default family.  7a expects zero failures.  The laws of 7b-7e are refuted at
this scale (test_findings.py pins a hand-checked counterexample for each), so
those tests assert the refutation profile instead: the exact failure count, which clauses and cases
fail and which never do, that every witness replays and the open-set oracles
confirm its broken clauses, and that the pinned counterexample is a member
of the family and fails there.  The exact counts are regression pins; that
no failure is missed rests on the formulas agreeing with the oracles, which
criterion 1 checks up to order 8.
"""

from collections import Counter

from topab.duality import dual_group
from topab.extensions import (
    AlgExtension,
    enumerate_sections,
    factor_set_from_section,
    realize_cocycle,
)
from topab.groups import FinAbGroup, all_homs, all_subgroups
from topab.search import (
    FamilySpec,
    P3Instance,
    THEOREMS,
    SearchTask,
    all_cocycles,
    all_groups_up_to_order,
    instance_from_json,
    replay_witness,
    run_search,
    topologized_groups,
)
from topab.topology import (
    TopAbGroup,
    TopHom,
    is_continuous,
    is_hausdorff,
    is_strict,
    separation,
    separation_hom,
)

from oracles import (
    checked_theta,
    evaluation,
    is_continuous_oracle,
    is_strict_oracle,
    psi_maps,
    separation_dual_iso,
)

DEFAULT = FamilySpec(max_group_order=4, sample_count=400, seed=0)


def report(criterion: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"criterion {criterion}: {status}{suffix}")


def test_criterion_1_oracle_agreement():
    """Continuity/strictness formulas agree with the open-set oracles on all
    homomorphisms between all topologized groups of order <= 8."""
    tops = topologized_groups(8)
    checked = 0
    mismatches = 0
    by_class = {}
    for t in tops:
        by_class.setdefault(t.group, []).append(t)
    for g_cls, g_tops in by_class.items():
        for h_cls, h_tops in by_class.items():
            homs = tuple(all_homs(g_cls, h_cls))
            for src in g_tops:
                for tgt in h_tops:
                    for f in homs:
                        th = TopHom(f, src, tgt)
                        cont = is_continuous(th)
                        if cont != is_continuous_oracle(th):
                            mismatches += 1
                        elif cont and is_strict(th) != is_strict_oracle(th):
                            mismatches += 1
                        checked += 1
    report("1 (oracle agreement)", mismatches == 0, f"{checked} instances")
    assert mismatches == 0


def test_criterion_2_extension_round_trip():
    """Every cocycle with |A|, |B| <= 4, every section: the factor set of the
    section twists A x B into a group theta maps isomorphically onto G, and
    (a,b) + (a',0) = (a+a',b) holds pointwise."""
    groups = [g for g in all_groups_up_to_order(4)]
    checked = failures = 0
    for A in groups:
        for B in groups:
            for h in all_cocycles(A, B):
                real = realize_cocycle(h)
                alg = AlgExtension(
                    TopAbGroup(A, all_subgroups(A)[0]),
                    real.G,
                    TopAbGroup(B, all_subgroups(B)[0]),
                    real.iota,
                    real.pi,
                )
                for s in enumerate_sections(alg):
                    hs = factor_set_from_section(alg.iota, alg.pi, s)
                    # theta asserts bijectivity, the oracle additivity
                    th = checked_theta(alg, s)
                    tw = th.twisted
                    for a, b in tw.elements:
                        for ap in A.elements:
                            if tw.add((a, b), (ap, B.zero)) != (A.add(a, ap), b):
                                failures += 1
                    checked += 1
    report("2 (extension round trip)", failures == 0, f"{checked} (cocycle, section) pairs")
    assert failures == 0


def test_criterion_3_cocycle_census():
    z2 = FinAbGroup([2])
    hs = all_cocycles(z2, z2)
    structures = sorted(realize_cocycle(h).G.moduli for h in hs)
    ok = len(hs) == 2 and structures == [(2, 2), (4,)]
    report("3 (cocycle census)", ok, f"{len(hs)} cocycles -> {structures}")
    assert ok


def test_criterion_4_nagao_comparison():
    res = run_search(SearchTask("nagao_comparison", family=DEFAULT))
    report(
        "4 (section comparison criteria agree)",
        res.failure_count == 0,
        f"{res.evaluated} cocycle instances, all section pairs",
    )
    assert res.failure_count == 0


def test_criterion_5_choice_discrete():
    res = run_search(SearchTask("choice_discrete", family=DEFAULT))
    report(
        "5 (discrete quotient: unique topology)",
        res.failure_count == 0,
        f"{res.evaluated} instances",
    )
    assert res.failure_count == 0


def test_criterion_6_haus_exactness():
    res = run_search(SearchTask("haus_exactness", family=DEFAULT))
    report(
        "6 (separation and dual sequences)",
        res.failure_count == 0,
        f"{res.evaluated} extensions in case (a) or (b), {res.filtered} outside",
    )
    assert res.failure_count == 0


def _report_criterion_7(label: str, res, ok: bool) -> None:
    sizes = ", ".join(f"{k}={v}" for k, v in sorted(res.strata_counts.items()))
    report(
        f"7{label} ({res.task.theorem_id})",
        ok,
        f"evaluated {res.evaluated}, filtered {res.filtered}, "
        f"failures {res.failure_count}; strata: {sizes}",
    )


def _cont_strict_oracle(f: TopHom) -> bool:
    return is_continuous_oracle(f) and is_strict_oracle(f)


def _gamma_haus_oracle(gamma: TopHom) -> dict[str, bool]:
    well = is_continuous_oracle(gamma)  # gamma(N_G1) <= N_G2
    gh = separation_hom(gamma) if well else None
    return {
        "gamma_haus_well_defined": well,
        "gamma_haus_continuous": well and is_continuous_oracle(gh),
        "gamma_haus_surjective": well and gh.map.is_surjective(),
    }


def _square_oracle(sws) -> dict[str, bool]:
    """The clauses of open_fibers, p3_discrete and five_lemma_nagao."""
    alpha, gamma, beta = sws.square.verticals
    maps = (alpha, beta, gamma)
    a_c, b_c, g_c = map(is_continuous_oracle, maps)
    a_cs, b_cs, g_cs = map(_cont_strict_oracle, maps)
    strictness_iff = (a_cs and b_cs) == g_cs
    return {
        "continuity_iff": (a_c and b_c) == g_c,
        "strictness_iff": strictness_iff,
        "b1_discrete_alpha_iff": g_c == a_c,
        "b1_discrete_strictness_iff": strictness_iff,
        "a2_indiscrete_beta_iff": g_c == b_c,
        **_gamma_haus_oracle(gamma),
        "g2_hausdorff_implies_gamma_continuous": g_c or not is_hausdorff(gamma.target),
    }


# The conclusion clauses of each refuted law, recomputed from the literal
# open-set oracles on a built instance (clauses with no topological content,
# such as gamma_group_iso, are left out).
ORACLE_CLAUSES = {
    "open_fibers": _square_oracle,
    "p3_discrete": _square_oracle,
    "five_lemma_nagao": _square_oracle,
    "five_lemma_topological": lambda fts: _gamma_haus_oracle(fts.verticals[2]),
}


def _check_refutations(label, tid, count, broken, never_broken, case, finding):
    """Run a law that is refuted at this scale over the complete default
    family and check its refutation profile:

    - exactly `count` failures, with `broken` counting how many of them break
      each clause; the `never_broken` clauses are evaluated but never fail;
    - every failure carries the case-split note `case`, if one is given;
    - every witness replays as the same failure, and the open-set oracles
      agree with each clause they can recompute, broken ones included;
    - the pinned counterexample `finding` = (stratum, instance) is a member of
      the family and fails there.
    """
    res = run_search(SearchTask(tid, family=DEFAULT))
    problems = []
    if res.failure_count != count:
        problems.append(f"{res.failure_count} failures, expected {count}")
    seen = Counter(n for r in res.failures for n, ok in r.details if not ok)
    if seen != Counter(broken):
        problems.append(f"broken clauses {dict(seen)}, expected {broken}")
    for name in never_broken:
        if not any(name in dict(r.details) for r in res.failures):
            problems.append(f"{name} is never evaluated on a failure")
    if case is not None:
        off_case = sum(case not in r.model_collapse for r in res.failures)
        if off_case:
            problems.append(f"{off_case} failures outside '{case}'")
    oracle = ORACLE_CLAUSES[tid]
    not_replayed, disagreeing = [], []
    for i, r in enumerate(res.failures):
        replay = replay_witness(tid, r.witness)
        if replay is None or replay.conclusion_checked or replay.details != r.details:
            not_replayed.append(i)
        reported = dict(r.details)
        clauses = oracle(instance_from_json(r.witness).build())
        broken_here = {n for n, ok in reported.items() if not ok}
        if not broken_here <= clauses.keys() or any(
            reported[n] != ok for n, ok in clauses.items() if n in reported
        ):
            disagreeing.append(i)
    if not_replayed:
        problems.append(f"witnesses {not_replayed[:5]}... do not replay")
    if disagreeing:
        problems.append(f"the oracles disagree with witnesses {disagreeing[:5]}...")
    if finding not in THEOREMS[tid].build_family(DEFAULT):
        problems.append(f"the pinned counterexample is not in stratum {finding[0]}")
    else:
        pinned = THEOREMS[tid].law(finding[1].build(), frozenset())
        if pinned is None or pinned.conclusion_checked:
            problems.append("the pinned counterexample does not fail")
    _report_criterion_7(label, res, not problems)
    assert not problems, problems
    assert res.failure_count > 0  # the law is refuted


def test_criterion_7a_p3_generalized():
    res = run_search(SearchTask("p3_generalized", family=DEFAULT))
    _report_criterion_7("a", res, res.failure_count == 0)
    assert res.failure_count == 0


def test_criterion_7b_open_fibers(converse_open_fibers_square):
    _check_refutations(
        "b",
        "open_fibers",
        count=120,
        broken={"strictness_iff": 120},
        never_broken=("continuity_iff",),
        case=None,
        finding=("squares_small", converse_open_fibers_square),
    )


def test_criterion_7c_p3_discrete(converse_open_fibers_square):
    _check_refutations(
        "c",
        "p3_discrete",
        count=119,
        broken={"b1_discrete_strictness_iff": 119},
        never_broken=("b1_discrete_alpha_iff", "a2_indiscrete_beta_iff"),
        case=None,
        finding=("squares_small", converse_open_fibers_square),
    )


def test_criterion_7d_five_lemma_nagao(shear_square):
    _check_refutations(
        "d",
        "five_lemma_nagao",
        count=867,
        broken={
            "gamma_haus_well_defined": 867,
            "gamma_haus_continuous": 867,
            "g2_hausdorff_implies_gamma_continuous": 41,
        },
        never_broken=(),
        case="case split on this instance: a=False, b_i=True, b_ii=False",
        finding=("squares_small", shear_square),
    )


def test_criterion_7e_five_lemma_topological(shear_five_term):
    _check_refutations(
        "e",
        "five_lemma_topological",
        count=221,
        broken={
            "gamma_haus_well_defined": 221,
            "gamma_haus_continuous": 221,
            "gamma_haus_surjective": 221,
        },
        never_broken=(
            "gamma_group_iso",
            "reduction_rows_extensions",
            "c2_hausdorff_implies_continuous_bijection",
        ),
        case="case split on this instance: a=False, b=True",
        finding=("zero_pad_diagonal", shear_five_term),
    )


def test_criterion_8_psi_decomposition():
    """The psi = psi1 + psi2 identity, asserted pointwise by the oracle, on a
    deterministic sample of the default p3 family: every tenth instance.
    tests/test_extensions.py checks it on every square at order 3."""
    from topab.search import p3_family

    fam = p3_family(DEFAULT)
    checked = 0
    for _, inst in fam[::10]:
        if not isinstance(inst, P3Instance):
            continue
        sws = inst.build()
        psi_maps(*sws)  # asserts the identity pointwise
        checked += 1
    report("8 (psi decomposition)", True, f"{checked} sampled instances re-checked")


def test_criterion_9_duality():
    """|G*| = |G_Haus|, evaluation kernel = open core, the induced map on the
    separation is bijective, and q_G dualizes to an isomorphism, |G| <= 16."""
    checked = failures = 0
    for t in topologized_groups(16):
        d = dual_group(t)
        haus, _ = separation(t)
        ev = evaluation(t)
        ok = (
            d.order == haus.group.order
            and ev.map.kernel.elements == t.open_core.elements
            and ev.map.image.order == haus.group.order
            and ev.map.is_surjective()
            and separation_dual_iso(t).is_bijective()
        )
        if not ok:
            failures += 1
        checked += 1
    report("9 (duality invariants up to order 16)", failures == 0, f"{checked} instances")
    assert failures == 0


def test_criterion_10_negative_control():
    """Dropping alpha-continuity yields witnesses, and every witness replays
    as a genuine conclusion failure."""
    task = SearchTask("p3_generalized", ("alpha_continuous",), DEFAULT)
    res = run_search(task)
    replayed_ok = all(
        replay_witness("p3_generalized", r.witness, ("alpha_continuous",)).conclusion_checked
        is False
        for r in res.failures
    )
    has_discontinuous_alpha = any(
        dict(r.hypotheses_checked).get("alpha_continuous") is False
        for r in res.failures
    )
    ok = res.failure_count >= 1 and replayed_ok and has_discontinuous_alpha
    report(
        "10 (negative control)",
        ok,
        f"{res.failure_count} witnesses, all replayed as failures",
    )
    assert ok


def test_dropping_injectivity_refutes_alpha_strict_alone():
    """A second negative control, pinned the way 7b-7e pin theirs: with
    maps_injective dropped, strictness_injectivity fails on 35 squares of the
    default family, each on alpha_strict alone and only where maps_injective
    fails, and every witness replays.  No other test sees alpha_strict fail,
    so this is what catches a verifier that forces it true."""
    dropped = ("maps_injective",)
    res = run_search(SearchTask("strictness_injectivity", dropped, DEFAULT))
    assert (res.evaluated, res.filtered) == (376, 345)
    assert res.strata_counts == {"squares_small": 321, "sampled": 400}
    assert res.failure_count == 35
    for r in res.failures:
        assert r.details == (("alpha_strict", False),)
        assert {n for n, ok in r.hypotheses_checked if not ok} == set(dropped)
        replay = replay_witness("strictness_injectivity", r.witness, dropped)
        assert replay.conclusion_checked is False and replay.details == r.details


def test_criterion_11_determinism():
    task = SearchTask("five_lemma_nagao", family=FamilySpec(max_group_order=2, generators=("squares_small",)))
    a = run_search(task).to_jsonl()
    b = run_search(task).to_jsonl()
    sampled = SearchTask(
        "p3_generalized",
        family=FamilySpec(max_group_order=3, generators=("sampled",), sample_count=60, seed=9),
    )
    c = run_search(sampled).to_jsonl()
    d = run_search(sampled).to_jsonl()
    ok = a == b and c == d
    report("11 (byte-identical reports)", ok)
    assert ok
