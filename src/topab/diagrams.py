"""Commutative diagrams and the verifiers of all 11 continuity-transfer laws.

Each verifier takes one built instance and the set of dropped hypotheses,
evaluates the named hypotheses, then the conclusion predicates, and returns a
VerificationReport.  An unmet hypothesis that is not dropped gives a report
with no conclusion (conclusion_checked is None), so the search counts the
instance as filtered.  Conclusions are always computed from the
topology-module predicates, never assumed, so the harness can refute as well
as confirm.  Every report carries model-collapse notes listing hypotheses
that are vacuous at finite scale.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

from .errors import DiagramError, NotAnExtension
from .groups import Element, Homomorphism, compose, hom_from_table, is_exact_at
from .extensions import (
    AlgExtension,
    Extension,
    ExtensionSquare,
    Section,
    comparison_key,
    has_open_fibers,
    is_compatible,
    nagao_core,
    psi_maps,
    sigma,
    snake_haus_sequence,
    topologizing_sections,
)
from .duality import dual_extension
from .topology import (
    TopAbGroup,
    TopHom,
    is_continuous,
    is_discrete,
    is_hausdorff,
    is_indiscrete,
    is_strict,
    is_topological_isomorphism,
    quotient_top,
    separation,
    separation_hom,
    subspace_top,
)

MODEL_COLLAPSE_NOTES = (
    "finite model: first countable, second countable, locally compact and "
    "compact hold for every group",
    "finite model: Hausdorff, discrete, and 'Hausdorff compact' all mean "
    "'trivial open core'",
)


# ---------------------------------------------------------------------------
# reports


@dataclass
class VerificationReport:
    theorem_id: str
    hypotheses_checked: tuple[tuple[str, bool], ...]
    conclusion_checked: bool | None
    details: tuple[tuple[str, bool], ...] = ()
    model_collapse: tuple[str, ...] = MODEL_COLLAPSE_NOTES
    witness: dict | None = None  # the instance JSON of a reported failure

    @property
    def hypotheses_ok(self) -> bool:
        return all(ok for _, ok in self.hypotheses_checked)

    @property
    def failed(self) -> bool:
        return self.conclusion_checked is False

    def to_json(self) -> dict:
        return {
            "theorem": self.theorem_id,
            "hypotheses": [{"name": n, "ok": ok} for n, ok in self.hypotheses_checked],
            "conclusion": self.conclusion_checked,
            "details": [{"name": n, "ok": ok} for n, ok in self.details],
            "model_collapse": list(self.model_collapse),
            # the report format carries the witness under both keys
            "instance": self.witness,
            "witness": self.witness,
        }


def _finish(
    theorem_id: str,
    hyps: tuple[tuple[str, bool], ...],
    conclude,
    dropped: frozenset[str],
    extra_collapse: tuple[str, ...] = (),
) -> VerificationReport:
    """The report of one verifier: the conclusion clauses from `conclude()`
    if every hypothesis not in `dropped` holds; otherwise no conclusion."""
    collapse = MODEL_COLLAPSE_NOTES + extra_collapse
    if any(not ok and n not in dropped for n, ok in hyps):
        return VerificationReport(theorem_id, hyps, None, (), collapse)
    details = tuple(conclude())
    return VerificationReport(
        theorem_id, hyps, all(ok for _, ok in details), details, collapse
    )


# ---------------------------------------------------------------------------
# strictness-and-injectivity lemma


@dataclass(frozen=True)
class InjectiveSquare:
    """f: A -> B over g: A' -> B' with verticals alpha: A -> A', beta: B -> B'."""

    f: TopHom
    g: TopHom
    alpha: TopHom
    beta: TopHom

    def __post_init__(self):
        if (
            self.alpha.source != self.f.source
            or self.alpha.target != self.g.source
            or self.beta.source != self.f.target
            or self.beta.target != self.g.target
        ):
            raise DiagramError("square endpoints do not line up")
        lhs = compose(self.g.map, self.alpha.map)
        rhs = compose(self.beta.map, self.f.map)
        if lhs.table != rhs.table:
            raise DiagramError("square does not commute")


def verify_lemma_strictness_injectivity(
    sq: InjectiveSquare,
    dropped: frozenset[str] = frozenset(),
) -> VerificationReport:
    """All four maps injective continuous and f, g, beta strict => alpha strict."""
    maps = {"f": sq.f, "g": sq.g, "alpha": sq.alpha, "beta": sq.beta}
    hyps = (
        ("maps_injective", all(m.map.is_injective() for m in maps.values())),
        ("maps_continuous", all(is_continuous(m) for m in maps.values())),
        ("f_strict", is_continuous(sq.f) and is_strict(sq.f)),
        ("g_strict", is_continuous(sq.g) and is_strict(sq.g)),
        ("beta_strict", is_continuous(sq.beta) and is_strict(sq.beta)),
    )

    def conclude():
        ok = is_continuous(sq.alpha) and is_strict(sq.alpha)
        return (("alpha_strict", ok),)

    return _finish("strictness_injectivity", hyps, conclude, dropped)


# ---------------------------------------------------------------------------
# separation exactness


def verify_haus_exactness(
    E: Extension,
    dropped: frozenset[str] = frozenset(),
) -> VerificationReport:
    """Under case (a) N_A = 0 or case (b) N_B = 0, the separated sequence and
    the dual sequence are both topological extensions."""
    case_a = is_hausdorff(E.A)
    case_b = is_hausdorff(E.B)
    hyps = (("case_gate", case_a or case_b),)

    def conclude():
        out = []
        haus_a, _ = separation(E.A)
        haus_g, _ = separation(E.G)
        haus_b, _ = separation(E.B)
        try:
            iota_h = separation_hom(E.iota)
            pi_h = separation_hom(E.pi)
            Extension(haus_a, haus_g, haus_b, iota_h, pi_h)
            out.append(("separated_sequence_extension", True))
        except NotAnExtension:
            out.append(("separated_sequence_extension", False))
        dual = dual_extension(E)
        out.append(("dual_sequence_extension", dual.is_extension))
        snake = snake_haus_sequence(E)
        out.append(("snake_sequence_exact", snake.is_exact))
        return tuple(out)

    extra = (
        "finite model: separated rows are built from discrete groups, where "
        "every homomorphism is continuous and strict",
    )
    return _finish("haus_exactness", hyps, conclude, dropped, extra)


# ---------------------------------------------------------------------------
# shared shape for the section-compatibility theorems


@dataclass(frozen=True)
class SquareWithSections:
    """An extension square whose rows carry the topologies induced by s1, s2."""

    square: ExtensionSquare
    s1: Section
    s2: Section

    def __post_init__(self):
        r1, r2 = self.square.row1, self.square.row2
        if nagao_core(r1.alg, self.s1).element_set != r1.G.core_set:
            raise DiagramError("row 1 topology is not the one induced by s1")
        if nagao_core(r2.alg, self.s2).element_set != r2.G.core_set:
            raise DiagramError("row 2 topology is not the one induced by s2")

    @property
    def alpha_top(self) -> TopHom:
        return TopHom(self.square.alpha, self.square.row1.A, self.square.row2.A)

    @property
    def beta_top(self) -> TopHom:
        return TopHom(self.square.beta, self.square.row1.B, self.square.row2.B)

    @property
    def gamma_top(self) -> TopHom:
        return TopHom(self.square.gamma, self.square.row1.G, self.square.row2.G)


def verify_p3_generalized(
    sws: SquareWithSections,
    dropped: frozenset[str] = frozenset(),
) -> VerificationReport:
    """alpha, beta continuous + compatible sections => gamma continuous."""
    hyps = (
        ("alpha_continuous", is_continuous(sws.alpha_top)),
        ("beta_continuous", is_continuous(sws.beta_top)),
        ("sections_compatible", is_compatible(sws.square, sws.s1, sws.s2)),
    )

    def conclude():
        psi_maps(sws.square, sws.s1, sws.s2)  # asserts psi = psi1 + psi2 pointwise
        return (
            ("gamma_continuous", is_continuous(sws.gamma_top)),
            ("psi_decomposition", True),
        )

    return _finish("p3_generalized", hyps, conclude, dropped)


def verify_open_fibers(
    sws: SquareWithSections,
    dropped: frozenset[str] = frozenset(),
) -> VerificationReport:
    """If sigma has open fibers: gamma is continuous (resp. continuous and
    strict) iff alpha and beta are.

    Refuted in strictness_iff, in both directions, by the squares of
    test_open_fibers_strict_clause_fails_{forward,converse} in
    tests/test_findings.py."""
    sg = sigma(sws.square, sws.s1, sws.s2)
    hyps = (("sigma_open_fibers", has_open_fibers(sg, sws.square.row1.B)),)

    def conclude():
        a_c, b_c = is_continuous(sws.alpha_top), is_continuous(sws.beta_top)
        g_c = is_continuous(sws.gamma_top)
        a_cs = a_c and is_strict(sws.alpha_top)
        b_cs = b_c and is_strict(sws.beta_top)
        g_cs = g_c and is_strict(sws.gamma_top)
        return (
            ("continuity_iff", (a_c and b_c) == g_c),
            ("strictness_iff", (a_cs and b_cs) == g_cs),
        )

    return _finish("open_fibers", hyps, conclude, dropped)


def verify_p3_discrete(
    sws: SquareWithSections,
    dropped: frozenset[str] = frozenset(),
) -> VerificationReport:
    """B1 discrete: gamma continuous iff alpha continuous (and the strict iff);
    A2 indiscrete: gamma continuous iff beta continuous.

    Refuted in b1_discrete_strictness_iff by the open-fibers squares of
    test_open_fibers_strict_clause_fails_{forward,converse} in
    tests/test_findings.py."""
    b1_discrete = is_discrete(sws.square.row1.B)
    a2_indiscrete = is_indiscrete(sws.square.row2.A)
    hyps = (("case_gate", b1_discrete or a2_indiscrete),)

    def conclude():
        out = []
        g_c = is_continuous(sws.gamma_top)
        if b1_discrete:
            a_c = is_continuous(sws.alpha_top)
            out.append(("b1_discrete_alpha_iff", g_c == a_c))
            a_cs = a_c and is_strict(sws.alpha_top)
            b_cs = is_continuous(sws.beta_top) and is_strict(sws.beta_top)
            g_cs = g_c and is_strict(sws.gamma_top)
            out.append(("b1_discrete_strictness_iff", (a_cs and b_cs) == g_cs))
        if a2_indiscrete:
            out.append(("a2_indiscrete_beta_iff", g_c == is_continuous(sws.beta_top)))
        return tuple(out)

    extra = (f"case split on this instance: b1_discrete={b1_discrete}, a2_indiscrete={a2_indiscrete}",)
    return _finish("p3_discrete", hyps, conclude, dropped, extra)


def verify_five_lemma_nagao(
    sws: SquareWithSections,
    dropped: frozenset[str] = frozenset(),
) -> VerificationReport:
    """alpha, beta continuous + case gate => gamma_Haus well-defined and
    continuous; and gamma continuous outright if G2 is Hausdorff.

    Refuted in gamma_haus_well_defined, in case (b)(i), by the shear of
    test_five_lemma_nagao_case_b_fails in tests/test_findings.py."""
    r1, r2 = sws.square.row1, sws.square.row2
    case_a = is_discrete(r1.B)
    case_b_i = is_hausdorff(r2.A) and is_hausdorff(r1.A)
    case_b_ii = is_hausdorff(r2.A) and is_hausdorff(r1.B)
    hyps = (
        ("alpha_continuous", is_continuous(sws.alpha_top)),
        ("beta_continuous", is_continuous(sws.beta_top)),
        ("case_gate", case_a or case_b_i or case_b_ii),
    )

    def conclude():
        out = []
        well = is_continuous(sws.gamma_top)  # gamma(N_G1) <= N_G2
        out.append(("gamma_haus_well_defined", well))
        if well:
            gh = separation_hom(sws.gamma_top)
            out.append(("gamma_haus_continuous", is_continuous(gh)))
        else:
            out.append(("gamma_haus_continuous", False))
        out.append(
            (
                "g2_hausdorff_implies_gamma_continuous",
                (not is_hausdorff(r2.G)) or is_continuous(sws.gamma_top),
            )
        )
        return tuple(out)

    extra = (
        "finite model: once gamma_Haus is well-defined it is automatically "
        "continuous (separations are discrete); the content is the "
        "well-definedness inclusion",
        f"case split on this instance: a={case_a}, b_i={case_b_i}, b_ii={case_b_ii}",
    )
    return _finish("five_lemma_nagao", hyps, conclude, dropped, extra)


# ---------------------------------------------------------------------------
# the topological five lemma


@dataclass(frozen=True)
class FiveTermRow:
    """A -> B -> C -> D -> E of topologized groups (maps need not be named)."""

    groups: tuple[TopAbGroup, TopAbGroup, TopAbGroup, TopAbGroup, TopAbGroup]
    maps: tuple[Homomorphism, Homomorphism, Homomorphism, Homomorphism]

    def __post_init__(self):
        for i, f in enumerate(self.maps):
            if (
                f.source != self.groups[i].group
                or f.target != self.groups[i + 1].group
            ):
                raise DiagramError(f"map {i} does not match its endpoints")

    def top_map(self, i: int) -> TopHom:
        return TopHom(self.maps[i], self.groups[i], self.groups[i + 1])

    def is_strict_exact(self) -> bool:
        for f, g in zip(self.maps, self.maps[1:]):
            if not is_exact_at(f, g):
                return False
        for i in range(4):
            th = self.top_map(i)
            if not is_continuous(th) or not is_strict(th):
                return False
        return True


@dataclass(frozen=True)
class FiveTermSquare:
    row1: FiveTermRow
    row2: FiveTermRow
    verticals: tuple[
        Homomorphism, Homomorphism, Homomorphism, Homomorphism, Homomorphism
    ]

    def __post_init__(self):
        for i, v in enumerate(self.verticals):
            if (
                v.source != self.row1.groups[i].group
                or v.target != self.row2.groups[i].group
            ):
                raise DiagramError(f"vertical {i} does not match the rows")
        for i in range(4):
            lhs = compose(self.verticals[i + 1], self.row1.maps[i])
            rhs = compose(self.row2.maps[i], self.verticals[i])
            if lhs.table != rhs.table:
                raise DiagramError(f"square {i} does not commute")

    def vertical_top(self, i: int) -> TopHom:
        return TopHom(self.verticals[i], self.row1.groups[i], self.row2.groups[i])


def _reduced_row(row: FiveTermRow):
    """0 -> B/Im f -> C -> Im h -> 0 with quotient and subspace topologies."""
    f, g, h, _ = row.maps
    b_top, c_top, d_top = row.groups[1], row.groups[2], row.groups[3]
    bq_top, bq_proj = quotient_top(b_top, f.image())
    imh_top, imh_incl = subspace_top(d_top, h.image())
    # induced g': B/Im f -> C
    pre: dict[Element, Element] = {}
    for x in b_top.group.elements:
        pre.setdefault(bq_proj.map(x), x)
    g_table = {y: g(pre[y]) for y in bq_top.group.elements}
    g_prime = hom_from_table(bq_top.group, c_top.group, g_table)
    # corestriction h': C -> Im h
    inv = {imh_incl.map(x): x for x in imh_top.group.elements}
    h_prime = hom_from_table(
        c_top.group, imh_top.group, {x: inv[h(x)] for x in c_top.group.elements}
    )
    return bq_top, imh_top, g_prime, h_prime


def verify_topological_five_lemma(
    fts: FiveTermSquare,
    dropped: frozenset[str] = frozenset(),
    relaxed: bool = False,
) -> VerificationReport:
    """beta, delta topological isos; epsilon injective; alpha surjective; rows
    strict exact; D_i discrete or B_i Hausdorff compact => gamma is a group
    isomorphism, gamma_Haus is well-defined, continuous and surjective; and a
    continuous bijection outright when C2 is Hausdorff.

    With relaxed=True the iso hypothesis weakens to continuous bijections.

    Refuted in the gamma_haus_* clauses, in case (b), by the zero-padded
    shear of test_five_lemma_topological_case_b_fails in
    tests/test_findings.py.
    """
    row1, row2 = fts.row1, fts.row2
    beta_t, delta_t = fts.vertical_top(1), fts.vertical_top(3)
    if relaxed:
        iso_ok = all(
            v.map.is_bijective() and is_continuous(v) for v in (beta_t, delta_t)
        )
        iso_name = "beta_delta_continuous_bijections"
    else:
        iso_ok = all(
            is_topological_isomorphism(v) for v in (beta_t, delta_t)
        )
        iso_name = "beta_delta_top_isos"
    case_a = is_discrete(row1.groups[3]) and is_discrete(row2.groups[3])
    case_b = is_hausdorff(row1.groups[1]) and is_hausdorff(row2.groups[1])
    hyps = (
        ("rows_strict_exact", row1.is_strict_exact() and row2.is_strict_exact()),
        (iso_name, iso_ok),
        ("epsilon_injective", fts.verticals[4].is_injective()),
        ("alpha_surjective", fts.verticals[0].is_surjective()),
        ("case_gate", case_a or case_b),
    )
    gamma_t = fts.vertical_top(2)

    def conclude():
        out = [("gamma_group_iso", fts.verticals[2].is_bijective())]
        # the three-term reduction, mirroring the classical proof
        try:
            bq1, imh1, g1p, h1p = _reduced_row(row1)
            bq2, imh2, g2p, h2p = _reduced_row(row2)
            e1 = Extension(
                bq1,
                row1.groups[2],
                imh1,
                TopHom(g1p, bq1, row1.groups[2]),
                TopHom(h1p, row1.groups[2], imh1),
            )
            e2 = Extension(
                bq2,
                row2.groups[2],
                imh2,
                TopHom(g2p, bq2, row2.groups[2]),
                TopHom(h2p, row2.groups[2], imh2),
            )
            out.append(("reduction_rows_extensions", True))
        except NotAnExtension:
            out.append(("reduction_rows_extensions", False))
        well = is_continuous(gamma_t)
        out.append(("gamma_haus_well_defined", well))
        if well:
            gh = separation_hom(gamma_t)
            out.append(("gamma_haus_continuous", is_continuous(gh)))
            out.append(("gamma_haus_surjective", gh.map.is_surjective()))
        else:
            out.append(("gamma_haus_continuous", False))
            out.append(("gamma_haus_surjective", False))
        out.append(
            (
                "c2_hausdorff_implies_continuous_bijection",
                (not is_hausdorff(row2.groups[2]))
                or (is_continuous(gamma_t) and fts.verticals[2].is_bijective()),
            )
        )
        return tuple(out)

    extra = (f"case split on this instance: a={case_a}, b={case_b}",)
    theorem_id = "five_lemma_topological_relaxed" if relaxed else "five_lemma_topological"
    return _finish(theorem_id, hyps, conclude, dropped, extra)


# ---------------------------------------------------------------------------
# the cocycle theorems, quantified over the sections of one extension


def first_disagreeing_pair(xs: list, ys: list) -> tuple[int, int] | None:
    """First (i, j), i < j, where xs[i] == xs[j] and ys[i] == ys[j] differ, or None."""
    if len(set(zip(xs, ys))) == len(set(xs)) == len(set(ys)):
        return None
    pairs = combinations(range(len(xs)), 2)
    return next((i, j) for i, j in pairs if (xs[i] == xs[j]) != (ys[i] == ys[j]))


def verify_nagao_comparison(
    alg: AlgExtension, dropped: frozenset[str] = frozenset()
) -> VerificationReport:
    """Core equality vs continuity of the comparison map f_ij on all pairs of
    sections, as partitions by Nagao core and by `comparison_key` against s_0.
    Exact: iota is injective, so f_ij = g_i - g_j with g = iota^{-1}(s - s_0)."""
    secs = topologizing_sections(alg)

    def conclude():
        cores = [nagao_core(alg, s).element_set for s in secs]
        keys = [comparison_key(alg, s, secs[0]) for s in secs]
        pair = first_disagreeing_pair(cores, keys)
        bad = () if pair is None else (("disagreeing_pair_%d_%d" % pair, False),)
        return (("criteria_agree_on_all_pairs", pair is None),) + bad

    hyps = (("has_topologizing_sections", bool(secs)),)
    return _finish("nagao_comparison", hyps, conclude, dropped)


def verify_choice_discrete(
    alg: AlgExtension, dropped: frozenset[str] = frozenset()
) -> VerificationReport:
    """Over a discrete quotient every topologizing section gives one core."""

    def conclude():
        cores = {nagao_core(alg, s).elements for s in topologizing_sections(alg)}
        return (("unique_core_across_sections", len(cores) <= 1),)

    hyps = (("b_discrete", is_discrete(alg.B)),)
    return _finish("choice_discrete", hyps, conclude, dropped)


def verify_topologizable(
    alg: AlgExtension, dropped: frozenset[str] = frozenset()
) -> VerificationReport:
    """Some section of the extension is topologizing."""

    def conclude():
        return (("topologizing_section_exists", bool(topologizing_sections(alg))),)

    return _finish("topologizable", (), conclude, dropped)
