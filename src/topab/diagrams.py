"""Commutative diagrams and the 11 continuity-transfer laws.

Each law is one `Law` declaration: a tuple of named hypotheses (predicates on
the built instance), a conclusion function and a notes function.  Calling
`law(x, dropped)` evaluates the hypotheses, then the conclusion, and returns a
VerificationReport.  An unmet hypothesis that is not dropped gives a report
with no conclusion (conclusion_checked is None), so the search counts the
instance as filtered.  The names of a law's hypotheses are its droppable
hypotheses, which the search registry reads from `Law.droppable`.
Conclusions are always computed from the topology-module predicates, never
assumed, so the harness can refute as well as confirm.  Every report carries
model-collapse notes listing hypotheses that are vacuous at finite scale.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cache, cached_property
from itertools import combinations
from typing import Callable

from .errors import DiagramError
from .groups import (
    Homomorphism,
    cached_hash,
    commutes,
    corestricted,
    coset_reps,
    exactness_failure,
    identity_hom,
    induced,
    is_exact_at,
)
from .extensions import (
    AlgExtension,
    Extension,
    ExtensionSquare,
    Section,
    has_open_fibers,
    is_compatible,
    nagao_topology,
    section_census,
    sigma,
    snake_haus_sequence,
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
    is_topological_extension,
    is_topological_isomorphism,
    quotient_top,
    separation_hom,
    strictness_failure,
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

    def to_json(self) -> dict:
        return {
            "theorem": self.theorem_id,
            "hypotheses": [{"name": n, "ok": ok} for n, ok in self.hypotheses_checked],
            "conclusion": self.conclusion_checked,
            "details": [{"name": n, "ok": ok} for n, ok in self.details],
            "model_collapse": list(self.model_collapse),
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


@dataclass(frozen=True)
class Law:
    """A law: named hypotheses on the built instance, the conclusion clauses
    and the instance's extra model-collapse notes.  `law(x, dropped)` is its
    verifier; the hypothesis names are its droppable hypotheses."""

    theorem_id: str
    hypotheses: tuple[tuple[str, Callable[[object], bool]], ...]
    conclusion: Callable[[object], tuple[tuple[str, bool], ...]]
    notes: Callable[[object], tuple[str, ...]] = lambda x: ()

    @property
    def droppable(self) -> tuple[str, ...]:
        return tuple(name for name, _ in self.hypotheses)

    def __call__(self, x, dropped: frozenset[str] = frozenset()) -> VerificationReport:
        hyps = tuple((name, holds(x)) for name, holds in self.hypotheses)
        return _finish(
            self.theorem_id, hyps, lambda: self.conclusion(x), dropped, self.notes(x)
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
        if not commutes(self.f.map, self.g.map, self.alpha.map, self.beta.map):
            raise DiagramError("square does not commute")


def _continuous_strict(m: TopHom) -> bool:
    return is_continuous(m) and is_strict(m)


def _maps(sq: InjectiveSquare) -> tuple[TopHom, ...]:
    return (sq.f, sq.g, sq.alpha, sq.beta)


def _alpha_strict(sq: InjectiveSquare):
    """All four maps injective continuous and f, g, beta strict => alpha strict."""
    return (("alpha_strict", _continuous_strict(sq.alpha)),)


verify_lemma_strictness_injectivity = Law(
    "strictness_injectivity",
    (
        ("maps_injective", lambda sq: all(m.map.is_injective() for m in _maps(sq))),
        ("maps_continuous", lambda sq: all(is_continuous(m) for m in _maps(sq))),
        ("f_strict", lambda sq: _continuous_strict(sq.f)),
        ("g_strict", lambda sq: _continuous_strict(sq.g)),
        ("beta_strict", lambda sq: _continuous_strict(sq.beta)),
    ),
    _alpha_strict,
)


# ---------------------------------------------------------------------------
# separation exactness


def _separated_and_dual_sequences(E: Extension):
    """Under case (a) N_A = 0 or case (b) N_B = 0, the separated sequence and
    the dual sequence are both topological extensions, and the snake
    sequence of the separation comparison is exact."""
    separated = is_topological_extension(separation_hom(E.iota), separation_hom(E.pi))
    m1, m2, m3 = snake_haus_sequence(E)
    return (
        ("separated_sequence_extension", separated),
        ("dual_sequence_extension", is_topological_extension(*dual_extension(E))),
        ("snake_sequence_exact", exactness_failure(m1=m1, m2=m2, m3=m3) is None),
    )


verify_haus_exactness = Law(
    "haus_exactness",
    (("case_gate", lambda E: is_hausdorff(E.A) or is_hausdorff(E.B)),),
    _separated_and_dual_sequences,
    lambda E: (
        "finite model: separated rows are built from discrete groups, where "
        "every homomorphism is continuous and strict",
    ),
)


# ---------------------------------------------------------------------------
# shared shape for the section-compatibility theorems


@dataclass(frozen=True)
class SquareWithSections:
    """An extension square over the rows (alg1, s1) and (alg2, s2): row i is
    alg_i with the topology induced by s_i, nagao_topology(alg_i, s_i), so
    it carries that topology by construction."""

    alg1: AlgExtension
    s1: Section
    alg2: AlgExtension
    s2: Section
    alpha: Homomorphism
    gamma: Homomorphism
    beta: Homomorphism
    square: ExtensionSquare = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        row1, row2 = nagao_topology(self.alg1, self.s1), nagao_topology(self.alg2, self.s2)
        square = ExtensionSquare(row1, row2, self.alpha, self.gamma, self.beta)
        object.__setattr__(self, "square", square)

    @cached_property
    def alpha_top(self) -> TopHom:
        return TopHom(self.square.alpha, self.square.row1.A, self.square.row2.A)

    @cached_property
    def beta_top(self) -> TopHom:
        return TopHom(self.square.beta, self.square.row1.B, self.square.row2.B)

    @cached_property
    def gamma_top(self) -> TopHom:
        return TopHom(self.square.gamma, self.square.row1.G, self.square.row2.G)


_ALPHA_CONTINUOUS = ("alpha_continuous", lambda sws: is_continuous(sws.alpha_top))
_BETA_CONTINUOUS = ("beta_continuous", lambda sws: is_continuous(sws.beta_top))


def _gamma_continuous(sws: SquareWithSections):
    """alpha, beta continuous + compatible sections => gamma continuous."""
    return (("gamma_continuous", is_continuous(sws.gamma_top)),)


verify_p3_generalized = Law(
    "p3_generalized",
    (
        _ALPHA_CONTINUOUS,
        _BETA_CONTINUOUS,
        ("sections_compatible", lambda sws: is_compatible(sws.square, sws.s1, sws.s2)),
    ),
    _gamma_continuous,
)


def _open_fibers_iffs(sws: SquareWithSections):
    """If sigma has open fibers: gamma is continuous (resp. continuous and
    strict) iff alpha and beta are.

    Refuted in strictness_iff, in both directions, by the squares of
    test_open_fibers_strict_clause_fails_{forward,converse} in
    tests/test_findings.py."""
    a_c, b_c = is_continuous(sws.alpha_top), is_continuous(sws.beta_top)
    g_c = is_continuous(sws.gamma_top)
    a_cs, b_cs = _continuous_strict(sws.alpha_top), _continuous_strict(sws.beta_top)
    return (
        ("continuity_iff", (a_c and b_c) == g_c),
        ("strictness_iff", (a_cs and b_cs) == _continuous_strict(sws.gamma_top)),
    )


def _sigma_open_fibers(sws: SquareWithSections) -> bool:
    return has_open_fibers(sigma(sws.square, sws.s1, sws.s2), sws.square.row1.B)


verify_open_fibers = Law(
    "open_fibers", (("sigma_open_fibers", _sigma_open_fibers),), _open_fibers_iffs
)


def _p3_discrete_cases(sws: SquareWithSections) -> tuple[bool, bool]:
    """(B1 discrete, A2 indiscrete)."""
    return is_discrete(sws.square.row1.B), is_indiscrete(sws.square.row2.A)


def _p3_discrete_iffs(sws: SquareWithSections):
    """B1 discrete: gamma continuous iff alpha continuous (and the strict iff);
    A2 indiscrete: gamma continuous iff beta continuous.

    Refuted in b1_discrete_strictness_iff by the open-fibers squares of
    test_open_fibers_strict_clause_fails_{forward,converse} in
    tests/test_findings.py."""
    b1_discrete, a2_indiscrete = _p3_discrete_cases(sws)
    out = []
    g_c = is_continuous(sws.gamma_top)
    if b1_discrete:
        out.append(("b1_discrete_alpha_iff", g_c == is_continuous(sws.alpha_top)))
        a_cs, b_cs = _continuous_strict(sws.alpha_top), _continuous_strict(sws.beta_top)
        g_cs = _continuous_strict(sws.gamma_top)
        out.append(("b1_discrete_strictness_iff", (a_cs and b_cs) == g_cs))
    if a2_indiscrete:
        out.append(("a2_indiscrete_beta_iff", g_c == is_continuous(sws.beta_top)))
    return tuple(out)


verify_p3_discrete = Law(
    "p3_discrete",
    (("case_gate", lambda sws: any(_p3_discrete_cases(sws))),),
    _p3_discrete_iffs,
    lambda sws: (
        "case split on this instance: b1_discrete=%s, a2_indiscrete=%s"
        % _p3_discrete_cases(sws),
    ),
)


def _nagao_cases(sws: SquareWithSections) -> tuple[bool, bool, bool]:
    """Cases (a) B1 discrete, (b)(i) A2 and A1 Hausdorff, (b)(ii) A2 and B1
    Hausdorff."""
    r1, r2 = sws.square.row1, sws.square.row2
    return (
        is_discrete(r1.B),
        is_hausdorff(r2.A) and is_hausdorff(r1.A),
        is_hausdorff(r2.A) and is_hausdorff(r1.B),
    )


def _gamma_haus(sws: SquareWithSections):
    """alpha, beta continuous + case gate => gamma_Haus well-defined and
    continuous; and gamma continuous outright if G2 is Hausdorff.

    Refuted in gamma_haus_well_defined, in case (b)(i), by the shear of
    test_five_lemma_nagao_case_b_fails in tests/test_findings.py."""
    well = is_continuous(sws.gamma_top)  # gamma(N_G1) <= N_G2
    return (
        ("gamma_haus_well_defined", well),
        ("gamma_haus_continuous", well and is_continuous(separation_hom(sws.gamma_top))),
        ("g2_hausdorff_implies_gamma_continuous", not is_hausdorff(sws.square.row2.G) or well),
    )


verify_five_lemma_nagao = Law(
    "five_lemma_nagao",
    (
        _ALPHA_CONTINUOUS,
        _BETA_CONTINUOUS,
        ("case_gate", lambda sws: any(_nagao_cases(sws))),
    ),
    _gamma_haus,
    lambda sws: (
        "finite model: once gamma_Haus is well-defined it is automatically "
        "continuous (separations are discrete); the content is the "
        "well-definedness inclusion",
        "case split on this instance: a=%s, b_i=%s, b_ii=%s" % _nagao_cases(sws),
    ),
)


# ---------------------------------------------------------------------------
# the topological five lemma


@dataclass(frozen=True)
class FiveTermRow:
    """A -> B -> C -> D -> E of topologized groups (maps need not be named)."""

    groups: tuple[TopAbGroup, TopAbGroup, TopAbGroup, TopAbGroup, TopAbGroup]
    maps: tuple[Homomorphism, Homomorphism, Homomorphism, Homomorphism]

    __hash__ = cached_hash(lambda s: (s.groups, s.maps))

    def __post_init__(self):
        for i, f in enumerate(self.maps):
            if (
                f.source != self.groups[i].group
                or f.target != self.groups[i + 1].group
            ):
                raise DiagramError(f"map {i} does not match its endpoints")

    @cache
    def is_strict_exact(self) -> bool:
        """Exact at B, C and D, with all four maps continuous and strict;
        computed once per distinct row."""
        tops = dict(zip("fghk", map(TopHom, self.maps, self.groups, self.groups[1:])))
        return all(map(is_exact_at, self.maps, self.maps[1:])) and not strictness_failure(**tops)


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
            v0, v1 = self.verticals[i], self.verticals[i + 1]
            if not commutes(self.row1.maps[i], self.row2.maps[i], v0, v1):
                raise DiagramError(f"square {i} does not commute")

    def vertical_top(self, i: int) -> TopHom:
        """The i-th vertical between the topologized groups, built on its
        first request and kept, so each square builds it once."""
        tops = self.__dict__.setdefault("_vertical_tops", {})
        if i not in tops:
            tops[i] = TopHom(self.verticals[i], self.row1.groups[i], self.row2.groups[i])
        return tops[i]


@cache
def _reduced_row_is_extension(row: FiveTermRow) -> bool:
    """0 -> B/Im f -> C -> Im h -> 0, with quotient and subspace topologies,
    is a topological extension; decided once per row."""
    f, g, h, _ = row.maps
    b_top, c_top, d_top = row.groups[1], row.groups[2], row.groups[3]
    bq_top, bq_proj = quotient_top(b_top, f.image())
    imh_top, imh_incl = subspace_top(d_top, h.image())
    g_prime = induced(g, bq_proj.map, identity_hom(c_top.group))  # B/Im f -> C
    h_prime = corestricted(h, imh_incl.map)  # C -> Im h
    return is_topological_extension(
        TopHom(g_prime, bq_top, c_top), TopHom(h_prime, c_top, imh_top)
    )


def _five_lemma_cases(fts: FiveTermSquare) -> tuple[bool, bool]:
    """Cases (a) D1 and D2 discrete, (b) B1 and B2 Hausdorff."""
    g1, g2 = fts.row1.groups, fts.row2.groups
    return (
        is_discrete(g1[3]) and is_discrete(g2[3]),
        is_hausdorff(g1[1]) and is_hausdorff(g2[1]),
    )


def _gamma_iso_and_gamma_haus(fts: FiveTermSquare):
    """beta, delta topological isos; epsilon injective; alpha surjective; rows
    strict exact; D_i discrete or B_i Hausdorff compact => gamma is a group
    isomorphism, gamma_Haus is well-defined, continuous and surjective; and a
    continuous bijection outright when C2 is Hausdorff.

    The relaxed law weakens the iso hypothesis to continuous bijections.

    Refuted in the gamma_haus_* clauses, in case (b), by the zero-padded
    shear of test_five_lemma_topological_case_b_fails in
    tests/test_findings.py.
    """
    gamma_t = fts.vertical_top(2)
    bijective = fts.verticals[2].is_bijective()
    well = is_continuous(gamma_t)
    gh = separation_hom(gamma_t) if well else None
    return (
        ("gamma_group_iso", bijective),
        # the three-term reduction, mirroring the classical proof
        (
            "reduction_rows_extensions",
            _reduced_row_is_extension(fts.row1) and _reduced_row_is_extension(fts.row2),
        ),
        ("gamma_haus_well_defined", well),
        ("gamma_haus_continuous", well and is_continuous(gh)),
        ("gamma_haus_surjective", well and gh.map.is_surjective()),
        (
            "c2_hausdorff_implies_continuous_bijection",
            not is_hausdorff(fts.row2.groups[2]) or (well and bijective),
        ),
    )


def _five_lemma(theorem_id: str, iso: tuple[str, Callable]) -> Law:
    """The topological five lemma with `iso` as its hypothesis on beta, delta."""
    return Law(
        theorem_id,
        (
            (
                "rows_strict_exact",
                lambda fts: fts.row1.is_strict_exact() and fts.row2.is_strict_exact(),
            ),
            iso,
            ("epsilon_injective", lambda fts: fts.verticals[4].is_injective()),
            ("alpha_surjective", lambda fts: fts.verticals[0].is_surjective()),
            ("case_gate", lambda fts: any(_five_lemma_cases(fts))),
        ),
        _gamma_iso_and_gamma_haus,
        lambda fts: ("case split on this instance: a=%s, b=%s" % _five_lemma_cases(fts),),
    )


def _beta_delta(fts: FiveTermSquare) -> tuple[TopHom, TopHom]:
    return fts.vertical_top(1), fts.vertical_top(3)


verify_topological_five_lemma = _five_lemma(
    "five_lemma_topological",
    (
        "beta_delta_top_isos",
        lambda fts: all(is_topological_isomorphism(v) for v in _beta_delta(fts)),
    ),
)
verify_topological_five_lemma_relaxed = _five_lemma(
    "five_lemma_topological_relaxed",
    (
        "beta_delta_continuous_bijections",
        lambda fts: all(
            v.map.is_bijective() and is_continuous(v) for v in _beta_delta(fts)
        ),
    ),
)


# ---------------------------------------------------------------------------
# the cocycle theorems, quantified over the sections of one extension


def first_disagreeing_pair(xs: list, ys: list) -> tuple[int, int] | None:
    """First (i, j), i < j, where xs[i] == xs[j] and ys[i] == ys[j] differ, or None."""
    if len(set(zip(xs, ys))) == len(set(xs)) == len(set(ys)):
        return None
    pairs = combinations(range(len(xs)), 2)
    return next((i, j) for i, j in pairs if (xs[i] == xs[j]) != (ys[i] == ys[j]))


def _criteria_agree(alg: AlgExtension):
    """Core equality vs continuity of the comparison map f_ij on all pairs of
    sections, as partitions by Nagao core and by comparison class.  f_ij(b)
    = iota^{-1}(s_i(b) - s_j(b)) maps N_B into N_A exactly when s_i and s_j
    meet the same cosets of iota(N_A) on N_B, so a section's class is the
    least element of each such coset.  Core and class depend only on the
    restriction to N_B: the partitions are compared over the census, and
    only a disagreement is traced back to the first pair of section indices.
    """
    census = section_census(alg)
    rs = census.restrictions
    least = coset_reps(alg.G, {alg.iota(a) for a in alg.A.open_core})
    cores = [census.core(r).elements for r in rs]
    keys = [tuple(map(least.__getitem__, r)) for r in rs]
    pair = first_disagreeing_pair(cores, keys)
    if pair is not None:
        index = {r: i for i, r in enumerate(rs)}
        core_b = alg.B.open_core
        of_section = [index[tuple(map(s, core_b))] for s in census.sections()]
        pair = first_disagreeing_pair(
            [cores[i] for i in of_section], [keys[i] for i in of_section]
        )
    bad = () if pair is None else (("disagreeing_pair_%d_%d" % pair, False),)
    return (("criteria_agree_on_all_pairs", pair is None),) + bad


def _topologizable(alg: AlgExtension) -> bool:
    return bool(section_census(alg).restrictions)


verify_nagao_comparison = Law(
    "nagao_comparison",
    (("has_topologizing_sections", _topologizable),),
    _criteria_agree,
)


def _unique_core(alg: AlgExtension):
    """Over a discrete quotient every topologizing section gives one core."""
    census = section_census(alg)
    cores = {census.core(r).elements for r in census.restrictions}
    return (("unique_core_across_sections", len(cores) <= 1),)


verify_choice_discrete = Law(
    "choice_discrete", (("b_discrete", lambda alg: is_discrete(alg.B)),), _unique_core
)

# Some section of the extension is topologizing.
verify_topologizable = Law(
    "topologizable",
    (),
    lambda alg: (("topologizing_section_exists", _topologizable(alg)),),
)
