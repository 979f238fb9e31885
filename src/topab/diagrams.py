"""Commutative diagrams and the 11 continuity-transfer laws.

A diagram is its maps: each law reads a `topology.Ladder` of one square
(strictness-injectivity), two (an extension square, verticals alpha, gamma,
beta) or four (the five lemma, whose rows are tuples of four `TopHom`s), and
reads each group slot off the endpoints of a vertical.

Each law is one `Law` declaration: a tuple of named hypotheses (predicates on
the built instance), a conclusion function and a notes function, so a law is
a gate followed by a conclusion.  Calling `law(x, dropped)` runs the
hypotheses in their declared order and returns None at the first one that is
unmet and not dropped: the instance is filtered, and no later hypothesis,
conclusion or note is computed.  Otherwise it returns the VerificationReport,
with the dropped hypotheses run last, each once.  The names of a law's
hypotheses are its droppable hypotheses, which the search registry reads
from `Law.droppable`.
Conclusions are always computed from the topology-module predicates, never
assumed, so the harness can refute as well as confirm.  Every report carries
model-collapse notes listing hypotheses that are vacuous at finite scale.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from itertools import combinations
from typing import Callable, NamedTuple

from .groups import (
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
    Section,
    has_open_fibers,
    is_compatible,
    section_census,
    sigma,
    snake_haus_sequence,
)
from .duality import dual_extension
from .topology import (
    Ladder,
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
    """A law's verdict on one instance.  A reported failure holds its
    witness instance, whose parts are the family's own interned values, and
    encodes it only when its JSON is read."""

    theorem_id: str
    hypotheses_checked: tuple[tuple[str, bool], ...]
    conclusion_checked: bool
    details: tuple[tuple[str, bool], ...] = ()
    model_collapse: tuple[str, ...] = MODEL_COLLAPSE_NOTES
    instance: object = None  # the shrunk witness instance of a reported failure

    @property
    def witness(self) -> dict | None:
        """The instance JSON of a reported failure, encoded on each read."""
        return None if self.instance is None else self.instance.to_json()

    def to_json(self) -> dict:
        return {
            "theorem": self.theorem_id,
            "hypotheses": [{"name": n, "ok": ok} for n, ok in self.hypotheses_checked],
            "conclusion": self.conclusion_checked,
            "details": [{"name": n, "ok": ok} for n, ok in self.details],
            "model_collapse": list(self.model_collapse),
            "witness": self.witness,
        }


@dataclass(frozen=True)
class Law:
    """A law: named hypotheses on the built instance, the conclusion clauses
    and the instance's extra model-collapse notes; the hypothesis names are
    its droppable hypotheses.  `law(x, dropped)` is its verifier."""

    theorem_id: str
    hypotheses: tuple[tuple[str, Callable[[object], bool]], ...]
    conclusion: Callable[[object], tuple[tuple[str, bool], ...]]
    notes: Callable[[object], tuple[str, ...]] = lambda x: ()

    @property
    def droppable(self) -> tuple[str, ...]:
        return tuple(name for name, _ in self.hypotheses)

    def __call__(self, x, dropped: frozenset[str] = frozenset()) -> VerificationReport | None:
        """None at the first hypothesis, in declared order, that is unmet and
        not dropped; otherwise the report.  Each hypothesis runs at most
        once: the kept ones hold by then, and the dropped ones run last."""
        for name, holds in self.hypotheses:
            if name not in dropped and not holds(x):
                return None
        hyps = tuple(
            (name, name not in dropped or holds(x)) for name, holds in self.hypotheses
        )
        details = tuple(self.conclusion(x))
        return VerificationReport(
            self.theorem_id,
            hyps,
            all(ok for _, ok in details),
            details,
            MODEL_COLLAPSE_NOTES + self.notes(x),
        )


# ---------------------------------------------------------------------------
# strictness-and-injectivity lemma


# The square is the one-square Ladder of f = top[0] over g = bottom[0] with
# the verticals (alpha, beta).


def _continuous_strict(m: TopHom) -> bool:
    return is_continuous(m) and is_strict(m)


def _maps(sq: Ladder) -> tuple[TopHom, ...]:
    return (*sq.top, *sq.bottom, *sq.verticals)


def _alpha_strict(sq: Ladder):
    """All four maps injective continuous and f, g, beta strict => alpha strict."""
    return (("alpha_strict", _continuous_strict(sq.verticals[0])),)


verify_lemma_strictness_injectivity = Law(
    "strictness_injectivity",
    (
        ("maps_injective", lambda sq: all(m.map.is_injective() for m in _maps(sq))),
        ("maps_continuous", lambda sq: all(is_continuous(m) for m in _maps(sq))),
        ("f_strict", lambda sq: _continuous_strict(sq.top[0])),
        ("g_strict", lambda sq: _continuous_strict(sq.bottom[0])),
        ("beta_strict", lambda sq: _continuous_strict(sq.verticals[1])),
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


class SquareWithSections(NamedTuple):
    """An extension square (`extensions.extension_square`, whose verticals
    are alpha, gamma, beta) with a section s_i of row i, whose topology s_i
    induces.  Each group slot is read off a vertical: A1 is alpha.source, A2
    alpha.target, B1 beta.source, G2 gamma.target."""

    square: Ladder
    s1: Section
    s2: Section


_ALPHA_CONTINUOUS = ("alpha_continuous", lambda sws: is_continuous(sws.square.verticals[0]))
_BETA_CONTINUOUS = ("beta_continuous", lambda sws: is_continuous(sws.square.verticals[2]))


def _gamma_continuous(sws: SquareWithSections):
    """alpha, beta continuous + compatible sections => gamma continuous."""
    return (("gamma_continuous", is_continuous(sws.square.verticals[1])),)


verify_p3_generalized = Law(
    "p3_generalized",
    (
        _ALPHA_CONTINUOUS,
        _BETA_CONTINUOUS,
        ("sections_compatible", lambda sws: is_compatible(*sws)),
    ),
    _gamma_continuous,
)


def _open_fibers_iffs(sws: SquareWithSections):
    """If sigma has open fibers: gamma is continuous (resp. continuous and
    strict) iff alpha and beta are.

    Refuted in strictness_iff, in both directions, by the squares of
    test_open_fibers_strict_clause_fails_{forward,converse} in
    tests/test_findings.py."""
    alpha, gamma, beta = sws.square.verticals
    a_c, b_c, g_c = is_continuous(alpha), is_continuous(beta), is_continuous(gamma)
    a_cs, b_cs = _continuous_strict(alpha), _continuous_strict(beta)
    return (
        ("continuity_iff", (a_c and b_c) == g_c),
        ("strictness_iff", (a_cs and b_cs) == _continuous_strict(gamma)),
    )


def _sigma_open_fibers(sws: SquareWithSections) -> bool:
    return has_open_fibers(sigma(*sws), sws.square.verticals[2].source)


verify_open_fibers = Law(
    "open_fibers", (("sigma_open_fibers", _sigma_open_fibers),), _open_fibers_iffs
)


def _p3_discrete_cases(sws: SquareWithSections) -> tuple[bool, bool]:
    """(B1 discrete, A2 indiscrete)."""
    alpha, _, beta = sws.square.verticals
    return is_discrete(beta.source), is_indiscrete(alpha.target)


def _p3_discrete_iffs(sws: SquareWithSections):
    """B1 discrete: gamma continuous iff alpha continuous (and the strict iff);
    A2 indiscrete: gamma continuous iff beta continuous.

    Refuted in b1_discrete_strictness_iff by the open-fibers squares of
    test_open_fibers_strict_clause_fails_{forward,converse} in
    tests/test_findings.py."""
    b1_discrete, a2_indiscrete = _p3_discrete_cases(sws)
    alpha, gamma, beta = sws.square.verticals
    out = []
    g_c = is_continuous(gamma)
    if b1_discrete:
        out.append(("b1_discrete_alpha_iff", g_c == is_continuous(alpha)))
        a_cs, b_cs = _continuous_strict(alpha), _continuous_strict(beta)
        out.append(("b1_discrete_strictness_iff", (a_cs and b_cs) == _continuous_strict(gamma)))
    if a2_indiscrete:
        out.append(("a2_indiscrete_beta_iff", g_c == is_continuous(beta)))
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
    alpha, _, beta = sws.square.verticals
    return (
        is_discrete(beta.source),
        is_hausdorff(alpha.target) and is_hausdorff(alpha.source),
        is_hausdorff(alpha.target) and is_hausdorff(beta.source),
    )


def _gamma_haus(sws: SquareWithSections):
    """alpha, beta continuous + case gate => gamma_Haus well-defined and
    continuous; and gamma continuous outright if G2 is Hausdorff.

    Refuted in gamma_haus_well_defined, in case (b)(i), by the shear of
    test_five_lemma_nagao_case_b_fails in tests/test_findings.py."""
    gamma = sws.square.verticals[1]
    well = is_continuous(gamma)  # gamma(N_G1) <= N_G2
    return (
        ("gamma_haus_well_defined", well),
        ("gamma_haus_continuous", well and is_continuous(separation_hom(gamma))),
        ("g2_hausdorff_implies_gamma_continuous", not is_hausdorff(gamma.target) or well),
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


@cache
def is_strict_exact(row: tuple[TopHom, ...]) -> bool:
    """The row A -> B -> C -> D -> E, the tuple of its four maps, is exact at
    B, C and D, with all four maps continuous and strict; decided once per
    distinct row.  A five-term square is the four-square Ladder of two rows."""
    maps = [f.map for f in row]
    exact = all(map(is_exact_at, maps, maps[1:]))
    return exact and not strictness_failure(**dict(zip("fghk", row)))


@cache
def _reduced_row_is_extension(row: tuple[TopHom, ...]) -> bool:
    """0 -> B/Im f -> C -> Im h -> 0, with quotient and subspace topologies,
    is a topological extension; decided once per row."""
    f, g, h, _ = row
    c_top = g.target
    bq_top, bq_proj = quotient_top(g.source, f.map.image)
    imh_top, imh_incl = subspace_top(h.target, h.map.image)
    g_prime = induced(g.map, bq_proj.map, identity_hom(c_top.group))  # B/Im f -> C
    h_prime = corestricted(h.map, imh_incl.map)  # C -> Im h
    return is_topological_extension(
        TopHom(g_prime, bq_top, c_top), TopHom(h_prime, c_top, imh_top)
    )


def _five_lemma_cases(fts: Ladder) -> tuple[bool, bool]:
    """Cases (a) D1 and D2 discrete, (b) B1 and B2 Hausdorff."""
    _, beta, _, delta, _ = fts.verticals
    return (
        is_discrete(delta.source) and is_discrete(delta.target),
        is_hausdorff(beta.source) and is_hausdorff(beta.target),
    )


def _gamma_iso_and_gamma_haus(fts: Ladder):
    """beta, delta topological isos; epsilon injective; alpha surjective; rows
    strict exact; D_i discrete or B_i Hausdorff compact => gamma is a group
    isomorphism, gamma_Haus is well-defined, continuous and surjective; and a
    continuous bijection outright when C2 is Hausdorff.

    The relaxed law weakens the iso hypothesis to continuous bijections.

    Refuted in the gamma_haus_* clauses, in case (b), by the zero-padded
    shear of test_five_lemma_topological_case_b_fails in
    tests/test_findings.py.
    """
    gamma = fts.verticals[2]
    bijective = gamma.map.is_bijective()
    well = is_continuous(gamma)
    gh = separation_hom(gamma) if well else None
    return (
        ("gamma_group_iso", bijective),
        # the three-term reduction, mirroring the classical proof
        (
            "reduction_rows_extensions",
            _reduced_row_is_extension(fts.top) and _reduced_row_is_extension(fts.bottom),
        ),
        ("gamma_haus_well_defined", well),
        ("gamma_haus_continuous", well and is_continuous(gh)),
        ("gamma_haus_surjective", well and gh.map.is_surjective()),
        (
            "c2_hausdorff_implies_continuous_bijection",
            not is_hausdorff(gamma.target) or (well and bijective),
        ),
    )


def _five_lemma(theorem_id: str, iso: tuple[str, Callable]) -> Law:
    """The topological five lemma with `iso` as its hypothesis on beta, delta."""
    return Law(
        theorem_id,
        (
            (
                "rows_strict_exact",
                lambda fts: is_strict_exact(fts.top) and is_strict_exact(fts.bottom),
            ),
            iso,
            ("epsilon_injective", lambda fts: fts.verticals[4].map.is_injective()),
            ("alpha_surjective", lambda fts: fts.verticals[0].map.is_surjective()),
            ("case_gate", lambda fts: any(_five_lemma_cases(fts))),
        ),
        _gamma_iso_and_gamma_haus,
        lambda fts: ("case split on this instance: a=%s, b=%s" % _five_lemma_cases(fts),),
    )


def _beta_delta(fts: Ladder) -> tuple[TopHom, TopHom]:
    return fts.verticals[1], fts.verticals[3]


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
    section's splitting: the partitions are compared over the census, and
    only a disagreement is traced back to the first pair of section indices.
    """
    census = section_census(alg)
    sp = census.splittings
    least = coset_reps(alg.G, {alg.iota(a) for a in alg.A.open_core})
    cores = [census.core(r).elements for r in sp]
    keys = [tuple(map(least.__getitem__, r)) for r in sp]
    pair = first_disagreeing_pair(cores, keys)
    if pair is not None:
        index = {r: i for i, r in enumerate(sp)}
        of_section = [index[census.splitting(s)] for s in census.sections()]
        pair = first_disagreeing_pair(
            [cores[i] for i in of_section], [keys[i] for i in of_section]
        )
    bad = () if pair is None else (("disagreeing_pair_%d_%d" % pair, False),)
    return (("criteria_agree_on_all_pairs", pair is None),) + bad


def _topologizable(alg: AlgExtension) -> bool:
    return bool(section_census(alg).splittings)


verify_nagao_comparison = Law(
    "nagao_comparison",
    (("has_topologizing_sections", _topologizable),),
    _criteria_agree,
)


def _unique_core(alg: AlgExtension):
    """Over a discrete quotient every topologizing section gives one core."""
    census = section_census(alg)
    cores = {census.core(r).elements for r in census.splittings}
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
