"""Instance families and hypothesis-dropping counterexample search.

Each registered theorem owns a family builder (deterministic, stratified:
small exhaustive strata plus a seeded sample of the larger space, declared
once per family in a `_strata` call) and a law from `diagrams`, whose
hypothesis names are the theorem's droppable hypotheses.  Every instance
has one protocol: build() makes the object the verifier takes,
to_json()/from_json() make it a replayable witness.
run_search builds each instance of the family, skips those failing surviving
hypotheses, evaluates the conclusion on the rest, and reports failures as
witnesses after a core-shrinking pass.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass, field, replace
from functools import cache
from math import prod

from .errors import (
    BudgetExceeded,
    DiagramError,
    InvalidFamilySpec,
    InvalidSection,
    NotTopologizing,
    UnknownHypothesis,
    UnknownTheorem,
)
from .groups import (
    Element,
    FinAbGroup,
    Homomorphism,
    all_homs,
    all_subgroups,
    cached_hash,
    compose,
    hom_from_table,
    identity_hom,
    isomorphism_class_moduli,
    zero_hom,
)
from .topology import TopAbGroup, TopHom, discrete, is_discrete
from .extensions import (
    AlgExtension,
    Extension,
    ExtensionSquare,
    FactorSet,
    Section,
    alg_extension_from_cocycle,
    factor_set,
    factor_set_from_section,
    nagao_core,
    nagao_topology,
    topologizing_sections,
    validate_cocycle,
)
from .diagrams import (
    FiveTermRow,
    FiveTermSquare,
    InjectiveSquare,
    SquareWithSections,
    VerificationReport,
    verify_choice_discrete,
    verify_five_lemma_nagao,
    verify_haus_exactness,
    verify_lemma_strictness_injectivity,
    verify_nagao_comparison,
    verify_open_fibers,
    verify_p3_discrete,
    verify_p3_generalized,
    verify_topological_five_lemma,
    verify_topological_five_lemma_relaxed,
    verify_topologizable,
)
from . import jsonio


# ---------------------------------------------------------------------------
# enumeration substrate


def all_groups_up_to_order(n: int) -> tuple[FinAbGroup, ...]:
    """One group per isomorphism class of order <= n, deterministic order."""
    if n < 1:
        raise ValueError("order bound must be >= 1")
    out = []
    for m in range(1, n + 1):
        for moduli in isomorphism_class_moduli(m):
            out.append(FinAbGroup(moduli))
    return tuple(out)


def _coset_representatives(A: FinAbGroup, n: int) -> tuple[Element, ...]:
    """The least element of each coset of nA in A, in increasing order."""
    nA = {A.scale(n, a) for a in A.elements}
    reps, covered = [], set()
    for a in A.elements:
        if a not in covered:
            reps.append(a)
            covered.update(A.add(a, x) for x in nA)
    return tuple(reps)


def _structured_cocycle(A: FinAbGroup, B: FinAbGroup, coeffs, t) -> FactorSet:
    """Carry cocycles along each cyclic factor of B, shifted by a coboundary.

    h(x, y) = sum_j coeffs[j] * [x_j + y_j >= n_j] + t(x) + t(y) - t(x + y);
    every normalized symmetric cocycle is of this shape.
    """
    mapping = {}
    for x in B.elements:
        for y in B.elements:
            acc = A.zero
            for j, n in enumerate(B.moduli):
                if x[j] + y[j] >= n:
                    acc = A.add(acc, coeffs[j])
            acc = A.add(acc, A.sub(A.add(t[x], t[y]), t[B.add(x, y)]))
            mapping[(x, y)] = acc
    return factor_set(A, B, mapping)


_COCYCLE_BUDGET = 10**6


@cache
def _cocycles_by_class(
    A: FinAbGroup, B: FinAbGroup, budget: int
) -> tuple[tuple[FactorSet, ...], ...]:
    """The normalized symmetric cocycles B x B -> A, one tuple per class.

    Ext(Z/n_1 + ... + Z/n_k, A) = A/n_1A + ... + A/n_kA, so the class with
    residues (c_j mod n_jA) is the carry cocycle of the c_j plus every
    coboundary dt over every t: B -> A with t(0) = 0.  Each constructed table
    is checked against the cocycle identity.
    """
    cosets = [_coset_representatives(A, n) for n in B.moduli]
    nonzero = [b for b in B.elements if b != B.zero]
    classes = prod(len(c) for c in cosets)
    if classes * A.order ** len(nonzero) > budget:
        raise BudgetExceeded(
            f"{classes} x {A.order}^{len(nonzero)} cocycle tables for A = {A}, "
            f"B = {B} exceed the budget; lower --max-order"
        )
    out = []
    for coeffs in itertools.product(*cosets):
        tables = {}
        for imgs in itertools.product(A.elements, repeat=len(nonzero)):
            t = {B.zero: A.zero}
            t.update(zip(nonzero, imgs))
            h = _structured_cocycle(A, B, coeffs, t)
            if h.entries not in tables:
                assert validate_cocycle(h)
                tables[h.entries] = h
        out.append(tuple(tables.values()))
    return tuple(out)


@cache
def all_cocycles(
    A: FinAbGroup, B: FinAbGroup, budget: int = _COCYCLE_BUDGET
) -> tuple[FactorSet, ...]:
    """All normalized symmetric cocycles B x B -> A, sorted by table."""
    hs = itertools.chain.from_iterable(_cocycles_by_class(A, B, budget))
    return tuple(sorted(hs, key=lambda h: h.entries))


@cache
def cocycle_class_representatives(A: FinAbGroup, B: FinAbGroup) -> tuple[FactorSet, ...]:
    """The least table of each cohomology class, sorted by table."""
    classes = _cocycles_by_class(A, B, _COCYCLE_BUDGET)
    reps = (min(hs, key=lambda h: h.entries) for hs in classes)
    return tuple(sorted(reps, key=lambda h: h.entries))


@cache
def topologized_groups(max_order: int) -> tuple[TopAbGroup, ...]:
    """Every (group class, open core) pair up to the order bound."""
    out = []
    for G in all_groups_up_to_order(max_order):
        for S in all_subgroups(G):
            out.append(TopAbGroup(G, S))
    return tuple(out)


def _cap(seq, max_count):
    if max_count == "all":
        return seq
    return seq[: int(max_count)]


# ---------------------------------------------------------------------------
# task and family specifications


@dataclass(frozen=True)
class FamilySpec:
    max_group_order: int = 4
    max_cocycle_count: object = "all"  # int or "all"
    seed: int = 0
    generators: tuple[str, ...] = ()  # stratum names; () = all of the family's
    sample_count: int = 400

    def __post_init__(self):
        cocycles = 0 if self.max_cocycle_count == "all" else self.max_cocycle_count
        for name, value, least in (
            ("max_group_order", self.max_group_order, 1),
            ("max_cocycle_count", cocycles, 0),
            ("sample_count", self.sample_count, 0),
        ):
            if value < least:
                raise InvalidFamilySpec(f"{name} must be at least {least}, got {value}")

    def to_json(self) -> dict:
        return {
            "max_group_order": self.max_group_order,
            "max_cocycle_count": self.max_cocycle_count,
            "seed": self.seed,
            "generators": list(self.generators),
            "sample_count": self.sample_count,
        }


@dataclass(frozen=True)
class SearchTask:
    theorem_id: str
    dropped_hypotheses: tuple[str, ...] = ()
    family: FamilySpec = FamilySpec()
    stop_at_first: bool = False

    def to_json(self) -> dict:
        return {
            "theorem": self.theorem_id,
            "dropped_hypotheses": list(self.dropped_hypotheses),
            "family": self.family.to_json(),
            "stop_at_first": self.stop_at_first,
        }


# ---------------------------------------------------------------------------
# instances


def _pairs_json(pairs) -> list:
    return [[list(b), list(g)] for b, g in pairs]


def _pairs_from(source: FinAbGroup, target: FinAbGroup, data) -> tuple:
    return tuple((source.reduce(b), target.reduce(g)) for b, g in data)


@dataclass(frozen=True)
class RowData:
    """An extension row: a cocycle over topologized ends plus a section."""

    A: TopAbGroup
    B: TopAbGroup
    h: FactorSet
    s_entries: tuple[tuple[Element, Element], ...]

    __hash__ = cached_hash(lambda s: (s.A, s.B, s.h, s.s_entries))

    def realize(self) -> tuple[AlgExtension, Section, Extension]:
        return _realize_row(self)

    def to_json(self) -> dict:
        return {
            "A": jsonio.topgroup_to_json(self.A),
            "B": jsonio.topgroup_to_json(self.B),
            "h": jsonio.cocycle_to_json(self.h),
            "s": _pairs_json(self.s_entries),
        }

    @staticmethod
    def from_json(data) -> "RowData":
        A = jsonio.topgroup_from_json(data["A"])
        B = jsonio.topgroup_from_json(data["B"])
        h = jsonio.cocycle_from_json(data["h"])
        alg = _cached_alg(A, B, h)
        return RowData(A, B, h, _pairs_from(B.group, alg.G, data["s"]))


@cache
def _cached_alg(A: TopAbGroup, B: TopAbGroup, h: FactorSet) -> AlgExtension:
    return alg_extension_from_cocycle(A, B, h)


@cache
def _realize_row(row: RowData) -> tuple[AlgExtension, Section, Extension]:
    alg = _cached_alg(row.A, row.B, row.h)
    s = Section(row.B.group, alg.G, row.s_entries)
    return alg, s, nagao_topology(alg, s)


def _hom_json(f: Homomorphism) -> list:
    return [list(x) for x in f.gen_images]


def _hom_from(source: FinAbGroup, target: FinAbGroup, data) -> Homomorphism:
    return Homomorphism(source, target, tuple(target.reduce(x) for x in data))


def gamma_lifts(
    alg1: AlgExtension,
    s1: Section,
    alg2: AlgExtension,
    alpha: Homomorphism,
    beta: Homomorphism,
) -> tuple[tuple[tuple[Element, Element], ...], ...]:
    """All middle maps commuting over (alpha, beta), as tables t = gamma o s1."""
    h1 = factor_set_from_section(alg1, s1)
    B1, G2 = alg1.B.group, alg2.G
    fibers: dict[Element, list[Element]] = {}
    for g in G2.elements:
        fibers.setdefault(alg2.pi(g), []).append(g)
    nonzero = [b for b in B1.elements if b != B1.zero]
    out = []
    for choice in itertools.product(*(fibers[beta(b)] for b in nonzero)):
        t = {B1.zero: G2.zero}
        t.update(zip(nonzero, choice))
        ok = True
        for b in B1.elements:
            for bp in B1.elements:
                lhs = G2.sub(G2.add(t[b], t[bp]), t[B1.add(b, bp)])
                if lhs != alg2.iota(alpha(h1(b, bp))):
                    ok = False
                    break
            if not ok:
                break
        if ok:
            out.append(tuple(sorted(t.items())))
    return tuple(out)


def _gamma_from_lift(
    alg1: AlgExtension,
    s1: Section,
    alg2: AlgExtension,
    alpha: Homomorphism,
    lift: tuple[tuple[Element, Element], ...],
) -> Homomorphism:
    """The middle map iota1(a) + s1(b) -> iota2(alpha(a)) + lift(b)."""
    t = dict(lift)
    table = {}
    for a in alg1.A.group.elements:
        for b in alg1.B.group.elements:
            g1 = alg1.G.add(alg1.iota(a), s1(b))
            table[g1] = alg2.G.add(alg2.iota(alpha(a)), t[b])
    return hom_from_table(alg1.G, alg2.G, table)


@dataclass(frozen=True)
class P3Instance:
    """A commutative extension square with sections; gamma given by its lift."""

    row1: RowData
    row2: RowData
    alpha: Homomorphism
    beta: Homomorphism
    lift: tuple[tuple[Element, Element], ...]

    __hash__ = cached_hash(lambda s: (s.row1, s.row2, s.alpha, s.beta, s.lift))

    def build(self) -> SquareWithSections:
        alg1, s1, e1 = self.row1.realize()
        alg2, s2, e2 = self.row2.realize()
        gamma = _gamma_from_lift(alg1, s1, alg2, self.alpha, self.lift)
        square = ExtensionSquare(e1, e2, self.alpha, gamma, self.beta)
        return SquareWithSections(square, s1, s2)

    def to_json(self) -> dict:
        return {
            "kind": "square_with_sections",
            "row1": self.row1.to_json(),
            "row2": self.row2.to_json(),
            "alpha": _hom_json(self.alpha),
            "beta": _hom_json(self.beta),
            "lift": _pairs_json(self.lift),
        }

    @staticmethod
    def from_json(data) -> "P3Instance":
        row1 = RowData.from_json(data["row1"])
        row2 = RowData.from_json(data["row2"])
        alg2 = _cached_alg(row2.A, row2.B, row2.h)
        alpha = _hom_from(row1.A.group, row2.A.group, data["alpha"])
        beta = _hom_from(row1.B.group, row2.B.group, data["beta"])
        lift = _pairs_from(row1.B.group, alg2.G, data["lift"])
        return P3Instance(row1, row2, alpha, beta, lift)


@dataclass(frozen=True)
class InjSquareInstance:
    """Four injective-candidate maps forming a commuting square."""

    A: TopAbGroup
    B: TopAbGroup
    Ap: TopAbGroup
    Bp: TopAbGroup
    f: Homomorphism
    g: Homomorphism
    alpha: Homomorphism
    beta: Homomorphism

    __hash__ = cached_hash(lambda s: (s.A, s.B, s.Ap, s.Bp, s.f, s.g, s.alpha, s.beta))

    def build(self) -> InjectiveSquare:
        return InjectiveSquare(
            TopHom(self.f, self.A, self.B),
            TopHom(self.g, self.Ap, self.Bp),
            TopHom(self.alpha, self.A, self.Ap),
            TopHom(self.beta, self.B, self.Bp),
        )

    def to_json(self) -> dict:
        return {
            "kind": "injective_square",
            "A": jsonio.topgroup_to_json(self.A),
            "B": jsonio.topgroup_to_json(self.B),
            "Ap": jsonio.topgroup_to_json(self.Ap),
            "Bp": jsonio.topgroup_to_json(self.Bp),
            "f": _hom_json(self.f),
            "g": _hom_json(self.g),
            "alpha": _hom_json(self.alpha),
            "beta": _hom_json(self.beta),
        }

    @staticmethod
    def from_json(data) -> "InjSquareInstance":
        A = jsonio.topgroup_from_json(data["A"])
        B = jsonio.topgroup_from_json(data["B"])
        Ap = jsonio.topgroup_from_json(data["Ap"])
        Bp = jsonio.topgroup_from_json(data["Bp"])
        return InjSquareInstance(
            A,
            B,
            Ap,
            Bp,
            _hom_from(A.group, B.group, data["f"]),
            _hom_from(Ap.group, Bp.group, data["g"]),
            _hom_from(A.group, Ap.group, data["alpha"]),
            _hom_from(B.group, Bp.group, data["beta"]),
        )


@dataclass(frozen=True)
class ExtensionInstance:
    """A topological extension presented as a row with a section."""

    row: RowData

    __hash__ = cached_hash(lambda s: s.row)

    def build(self) -> Extension:
        return self.row.realize()[2]

    def to_json(self) -> dict:
        return {"kind": "extension", "row": self.row.to_json()}

    @staticmethod
    def from_json(data) -> "ExtensionInstance":
        return ExtensionInstance(RowData.from_json(data["row"]))


@dataclass(frozen=True)
class CocycleInstance:
    """A cocycle over topologized ends; section-level facts are quantified."""

    A: TopAbGroup
    B: TopAbGroup
    h: FactorSet

    __hash__ = cached_hash(lambda s: (s.A, s.B, s.h))

    def build(self) -> AlgExtension:
        return _cached_alg(self.A, self.B, self.h)

    def to_json(self) -> dict:
        return {
            "kind": "cocycle",
            "A": jsonio.topgroup_to_json(self.A),
            "B": jsonio.topgroup_to_json(self.B),
            "h": jsonio.cocycle_to_json(self.h),
        }

    @staticmethod
    def from_json(data) -> "CocycleInstance":
        return CocycleInstance(
            jsonio.topgroup_from_json(data["A"]),
            jsonio.topgroup_from_json(data["B"]),
            jsonio.cocycle_from_json(data["h"]),
        )


_TRIVIAL_TOP = discrete(FinAbGroup(()))


def _zero_padded_row(alg: AlgExtension, e: Extension) -> FiveTermRow:
    """0 -> A -> G -> B -> 0 as a five-term row."""
    z = _TRIVIAL_TOP.group
    return FiveTermRow(
        (_TRIVIAL_TOP, e.A, e.G, e.B, _TRIVIAL_TOP),
        (zero_hom(z, alg.A.group), alg.iota, alg.pi, zero_hom(alg.B.group, z)),
    )


@dataclass(frozen=True)
class FiveLemmaInstance:
    """A five-term square built from extensions by zero-padding or gluing."""

    shape: str  # "zero_pad" or "glued"
    row1: RowData
    row2: RowData
    chain1: RowData | None  # glued: second extension over row's B (both sides equal)
    v_a: Homomorphism
    v_b: Homomorphism
    lift: tuple[tuple[Element, Element], ...]

    __hash__ = cached_hash(
        lambda s: (s.shape, s.row1, s.row2, s.chain1, s.v_a, s.v_b, s.lift)
    )

    def build(self) -> FiveTermSquare:
        z = _TRIVIAL_TOP.group
        if self.shape == "zero_pad":
            alg1, s1, e1 = self.row1.realize()
            alg2, _, e2 = self.row2.realize()
            gamma = _gamma_from_lift(alg1, s1, alg2, self.v_a, self.lift)
            verts = (identity_hom(z), self.v_a, gamma, self.v_b, identity_hom(z))
            return FiveTermSquare(
                _zero_padded_row(alg1, e1), _zero_padded_row(alg2, e2), verts
            )
        if self.shape != "glued":
            raise ValueError(f"unknown shape {self.shape}")
        # glued: both 5-term rows come from the same chain E, E'; the middle
        # vertical is a lift over E' with identity outer maps.
        alg, _, e = self.row1.realize()
        algc, sc, ec = self.chain1.realize()
        if algc.A != e.B:
            raise DiagramError("chain must extend the base row's quotient")
        gamma_p = _gamma_from_lift(algc, sc, algc, identity_hom(algc.A.group), self.lift)
        row = FiveTermRow(
            (e.A, e.G, ec.G, ec.B, _TRIVIAL_TOP),
            (alg.iota, compose(algc.iota, alg.pi), algc.pi, zero_hom(algc.B.group, z)),
        )
        verts = (
            identity_hom(alg.A.group),
            identity_hom(alg.G),
            gamma_p,
            identity_hom(algc.B.group),
            identity_hom(z),
        )
        return FiveTermSquare(row, row, verts)

    def to_json(self) -> dict:
        return {
            "kind": "five_lemma",
            "shape": self.shape,
            "row1": self.row1.to_json(),
            "row2": self.row2.to_json(),
            "chain1": self.chain1.to_json() if self.chain1 else None,
            "v_a": _hom_json(self.v_a),
            "v_b": _hom_json(self.v_b),
            "lift": _pairs_json(self.lift),
        }

    @staticmethod
    def from_json(data) -> "FiveLemmaInstance":
        row1 = RowData.from_json(data["row1"])
        row2 = RowData.from_json(data["row2"])
        chain1 = RowData.from_json(data["chain1"]) if data.get("chain1") else None
        v_a = _hom_from(row1.A.group, row2.A.group, data["v_a"])
        v_b = _hom_from(row1.B.group, row2.B.group, data["v_b"])
        # the lift maps the quotient of row1 (glued: of chain1) into the
        # middle group of row2 (glued: of chain1)
        lifted = chain1 or row2
        target = _cached_alg(lifted.A, lifted.B, lifted.h).G
        lift = _pairs_from((chain1 or row1).B.group, target, data["lift"])
        return FiveLemmaInstance(data["shape"], row1, row2, chain1, v_a, v_b, lift)


def _zero_pad(r1, r2, v_a, v_b, lift) -> FiveLemmaInstance:
    return FiveLemmaInstance("zero_pad", r1, r2, None, v_a, v_b, lift)


_INSTANCE_KINDS = {
    "square_with_sections": P3Instance,
    "injective_square": InjSquareInstance,
    "extension": ExtensionInstance,
    "cocycle": CocycleInstance,
    "five_lemma": FiveLemmaInstance,
}


def instance_from_json(data):
    kind = data["kind"]
    if kind not in _INSTANCE_KINDS:
        raise UnknownTheorem(f"unknown instance kind {kind}")
    return _INSTANCE_KINDS[kind].from_json(data)


# ---------------------------------------------------------------------------
# family builders


def _cocycle_triples(spec: FamilySpec, max_order: int, reps: bool):
    """Every (A, B, h) over topologized groups of order <= max_order, h a
    cocycle (a class representative if reps), at most max_cocycle_count per
    pair of groups."""
    tops = topologized_groups(max_order)
    for A_top in tops:
        for B_top in tops:
            A, B = A_top.group, B_top.group
            hs = cocycle_class_representatives(A, B) if reps else all_cocycles(A, B)
            for h in _cap(hs, spec.max_cocycle_count):
                yield A_top, B_top, h


def _row_pool(spec: FamilySpec, max_order: int) -> list[RowData]:
    return [
        RowData(A_top, B_top, h, s.entries)
        for A_top, B_top, h in _cocycle_triples(spec, max_order, reps=False)
        for s in topologizing_sections(_cached_alg(A_top, B_top, h))
    ]


def _diagonal_rows(spec: FamilySpec):
    """Each class representative row with its topologizing sections, the first
    of which is the row's own section."""
    for A_top, B_top, h in _cocycle_triples(spec, spec.max_group_order, reps=True):
        secs = topologizing_sections(_cached_alg(A_top, B_top, h))
        if secs:
            yield RowData(A_top, B_top, h, secs[0].entries), secs


# A square of extension rows is (row1, row2, alpha, beta, lift): verticals
# alpha on the kernels and beta on the quotients, and the middle map given by
# its lift t = gamma o s1 (see gamma_lifts).  The square families share these
# two strata.


def _small_squares(spec: FamilySpec):
    """Every square of extension rows over groups of order <= 2."""
    rows = _row_pool(spec, min(2, spec.max_group_order))
    for r1 in rows:
        for r2 in rows:
            alg1 = _cached_alg(r1.A, r1.B, r1.h)
            alg2 = _cached_alg(r2.A, r2.B, r2.h)
            s1 = Section(r1.B.group, alg1.G, r1.s_entries)
            for alpha in all_homs(r1.A.group, r2.A.group):
                for beta in all_homs(r1.B.group, r2.B.group):
                    for lift in gamma_lifts(alg1, s1, alg2, alpha, beta):
                        yield r1, r2, alpha, beta, lift


def _sampled_squares(spec: FamilySpec):
    """A seeded sample of squares of extension rows up to the order bound."""
    rng = random.Random(spec.seed)
    tops = topologized_groups(spec.max_group_order)
    made, attempts = 0, 0
    while made < spec.sample_count and attempts < 40 * spec.sample_count:
        attempts += 1
        a1, b1 = rng.choice(tops), rng.choice(tops)
        a2, b2 = rng.choice(tops), rng.choice(tops)
        h1 = rng.choice(all_cocycles(a1.group, b1.group))
        h2 = rng.choice(all_cocycles(a2.group, b2.group))
        alg1, alg2 = _cached_alg(a1, b1, h1), _cached_alg(a2, b2, h2)
        s1s, s2s = topologizing_sections(alg1), topologizing_sections(alg2)
        if not s1s or not s2s:
            continue
        s1, s2 = rng.choice(s1s), rng.choice(s2s)
        alpha = rng.choice(list(all_homs(a1.group, a2.group)))
        beta = rng.choice(list(all_homs(b1.group, b2.group)))
        lifts = gamma_lifts(alg1, s1, alg2, alpha, beta)
        if not lifts:
            continue
        lift = lifts[rng.randrange(len(lifts))]
        r1 = RowData(a1, b1, h1, s1.entries)
        r2 = RowData(a2, b2, h2, s2.entries)
        yield r1, r2, alpha, beta, lift
        made += 1


def _strata(spec: FamilySpec, **generators) -> list[tuple[str, object]]:
    """(stratum, instance) pairs of the strata that spec.generators names, or
    of all of them, in the order given; generators[name](spec) yields the
    instances of a stratum.  An unknown name raises InvalidFamilySpec."""
    for name in spec.generators:
        if name not in generators:
            raise InvalidFamilySpec(
                f"unknown stratum {name!r}; the strata are {', '.join(generators)}"
            )
    chosen = spec.generators or tuple(generators)
    return [
        (name, inst)
        for name, generate in generators.items()
        if name in chosen
        for inst in generate(spec)
    ]


def _diagonal_squares(spec: FamilySpec):
    for r1, secs in _diagonal_rows(spec):
        ida, idb = identity_hom(r1.A.group), identity_hom(r1.B.group)
        for s2 in secs:
            r2 = replace(r1, s_entries=s2.entries)
            yield P3Instance(r1, r2, ida, idb, r1.s_entries)


@cache
def p3_family(spec: FamilySpec) -> list[tuple[str, object]]:
    """Shared family for the square-with-sections theorems.

    Strata: exhaustive squares over groups of order <= 2; exhaustive
    same-extension squares (identity outer verticals, all section pairs) up to
    the order bound; and a seeded sample of the full square space.
    """
    return _strata(
        spec,
        squares_small=lambda spec: itertools.starmap(P3Instance, _small_squares(spec)),
        diagonal=_diagonal_squares,
        sampled=lambda spec: itertools.starmap(P3Instance, _sampled_squares(spec)),
    )


def _commuting_squares(spec: FamilySpec):
    tops = topologized_groups(min(2, spec.max_group_order))
    for A in tops:
        for B in tops:
            for f in all_homs(A.group, B.group):
                for Ap in tops:
                    alphas = list(all_homs(A.group, Ap.group))
                    for Bp in tops:
                        for g in all_homs(Ap.group, Bp.group):
                            for alpha in alphas:
                                for beta in all_homs(B.group, Bp.group):
                                    ok = all(
                                        beta(f(x)) == g(alpha(x))
                                        for x in A.group.elements
                                    )
                                    if ok:
                                        yield InjSquareInstance(
                                            A, B, Ap, Bp, f, g, alpha, beta
                                        )


def _sampled_commuting_squares(spec: FamilySpec):
    rng = random.Random(spec.seed)
    tops = topologized_groups(spec.max_group_order)
    made, attempts = 0, 0
    while made < spec.sample_count and attempts < 40 * spec.sample_count:
        attempts += 1
        A, B, Ap, Bp = (rng.choice(tops) for _ in range(4))
        f = rng.choice(list(all_homs(A.group, B.group)))
        g = rng.choice(list(all_homs(Ap.group, Bp.group)))
        alpha = rng.choice(list(all_homs(A.group, Ap.group)))
        betas = [
            b
            for b in all_homs(B.group, Bp.group)
            if all(b(f(x)) == g(alpha(x)) for x in A.group.elements)
        ]
        if not betas:
            continue
        beta = rng.choice(betas)
        yield InjSquareInstance(A, B, Ap, Bp, f, g, alpha, beta)
        made += 1


@cache
def inj_family(spec: FamilySpec) -> list[tuple[str, object]]:
    return _strata(
        spec, squares_small=_commuting_squares, sampled=_sampled_commuting_squares
    )


def _extensions(spec: FamilySpec):
    for A_top, B_top, h in _cocycle_triples(spec, spec.max_group_order, reps=False):
        alg = _cached_alg(A_top, B_top, h)
        seen_cores = set()
        for s in topologizing_sections(alg):
            core = nagao_core(alg, s).elements
            if core not in seen_cores:
                seen_cores.add(core)
                yield ExtensionInstance(RowData(A_top, B_top, h, s.entries))


@cache
def extension_family(spec: FamilySpec) -> list[tuple[str, object]]:
    """Every topological extension up to the bound, deduplicated by core."""
    return _strata(spec, extensions=_extensions)


@cache
def cocycle_family(spec: FamilySpec, b_discrete_only: bool = False):
    def cocycles(spec):
        for A_top, B_top, h in _cocycle_triples(spec, spec.max_group_order, reps=False):
            if is_discrete(B_top) or not b_discrete_only:
                yield CocycleInstance(A_top, B_top, h)

    return _strata(spec, cocycles=cocycles)


def _zero_pad_diagonal(spec: FamilySpec):
    for r, secs in _diagonal_rows(spec):
        alg = _cached_alg(r.A, r.B, r.h)
        ida, idb = identity_hom(r.A.group), identity_hom(r.B.group)
        for lift in gamma_lifts(alg, secs[0], alg, ida, idb):
            yield _zero_pad(r, r, ida, idb, lift)


def _glued_small(spec: FamilySpec):
    """Each small row glued to every extension of its quotient by a small group."""
    small = min(2, spec.max_group_order)
    for base in _row_pool(spec, small):
        e_b = base.B
        ida, idb = identity_hom(base.A.group), identity_hom(e_b.group)
        for C_top in topologized_groups(small):
            idc = identity_hom(C_top.group)
            for hc in all_cocycles(e_b.group, C_top.group):
                algc = _cached_alg(e_b, C_top, hc)
                for sc in topologizing_sections(algc):
                    chain = RowData(e_b, C_top, hc, sc.entries)
                    for lift in gamma_lifts(algc, sc, algc, idb, idc):
                        yield FiveLemmaInstance("glued", base, base, chain, ida, idb, lift)


@cache
def five_lemma_family(spec: FamilySpec) -> list[tuple[str, object]]:
    return _strata(
        spec,
        zero_pad_small=lambda spec: itertools.starmap(_zero_pad, _small_squares(spec)),
        zero_pad_diagonal=_zero_pad_diagonal,
        glued_small=_glued_small,
        sampled=lambda spec: itertools.starmap(_zero_pad, _sampled_squares(spec)),
    )


# ---------------------------------------------------------------------------
# registry


@dataclass(frozen=True)
class TheoremSpec:
    """A theorem: its droppable hypotheses (its law's hypothesis names), its
    family, and its law, called as evaluate(instance.build(), dropped)."""

    theorem_id: str
    droppable: tuple[str, ...]
    build_family: object
    evaluate: object
    expect_zero_failures: bool


THEOREMS: dict[str, TheoremSpec] = {}


def _register(law, family, expect_zero=True):
    THEOREMS[law.theorem_id] = TheoremSpec(
        law.theorem_id, law.droppable, family, law, expect_zero
    )


_register(verify_p3_generalized, p3_family)
_register(verify_open_fibers, p3_family, expect_zero=False)
_register(verify_p3_discrete, p3_family, expect_zero=False)
_register(verify_five_lemma_nagao, p3_family, expect_zero=False)
_register(verify_lemma_strictness_injectivity, inj_family)
_register(verify_haus_exactness, extension_family)
_register(verify_topological_five_lemma, five_lemma_family, expect_zero=False)
_register(verify_topological_five_lemma_relaxed, five_lemma_family)
_register(verify_nagao_comparison, cocycle_family)
_register(
    verify_choice_discrete, lambda spec: cocycle_family(spec, b_discrete_only=True)
)
_register(verify_topologizable, cocycle_family, expect_zero=False)


# ---------------------------------------------------------------------------
# shrinking


def _instance_cores(inst):
    if isinstance(inst, P3Instance):
        return (
            inst.row1.A.open_core,
            inst.row1.B.open_core,
            inst.row2.A.open_core,
            inst.row2.B.open_core,
        )
    if isinstance(inst, ExtensionInstance):
        return (inst.row.A.open_core, inst.row.B.open_core)
    return None


def _with_cores(inst, cores):
    """The instance with the open cores of _instance_cores replaced."""

    def row(r: RowData, a_core, b_core) -> RowData:
        return replace(
            r, A=TopAbGroup(r.A.group, a_core), B=TopAbGroup(r.B.group, b_core)
        )

    if isinstance(inst, P3Instance):
        return replace(
            inst, row1=row(inst.row1, *cores[:2]), row2=row(inst.row2, *cores[2:])
        )
    return replace(inst, row=row(inst.row, *cores))


def shrink_witness(inst, evaluate, dropped):
    """Greedily shrink open cores while the conclusion failure persists."""
    if _instance_cores(inst) is None:
        return inst
    current = inst
    improved = True
    while improved:
        improved = False
        cores = _instance_cores(current)
        for i, core in enumerate(cores):
            for cand in all_subgroups(core.parent):
                if cand.order >= core.order:
                    continue
                trial = _with_cores(current, cores[:i] + (cand,) + cores[i + 1 :])
                try:
                    built = trial.build()
                except (NotTopologizing, DiagramError, InvalidSection):
                    continue
                if evaluate(built, dropped).conclusion_checked is False:
                    current = trial
                    improved = True
                    break
            if improved:
                break
    return current


# ---------------------------------------------------------------------------
# runner


@dataclass
class RunResult:
    task: SearchTask
    strata_counts: dict
    evaluated: int
    filtered: int
    failures: list[VerificationReport] = field(default_factory=list)

    @property
    def failure_count(self) -> int:
        return len(self.failures)

    def summary_json(self) -> dict:
        return {
            "type": "summary",
            "task": self.task.to_json(),
            "strata": self.strata_counts,
            "evaluated": self.evaluated,
            "filtered": self.filtered,
            "failures": self.failure_count,
        }

    def to_jsonl(self) -> str:
        lines = [jsonio.dumps({"type": "failure", **r.to_json()}) for r in self.failures]
        lines.append(jsonio.dumps(self.summary_json()))
        return "\n".join(lines) + "\n"

    def to_markdown(self) -> str:
        t = self.task
        head = [
            f"# {t.theorem_id}",
            "",
            f"- dropped hypotheses: {', '.join(t.dropped_hypotheses) or 'none'}",
            f"- family: max order {t.family.max_group_order}, seed {t.family.seed}",
            f"- instances evaluated: {self.evaluated}"
            f" (hypothesis-filtered: {self.filtered})",
            f"- conclusion failures: {self.failure_count}",
            "",
            "| stratum | generated |",
            "|---|---|",
        ]
        for name in sorted(self.strata_counts):
            head.append(f"| {name} | {self.strata_counts[name]} |")
        if self.failures:
            head += ["", "## failures", ""]
            for i, r in enumerate(self.failures):
                bad = [n for n, ok in r.details if not ok]
                head.append(f"- failure {i}: broken conclusions: {', '.join(bad)}")
            head += ["", "## model-collapse notes", ""]
            head += [f"- {note}" for note in self.failures[0].model_collapse]
        return "\n".join(head) + "\n"


def _check_task(task: SearchTask) -> TheoremSpec:
    if task.theorem_id not in THEOREMS:
        raise UnknownTheorem(f"unknown theorem {task.theorem_id!r}")
    info = THEOREMS[task.theorem_id]
    for h in task.dropped_hypotheses:
        if h not in info.droppable:
            raise UnknownHypothesis(
                f"{h!r} is not a droppable hypothesis of {task.theorem_id}"
            )
    return info



def run_search(task: SearchTask) -> RunResult:
    """Evaluate a theorem over its family; failures become witnesses."""
    info = _check_task(task)
    family = info.build_family(task.family)
    dropped = frozenset(task.dropped_hypotheses)
    strata_counts: dict[str, int] = {}
    for stratum, _ in family:
        strata_counts[stratum] = strata_counts.get(stratum, 0) + 1

    evaluated = filtered = 0
    failures: list[VerificationReport] = []
    for _, inst in family:
        rep = info.evaluate(inst.build(), dropped)
        if rep.conclusion_checked is None:
            filtered += 1
            continue
        evaluated += 1
        if rep.conclusion_checked is False:
            small = shrink_witness(inst, info.evaluate, dropped)
            if small is not inst:
                rep = info.evaluate(small.build(), dropped)
            rep.witness = small.to_json()
            failures.append(rep)
            if task.stop_at_first:
                break
    return RunResult(task, strata_counts, evaluated, filtered, failures)


def replay_witness(theorem_id: str, witness_json: dict, dropped=()) -> VerificationReport:
    """Re-run a reported witness through the verifier in isolation."""
    info = _check_task(SearchTask(theorem_id, tuple(dropped)))
    inst = instance_from_json(witness_json)
    return info.evaluate(inst.build(), frozenset(dropped))
