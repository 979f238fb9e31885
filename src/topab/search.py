"""Instance families and hypothesis-dropping counterexample search.

Each registered theorem owns a family builder (deterministic, stratified:
small exhaustive strata plus a seeded sample of the larger space, declared
once per family in a `_strata` call) and a law from `diagrams`, whose
hypothesis names are the theorem's droppable hypotheses.  Every instance
has one protocol: build() makes the object the verifier takes,
to_json()/from_json() make it a replayable witness.  The encoder is shared:
the instance's kind, then its fields, each encoded by `jsonio.to_json`.  Each
class decodes itself, since the endpoints of its maps come from its rows.
run_search builds each instance of the family and calls the law on it
(`TheoremSpec.evaluate`), which runs the hypotheses in order and returns
None, the instance filtered, at the first unmet one that is not dropped,
computing nothing further.  On the rest it evaluates the conclusion, and it
reports failures as witnesses after a core-shrinking pass: each failing
report holds its shrunk instance, and `RunResult.lines` encodes each
witness once, when its JSONL line is written.  `replay_witness` calls the
law the same way.

The algebra of an instance does not depend on its topologies, so it is
built once per algebraic input and shared: `cocycle_extension` realizes each
cocycle h over its ends once, `_gamma_from_lift` builds each middle map once
per (h1, s1, h2, alpha, lift), a sample lists the lifts of each algebraic
square once, and `_zero_padded_row` and `_glued_row` build each five-term
row once per pooled extension or pair of extensions.  Only
the open cores vary between instances over the same algebra, and between
the trials of a shrink.  A row is its ends, its cocycle and its `Section`;
a lift is a `Section` too.  Rows are interned (`groups.Interned`), so the
strata, a shrink trial and `RowData.from_json` get one object per row
value, and the row holds its topologized extension, built on first use.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass, field, replace
from functools import cache, cached_property
from math import prod
from typing import Iterator

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
    FinAbGroup,
    Homomorphism,
    Interned,
    all_subgroups,
    commutes,
    compose,
    coset_reps,
    hom_from_table,
    hom_set,
    identity_hom,
    isomorphism_class_moduli,
    zero_hom,
)
from .topology import Ladder, TopAbGroup, TopHom, discrete, identity_top
from .extensions import (
    AlgExtension,
    Extension,
    FactorSet,
    Section,
    cocycle_extension,
    extension_square,
    factor_set_from_section,
    nagao_topology,
    realize_cocycle,
    section_census,
    section_for,
)
from .diagrams import (
    Law,
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


_COCYCLE_BUDGET = 10**6


def _budgeted_cosets(A: FinAbGroup, B: FinAbGroup) -> list[list]:
    """For each modulus n_j of B, the least element of each coset of n_jA in
    A, in increasing order; BudgetExceeded if the classes they span hold more
    than _COCYCLE_BUDGET tables B x B -> A."""
    cosets = [
        sorted(set(coset_reps(A, {A.scale(n, a) for a in A.elements}).values()))
        for n in B.moduli
    ]
    classes, nonzero = prod(map(len, cosets)), B.order - 1
    if classes * A.order**nonzero > _COCYCLE_BUDGET:
        raise BudgetExceeded(
            f"{classes} x {A.order}^{nonzero} cocycle tables for A = {A}, "
            f"B = {B} exceed the budget; lower --max-order"
        )
    return cosets


@cache
def _cocycles_by_class(A: FinAbGroup, B: FinAbGroup) -> tuple[tuple[FactorSet, ...], ...]:
    """The normalized symmetric cocycles B x B -> A, one tuple per class.

    Ext(Z/n_1 + ... + Z/n_k, A) = A/n_1A + ... + A/n_kA, so the class with
    residues (c_j mod n_jA) is the carry cocycle of the c_j,
    sum_j c_j * [x_j + y_j >= n_j], plus every coboundary
    dt(x, y) = t(x) + t(y) - t(x + y) over t: B -> A with t(0) = 0.  dt
    depends on t only modulo Hom(B, A), and a homomorphism sends each
    generator e_j anywhere in A[n_j] = {a : n_j * a = 0}, so t walks a
    transversal: t(e_j) runs over the least element of each coset of A[n_j]
    (a generator that is 0 is skipped) and every other t(b) over all of A.
    Each class then holds |A|^(|B|-1) / |Hom(B, A)| tables, each built once
    from the class's carry table.  That every table is a cocycle, and a new
    one, is checked by tests/test_search.py on every pair up to order 4.
    """
    cosets = _budgeted_cosets(A, B)
    nonzero = B.elements[1:]
    choices = {b: A.elements for b in nonzero}
    for e, n in zip(B.generators, B.moduli):
        if e != B.zero:
            torsion = [a for a in A.elements if A.scale(n, a) == A.zero]
            choices[e] = sorted(set(coset_reps(A, torsion).values()))
    sums_a, neg_a, sums_b = A.sums, A.negation, B.sums
    pairs = [(x, y, sums_b[x][y]) for x in B.elements for y in B.elements]
    out = []
    for coeffs in itertools.product(*cosets):
        carry = []
        for x, y, _ in pairs:
            acc = A.zero
            for j, n in enumerate(B.moduli):
                if x[j] + y[j] >= n:
                    acc = sums_a[acc][coeffs[j]]
            carry.append(acc)
        hs = []
        for imgs in itertools.product(*map(choices.__getitem__, nonzero)):
            t = dict(zip(nonzero, imgs))
            t[B.zero] = A.zero
            entries = tuple(
                (x, y, sums_a[c][sums_a[sums_a[t[x]][t[y]]][neg_a[t[xy]]]])
                for (x, y, xy), c in zip(pairs, carry)
            )
            hs.append(FactorSet(A, B, entries))
        out.append(tuple(hs))
    return tuple(out)


@cache
def all_cocycles(A: FinAbGroup, B: FinAbGroup) -> tuple[FactorSet, ...]:
    """All normalized symmetric cocycles B x B -> A, sorted by table."""
    hs = itertools.chain.from_iterable(_cocycles_by_class(A, B))
    return tuple(sorted(hs, key=lambda h: h.entries))


@cache
def cocycle_class_representatives(A: FinAbGroup, B: FinAbGroup) -> tuple[FactorSet, ...]:
    """The least table of each cohomology class, sorted by table."""
    classes = _cocycles_by_class(A, B)
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
            "family": jsonio.to_json(self.family),
            "stop_at_first": self.stop_at_first,
        }


# ---------------------------------------------------------------------------
# instances


class _Instance:
    """The encoder of the witness protocol: the instance's kind, then its
    fields, each encoded by its type."""

    def to_json(self) -> dict:
        return {"kind": _KIND_OF[type(self)], **jsonio.to_json(self)}


@dataclass(frozen=True, eq=False)
class RowData(metaclass=Interned):
    """An extension row: a cocycle over topologized ends plus a section of
    its realization, which topologizes the middle group.  It is interned, so
    it holds the one topologized extension of its value."""

    A: TopAbGroup
    B: TopAbGroup
    h: FactorSet
    s: Section

    _pool_key = staticmethod(lambda A, B, h, s: (A, B, h, s))

    @cached_property
    def alg(self) -> AlgExtension:
        return cocycle_extension(self.A, self.B, self.h)

    @cached_property
    def extension(self) -> Extension:
        """NotTopologizing, on every read, unless s topologizes."""
        return nagao_topology(self.alg, self.s)

    @staticmethod
    def from_json(data) -> "RowData":
        """The row; InvalidSection unless s is a section of its pi."""
        A, B, h = _ends_and_cocycle_from_json(data)
        alg = cocycle_extension(A, B, h)
        s = jsonio.section_from_json(B.group, alg.G, data["s"])
        return RowData(A, B, h, section_for(alg, s.table))


def _ends_and_cocycle_from_json(data) -> tuple[TopAbGroup, TopAbGroup, FactorSet]:
    """The topologized ends A, B and the cocycle h: B x B -> A of a row or a
    cocycle instance; InvalidCocycle unless h is a cocycle over A and B."""
    A = jsonio.topgroup_from_json(data["A"])
    B = jsonio.topgroup_from_json(data["B"])
    h = jsonio.cocycle_from_json(data["h"])
    cocycle_extension(A, B, h)
    return A, B, h


def gamma_lifts(
    alg1: AlgExtension,
    s1: Section,
    alg2: AlgExtension,
    alpha: Homomorphism,
    beta: Homomorphism,
) -> tuple[Section, ...]:
    """All middle maps commuting over (alpha, beta), as their lifts
    t = gamma o s1: B1 -> G2, each a `Section` table with t(0) = 0."""
    h1 = factor_set_from_section(alg1.iota, alg1.pi, s1)
    B1, G2 = alg1.B.group, alg2.G
    fibers = alg2.pi.fibers
    nonzero = [b for b in B1.elements if b != B1.zero]
    # t(b) + t(b') = t(b + b') + iota2(alpha(h1(b, b'))); both sides are
    # symmetric in (b, b') and hold when either is 0, as h1 is normalized.
    conditions = [
        (b, bp, B1.add(b, bp), alg2.iota(alpha(h1(b, bp))))
        for i, b in enumerate(nonzero)
        for bp in nonzero[i:]
    ]
    sums = G2.sums
    out = []
    for choice in itertools.product(*(fibers[beta(b)] for b in nonzero)):
        t = {B1.zero: G2.zero}
        t.update(zip(nonzero, choice))
        if all(sums[t[b]][t[bp]] == sums[t[c]][e] for b, bp, c, e in conditions):
            out.append(Section(B1, G2, tuple(t.items())))
    return tuple(out)


@cache
def _gamma_from_lift(
    h1: FactorSet,
    s1: Section,
    h2: FactorSet,
    alpha: Homomorphism,
    lift: Section,
) -> Homomorphism:
    """The middle map iota1(a) + s1(b) -> iota2(alpha(a)) + lift(b), over the
    realizations of h1 and h2.  It depends on no topology, so every instance
    and shrink trial over the same algebra shares it."""
    real1, real2 = realize_cocycle(h1), realize_cocycle(h2)
    t = lift.table
    B1 = h1.B.elements
    s1_values, t_values = [s1(b) for b in B1], [t[b] for b in B1]
    sums1, sums2 = real1.G.sums, real2.G.sums
    table = {}
    for a in h1.A.elements:
        row1, row2 = sums1[real1.iota(a)], sums2[real2.iota(alpha(a))]
        table.update(zip(map(row1.__getitem__, s1_values), map(row2.__getitem__, t_values)))
    return hom_from_table(real1.G, real2.G, table)


@dataclass(frozen=True)
class P3Instance(_Instance):
    """A commutative extension square with sections; gamma given by its lift."""

    row1: RowData
    row2: RowData
    alpha: Homomorphism
    beta: Homomorphism
    lift: Section

    def build(self) -> SquareWithSections:
        r1, r2 = self.row1, self.row2
        gamma = _gamma_from_lift(r1.h, r1.s, r2.h, self.alpha, self.lift)
        square = extension_square(r1.extension, r2.extension, self.alpha, gamma, self.beta)
        return SquareWithSections(square, r1.s, r2.s)

    @staticmethod
    def from_json(data) -> "P3Instance":
        row1 = RowData.from_json(data["row1"])
        row2 = RowData.from_json(data["row2"])
        alpha = jsonio.map_from_json(row1.A.group, row2.A.group, data["alpha"])
        beta = jsonio.map_from_json(row1.B.group, row2.B.group, data["beta"])
        lift = jsonio.section_from_json(row1.B.group, row2.s.G, data["lift"])
        return P3Instance(row1, row2, alpha, beta, lift)


@dataclass(frozen=True)
class InjSquareInstance(_Instance):
    """Four injective-candidate maps forming a commuting square."""

    A: TopAbGroup
    B: TopAbGroup
    Ap: TopAbGroup
    Bp: TopAbGroup
    f: Homomorphism
    g: Homomorphism
    alpha: Homomorphism
    beta: Homomorphism

    def build(self) -> Ladder:
        return _square(self.A, self.B, self.Ap, self.Bp, self.f, self.g, self.alpha, self.beta)

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
            jsonio.map_from_json(A.group, B.group, data["f"]),
            jsonio.map_from_json(Ap.group, Bp.group, data["g"]),
            jsonio.map_from_json(A.group, Ap.group, data["alpha"]),
            jsonio.map_from_json(B.group, Bp.group, data["beta"]),
        )


def _square(A, B, Ap, Bp, f, g, alpha, beta) -> Ladder:
    """f: A -> B over g: Ap -> Bp with verticals alpha, beta, as a Ladder."""
    return Ladder(
        (TopHom(f, A, B),), (TopHom(g, Ap, Bp),), (TopHom(alpha, A, Ap), TopHom(beta, B, Bp))
    )


@dataclass(frozen=True)
class ExtensionInstance(_Instance):
    """A topological extension presented as a row with a section."""

    row: RowData

    def build(self) -> Extension:
        return self.row.extension

    @staticmethod
    def from_json(data) -> "ExtensionInstance":
        return ExtensionInstance(RowData.from_json(data["row"]))


@dataclass(frozen=True)
class CocycleInstance(_Instance):
    """A cocycle over topologized ends; section-level facts are quantified."""

    A: TopAbGroup
    B: TopAbGroup
    h: FactorSet

    def build(self) -> AlgExtension:
        return cocycle_extension(self.A, self.B, self.h)

    @staticmethod
    def from_json(data) -> "CocycleInstance":
        return CocycleInstance(*_ends_and_cocycle_from_json(data))


@cache
def _trivial_top() -> TopAbGroup:
    """The trivial group, built on first use so that importing builds no
    arithmetic table."""
    return discrete(FinAbGroup(()))


def _to_zero(T: TopAbGroup) -> TopHom:
    z = _trivial_top()
    return TopHom(zero_hom(T.group, z.group), T, z)


@cache
def _zero_padded_row(e: Extension) -> tuple[TopHom, ...]:
    """0 -> A -> G -> B -> 0 as a five-term row, one per extension."""
    z = _trivial_top()
    return (TopHom(zero_hom(z.group, e.A.group), z, e.A), e.iota, e.pi, _to_zero(e.B))


@cache
def _glued_row(e: Extension, ec: Extension) -> tuple[TopHom, ...]:
    """A -> G -> Gc -> C -> 0 for an extension ec of the quotient of e, one
    per pair."""
    if ec.A != e.B:
        raise DiagramError("chain must extend the base row's quotient")
    return (
        e.iota,
        TopHom(compose(ec.alg.iota, e.alg.pi), e.G, ec.G),
        ec.pi,
        _to_zero(ec.B),
    )


@dataclass(frozen=True)
class FiveLemmaInstance(_Instance):
    """A five-term square built from extensions by zero-padding or gluing."""

    shape: str  # "zero_pad" or "glued"
    row1: RowData
    row2: RowData
    chain1: RowData | None  # glued: second extension over row's B (both sides equal)
    v_a: Homomorphism
    v_b: Homomorphism
    lift: Section

    def build(self) -> Ladder:
        z = identity_top(_trivial_top())
        if self.shape == "zero_pad":
            r1, r2 = self.row1, self.row2
            e1, e2 = r1.extension, r2.extension
            gamma = _gamma_from_lift(r1.h, r1.s, r2.h, self.v_a, self.lift)
            v_a, v_b = TopHom(self.v_a, e1.A, e2.A), TopHom(self.v_b, e1.B, e2.B)
            verts = (z, v_a, TopHom(gamma, e1.G, e2.G), v_b, z)
            return Ladder(_zero_padded_row(e1), _zero_padded_row(e2), verts)
        # glued: both 5-term rows come from the same chain E, E'; the middle
        # vertical is a lift over E' with identity outer maps.
        e, c = self.row1.extension, self.chain1
        ec = c.extension
        gamma_p = _gamma_from_lift(c.h, c.s, c.h, identity_hom(c.h.A), self.lift)
        verts = (identity_top(e.A), identity_top(e.G), TopHom(gamma_p, ec.G, ec.G))
        row = _glued_row(e, ec)
        return Ladder(row, row, verts + (identity_top(ec.B), z))

    @staticmethod
    def from_json(data) -> "FiveLemmaInstance":
        shape, chain = data["shape"], data.get("chain1")
        if shape not in ("zero_pad", "glued"):
            raise ValueError(f"unknown shape {shape!r}")
        if shape == "glued" and not chain:
            raise ValueError("a glued five-term square needs chain1")
        if shape == "zero_pad" and chain:
            raise ValueError("a zero_pad five-term square has no chain1")
        row1 = RowData.from_json(data["row1"])
        row2 = RowData.from_json(data["row2"])
        chain1 = RowData.from_json(chain) if chain else None
        v_a = jsonio.map_from_json(row1.A.group, row2.A.group, data["v_a"])
        v_b = jsonio.map_from_json(row1.B.group, row2.B.group, data["v_b"])
        if shape == "glued" and (
            row2 != row1
            or v_a is not identity_hom(row1.A.group)
            or v_b is not identity_hom(row1.B.group)
        ):
            raise ValueError("a glued five-term square has row2 = row1 and identity v_a, v_b")
        # the lift maps the quotient of row1 (glued: of chain1) into the
        # middle group of row2 (glued: of chain1)
        source, target = (chain1 or row1).B.group, (chain1 or row2).s.G
        lift = jsonio.section_from_json(source, target, data["lift"])
        return FiveLemmaInstance(shape, row1, row2, chain1, v_a, v_b, lift)


def _zero_pad(r1, r2, v_a, v_b, lift) -> FiveLemmaInstance:
    return FiveLemmaInstance("zero_pad", r1, r2, None, v_a, v_b, lift)


_INSTANCE_KINDS = {
    "square_with_sections": P3Instance,
    "injective_square": InjSquareInstance,
    "extension": ExtensionInstance,
    "cocycle": CocycleInstance,
    "five_lemma": FiveLemmaInstance,
}
_KIND_OF = {cls: kind for kind, cls in _INSTANCE_KINDS.items()}


def instance_from_json(data):
    kind = data["kind"]
    if kind not in _INSTANCE_KINDS:
        raise ValueError(f"unknown instance kind {kind!r}")
    return _INSTANCE_KINDS[kind].from_json(data)


# ---------------------------------------------------------------------------
# family builders


def _cocycle_triples(spec: FamilySpec, max_order: int, reps: bool):
    """Every (A, B, h) over topologized groups of order <= max_order, h a
    cocycle (a class representative if reps), at most max_cocycle_count per
    pair of groups.  Every pair of groups is checked against the budget
    before any table is built."""
    groups = all_groups_up_to_order(max_order)
    for A in groups:
        for B in groups:
            _budgeted_cosets(A, B)
    tops = topologized_groups(max_order)
    for A_top in tops:
        for B_top in tops:
            A, B = A_top.group, B_top.group
            hs = cocycle_class_representatives(A, B) if reps else all_cocycles(A, B)
            for h in _cap(hs, spec.max_cocycle_count):
                yield A_top, B_top, h


def _row_pool(spec: FamilySpec, max_order: int) -> list[RowData]:
    return [
        RowData(A_top, B_top, h, s)
        for A_top, B_top, h in _cocycle_triples(spec, max_order, reps=False)
        for s in section_census(cocycle_extension(A_top, B_top, h)).sections()
    ]


def _diagonal_rows(spec: FamilySpec):
    """Each class representative row with its section census; the row's own
    section is the census's first."""
    for A_top, B_top, h in _cocycle_triples(spec, spec.max_group_order, reps=True):
        census = section_census(cocycle_extension(A_top, B_top, h))
        if census.section_count:
            yield RowData(A_top, B_top, h, census.section(0)), census


# A square of extension rows is (row1, row2, alpha, beta, lift): verticals
# alpha on the kernels and beta on the quotients, and the middle map given by
# its lift t = gamma o s1 (see gamma_lifts).  The square families share these
# two strata.


def _small_squares(spec: FamilySpec):
    """Every square of extension rows over groups of order <= 2."""
    rows = _row_pool(spec, min(2, spec.max_group_order))
    for r1 in rows:
        for r2 in rows:
            for alpha in hom_set(r1.A.group, r2.A.group):
                for beta in hom_set(r1.B.group, r2.B.group):
                    for lift in gamma_lifts(r1.alg, r1.s, r2.alg, alpha, beta):
                        yield r1, r2, alpha, beta, lift


def _sampled_squares(spec: FamilySpec):
    """A seeded sample of squares of extension rows up to the order bound.

    Each row's section is drawn by its index among the topologizing sections
    of its extension, and only the drawn section is built."""
    rng = random.Random(spec.seed)
    tops = topologized_groups(spec.max_group_order)
    # the lifts of one algebraic square are listed once
    lifts_of = {}
    made, attempts = 0, 0
    while made < spec.sample_count and attempts < 40 * spec.sample_count:
        attempts += 1
        a1, b1 = rng.choice(tops), rng.choice(tops)
        a2, b2 = rng.choice(tops), rng.choice(tops)
        h1 = rng.choice(all_cocycles(a1.group, b1.group))
        h2 = rng.choice(all_cocycles(a2.group, b2.group))
        alg1, alg2 = cocycle_extension(a1, b1, h1), cocycle_extension(a2, b2, h2)
        c1, c2 = section_census(alg1), section_census(alg2)
        if not c1.section_count or not c2.section_count:
            continue
        s1 = c1.section(rng.randrange(c1.section_count))
        s2 = c2.section(rng.randrange(c2.section_count))
        alpha = rng.choice(hom_set(a1.group, a2.group))
        beta = rng.choice(hom_set(b1.group, b2.group))
        key = (alg1, s1, alg2, alpha, beta)
        lifts = lifts_of.get(key)
        if lifts is None:
            lifts = lifts_of[key] = gamma_lifts(*key)
        if not lifts:
            continue
        lift = lifts[rng.randrange(len(lifts))]
        yield RowData(a1, b1, h1, s1), RowData(a2, b2, h2, s2), alpha, beta, lift
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
    for r1, census in _diagonal_rows(spec):
        ida, idb = identity_hom(r1.A.group), identity_hom(r1.B.group)
        for s2 in census.sections():
            yield P3Instance(r1, RowData(r1.A, r1.B, r1.h, s2), ida, idb, r1.s)


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
            for f in hom_set(A.group, B.group):
                for Ap in tops:
                    for Bp in tops:
                        for g in hom_set(Ap.group, Bp.group):
                            for alpha in hom_set(A.group, Ap.group):
                                for beta in hom_set(B.group, Bp.group):
                                    if commutes(f, g, alpha, beta):
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
        f = rng.choice(hom_set(A.group, B.group))
        g = rng.choice(hom_set(Ap.group, Bp.group))
        alpha = rng.choice(hom_set(A.group, Ap.group))
        betas = [b for b in hom_set(B.group, Bp.group) if commutes(f, g, alpha, b)]
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
    """For each cocycle, the first topologizing section with each Nagao core.

    Distinct splittings have distinct cores (a core meets the fiber over b
    in the splitting's coset), the census lists the splittings in the order
    in which the sections first meet them, and each is the least
    restriction to N_B of its sections: so the first section with each core
    is the first section of each splitting."""
    for A_top, B_top, h in _cocycle_triples(spec, spec.max_group_order, reps=False):
        census = section_census(cocycle_extension(A_top, B_top, h))
        for r in census.splittings:
            yield ExtensionInstance(RowData(A_top, B_top, h, census.first_section(r)))


@cache
def extension_family(spec: FamilySpec) -> list[tuple[str, object]]:
    """Every topological extension up to the bound, deduplicated by core."""
    return _strata(spec, extensions=_extensions)


@cache
def cocycle_family(spec: FamilySpec):
    def cocycles(spec):
        for A_top, B_top, h in _cocycle_triples(spec, spec.max_group_order, reps=False):
            yield CocycleInstance(A_top, B_top, h)

    return _strata(spec, cocycles=cocycles)


def _zero_pad_diagonal(spec: FamilySpec):
    for r, _ in _diagonal_rows(spec):
        ida, idb = identity_hom(r.A.group), identity_hom(r.B.group)
        for lift in gamma_lifts(r.alg, r.s, r.alg, ida, idb):
            yield _zero_pad(r, r, ida, idb, lift)


def _glued_small(spec: FamilySpec):
    """Each small row glued to every small row over its quotient: the chains
    are the pool's rows whose kernel is the base row's quotient, so they
    keep the pool's order and its cap on cocycles per pair."""
    rows = _row_pool(spec, min(2, spec.max_group_order))
    for base in rows:
        ida, idb = identity_hom(base.A.group), identity_hom(base.B.group)
        for chain in rows:
            if chain.A is base.B:
                idc = identity_hom(chain.B.group)
                for lift in gamma_lifts(chain.alg, chain.s, chain.alg, idb, idc):
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
    """A theorem: its law, whose hypothesis names are its droppable
    hypotheses, its family, and the runner's call of the law,
    evaluate(instance.build(), dropped), which returns None for a filtered
    instance; a benchmark may wrap it."""

    law: Law
    build_family: object
    evaluate: object


THEOREMS: dict[str, TheoremSpec] = {}


def _register(law, family):
    THEOREMS[law.theorem_id] = TheoremSpec(law, family, law)


_register(verify_p3_generalized, p3_family)
_register(verify_open_fibers, p3_family)
_register(verify_p3_discrete, p3_family)
_register(verify_five_lemma_nagao, p3_family)
_register(verify_lemma_strictness_injectivity, inj_family)
_register(verify_haus_exactness, extension_family)
_register(verify_topological_five_lemma, five_lemma_family)
_register(verify_topological_five_lemma_relaxed, five_lemma_family)
_register(verify_nagao_comparison, cocycle_family)
_register(verify_choice_discrete, cocycle_family)
_register(verify_topologizable, cocycle_family)


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
        return RowData(TopAbGroup(r.A.group, a_core), TopAbGroup(r.B.group, b_core), r.h, r.s)

    if isinstance(inst, P3Instance):
        return replace(
            inst, row1=row(inst.row1, *cores[:2]), row2=row(inst.row2, *cores[2:])
        )
    return replace(inst, row=row(inst.row, *cores))


def shrink_witness(inst, rep, evaluate, dropped):
    """Greedily shrink open cores while the conclusion failure persists.
    rep is the failing report of inst; returns the instance kept and its
    failing report."""
    if _instance_cores(inst) is None:
        return inst, rep
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
                trial_rep = evaluate(built, dropped)
                if trial_rep is not None and not trial_rep.conclusion_checked:
                    current, rep = trial, trial_rep
                    improved = True
                    break
            if improved:
                break
    return current, rep


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

    def lines(self) -> Iterator[str]:
        """The JSONL report, one line at a time: each failure, its witness
        encoded as the line is yielded, then the summary."""
        for r in self.failures:
            yield jsonio.dumps({"type": "failure", **r.to_json()}) + "\n"
        yield jsonio.dumps(self.summary_json()) + "\n"

    def to_jsonl(self) -> str:
        return "".join(self.lines())

    def to_markdown(self) -> str:
        broken = [[n for n, ok in r.details if not ok] for r in self.failures]
        notes = self.failures[0].model_collapse if self.failures else ()
        return markdown_report(self.summary_json(), broken, notes)


def markdown_report(summary: dict, broken: list[list[str]], notes) -> str:
    """The Markdown of a run: its summary record, the names of the broken
    conclusions of each failure, in order, and the model-collapse notes of
    the first failure.  KeyError or TypeError if the summary lacks a field."""
    task = summary["task"]
    head = [
        f"# {task['theorem']}",
        "",
        f"- dropped hypotheses: {', '.join(task['dropped_hypotheses']) or 'none'}",
        f"- family: max order {task['family']['max_group_order']},"
        f" seed {task['family']['seed']}",
        f"- instances evaluated: {summary['evaluated']}"
        f" (hypothesis-filtered: {summary['filtered']})",
        f"- conclusion failures: {summary['failures']}",
        "",
        "| stratum | generated |",
        "|---|---|",
    ]
    strata = summary["strata"]
    for name in sorted(strata):
        head.append(f"| {name} | {strata[name]} |")
    if broken:
        head += ["", "## failures", ""]
        for i, bad in enumerate(broken):
            head.append(f"- failure {i}: broken conclusions: {', '.join(bad)}")
        head += ["", "## model-collapse notes", ""]
        head += [f"- {note}" for note in notes]
    return "\n".join(head) + "\n"


def _check_task(task: SearchTask) -> TheoremSpec:
    if task.theorem_id not in THEOREMS:
        raise UnknownTheorem(f"unknown theorem {task.theorem_id!r}")
    info = THEOREMS[task.theorem_id]
    for h in task.dropped_hypotheses:
        if h not in info.law.droppable:
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
        if rep is None:
            filtered += 1
            continue
        evaluated += 1
        if not rep.conclusion_checked:
            small, rep = shrink_witness(inst, rep, info.evaluate, dropped)
            rep.instance = small
            failures.append(rep)
            if task.stop_at_first:
                break
    return RunResult(task, strata_counts, evaluated, filtered, failures)


def replay_witness(
    theorem_id: str, witness_json: dict, dropped=()
) -> VerificationReport | None:
    """Re-run a reported witness through the law in isolation; None if it no
    longer meets a hypothesis that is not dropped."""
    info = _check_task(SearchTask(theorem_id, tuple(dropped)))
    inst = instance_from_json(witness_json)
    return info.law(inst.build(), frozenset(dropped))
