"""Reference implementations that tests compare topab's results against.

Each oracle computes from a literal definition, not from the formula the
program uses: a topology is its set of open sets, continuity is "preimages
of open sets are open", the double dual is built character by character.
They are exponential or cubic and meant for small instances only.
"""

import itertools
from dataclasses import dataclass
from fractions import Fraction
from functools import cache, cached_property
from math import prod

from topab.diagrams import VerificationReport, first_disagreeing_pair
from topab.duality import _rescale, dual_group, dual_hom
from topab.errors import InvalidCocycle, InvalidSection, NotContinuous, NotTopologizing
from topab.extensions import (
    AlgExtension,
    FactorSet,
    Section,
    comparison_map,
    enumerate_sections,
    factor_set_from_section,
    is_topologizing,
    nagao_core,
    section_for,
    sigma,
)
from topab.groups import (
    Element,
    FinAbGroup,
    Homomorphism,
    all_subgroups,
    compose,
    coset_reps,
    hom_from_table,
    subgroup,
)
from topab.topology import Ladder, TopAbGroup, TopHom, separation

from builders import reduce_into


# ---------------------------------------------------------------------------
# groups


def _prime_factors(n: int) -> dict[int, int]:
    out, p = {}, 2
    while n > 1:
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
        p += 1
    return out


def invariant_factors(moduli) -> tuple[int, ...]:
    """Invariant factors d1 | d2 | ... | dr (ascending) of a cyclic decomposition."""
    per_prime: dict[int, list[int]] = {}
    for m in moduli:
        for p, e in _prime_factors(m).items():
            per_prime.setdefault(p, []).append(p**e)
    # the t-th largest factor is the product of the t-th largest p-powers
    powers = [sorted(qs, reverse=True) for qs in per_prime.values()]
    r = max(map(len, powers), default=0)
    return tuple(prod(qs[t] for qs in powers if t < len(qs)) for t in reversed(range(r)))


def homs_by_brute_force(source: FinAbGroup, target: FinAbGroup) -> list[Homomorphism]:
    """Every homomorphism source -> target, in the product order of the
    generator images y: each y with m_i * y_i = 0 for the moduli m_i of
    source, built by hom_from_table from the table x -> sum_i x_i * y_i
    computed in coordinates."""
    out = []
    for ys in itertools.product(target.elements, repeat=source.rank):
        killed = all(
            m * c % n == 0 for m, y in zip(source.moduli, ys) for c, n in zip(y, target.moduli)
        )
        if killed:
            table = {
                x: reduce_into(
                    target, [sum(a * y[j] for a, y in zip(x, ys)) for j in range(target.rank)]
                )
                for x in source.elements
            }
            out.append(hom_from_table(source, target, table))
    return out


def commutes_by_compose(
    f: Homomorphism, g: Homomorphism, alpha: Homomorphism, beta: Homomorphism
) -> bool:
    """beta o f == g o alpha, as the tables of the two composite
    homomorphisms; compose checks that the endpoints line up."""
    return compose(beta, f).table == compose(g, alpha).table


# ---------------------------------------------------------------------------
# topology


def cosets_of_core(T: TopAbGroup) -> tuple[frozenset[Element], ...]:
    """The cosets of the open core, in the order of their least elements."""
    G, N = T.group, T.open_core
    reps = sorted(set(coset_reps(G, N).values()))
    return tuple(frozenset(G.add(x, n) for n in N) for x in reps)


def open_sets(T: TopAbGroup) -> tuple[frozenset[Element], ...]:
    """The whole topology: all unions of cosets of the open core.

    Exponential in the coset count; meant for oracle work at small scale.
    """
    cosets = cosets_of_core(T)
    k = len(cosets)
    if k > 20:
        raise ValueError(f"refusing to enumerate 2^{k} open sets")
    out = []
    for mask in range(1 << k):
        u: frozenset[Element] = frozenset()
        for i in range(k):
            if mask >> i & 1:
                u |= cosets[i]
        out.append(u)
    return tuple(out)


@cache
def _open_family(T: TopAbGroup) -> frozenset[frozenset[Element]]:
    return frozenset(open_sets(T))


def is_continuous_oracle(f: TopHom) -> bool:
    """Literal check: the preimage of every open set is open."""
    opens_src = _open_family(f.source)
    table = f.map.table
    for u in _open_family(f.target):
        pre = frozenset(x for x in f.source.group.elements if table[x] in u)
        if pre not in opens_src:
            return False
    return True


def is_strict_oracle(f: TopHom) -> bool:
    """Literal check: the image of every open set is open in the image."""
    if not is_continuous_oracle(f):
        raise NotContinuous("strictness is a property of continuous homomorphisms")
    img = f.map.image.element_set
    relative_opens = frozenset(u & img for u in _open_family(f.target))
    table = f.map.table
    for u in _open_family(f.source):
        if frozenset(table[x] for x in u) not in relative_opens:
            return False
    return True


def closure_of_zero(T: TopAbGroup):
    """Computed from the closed sets; must equal the open core."""
    closed = [frozenset(T.group.elements) - u for u in open_sets(T)]
    out = frozenset(T.group.elements)
    for c in closed:
        if T.group.zero in c:
            out &= c
    return subgroup(T.group, out)


def has_property_p(T: TopAbGroup) -> bool:
    """All (finite-index, i.e. all) subgroups are open: N lies in each of them."""
    core = T.core_set
    return all(core <= S.element_set for S in all_subgroups(T.group))


def is_strict_exact_oracle(groups, maps) -> bool:
    """A five-term row groups[0] -> ... -> groups[4] along maps[0..3] is
    strict exact: im maps[i] = ker maps[i + 1] as element sets read off the
    tables, and each map continuous and strict by the open-set checks."""
    for f, g in zip(maps, maps[1:]):
        image = {f.table[x] for x in f.source.elements}
        kernel = {x for x in g.source.elements if g.table[x] == g.target.zero}
        if image != kernel:
            return False
    for i, f in enumerate(maps):
        th = TopHom(f, groups[i], groups[i + 1])
        if not is_continuous_oracle(th) or not is_strict_oracle(th):
            return False
    return True


# ---------------------------------------------------------------------------
# extensions


def violations_by_triple_loop(h: FactorSet) -> tuple[str, ...]:
    """The normalization, symmetry and cocycle-identity failures of h,
    written with h(...), A.add and B.add, in the messages and order of
    `extensions.cocycle_violations`."""
    A, B = h.A, h.B
    out = []
    for b in B.elements:
        if h(b, B.zero) != A.zero or h(B.zero, b) != A.zero:
            out.append(f"normalization fails at {b}")
    for b in B.elements:
        for bp in B.elements:
            if h(b, bp) != h(bp, b):
                out.append(f"symmetry fails at ({b}, {bp})")
    for b in B.elements:
        for bp in B.elements:
            for bpp in B.elements:
                lhs = A.add(h(b, bp), h(B.add(b, bp), bpp))
                rhs = A.add(h(bp, bpp), h(b, B.add(bp, bpp)))
                if lhs != rhs:
                    out.append(f"cocycle identity fails at ({b}, {bp}, {bpp})")
    return tuple(out)


@dataclass(frozen=True)
class TwistedGroup:
    """A x B under (a, b) + (a', b') = (a + a' + h(b, b'), b + b'), summed
    with A.add, h and B.add; InvalidCocycle unless the triple loop finds h
    a cocycle."""

    h: FactorSet

    def __post_init__(self):
        if bad := violations_by_triple_loop(self.h):
            raise InvalidCocycle(bad[0])

    @property
    def A(self) -> FinAbGroup:
        return self.h.A

    @property
    def B(self) -> FinAbGroup:
        return self.h.B

    @cached_property
    def elements(self) -> tuple:
        return tuple(itertools.product(self.A.elements, self.B.elements))

    @property
    def zero(self):
        return (self.A.zero, self.B.zero)

    def add(self, x, y):
        (a, b), (ap, bp) = x, y
        return (self.A.add(self.A.add(a, ap), self.h(b, bp)), self.B.add(b, bp))


def check_group_laws(tw: TwistedGroup) -> None:
    """Identity, inverses, commutativity and associativity of a twisted sum."""
    els = tw.elements
    for x in els:
        assert tw.add(tw.zero, x) == x
        assert any(tw.add(x, y) == tw.zero for y in els)
        for y in els:
            assert tw.add(x, y) == tw.add(y, x)
            for z in els:
                assert tw.add(tw.add(x, y), z) == tw.add(x, tw.add(y, z))


@dataclass(frozen=True)
class ThetaIso:
    """The chart (A x B, +_h_s) -> G, (a, b) -> iota(a) + s(b)."""

    twisted: TwistedGroup
    mapping: dict  # (a, b) -> element of G

    @cached_property
    def inverse(self) -> dict:
        return {g: p for p, g in self.mapping.items()}

    def __call__(self, p):
        return self.mapping[p]


@cache
def theta(alg: AlgExtension, s: Section) -> ThetaIso:
    """The chart of a section, asserted bijective."""
    h = factor_set_from_section(alg.iota, alg.pi, s)
    G = alg.G
    mapping = {
        (a, b): G.add(alg.iota(a), s(b))
        for a in alg.A.group.elements
        for b in alg.B.group.elements
    }
    assert len(set(mapping.values())) == G.order, "theta must be bijective"
    return ThetaIso(TwistedGroup(h), mapping)


@cache
def checked_theta(alg: AlgExtension, s: Section) -> ThetaIso:
    """theta(alg, s), asserted additive on every pair of (A x B, +_h_s);
    cached like theta, so each extension and section is checked once."""
    th = theta(alg, s)
    tw, G, mapping = th.twisted, alg.G, th.mapping
    for x in tw.elements:
        for y in tw.elements:
            assert mapping[tw.add(x, y)] == G.add(mapping[x], mapping[y])
    return th


def row_alg(iota: TopHom, pi: TopHom) -> AlgExtension:
    """The algebraic extension of a row (iota, pi) of an extension square."""
    return AlgExtension(iota.source, iota.target.group, pi.target, iota.map, pi.map)


def psi_maps(square: Ladder, s1: Section, s2: Section):
    """The coordinate transports psi, psi1, psi2 of an extension square
    (`extensions.extension_square`) with sections.

    psi is gamma read through the two theta charts; psi1(a,b) = (alpha(a), 0);
    psi2(a,b) = (sigma(b), beta(b)).  psi = psi1 + psi2 follows from
    commutativity alone, and is asserted pointwise.
    """
    th1 = theta(row_alg(*square.top), s1)
    th2 = theta(row_alg(*square.bottom), s2)
    sg = sigma(square, s1, s2)
    alpha, gamma, beta = square.verticals
    tw2 = th2.twisted
    psi, psi1, psi2 = {}, {}, {}
    for p in th1.twisted.elements:
        a, b = p
        psi[p] = th2.inverse[gamma(th1(p))]
        psi1[p] = (alpha(a), tw2.B.zero)
        psi2[p] = (sg[b], beta(b))
        assert psi[p] == tw2.add(psi1[p], psi2[p]), "psi decomposition fails"
    return psi, psi1, psi2


def gamma_by_definition(
    alg1: AlgExtension,
    s1: dict[Element, Element],
    alg2: AlgExtension,
    alpha: Homomorphism,
    lift: dict[Element, Element],
) -> dict[Element, Element]:
    """The middle map of a square as a table: iota1(a) + s1(b) goes to
    iota2(alpha(a)) + lift(b), for every a in A1 and b in B1; asserted to be
    defined on all of G1 and single-valued."""
    G1, G2 = alg1.G, alg2.G
    table = {}
    for a in alg1.A.group.elements:
        for b in alg1.B.group.elements:
            g = G1.add(alg1.iota(a), s1[b])
            assert g not in table, "iota1(a) + s1(b) must be injective"
            table[g] = G2.add(alg2.iota(alpha(a)), lift[b])
    assert len(table) == G1.order
    return table


def same_topology(alg: AlgExtension, s1: Section, s2: Section) -> bool:
    """Do two topologizing sections induce the same topology on G?

    Computed two ways (core equality, and continuity at 0 of the comparison
    map); the two criteria provably agree here and that agreement is asserted.
    """
    for s in (s1, s2):
        h = factor_set_from_section(alg.iota, alg.pi, s)
        if not is_topologizing(alg.A, alg.B, h):
            raise NotTopologizing("both sections must be topologizing")
    by_cores = nagao_core(alg, s1).element_set == nagao_core(alg, s2).element_set
    f = comparison_map(alg, s1, s2)
    core_a = alg.A.core_set
    by_comparison = all(f[b] in core_a for b in alg.B.open_core)
    assert by_cores == by_comparison, "comparison criteria disagree"
    return by_cores


# ---------------------------------------------------------------------------
# the section census and the cocycle laws, section by section


def topologizing_sections_by_filter(alg: AlgExtension) -> tuple[Section, ...]:
    """Every section whose cocycle h_s(b, b') = iota^{-1}(s(b) + s(b') - s(b + b'))
    maps N_B x N_B into N_A, in enumeration order, tested section by section
    on N_B x N_B alone (the rest of h_s does not decide continuity at 0)."""
    G, B, core_b, core_a = alg.G, alg.B.group, alg.B.open_core, alg.A.core_set

    def topologizes(s: Section) -> bool:
        return all(
            alg.pull_back(G.sub(G.add(s(b), s(c)), s(B.add(b, c)))) in core_a
            for b in core_b
            for c in core_b
        )

    return tuple(filter(topologizes, enumerate_sections(alg)))


def core_by_definition(alg: AlgExtension, s: Section) -> frozenset[Element]:
    """{iota(a) + s(b) : a in N_A, b in N_B}, built for the one section."""
    G = alg.G
    return frozenset(
        G.add(alg.iota(a), s(b)) for a in alg.A.open_core for b in alg.B.open_core
    )


def comparison_key(alg: AlgExtension, s: Section, base: Section) -> tuple[Element, ...]:
    """Over b in N_B, the least element of iota^{-1}(s(b) - base(b)) + N_A."""
    gs = [alg.pull_back(alg.G.sub(s(b), base(b))) for b in alg.B.open_core]
    return tuple(min(alg.A.group.add(g, n) for n in alg.A.open_core) for g in gs)


def law_report(theorem_id: str, hyps, conclude, dropped) -> VerificationReport | None:
    """A law's report from the values of its hypotheses and its conclusion
    clauses, `conclude()`; None if a hypothesis not in dropped is unmet."""
    if any(not ok and n not in dropped for n, ok in hyps):
        return None
    details = tuple(conclude())
    return VerificationReport(theorem_id, hyps, all(ok for _, ok in details), details)


def cocycle_law_by_section(theorem_id: str, alg: AlgExtension, secs, cores, keys, dropped):
    """The report of `nagao_comparison`, `choice_discrete` or `topologizable`
    on alg (None if filtered), from secs, its topologizing sections, one
    section at a time:
    cores[i] is core_by_definition(alg, secs[i]) and keys[i] is
    comparison_key(alg, secs[i], secs[0]), both computed once per extension
    by the caller."""
    if theorem_id == "nagao_comparison":
        hyps = (("has_topologizing_sections", bool(secs)),)

        def conclude():
            pair = first_disagreeing_pair(cores, keys)
            bad = () if pair is None else (("disagreeing_pair_%d_%d" % pair, False),)
            return (("criteria_agree_on_all_pairs", pair is None),) + bad

    elif theorem_id == "choice_discrete":
        hyps = (("b_discrete", alg.B.open_core.order == 1),)

        def conclude():
            return (("unique_core_across_sections", len(set(cores)) <= 1),)

    else:
        assert theorem_id == "topologizable"
        hyps = ()

        def conclude():
            return (("topologizing_section_exists", bool(secs)),)

    return law_report(theorem_id, hyps, conclude, dropped)


def first_section_per_core(alg: AlgExtension, secs) -> list[Section]:
    """In the order of secs, the first section with each Nagao core."""
    seen, out = set(), []
    for s in secs:
        core = core_by_definition(alg, s)
        if core not in seen:
            seen.add(core)
            out.append(s)
    return out


def compatible_section_via_eta(
    square: Ladder, s1: Section, eta: Section | None = None
) -> Section:
    """The candidate section s2 = gamma o s1 o eta for surjective beta.

    eta is a set-theoretic section of beta with eta(0) = 0 (least preimages
    when omitted).  The result is always a section of pi2; whether it is
    compatible with s1 must be checked by the caller.
    """
    a1, a2 = row_alg(*square.top), row_alg(*square.bottom)
    gamma, beta = square.verticals[1].map, square.verticals[2].map
    if not beta.is_surjective():
        raise InvalidSection("the construction needs beta surjective")
    if eta is None:
        entries = tuple((b2, b1s[0]) for b2, b1s in beta.fibers.items())
        eta = Section(a2.B.group, a1.B.group, entries)
    else:
        if eta.B != a2.B.group or eta.G != a1.B.group:
            raise InvalidSection("eta must be a section table B2 -> B1")
        for b2 in a2.B.group.elements:
            if beta(eta(b2)) != b2:
                raise InvalidSection("eta is not a section of beta")
    mapping2 = {b2: gamma(s1(eta(b2))) for b2 in a2.B.group.elements}
    return section_for(a2, mapping2)


# ---------------------------------------------------------------------------
# duality


def evaluation(T: TopAbGroup) -> TopHom:
    """g -> (chi -> chi(g)), from T into its double dual."""
    d = dual_group(T)
    dd = dual_group(d.as_top)
    e_d = d.structure.exponent
    e_g = T.group.exponent
    table = {}
    for g in T.group.elements:
        vals = tuple(
            (_rescale(d.elem_to_char[x](g)[0], e_g, e_d),)
            for x in d.structure.generators
        )
        table[g] = dd.elem_of_values[vals]
    return TopHom(hom_from_table(T.group, dd.structure, table), T, dd.as_top)


def pull_back(chi: Homomorphism, f: Homomorphism) -> Homomorphism:
    """chi o f as a character of the source of f, a map into Z/exponent(source):
    on each generator g, the fraction chi(f(g)) / exponent(target), written
    over exponent(source)."""
    e = f.source.exponent
    vals = []
    for g in f.source.generators:
        (v,) = chi(f(g))
        v = Fraction(v, chi.target.order) * e
        assert v.denominator == 1, "chi o f does not live over the source exponent"
        vals.append((int(v),))
    return Homomorphism(f.source, FinAbGroup((e,)), tuple(vals))


def separation_dual_iso(T: TopAbGroup) -> Homomorphism:
    """(G_Haus)* -> G*, the dual of the separation projection; an isomorphism."""
    _, q = separation(T)
    return dual_hom(q)
