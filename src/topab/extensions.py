"""Group extensions via factor sets, sections, and section-induced topologies.

An algebraic extension 0 -> A -> G -> B -> 0 is encoded by a normalized
symmetric 2-cocycle h: B x B -> A.  A set-theoretic section s of the
projection recovers such a cocycle, the cocycle twists A x B into a group
isomorphic to G, and when the cocycle maps N_B x N_B into N_A the section
induces a group topology on G (open core = theta_s(N_A x N_B)) making the
sequence a topological extension.

The factor set of a section is algebra alone: `factor_set_from_section` is
keyed by iota, pi and the section, so every choice of open cores on A and B
over one realization shares it.  A section topologizes exactly when its
restriction to N_B, taken mod iota(N_A), is a homomorphic splitting over
N_B, and the topology it induces depends only on that splitting, so
`section_census` lists the topologizing sections of an extension by their
splittings, found in closed form from the generators of N_B; it is their
one source, and builds and keeps each by its index.
A row of a square is its algebra and its section: `realize_cocycle` checks
each cocycle and realizes it once, by the one twisted sum on A x B, which
it owns; `cocycle_extension` makes it an algebraic extension over
topologized ends once, and `nagao_topology` topologizes an (extension,
section) pair as the `Extension` of the algebra and its Nagao topology.
An extension square is the two-square `topology.Ladder` of
`extension_square`: the rows' iota and pi over each other, joined by alpha,
gamma and beta.
`FactorSet`, `AlgExtension`, `Section` and `Extension` are interned
(`groups.Interned`), so each cocycle and (algebraic or topological)
extension is checked once while it lives, and these caches meet each value
as one object and hash it by identity.  An `Extension` is its `alg` and
the topology G on alg's middle group: sections with one Nagao core, and
cocycles with one realization, share it.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from functools import cache, cached_property, reduce
from typing import Iterator

from .errors import (
    InvalidCocycle,
    InvalidSection,
    NotAnExtension,
    NotTopologizing,
    ValueOutsideIotaImage,
)
from .groups import (
    Element,
    FinAbGroup,
    Homomorphism,
    Interned,
    Subgroup,
    compose,
    corestricted,
    coset_reps,
    exactness_failure,
    group_structure,
    hom_from_table,
    induced,
    quotient,
    subgroup,
    subgroup_as_group,
)
from .topology import Ladder, TopAbGroup, TopHom, separation, strictness_failure

# the pair (a, b) with a in A, b in B
Pair = tuple[Element, Element]


@dataclass(frozen=True, eq=False)
class FactorSet(metaclass=Interned):
    """A normalized symmetric 2-cocycle h: B x B -> A, stored as a full table."""

    A: FinAbGroup
    B: FinAbGroup
    entries: tuple[tuple[Element, Element, Element], ...]

    # sorted, not a set, so that a repeated pair still raises InvalidCocycle
    _pool_key = staticmethod(lambda A, B, entries: (A, B, tuple(sorted(entries))))

    def __post_init__(self):
        table = {}
        for b, bp, a in self.entries:
            table[(self.B.check_element(b), self.B.check_element(bp))] = (
                self.A.check_element(a)
            )
        if len(table) < len(self.entries):
            raise InvalidCocycle("factor set table lists a pair of B x B twice")
        if len(table) != self.B.order**2:
            raise InvalidCocycle("factor set table must cover all of B x B")
        canon = tuple(sorted((b, bp, a) for (b, bp), a in table.items()))
        object.__setattr__(self, "entries", canon)

    @cached_property
    def rows(self) -> dict[Element, dict[Element, Element]]:
        """b -> {b': h(b, b')}."""
        out: dict[Element, dict[Element, Element]] = {}
        for b, bp, a in self.entries:
            out.setdefault(b, {})[bp] = a
        return out

    def __call__(self, b: Element, bp: Element) -> Element:
        return self.rows[b][bp]


def cocycle_violations(h: FactorSet) -> tuple[str, ...]:
    """Diagnostics: normalization, symmetry, and cocycle-identity failures."""
    rows, sums_a, sums_b = h.rows, h.A.sums, h.B.sums
    elems, zero_a, zero_b = h.B.elements, h.A.zero, h.B.zero
    out = []
    for b in elems:
        if rows[b][zero_b] != zero_a or rows[zero_b][b] != zero_a:
            out.append(f"normalization fails at {b}")
    for b in elems:
        for bp in elems:
            if rows[b][bp] != rows[bp][b]:
                out.append(f"symmetry fails at ({b}, {bp})")
    for b in elems:
        h_b, b_plus = rows[b], sums_b[b]
        for bp in elems:
            h_bp, bp_plus = rows[bp], sums_b[bp]
            # h(b, b') + h(b + b', b'') against h(b', b'') + h(b, b' + b'')
            plus_h, h_sum = sums_a[h_b[bp]], rows[b_plus[bp]]
            for bpp in elems:
                if plus_h[h_sum[bpp]] != sums_a[h_bp[bpp]][h_b[bp_plus[bpp]]]:
                    out.append(f"cocycle identity fails at ({b}, {bp}, {bpp})")
    return tuple(out)


def validate_cocycle(h: FactorSet) -> bool:
    return not cocycle_violations(h)


@dataclass(frozen=True, eq=False)
class Section(metaclass=Interned):
    """A set-theoretic section table of a projection G -> B, with s(0) = 0."""

    B: FinAbGroup
    G: FinAbGroup
    entries: tuple[tuple[Element, Element], ...]

    # sorted, not a set, so that a repeated b still raises InvalidSection
    _pool_key = staticmethod(lambda B, G, entries: (B, G, tuple(sorted(entries))))

    def __post_init__(self):
        table = {self.B.check_element(b): self.G.check_element(g) for b, g in self.entries}
        if len(table) < len(self.entries):
            raise InvalidSection("section table lists an element of B twice")
        if len(table) != self.B.order:
            raise InvalidSection("section table must cover all of B")
        if table[self.B.zero] != self.G.zero:
            raise InvalidSection("a section must send 0 to 0")
        object.__setattr__(self, "entries", tuple(sorted(table.items())))

    @cached_property
    def table(self) -> dict[Element, Element]:
        return dict(self.entries)

    def __call__(self, b: Element) -> Element:
        return self.table[b]


@dataclass(frozen=True, eq=False)
class AlgExtension(metaclass=Interned):
    """Exact 0 -> A -> G -> B -> 0 with topologies on the ends but not on G."""

    A: TopAbGroup
    G: FinAbGroup
    B: TopAbGroup
    iota: Homomorphism
    pi: Homomorphism

    _pool_key = staticmethod(lambda A, G, B, iota, pi: (A, G, B, iota, pi))

    def __post_init__(self):
        if self.iota.source != self.A.group or self.iota.target != self.G:
            raise NotAnExtension("iota must map A into G")
        if self.pi.source != self.G or self.pi.target != self.B.group:
            raise NotAnExtension("pi must map G onto B")
        if reason := exactness_failure(iota=self.iota, pi=self.pi):
            raise NotAnExtension(reason)

    def pull_back(self, g: Element) -> Element:
        return _pull_back(self.iota, g)


def _pull_back(iota: Homomorphism, g: Element) -> Element:
    """iota^{-1}(g) for the injective iota."""
    try:
        return iota.fibers[g][0]
    except KeyError:
        raise ValueOutsideIotaImage(f"{g} is not in the image of iota") from None


@dataclass(frozen=True, eq=False)
class Extension(metaclass=Interned):
    """A topological extension: the exact `alg` with G topologizing its
    middle group, iota and pi continuous and strict.  iota: A -> G and
    pi: G -> B are the `TopHom`s of alg's maps, built with the object and
    not fields, so that the value is (alg, G)."""

    alg: AlgExtension
    G: TopAbGroup

    _pool_key = staticmethod(lambda alg, G: (alg, G))

    def __post_init__(self):
        if self.G.group is not self.alg.G:
            raise NotAnExtension("G must topologize the middle group of alg")
        object.__setattr__(self, "iota", TopHom(self.alg.iota, self.A, self.G))
        object.__setattr__(self, "pi", TopHom(self.alg.pi, self.G, self.B))
        if reason := strictness_failure(iota=self.iota, pi=self.pi):
            raise NotAnExtension(reason)

    @property
    def A(self) -> TopAbGroup:
        return self.alg.A

    @property
    def B(self) -> TopAbGroup:
        return self.alg.B


def section_for(alg: AlgExtension, mapping: dict[Element, Element]) -> Section:
    s = Section(alg.B.group, alg.G, tuple(mapping.items()))
    for b in alg.B.group.elements:
        if alg.pi(s(b)) != b:
            raise InvalidSection(f"pi(s({b})) = {alg.pi(s(b))} != {b}")
    return s


def enumerate_sections(alg: AlgExtension) -> Iterator[Section]:
    """All sections with s(0) = 0; there are |A| ** (|B| - 1) of them."""
    B, G, fibers = alg.B.group, alg.G, alg.pi.fibers
    nonzero = B.elements[1:]
    for choice in itertools.product(*map(fibers.__getitem__, nonzero)):
        yield Section(B, G, ((B.zero, G.zero), *zip(nonzero, choice)))


def canonical_section(alg: AlgExtension) -> Section:
    """The section picking the lexicographically least preimage of each b."""
    entries = tuple((b, gs[0]) for b, gs in alg.pi.fibers.items())
    return Section(alg.B.group, alg.G, entries)


@cache
def factor_set_from_section(iota: Homomorphism, pi: Homomorphism, s: Section) -> FactorSet:
    """h_s(b, b') = s(b) + s(b') - s(b + b'), pulled back through iota.

    It depends on the algebra alone, so it is keyed by the extension's iota
    and pi, not by the topologies on A and B, and every topology on the ends
    of one realization shares it.
    """
    G, B = pi.source, pi.target
    if s.B != B or s.G != G:
        raise InvalidSection("section does not belong to this extension")
    sums_g, neg_g, sums_b, t = G.sums, G.negation, B.sums, s.table
    entries = []
    for b in B.elements:
        row = sums_g[t[b]]
        for bp in B.elements:
            g = sums_g[row[t[bp]]][neg_g[t[sums_b[b][bp]]]]
            entries.append((b, bp, _pull_back(iota, g)))
    return FactorSet(iota.source, B, tuple(entries))


@dataclass(frozen=True)
class Realization:
    """A cocycle realized as an honest extension of canonical-form groups."""

    G: FinAbGroup
    from_pair: dict  # Pair -> Element of G
    iota: Homomorphism
    pi: Homomorphism


@cache
def realize_cocycle(h: FactorSet) -> Realization:
    """Canonicalize the twisted group, A x B under (a, b) + (a', b') =
    (a + a' + h(b, b'), b + b'), and return the extension data around it: the
    one realization of h, whatever the topologies on A and B.  InvalidCocycle,
    with the first of `cocycle_violations(h)`, unless h is a cocycle."""
    if bad := cocycle_violations(h):
        raise InvalidCocycle(bad[0])
    A, B = h.A, h.B
    rows, sums_a, sums_b = h.rows, A.sums, B.sums

    def add(x: Pair, y: Pair) -> Pair:
        (a, b), (ap, bp) = x, y
        return (sums_a[sums_a[a][ap]][rows[b][bp]], sums_b[b][bp])

    G, pairs = group_structure(itertools.product(A.elements, B.elements), add, (A.zero, B.zero))
    from_pair = dict(zip(pairs, G.elements))
    iota = hom_from_table(A, G, {a: from_pair[(a, B.zero)] for a in A.elements})
    pi = hom_from_table(G, B, {y: b for y, (_, b) in zip(G.elements, pairs)})
    return Realization(G, from_pair, iota, pi)


@cache
def cocycle_extension(A: TopAbGroup, B: TopAbGroup, h: FactorSet) -> AlgExtension:
    """The realization of h as an algebraic extension of B by A, whose
    topologies it keeps; InvalidCocycle if h is over other groups."""
    if h.A is not A.group or h.B is not B.group:
        raise InvalidCocycle("cocycle groups do not match the groups A and B")
    real = realize_cocycle(h)
    return AlgExtension(A, real.G, B, real.iota, real.pi)


def is_topologizing(A_top: TopAbGroup, B_top: TopAbGroup, h: FactorSet) -> bool:
    """Continuity of h at (0, 0): h maps N_B x N_B into N_A.  h must be a
    cocycle and is not checked: a section's factor set, the one h that
    `nagao_topology` passes, is normalized (s(0) = 0), symmetric (G is
    abelian) and a coboundary in G, so always one."""
    core_a = A_top.core_set
    return all(
        h(b, bp) in core_a for b in B_top.open_core for bp in B_top.open_core
    )


@dataclass(frozen=True)
class SectionCensus:
    """The topologizing sections of one extension, by their splittings.

    A section s topologizes exactly when s|N_B, taken mod iota(N_A), is a
    homomorphic splitting over N_B; its Nagao core and comparison class
    depend only on that splitting.  A splitting is stored as its least
    restriction: the images of `alg.B.open_core`, each the least element of
    its coset (`least`).  `splittings` are sorted, which is the order in
    which `enumerate_sections` first meets them; each stands for
    |N_A|^(|N_B| - 1) * |A|^(|B| - |N_B|) sections, so there are
    `section_count` topologizing sections, and `section(k)` builds the k-th
    of them alone and keeps it in `built`.
    """

    alg: AlgExtension
    splittings: tuple[tuple[Element, ...], ...]
    section_count: int
    least: dict[Element, Element] = field(compare=False, repr=False)
    built: dict[int, Section] = field(default_factory=dict, compare=False, repr=False)

    def sections(self) -> Iterator[Section]:
        """Every topologizing section, in `enumerate_sections` order."""
        return map(self.section, range(self.section_count))

    def section(self, k: int) -> Section:
        """The k-th topologizing section in `enumerate_sections` order.

        Walking B's nonzero elements in order, each choice stands for the
        splittings that meet the cosets chosen so far on N_B, times |N_A|
        per N_B position and |A| per free position still to come."""
        if k in self.built:
            return self.built[k]
        if not 0 <= k < self.section_count:
            raise IndexError(f"section {k} of {self.section_count}")
        alg, least = self.alg, self.least
        B, G, core_b = alg.B.group, alg.G, alg.B.open_core
        fibers, a_order, na = alg.pi.fibers, alg.A.group.order, alg.A.open_core.order
        free, j = B.order - core_b.order, 0
        candidates, rest = self.splittings, k
        entries = [(B.zero, G.zero)]
        for b in B.elements[1:]:
            if b in core_b.element_set:
                # core_b is sorted, so its j-th element is the j-th met here
                j += 1
                block = na ** (core_b.order - 1 - j) * a_order**free
                for g in fibers[b]:
                    agreeing = [sp for sp in candidates if sp[j] == least[g]]
                    if rest < len(agreeing) * block:
                        break
                    rest -= len(agreeing) * block
                candidates = agreeing
            else:
                free -= 1
                block = na ** (core_b.order - 1 - j) * a_order**free
                q, rest = divmod(rest, len(candidates) * block)
                g = fibers[b][q]
            entries.append((b, g))
        s = self.built[k] = Section(B, G, tuple(entries))
        return s

    def splitting(self, s: Section) -> tuple[Element, ...]:
        """The least restriction of s's cosets on N_B: one of `splittings`
        exactly when s topologizes."""
        return tuple(self.least[s(b)] for b in self.alg.B.open_core)

    def core(self, r: tuple[Element, ...]) -> Subgroup:
        """The Nagao core of every section restricting to r, built on first use."""
        return _core_on(self.alg, r)

    def first_section(self, r: tuple[Element, ...]) -> Section:
        """The first section in enumeration order that restricts to r: off
        N_B it takes the least element of each fiber."""
        alg = self.alg
        t = dict(zip(alg.B.open_core, r))
        entries = tuple((b, t.get(b, gs[0])) for b, gs in alg.pi.fibers.items())
        return Section(alg.B.group, alg.G, entries)


@cache
def section_census(alg: AlgExtension) -> SectionCensus:
    """The splittings in closed form, with no walk over restrictions: one
    for each choice, for every generator e_j of N_B, of order n_j, of a
    coset of iota(N_A) over e_j whose n_j-th multiple is iota(N_A)."""
    G, A, n_b = alg.G, alg.A, subgroup_as_group(alg.B.open_core)
    least = coset_reps(G, {alg.iota(a) for a in A.open_core})
    fibers = alg.pi.fibers
    cosets = [
        [g for g in fibers[n_b.include(e)] if least[g] == g and least[G.scale(n, g)] == G.zero]
        for e, n in zip(n_b.group.generators, n_b.group.moduli)
    ]

    def image(gs: tuple[Element, ...], x: Element) -> Element:
        return least[reduce(G.add, map(G.scale, n_b.coords[x], gs), G.zero)]

    splittings = sorted(
        tuple(image(gs, x) for x in alg.B.open_core) for gs in itertools.product(*cosets)
    )
    free, n = alg.B.group.order - n_b.group.order, n_b.group.order - 1
    count = len(splittings) * A.open_core.order**n * A.group.order**free
    return SectionCensus(alg, tuple(splittings), count, least)


def nagao_core(alg: AlgExtension, s: Section) -> Subgroup:
    """theta_s(N_A x N_B) = iota(N_A) + s(N_B), which depends only on s on N_B."""
    return _core_on(alg, tuple(s(b) for b in alg.B.open_core))


@cache
def _core_on(alg: AlgExtension, images: tuple[Element, ...]) -> Subgroup:
    G = alg.G
    return subgroup(G, {G.add(alg.iota(a), g) for a in alg.A.open_core for g in images})


def nagao_topology(alg: AlgExtension, s: Section) -> Extension:
    """Topologize G with open core theta_s(N_A x N_B): the topologized
    extension of (alg, s).  NotTopologizing if s does not topologize."""
    h = factor_set_from_section(alg.iota, alg.pi, s)
    if not is_topologizing(alg.A, alg.B, h):
        witness = next(
            (b, bp)
            for b in alg.B.open_core
            for bp in alg.B.open_core
            if h(b, bp) not in alg.A.core_set
        )
        raise NotTopologizing(
            f"h_s({witness[0]}, {witness[1]}) = {h(*witness)} falls outside N_A"
        )
    return Extension(alg, TopAbGroup(alg.G, nagao_core(alg, s)))


def comparison_map(alg: AlgExtension, s1: Section, s2: Section) -> dict[Element, Element]:
    """b -> iota^{-1}(s1(b) - s2(b)), the section-comparison map into A."""
    G = alg.G
    return {
        b: alg.pull_back(G.sub(s1(b), s2(b))) for b in alg.B.group.elements
    }


def extension_square(
    row1: Extension, row2: Extension, alpha: Homomorphism, gamma: Homomorphism, beta: Homomorphism
) -> Ladder:
    """row1 over row2 as a two-square ladder, with the verticals alpha on the
    kernels, gamma on the middle groups and beta on the quotients."""
    return Ladder(
        (row1.iota, row1.pi),
        (row2.iota, row2.pi),
        (
            TopHom(alpha, row1.A, row2.A),
            TopHom(gamma, row1.G, row2.G),
            TopHom(beta, row1.B, row2.B),
        ),
    )


def sigma(square: Ladder, s1: Section, s2: Section) -> dict[Element, Element]:
    """b -> iota2^{-1}(gamma(s1(b)) - s2(beta(b))), total on B1, for an
    extension square with a section of each row."""
    pi1, (iota2, pi2) = square.top[1], square.bottom
    gamma, beta = square.verticals[1].map, square.verticals[2].map
    if s1.B != pi1.target.group or s1.G != pi1.source.group:
        raise InvalidSection("s1 does not belong to row 1")
    if s2.B != pi2.target.group or s2.G != pi2.source.group:
        raise InvalidSection("s2 does not belong to row 2")
    sub = s2.G.sub
    return {b: _pull_back(iota2.map, sub(gamma(s1(b)), s2(beta(b)))) for b in s1.B.elements}


def is_compatible(square: Ladder, s1: Section, s2: Section) -> bool:
    """Continuity of sigma at 0: sigma(N_B1) inside N_A2."""
    sg = sigma(square, s1, s2)
    alpha, _, beta = square.verticals
    core_a2 = alpha.target.core_set
    return all(sg[b] in core_a2 for b in beta.source.open_core)


def has_open_fibers(sigma_map: dict[Element, Element], B1_top: TopAbGroup) -> bool:
    """Every fiber of sigma is open, i.e. a union of cosets of N_B1."""
    core = B1_top.open_core
    G = B1_top.group
    for b in G.elements:
        v = sigma_map[b]
        if any(sigma_map[G.add(b, n)] != v for n in core):
            return False
    return True


def snake_haus_sequence(E: Extension) -> tuple[Homomorphism, Homomorphism, Homomorphism]:
    """The maps (m1, m2, m3) of 0 -> ker f -> N_G -> N_B -> coker f -> 0 for
    the separation comparison.  f: A -> ker(pi_Haus) is q_G o iota; m1 and m2
    restrict iota and pi to the cores; the connecting map m3 is the usual
    lift-push-project recipe."""
    alg = E.alg
    _, q_g = separation(E.G)
    _, q_b = separation(E.B)
    kemb = subgroup_as_group(induced(alg.pi, q_g.map, q_b.map).kernel)
    f = corestricted(compose(q_g.map, alg.iota), kemb.include)
    ker_f = subgroup_as_group(f.kernel).include
    n_g = subgroup_as_group(E.G.open_core).include
    n_b = subgroup_as_group(E.B.open_core).include
    coker, coker_proj = quotient(kemb.group, f.image)
    m1 = corestricted(compose(alg.iota, ker_f), n_g)
    m2 = corestricted(compose(alg.pi, n_g), n_b)
    # connecting map N_B -> coker f: lift along pi, push through q_G, project
    lift = alg.pi.fibers
    m3 = hom_from_table(
        n_b.source,
        coker,
        {x: coker_proj(kemb.coords[q_g(lift[n_b(x)][0])]) for x in n_b.source.elements},
    )
    return m1, m2, m3
