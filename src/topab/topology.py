"""Group topologies on finite abelian groups via the open core.

A group topology on a finite abelian group is determined by its open core N,
the minimal open neighborhood of 0 (equivalently the closure of {0}): the
open sets are exactly the unions of cosets of N.  Every predicate in this
module therefore reduces to a set-inclusion formula, and each formula is
cross-validated against a literal open-set oracle in the test suite.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache

from .errors import NotASubgroup, NotContinuous, NotWellDefined
from .groups import (
    Element,
    FinAbGroup,
    GroupEmbedding,
    Homomorphism,
    Subgroup,
    all_subgroups,
    cached_hash,
    compose,
    coset_reps,
    hom_from_table,
    quotient,
    subgroup,
    subgroup_as_group,
    trivial_subgroup,
)


@dataclass(frozen=True)
class TopAbGroup:
    """A finite abelian group with the topology determined by its open core."""

    group: FinAbGroup
    open_core: Subgroup

    __hash__ = cached_hash(lambda s: (s.group, s.open_core))

    def __post_init__(self):
        if self.open_core.parent != self.group:
            raise NotASubgroup("open core must be a subgroup of the underlying group")

    @property
    def core_set(self) -> frozenset[Element]:
        return self.open_core.element_set

    def __str__(self) -> str:
        return f"({self.group}, N of order {self.open_core.order})"


def discrete(G: FinAbGroup) -> TopAbGroup:
    return TopAbGroup(G, trivial_subgroup(G))


def indiscrete(G: FinAbGroup) -> TopAbGroup:
    return TopAbGroup(G, Subgroup(G, G.elements))


def topologize(G: FinAbGroup, core_elements) -> TopAbGroup:
    return TopAbGroup(G, subgroup(G, core_elements))


@dataclass(frozen=True)
class TopHom:
    """A homomorphism between topologized groups; continuity is not assumed."""

    map: Homomorphism
    source: TopAbGroup
    target: TopAbGroup

    __hash__ = cached_hash(lambda s: (s.map, s.source, s.target))

    def __post_init__(self):
        if self.map.source != self.source.group or self.map.target != self.target.group:
            raise NotWellDefined("map endpoints do not match the topological groups")

    def __call__(self, x: Element) -> Element:
        return self.map(x)


def compose_top(outer: TopHom, inner: TopHom) -> TopHom:
    return TopHom(compose(outer.map, inner.map), inner.source, outer.target)


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


def is_continuous(f: TopHom) -> bool:
    """f is continuous iff it maps the source core into the target core."""
    return f.target.core_set.issuperset(map(f.map.table.__getitem__, f.source.open_core))


def is_strict(f: TopHom) -> bool:
    """Continuous f is strict iff f(N_src) = f(G_src) intersect N_tgt."""
    if not is_continuous(f):
        raise NotContinuous("strictness is a property of continuous homomorphisms")
    core_image = frozenset(map(f.map.table.__getitem__, f.source.open_core))
    return core_image == f.map.image().element_set & f.target.core_set


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
    img = f.map.image().element_set
    relative_opens = frozenset(u & img for u in _open_family(f.target))
    table = f.map.table
    for u in _open_family(f.source):
        if frozenset(table[x] for x in u) not in relative_opens:
            return False
    return True


@cache
def separation(T: TopAbGroup) -> tuple[TopAbGroup, TopHom]:
    """The universal Hausdorff quotient G/N (discrete here) and its projection."""
    Q, proj = quotient(T.group, T.open_core)
    haus = discrete(Q)
    return haus, TopHom(proj, T, haus)


def separation_hom(f: TopHom) -> TopHom:
    """The map induced on separations; defined iff f maps core into core."""
    if not is_continuous(f):
        raise NotWellDefined(
            "the induced map on separations needs f(N_source) inside N_target"
        )
    src_haus, q_src = separation(f.source)
    tgt_haus, q_tgt = separation(f.target)
    pre = q_src.map.fibers()
    table = {y: q_tgt(f.map(pre[y][0])) for y in src_haus.group.elements}
    induced = hom_from_table(src_haus.group, tgt_haus.group, table)
    assert all(
        induced(q_src(x)) == q_tgt(f.map(x)) for x in f.source.group.elements
    )
    return TopHom(induced, src_haus, tgt_haus)


def product_top(T: TopAbGroup, U: TopAbGroup) -> TopAbGroup:
    """Product group with core N_T x N_U."""
    P = FinAbGroup(T.group.moduli + U.group.moduli)
    core = tuple(a + b for a in T.open_core for b in U.open_core)
    return TopAbGroup(P, subgroup(P, core))


def subspace_top(T: TopAbGroup, S: Subgroup) -> tuple[TopAbGroup, TopHom]:
    """S as a group in its own right with the subspace topology, plus inclusion."""
    if S.parent != T.group:
        raise NotASubgroup("S is not a subgroup of the underlying group")
    emb: GroupEmbedding = subgroup_as_group(S)
    core = tuple(emb.coords[x] for x in S.elements if x in T.core_set)
    sub = TopAbGroup(emb.group, subgroup(emb.group, core))
    return sub, TopHom(emb.include, sub, T)


def quotient_top(T: TopAbGroup, K: Subgroup) -> tuple[TopAbGroup, TopHom]:
    """G/K with the quotient topology (core (N + K)/K), plus projection."""
    if K.parent != T.group:
        raise NotASubgroup("K is not a subgroup of the underlying group")
    Q, proj = quotient(T.group, K)
    core = tuple(set(proj(n) for n in T.open_core))
    qt = TopAbGroup(Q, subgroup(Q, core))
    return qt, TopHom(proj, T, qt)


def closure_of_zero(T: TopAbGroup) -> Subgroup:
    """Computed from the closed sets; must equal the open core."""
    closed = [frozenset(T.group.elements) - u for u in open_sets(T)]
    out = frozenset(T.group.elements)
    for c in closed:
        if T.group.zero in c:
            out &= c
    return subgroup(T.group, out)


def is_hausdorff(T: TopAbGroup) -> bool:
    return T.open_core.order == 1


def is_discrete(T: TopAbGroup) -> bool:
    return T.open_core.order == 1


def is_indiscrete(T: TopAbGroup) -> bool:
    return T.open_core.order == T.group.order


def has_property_p(T: TopAbGroup) -> bool:
    """All (finite-index, i.e. all) subgroups are open: N lies in each of them."""
    core = T.core_set
    return all(core <= S.element_set for S in all_subgroups(T.group))


def is_topological_isomorphism(f: TopHom) -> bool:
    """Bijective, continuous, with continuous inverse: f maps core onto core."""
    if not f.map.is_bijective():
        return False
    return frozenset(f.map(n) for n in f.source.open_core) == f.target.core_set
