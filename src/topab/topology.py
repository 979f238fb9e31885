"""Group topologies on finite abelian groups via the open core.

A group topology on a finite abelian group is determined by its open core N,
the minimal open neighborhood of 0 (equivalently the closure of {0}): the
open sets are exactly the unions of cosets of N.  Every predicate in this
module therefore reduces to a set-inclusion formula, and each formula is
cross-validated against a literal open-set oracle in the test suite.
`strictness_failure`, read after `groups.exactness_failure`, is the one
decision of whether a sequence is a topological extension;
`is_topological_extension` reads the two as one bool for 0 -> X -> Y -> Z -> 0.
`Ladder`, two rows of `TopHom`s joined by `TopHom` verticals and checked
square by square on every build, is every commutative diagram of the laws;
the commutativity of each distinct square is computed once and memoized.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache

from .errors import DiagramError, NotASubgroup, NotContinuous, NotWellDefined
from .groups import (
    Element,
    FinAbGroup,
    GroupEmbedding,
    Homomorphism,
    Interned,
    Subgroup,
    commutes,
    exactness_failure,
    identity_hom,
    induced,
    quotient,
    subgroup,
    subgroup_as_group,
    trivial_subgroup,
)


@dataclass(frozen=True, eq=False)
class TopAbGroup(metaclass=Interned):
    """A finite abelian group with the topology determined by its open core."""

    group: FinAbGroup
    open_core: Subgroup

    _pool_key = staticmethod(lambda group, open_core: (group, open_core))

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


@dataclass(frozen=True, eq=False)
class TopHom:
    """A homomorphism between topologized groups; continuity is not assumed.
    It compares and hashes by identity, so a cache keyed by maps, such as
    `diagrams.is_strict_exact`, hashes its key without calling Python."""

    map: Homomorphism
    source: TopAbGroup
    target: TopAbGroup

    def __post_init__(self):
        if self.map.source != self.source.group or self.map.target != self.target.group:
            raise NotWellDefined("map endpoints do not match the topological groups")

    def __call__(self, x: Element) -> Element:
        return self.map(x)


@cache
def identity_top(T: TopAbGroup) -> TopHom:
    return TopHom(identity_hom(T.group), T, T)


# Families build ladders over the same maps many times; each distinct square
# is compared element by element once.  Homomorphisms are interned, so the
# key of four maps hashes by identity.
_square_commutes = cache(commutes)


@dataclass(frozen=True)
class Ladder:
    """The rows top[i]: X_i -> X_(i+1) over bottom[i]: Y_i -> Y_(i+1), joined
    by v_i: X_i -> Y_i.  One pass checks, on every build, that each square i
    lines up (f = top[i] and g = bottom[i] run between the ends of v_i and
    v_(i+1)) and commutes (v_(i+1) o f == g o v_i), so the rows compose.
    Whether the four maps of a square commute is computed once per square
    (`_square_commutes`) and read back on later builds."""

    top: tuple[TopHom, ...]
    bottom: tuple[TopHom, ...]
    verticals: tuple[TopHom, ...]

    def __post_init__(self):
        if not len(self.top) == len(self.bottom) == len(self.verticals) - 1:
            raise DiagramError("a ladder has n maps in each row and n + 1 verticals")
        vs = self.verticals
        for i, (f, g, v, w) in enumerate(zip(self.top, self.bottom, vs, vs[1:])):
            ends = (v.source, w.source, v.target, w.target)
            if (f.source, f.target, g.source, g.target) != ends:
                raise DiagramError(f"square {i} does not line up")
            if not _square_commutes(f.map, g.map, v.map, w.map):
                raise DiagramError(f"square {i} does not commute")


def is_continuous(f: TopHom) -> bool:
    """f is continuous iff it maps the source core into the target core."""
    return f.target.core_set.issuperset(map(f.map.table.__getitem__, f.source.open_core))


def is_strict(f: TopHom) -> bool:
    """Continuous f is strict iff f(N_src) = f(G_src) intersect N_tgt."""
    if not is_continuous(f):
        raise NotContinuous("strictness is a property of continuous homomorphisms")
    core_image = frozenset(map(f.map.table.__getitem__, f.source.open_core))
    return core_image == f.map.image.element_set & f.target.core_set


def strictness_failure(**maps: TopHom) -> str | None:
    """The first of the named maps that is not continuous or not strict, or
    None.  After `groups.exactness_failure` on their homomorphisms, it
    decides whether 0 -> X_0 -> ... -> X_n -> 0 is a topological extension."""
    for name, f in maps.items():
        if not is_continuous(f):
            return f"{name} is not continuous"
        if not is_strict(f):
            return f"{name} is not strict"
    return None


def is_topological_extension(f: TopHom, g: TopHom) -> bool:
    """0 -> X -> Y -> Z -> 0 along f, g is exact, with f and g continuous and
    strict: `groups.exactness_failure`, then `strictness_failure`."""
    return not (exactness_failure(f=f.map, g=g.map) or strictness_failure(f=f, g=g))


@cache
def separation(T: TopAbGroup) -> tuple[TopAbGroup, TopHom]:
    """The universal Hausdorff quotient G/N (discrete here) and its projection."""
    return quotient_top(T, T.open_core)


def separation_hom(f: TopHom) -> TopHom:
    """The map induced on separations; defined iff f maps core into core."""
    if not is_continuous(f):
        raise NotWellDefined(
            "the induced map on separations needs f(N_source) inside N_target"
        )
    src_haus, q_src = separation(f.source)
    tgt_haus, q_tgt = separation(f.target)
    return TopHom(induced(f.map, q_src.map, q_tgt.map), src_haus, tgt_haus)


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


def is_hausdorff(T: TopAbGroup) -> bool:
    return T.open_core.order == 1


def is_discrete(T: TopAbGroup) -> bool:
    return T.open_core.order == 1


def is_indiscrete(T: TopAbGroup) -> bool:
    return T.open_core.order == T.group.order


def is_topological_isomorphism(f: TopHom) -> bool:
    """Bijective, continuous, with continuous inverse: f maps core onto core."""
    if not f.map.is_bijective():
        return False
    return frozenset(f.map(n) for n in f.source.open_core) == f.target.core_set
