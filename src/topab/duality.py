"""Pontryagin duals of finite topological abelian groups.

A character of G is a homomorphism G -> Z/e, e the exponent of G, whose
value v stands for v/e in the torsion subgroup Q/Z of the circle, so all
arithmetic is exact; `hom_set(G, Z/e)` lists them all.  A character of
(G, N) is continuous iff its kernel contains N, so the dual is the
character group of G/N, carried discretely: the dual of a finite Hausdorff
group under the compact-open topology is discrete, so that topology is
declared rather than constructed.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache, cached_property

from .errors import NotAnExtension, NotContinuous
from .extensions import Extension
from .groups import Element, FinAbGroup, Homomorphism, group_structure, hom_from_table, hom_set
from .topology import TopAbGroup, TopHom, discrete, is_continuous


@dataclass(frozen=True)
class DualGroup:
    """All continuous characters of a topologized group, carried discretely."""

    characters: tuple[Homomorphism, ...]
    structure: FinAbGroup
    _elem_to_char: tuple[tuple[Element, Homomorphism], ...]

    @cached_property
    def elem_to_char(self) -> dict[Element, Homomorphism]:
        return dict(self._elem_to_char)

    @cached_property
    def elem_of_values(self) -> dict[tuple[Element, ...], Element]:
        """The element of each character, keyed by its generator images."""
        return {chi.gen_images: x for x, chi in self._elem_to_char}

    @property
    def order(self) -> int:
        return len(self.characters)

    @cached_property
    def as_top(self) -> TopAbGroup:
        return discrete(self.structure)


@cache
def dual_group(T: TopAbGroup) -> DualGroup:
    """The group of characters whose kernel contains the open core, in
    canonical form."""
    G = T.group
    circle = FinAbGroup((G.exponent,))
    zero = circle.zero
    continuous = tuple(
        chi for chi in hom_set(G, circle) if all(chi.table[x] == zero for x in T.open_core)
    )
    key = {chi.gen_images: chi for chi in continuous}

    def add(u, v):
        return tuple(map(circle.add, u, v))

    structure, keys = group_structure(key, add, (zero,) * G.rank)
    pairs = tuple(zip(structure.elements, map(key.__getitem__, keys)))
    return DualGroup(continuous, structure, pairs)


def _rescale(value: int, from_den: int, to_den: int) -> int:
    """Rewrite value/from_den as an integer over to_den."""
    num = value * to_den
    assert num % from_den == 0, "character value does not live over the target denominator"
    return (num // from_den) % to_den


def dual_hom(f: TopHom) -> Homomorphism:
    """The dual map between dual structures, chi -> chi o f (contravariant):
    chi o f is looked up by its images of the generators of the source, each
    value rescaled to the exponent of the source."""
    if not is_continuous(f):
        raise NotContinuous("only continuous maps dualize to continuous characters")
    d_tgt = dual_group(f.target)
    d_src = dual_group(f.source)
    e_src, e_tgt = f.source.group.exponent, f.target.group.exponent
    images = [f.map(g) for g in f.source.group.generators]
    table = {}
    for x, chi in d_tgt.elem_to_char.items():
        values = tuple((_rescale(chi(y)[0], e_tgt, e_src),) for y in images)
        table[x] = d_src.elem_of_values[values]
    return hom_from_table(d_tgt.structure, d_src.structure, table)


def dual_extension(E: Extension) -> tuple[TopHom, TopHom]:
    """The dual sequence 0 -> B* -> G* -> A* -> 0 of E as its maps (pi*, iota*)."""
    if not isinstance(E, Extension):
        raise NotAnExtension("dual_extension expects a topological extension")
    b_dual, g_dual, a_dual = (dual_group(T).as_top for T in (E.B, E.G, E.A))
    return TopHom(dual_hom(E.pi), b_dual, g_dual), TopHom(dual_hom(E.iota), g_dual, a_dual)
