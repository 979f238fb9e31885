"""Pontryagin duals of finite topological abelian groups.

Characters take values in the torsion subgroup Q/Z of the circle, stored as
numerators over the group exponent, so all arithmetic is exact.  A character
of (G, N) is continuous iff it kills N, so the dual is the character group
of G/N, carried discretely: the dual of a finite Hausdorff group under the
compact-open topology is discrete, so that topology is declared rather than
constructed.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cache, cached_property

from .errors import NotAnExtension, NotContinuous
from .extensions import Extension
from .groups import Element, FinAbGroup, Homomorphism, group_structure, hom_from_table
from .topology import TopAbGroup, TopHom, discrete, is_continuous


@dataclass(frozen=True)
class Character:
    """A homomorphism G -> Q/Z with values v/exponent, v stored mod exponent."""

    group: FinAbGroup
    gen_values: tuple[int, ...]

    def __post_init__(self):
        e = self.group.exponent
        vals = tuple(int(v) % e for v in self.gen_values)
        object.__setattr__(self, "gen_values", vals)
        if len(vals) != self.group.rank:
            raise ValueError("one value per generator required")
        for m, v in zip(self.group.moduli, vals):
            if (m * v) % e != 0:
                raise ValueError(f"value {v}/{e} has order not dividing {m}")

    @property
    def denominator(self) -> int:
        return self.group.exponent

    @cached_property
    def values(self) -> dict[Element, int]:
        e = self.group.exponent
        return {
            x: sum(c * v for c, v in zip(x, self.gen_values)) % e
            for x in self.group.elements
        }

    def __call__(self, x: Element) -> int:
        return self.values[x]

    def kills(self, elems) -> bool:
        return all(self.values[x] == 0 for x in elems)


@cache
def all_characters(G: FinAbGroup) -> tuple[Character, ...]:
    """Every character of the bare group, in deterministic order, built once
    per group."""
    e = G.exponent
    choices = []
    for m in G.moduli:
        step = e // m
        choices.append([k * step for k in range(m)])
    return tuple(Character(G, vals) for vals in itertools.product(*choices))


@dataclass(frozen=True)
class DualGroup:
    """All continuous characters of a topologized group, carried discretely."""

    characters: tuple[Character, ...]
    structure: FinAbGroup
    _elem_to_char: tuple[tuple[Element, Character], ...]

    @cached_property
    def elem_to_char(self) -> dict[Element, Character]:
        return dict(self._elem_to_char)

    @cached_property
    def elem_of_values(self) -> dict[tuple[int, ...], Element]:
        """The element of each character, keyed by its generator values."""
        return {c.gen_values: x for x, c in self._elem_to_char}

    @property
    def order(self) -> int:
        return len(self.characters)

    @cached_property
    def as_top(self) -> TopAbGroup:
        return discrete(self.structure)


@cache
def dual_group(T: TopAbGroup) -> DualGroup:
    """The group of characters killing the open core, in canonical form."""
    core = T.open_core.elements
    continuous = tuple(
        chi for chi in all_characters(T.group) if chi.kills(core)
    )
    key = {chi.gen_values: chi for chi in continuous}
    e = T.group.exponent

    def add(u, v):
        return tuple((a + b) % e for a, b in zip(u, v))

    structure, keys = group_structure(key, add, (0,) * T.group.rank)
    pairs = tuple(zip(structure.elements, map(key.__getitem__, keys)))
    return DualGroup(continuous, structure, pairs)


def _rescale(value: int, from_den: int, to_den: int) -> int:
    """Rewrite value/from_den as an integer over to_den."""
    num = value * to_den
    assert num % from_den == 0, "character value does not live over the target denominator"
    return (num // from_den) % to_den


def dual_hom(f: TopHom) -> Homomorphism:
    """The dual map between dual structures, chi -> chi o f (contravariant):
    chi o f is looked up by its values on the generators of the source."""
    if not is_continuous(f):
        raise NotContinuous("only continuous maps dualize to continuous characters")
    d_tgt = dual_group(f.target)
    d_src = dual_group(f.source)
    e_src, e_tgt = f.source.group.exponent, f.target.group.exponent
    images = [f.map(g) for g in f.source.group.generators]
    table = {}
    for x, chi in d_tgt.elem_to_char.items():
        values = tuple(_rescale(chi(y), e_tgt, e_src) for y in images)
        table[x] = d_src.elem_of_values[values]
    return hom_from_table(d_tgt.structure, d_src.structure, table)


def dual_extension(E: Extension) -> tuple[TopHom, TopHom]:
    """The dual sequence 0 -> B* -> G* -> A* -> 0 of E as its maps (pi*, iota*)."""
    if not isinstance(E, Extension):
        raise NotAnExtension("dual_extension expects a topological extension")
    b_dual, g_dual, a_dual = (dual_group(T).as_top for T in (E.B, E.G, E.A))
    return TopHom(dual_hom(E.pi), b_dual, g_dual), TopHom(dual_hom(E.iota), g_dual, a_dual)
