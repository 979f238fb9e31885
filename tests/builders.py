"""Constructors and encoders that only tests need.

The program reads groups, cores and extensions from JSON or enumerates them;
tests build them by hand with these.
"""

from topab.extensions import AlgExtension, Extension, FactorSet, canonical_section, nagao_topology
from topab.errors import ElementNotInGroup
from topab.groups import Element, FinAbGroup, Homomorphism, Subgroup, subgroup
from topab.jsonio import element_to_json, group_to_json, topgroup_to_json
from topab.search import _cached_alg
from topab.topology import TopAbGroup


def reduce_into(G: FinAbGroup, coords) -> Element:
    """The element of G with the given coordinates taken mod each modulus."""
    if len(coords) != len(G.moduli):
        raise ElementNotInGroup(f"coordinate tuple {tuple(coords)!r} has wrong length for {G}")
    return tuple(int(c) % m for c, m in zip(coords, G.moduli))


def make_hom(source: FinAbGroup, target: FinAbGroup, gen_images) -> Homomorphism:
    """The homomorphism sending the standard generators to the given
    coordinate tuples, reduced into the target."""
    return Homomorphism(source, target, tuple(reduce_into(target, g) for g in gen_images))


def indiscrete(G: FinAbGroup) -> TopAbGroup:
    return TopAbGroup(G, Subgroup(G, G.elements))


def topologize(G: FinAbGroup, core_elements) -> TopAbGroup:
    return TopAbGroup(G, subgroup(G, core_elements))


def factor_set(A: FinAbGroup, B: FinAbGroup, mapping: dict) -> FactorSet:
    """Build a factor set from a partial mapping; unspecified pairs are zero."""
    entries = []
    for b in B.elements:
        for bp in B.elements:
            a = mapping.get((b, bp), A.zero)
            entries.append((b, bp, reduce_into(A, a)))
    return FactorSet(A, B, tuple(entries))


def split_extension(A_top: TopAbGroup, B_top: TopAbGroup) -> Extension:
    """The direct product with the product topology, as an extension."""
    alg = _cached_alg(A_top, B_top, factor_set(A_top.group, B_top.group, {}))
    return nagao_topology(alg, canonical_section(alg))


def hom_to_json(f: Homomorphism) -> dict:
    return {
        "source": group_to_json(f.source),
        "target": group_to_json(f.target),
        "gen_images": [element_to_json(x) for x in f.gen_images],
    }


def alg_extension_to_json(alg: AlgExtension) -> dict:
    """The input of `topab sections`."""
    return {
        "A": topgroup_to_json(alg.A),
        "G": group_to_json(alg.G),
        "B": topgroup_to_json(alg.B),
        "iota": hom_to_json(alg.iota),
        "pi": hom_to_json(alg.pi),
    }
