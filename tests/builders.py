"""Constructors and encoders that only tests need.

The program reads groups, cores and extensions from JSON or enumerates them;
tests build them by hand with these.
"""

import random

from topab.extensions import (
    AlgExtension,
    Extension,
    FactorSet,
    canonical_section,
    cocycle_extension,
    nagao_topology,
    section_census,
)
from topab.errors import ElementNotInGroup
from topab.groups import Element, FinAbGroup, Homomorphism, Subgroup, hom_set, subgroup
from topab.jsonio import to_json
from topab.search import (
    FamilySpec,
    RowData,
    all_cocycles,
    gamma_lifts,
    topologized_groups,
)
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
    alg = cocycle_extension(A_top, B_top, factor_set(A_top.group, B_top.group, {}))
    return nagao_topology(alg, canonical_section(alg))


def hom_to_json(f: Homomorphism) -> dict:
    return {
        "source": to_json(f.source),
        "target": to_json(f.target),
        "gen_images": to_json(f),
    }


def alg_extension_to_json(alg: AlgExtension) -> dict:
    """The input of `topab sections`."""
    return {
        "A": to_json(alg.A),
        "G": to_json(alg.G),
        "B": to_json(alg.B),
        "iota": hom_to_json(alg.iota),
        "pi": hom_to_json(alg.pi),
    }


def sampled_squares_by_list(spec: FamilySpec, drawn: dict):
    """The reference for `search._sampled_squares`: each row's section is
    `rng.choice` over the list of every topologizing section of its
    extension, which takes the same one draw below their count as
    `rng.randrange` does.  drawn[alg] gets the index of each draw from alg."""
    rng = random.Random(spec.seed)
    tops = topologized_groups(spec.max_group_order)
    made, attempts = 0, 0
    while made < spec.sample_count and attempts < 40 * spec.sample_count:
        attempts += 1
        a1, b1 = rng.choice(tops), rng.choice(tops)
        a2, b2 = rng.choice(tops), rng.choice(tops)
        h1 = rng.choice(all_cocycles(a1.group, b1.group))
        h2 = rng.choice(all_cocycles(a2.group, b2.group))
        alg1, alg2 = cocycle_extension(a1, b1, h1), cocycle_extension(a2, b2, h2)
        s1s, s2s = (tuple(section_census(alg).sections()) for alg in (alg1, alg2))
        if not s1s or not s2s:
            continue
        s1, s2 = rng.choice(s1s), rng.choice(s2s)
        drawn.setdefault(alg1, set()).add(s1s.index(s1))
        drawn.setdefault(alg2, set()).add(s2s.index(s2))
        alpha = rng.choice(hom_set(a1.group, a2.group))
        beta = rng.choice(hom_set(b1.group, b2.group))
        lifts = gamma_lifts(alg1, s1, alg2, alpha, beta)
        if not lifts:
            continue
        lift = lifts[rng.randrange(len(lifts))]
        yield RowData(a1, b1, h1, s1), RowData(a2, b2, h2, s2), alpha, beta, lift
        made += 1
