"""Move an instance along an isomorphism of its slots.

A cocycle over topologized ends (A, B, h) moves along automorphisms phi_A
of A and phi_B of B and a cochain t: B -> A with t(0) = 0 to (A', B', h'):
the open cores go to phi_A(N_A) and phi_B(N_B), and

    h'(b, b') = phi_A(h(phi_B^-1 b, phi_B^-1 b')) + t(b) + t(b') - t(b + b').

(a, b) -> (phi_A(a) - t(phi_B(b)), phi_B(b)) carries the twisted sum of h to
that of h', and the cores to the cores, so the two realizations are
isomorphic topological extensions and every verdict of a law on cocycles
reads the same on both.  Built from the groups and `FactorSet` alone.
"""

import random
from functools import cache

from topab.extensions import FactorSet
from topab.groups import FinAbGroup, Homomorphism, all_homs, subgroup
from topab.topology import TopAbGroup


@cache
def automorphisms(G: FinAbGroup) -> tuple[Homomorphism, ...]:
    return tuple(f for f in all_homs(G, G) if f.is_bijective())


def move_cocycle(
    A: TopAbGroup,
    B: TopAbGroup,
    h: FactorSet,
    phi_a: Homomorphism,
    phi_b: Homomorphism,
    t: dict,
) -> tuple[TopAbGroup, TopAbGroup, FactorSet]:
    """(A', B', h') for (A, B, h) moved along phi_a, phi_b and t."""
    GA, GB = A.group, B.group
    back = {y: x for x, y in phi_b.table.items()}
    entries = tuple(
        (b, bp, GA.add(phi_a(h(back[b], back[bp])), GA.sub(GA.add(t[b], t[bp]), t[GB.add(b, bp)])))
        for b in GB.elements
        for bp in GB.elements
    )
    return (
        TopAbGroup(GA, subgroup(GA, map(phi_a, A.open_core))),
        TopAbGroup(GB, subgroup(GB, map(phi_b, B.open_core))),
        FactorSet(GA, GB, entries),
    )


def random_cocycle_copy(
    rng: random.Random, A: TopAbGroup, B: TopAbGroup, h: FactorSet
) -> tuple[TopAbGroup, TopAbGroup, FactorSet]:
    """(A, B, h) moved along a drawn phi_A, phi_B and t."""
    GA, GB = A.group, B.group
    phi_a, phi_b = rng.choice(automorphisms(GA)), rng.choice(automorphisms(GB))
    t = {b: rng.choice(GA.elements) for b in GB.elements}
    t[GB.zero] = GA.zero
    return move_cocycle(A, B, h, phi_a, phi_b, t)
