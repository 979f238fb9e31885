"""JSON codecs for every value that crosses the CLI boundary.

All encoders emit plain dict/list/int structures; `dumps` renders them with
sorted keys and compact separators so repeated runs are byte-identical.
"""

from __future__ import annotations

import json

from .extensions import AlgExtension, FactorSet, Section
from .duality import Character, DualGroup
from .groups import Element, FinAbGroup, Homomorphism, Subgroup, subgroup
from .topology import TopAbGroup


def dumps(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def element_to_json(x: Element) -> list[int]:
    return list(x)


def _ints(data) -> tuple[int, ...]:
    if any(type(c) is not int for c in data):  # rejects floats, strings, bools
        raise ValueError(f"expected an array of integers, got {data!r}")
    return tuple(data)


def element_from_json(G: FinAbGroup, data) -> Element:
    return G.check_element(_ints(data))


def group_to_json(G: FinAbGroup) -> dict:
    return {"moduli": list(G.moduli)}


def group_from_json(data) -> FinAbGroup:
    return FinAbGroup(_ints(data["moduli"]))


def subgroup_to_json(S: Subgroup) -> dict:
    return {"elements": [element_to_json(x) for x in S.elements]}


def subgroup_from_json(parent: FinAbGroup, data) -> Subgroup:
    return subgroup(parent, [element_from_json(parent, x) for x in data["elements"]])


def hom_from_json(data) -> Homomorphism:
    source = group_from_json(data["source"])
    target = group_from_json(data["target"])
    return Homomorphism(
        source,
        target,
        tuple(element_from_json(target, x) for x in data["gen_images"]),
    )


def topgroup_to_json(T: TopAbGroup) -> dict:
    return {
        "group": group_to_json(T.group),
        "open_core": subgroup_to_json(T.open_core),
    }


def topgroup_from_json(data) -> TopAbGroup:
    G = group_from_json(data["group"])
    return TopAbGroup(G, subgroup_from_json(G, data["open_core"]))


def cocycle_to_json(h: FactorSet) -> dict:
    return {
        "A": group_to_json(h.A),
        "B": group_to_json(h.B),
        "table": [
            [element_to_json(b), element_to_json(bp), element_to_json(a)]
            for b, bp, a in h.entries
        ],
    }


def cocycle_from_json(data) -> FactorSet:
    A = group_from_json(data["A"])
    B = group_from_json(data["B"])
    entries = tuple(
        (
            element_from_json(B, b),
            element_from_json(B, bp),
            element_from_json(A, a),
        )
        for b, bp, a in data["table"]
    )
    return FactorSet(A, B, entries)


def section_to_json(s: Section) -> dict:
    return {
        "table": [
            [element_to_json(b), element_to_json(g)] for b, g in s.entries
        ]
    }


def character_to_json(chi: Character) -> dict:
    return {
        "values": [
            [element_to_json(x), v] for x, v in sorted(chi.values.items())
        ],
        "denominator": chi.denominator,
    }


def dual_to_json(d: DualGroup) -> dict:
    return {
        "structure": group_to_json(d.structure),
        "characters": [character_to_json(c) for c in d.characters],
    }


def alg_extension_from_json(data) -> AlgExtension:
    return AlgExtension(
        topgroup_from_json(data["A"]),
        group_from_json(data["G"]),
        topgroup_from_json(data["B"]),
        hom_from_json(data["iota"]),
        hom_from_json(data["pi"]),
    )
