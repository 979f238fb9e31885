"""The JSON codec of every value that crosses the CLI or witness boundary.

`to_json` encodes a value by its type; a tuple is an array, and a dataclass
with no encoder of its own (a topologized group, a search row, a family
spec, a witness instance) is the object of its fields.  A dual group writes
each of its characters G -> Z/e as the table of its values over the
denominator e.  `dumps` renders with sorted keys and compact separators so
repeated runs are byte-identical.
The decoders are strict: an element is an array of integers in its group,
and each value runs its own checks.  `map_from_json` and `section_from_json`
take the endpoints that the JSON of a map or a section leaves out.
"""

from __future__ import annotations

import json
from dataclasses import fields, is_dataclass
from functools import cache

from .extensions import AlgExtension, FactorSet, Section
from .duality import DualGroup
from .groups import Element, FinAbGroup, Homomorphism, Subgroup, subgroup
from .topology import TopAbGroup


def dumps(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def to_json(x):
    """The JSON of x, chosen by its type."""
    t = type(x)
    if t is tuple:
        if x and type(x[0]) is int:  # an element
            return list(x)
        return [to_json(y) for y in x]
    encode = _ENCODERS.get(t)
    if encode is not None:
        return encode(x)
    names = _field_names(t)
    return x if names is None else {n: to_json(getattr(x, n)) for n in names}


@cache
def _field_names(t: type) -> tuple[str, ...] | None:
    return tuple(f.name for f in fields(t)) if is_dataclass(t) else None


_ENCODERS = {
    FinAbGroup: lambda G: {"moduli": list(G.moduli)},
    Subgroup: lambda S: {"elements": to_json(S.elements)},
    Homomorphism: lambda f: to_json(f.gen_images),
    Section: lambda s: to_json(s.entries),
    FactorSet: lambda h: {"A": to_json(h.A), "B": to_json(h.B), "table": to_json(h.entries)},
    DualGroup: lambda d: {
        "structure": to_json(d.structure),
        "characters": [
            {
                "values": [[list(x), v] for x, (v,) in chi.table.items()],
                "denominator": chi.target.order,
            }
            for chi in d.characters
        ],
    },
}


def _ints(data) -> tuple[int, ...]:
    if any(type(c) is not int for c in data):  # rejects floats, strings, bools
        raise ValueError(f"expected an array of integers, got {data!r}")
    return tuple(data)


def element_from_json(G: FinAbGroup, data) -> Element:
    return G.check_element(_ints(data))


def group_from_json(data) -> FinAbGroup:
    return FinAbGroup(_ints(data["moduli"]))


def subgroup_from_json(parent: FinAbGroup, data) -> Subgroup:
    return subgroup(parent, [element_from_json(parent, x) for x in data["elements"]])


def map_from_json(source: FinAbGroup, target: FinAbGroup, images) -> Homomorphism:
    """The homomorphism source -> target with the given generator images."""
    return Homomorphism(source, target, tuple(element_from_json(target, x) for x in images))


def hom_from_json(data) -> Homomorphism:
    """A homomorphism with its endpoints: {"source", "target", "gen_images"}."""
    return map_from_json(
        group_from_json(data["source"]),
        group_from_json(data["target"]),
        data["gen_images"],
    )


def section_from_json(B: FinAbGroup, G: FinAbGroup, pairs) -> Section:
    """The section B -> G with the given table of pairs [b, g]."""
    return Section(
        B, G, tuple((element_from_json(B, b), element_from_json(G, g)) for b, g in pairs)
    )


def topgroup_from_json(data) -> TopAbGroup:
    G = group_from_json(data["group"])
    return TopAbGroup(G, subgroup_from_json(G, data["open_core"]))


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


def alg_extension_from_json(data) -> AlgExtension:
    return AlgExtension(
        topgroup_from_json(data["A"]),
        group_from_json(data["G"]),
        topgroup_from_json(data["B"]),
        hom_from_json(data["iota"]),
        hom_from_json(data["pi"]),
    )
