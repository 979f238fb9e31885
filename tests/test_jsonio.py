from dataclasses import fields, is_dataclass

import pytest

from topab import jsonio
from topab.errors import ElementNotInGroup, InvalidCocycle
from topab.extensions import FactorSet, Section, canonical_section
from topab.duality import dual_group
from topab.groups import FinAbGroup, Homomorphism, Subgroup, identity_hom, subgroup, zero_hom
from topab.search import THEOREMS
from topab.topology import discrete

from builders import (
    alg_extension_to_json,
    factor_set,
    hom_to_json,
    indiscrete,
    make_hom,
    split_extension,
    topologize,
)
from test_golden import GOLDEN_SPEC

Z2 = FinAbGroup([2])
Z4 = FinAbGroup([4])


def test_group_roundtrip():
    for mods in [(), (2,), (2, 4), (3, 9)]:
        g = FinAbGroup(mods)
        assert jsonio.group_from_json(jsonio.to_json(g)) == g


def test_subgroup_roundtrip():
    s = subgroup(Z4, [(0,), (2,)])
    back = jsonio.subgroup_from_json(Z4, jsonio.to_json(s))
    assert back == s


def test_element_validation():
    with pytest.raises(ElementNotInGroup):
        jsonio.element_from_json(Z4, [7])


def test_hom_roundtrip():
    f = make_hom(Z4, Z2, [(1,)])
    back = jsonio.hom_from_json(hom_to_json(f))
    assert back == f


def test_topgroup_roundtrip():
    t = topologize(Z4, [(0,), (2,)])
    assert jsonio.topgroup_from_json(jsonio.to_json(t)) == t


def test_cocycle_roundtrip_and_validation():
    h = factor_set(Z2, Z2, {((1,), (1,)): (1,)})
    back = jsonio.cocycle_from_json(jsonio.to_json(h))
    assert back == h
    bad = jsonio.to_json(h)
    bad["table"] = bad["table"][:2]
    with pytest.raises(InvalidCocycle):
        jsonio.cocycle_from_json(bad)
    repeated = jsonio.to_json(h)
    repeated["table"].append([[1], [1], [0]])
    with pytest.raises(InvalidCocycle):
        jsonio.cocycle_from_json(repeated)


def test_section_roundtrip():
    e = split_extension(discrete(Z2), discrete(Z2))
    s = canonical_section(e.alg)
    table = jsonio.to_json(s)
    back = Section(s.B, s.G, tuple((tuple(b), tuple(g)) for b, g in table))
    assert back == s


def test_character_roundtrip():
    t = topologize(Z4, [(0,), (2,)])
    d = dual_group(t)
    data = jsonio.to_json(d)
    assert len(data["characters"]) == len(d.characters) == 2
    for chi, chi_data in zip(d.characters, data["characters"]):
        assert chi_data["denominator"] == Z4.exponent
        assert [[tuple(x), (v,)] for x, v in chi_data["values"]] == [
            [x, chi(x)] for x in Z4.elements
        ]


def test_alg_extension_roundtrip():
    e = split_extension(discrete(Z2), indiscrete(Z2))
    data = alg_extension_to_json(e.alg)
    back = jsonio.alg_extension_from_json(data)
    assert back == e.alg


def test_dumps_byte_stable():
    t = topologize(Z4, [(0,), (2,)])
    a = jsonio.dumps(jsonio.to_json(t))
    b = jsonio.dumps(jsonio.topgroup_from_json(jsonio.to_json(t)) and jsonio.to_json(t))
    assert a == b == '{"group":{"moduli":[4]},"open_core":{"elements":[[0],[2]]}}'


def _by_the_tuple_rule(x):
    """The JSON of a subgroup, map, section or factor set with its element
    table encoded by jsonio.to_json's generic tuple rule."""
    if type(x) is Subgroup:
        return {"elements": jsonio.to_json(x.elements)}
    if type(x) is Homomorphism:
        return jsonio.to_json(x.gen_images)
    if type(x) is Section:
        return jsonio.to_json(x.entries)
    return {"A": jsonio.to_json(x.A), "B": jsonio.to_json(x.B), "table": jsonio.to_json(x.entries)}


def _tables_in(values) -> dict[int, object]:
    """Every subgroup, map, section and factor set reachable through the
    fields of the given values, by id."""
    found, seen, todo = {}, set(), list(values)
    while todo:
        x = todo.pop()
        if id(x) in seen:
            continue
        seen.add(id(x))
        if type(x) in (Subgroup, Homomorphism, Section, FactorSet):
            found[id(x)] = x
        if type(x) is tuple:
            todo.extend(x)
        elif is_dataclass(x):
            todo.extend(getattr(x, f.name) for f in fields(x))
    return found


def test_direct_table_encoders_equal_the_tuple_rule():
    """Every element table in the golden families, and over the trivial
    group, whose one element is (), encodes as the tuple rule encodes it."""
    families = {id(spec.build_family): spec.build_family for spec in THEOREMS.values()}
    instances = [inst for build in families.values() for _, inst in build(GOLDEN_SPEC)]
    T = FinAbGroup(())
    trivial = [
        subgroup(T, [()]),
        identity_hom(T),
        zero_hom(T, Z2),
        zero_hom(Z2, T),
        Section(T, T, (((), ()),)),
        Section(T, Z2, (((), (0,)),)),
        factor_set(T, T, {}),
        factor_set(Z2, T, {}),
        factor_set(T, Z2, {}),
    ]
    tables = _tables_in(instances + trivial)
    kinds = {type(x) for x in tables.values()}
    assert kinds == {Subgroup, Homomorphism, Section, FactorSet}
    for x in tables.values():
        assert jsonio.to_json(x) == _by_the_tuple_rule(x), x
