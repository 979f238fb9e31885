import pytest

from topab import jsonio
from topab.errors import ElementNotInGroup, InvalidCocycle
from topab.extensions import Section, canonical_section
from topab.duality import dual_group
from topab.groups import FinAbGroup, subgroup
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
