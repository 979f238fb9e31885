import pytest

from topab import jsonio
from topab.errors import ElementNotInGroup, InvalidCocycle
from topab.extensions import (
    canonical_section,
    factor_set,
    split_extension,
)
from topab.duality import dual_group
from topab.groups import make_group, make_hom, subgroup
from topab.topology import discrete, indiscrete, topologize

Z2 = make_group([2])
Z4 = make_group([4])


def test_group_roundtrip():
    for mods in [(), (2,), (2, 4), (3, 9)]:
        g = make_group(mods)
        assert jsonio.group_from_json(jsonio.group_to_json(g)) == g


def test_subgroup_roundtrip():
    s = subgroup(Z4, [(0,), (2,)])
    back = jsonio.subgroup_from_json(Z4, jsonio.subgroup_to_json(s))
    assert back == s


def test_element_validation():
    with pytest.raises(ElementNotInGroup):
        jsonio.element_from_json(Z4, [7])


def test_hom_roundtrip():
    f = make_hom(Z4, Z2, [(1,)])
    back = jsonio.hom_from_json(jsonio.hom_to_json(f))
    assert back == f


def test_topgroup_roundtrip():
    t = topologize(Z4, [(0,), (2,)])
    assert jsonio.topgroup_from_json(jsonio.topgroup_to_json(t)) == t


def test_cocycle_roundtrip_and_validation():
    h = factor_set(Z2, Z2, {((1,), (1,)): (1,)})
    back = jsonio.cocycle_from_json(jsonio.cocycle_to_json(h))
    assert back == h
    bad = jsonio.cocycle_to_json(h)
    bad["table"] = bad["table"][:2]
    with pytest.raises(InvalidCocycle):
        jsonio.cocycle_from_json(bad)


def test_section_roundtrip():
    e = split_extension(discrete(Z2), discrete(Z2))
    s = canonical_section(e.alg)
    back = jsonio.section_from_json(s.B, s.G, jsonio.section_to_json(s))
    assert back == s


def test_character_roundtrip():
    t = topologize(Z4, [(0,), (2,)])
    d = dual_group(t)
    for chi in d.characters:
        back = jsonio.character_from_json(Z4, jsonio.character_to_json(chi))
        assert back == chi


@pytest.mark.parametrize(
    "moduli, field, bad",
    [
        ([4], "denominator", 4.0),
        # true reads as 1, the exponent of the trivial group
        ([], "denominator", True),
        ([4], "denominator", "4"),
        ([4], "value", 1.5),
    ],
)
def test_character_rejects_non_integer_json(moduli, field, bad):
    G = make_group(moduli)
    data = jsonio.character_to_json(dual_group(topologize(G, [G.zero])).characters[-1])
    if field == "denominator":
        data["denominator"] = bad
    else:
        data["values"][-1][1] = bad
    with pytest.raises(ValueError):
        jsonio.character_from_json(G, data)


def test_extension_roundtrip():
    e = split_extension(discrete(Z2), indiscrete(Z2))
    back = jsonio.extension_from_json(jsonio.extension_to_json(e))
    assert back.G == e.G and back.iota.map == e.iota.map


def test_alg_extension_roundtrip():
    e = split_extension(discrete(Z2), indiscrete(Z2))
    data = jsonio.alg_extension_to_json(e.alg)
    back = jsonio.alg_extension_from_json(data)
    assert back == e.alg


def test_dumps_byte_stable():
    t = topologize(Z4, [(0,), (2,)])
    a = jsonio.dumps(jsonio.topgroup_to_json(t))
    b = jsonio.dumps(jsonio.topgroup_from_json(jsonio.topgroup_to_json(t)) and jsonio.topgroup_to_json(t))
    assert a == b == '{"group":{"moduli":[4]},"open_core":{"elements":[[0],[2]]}}'
