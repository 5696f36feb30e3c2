import json

import pytest

from bpc.pairing import box_right
from bpc.serialize import from_json, to_json
from bpc.solid_torus import build_cfa_framed, build_cfa_infinity
from bpc.structures import ChainComplexF2
from bpc.torus_link import build_cfdd_full, build_cfdd_simplified


def fixtures():
    full = build_cfdd_full(2)
    return [
        full,
        build_cfdd_simplified(3),
        box_right(build_cfa_framed(2), full),
        build_cfa_infinity(3),
        build_cfa_framed(4),
        ChainComplexF2(("a", "b", "c"), frozenset({("a", "b")})),
    ]


@pytest.mark.parametrize("S", fixtures(), ids=lambda s: type(s).__name__)
def test_round_trip_identity(S):
    assert from_json(to_json(S)) == S


@pytest.mark.parametrize("S", fixtures(), ids=lambda s: type(s).__name__)
def test_byte_identical_output(S):
    assert to_json(S) == to_json(from_json(to_json(S)))


def test_unknown_top_level_field_rejected():
    doc = json.loads(to_json(build_cfdd_full(1)))
    doc["comment"] = "hello"
    with pytest.raises(ValueError, match="unknown fields"):
        from_json(json.dumps(doc))


def test_unknown_nested_field_rejected():
    doc = json.loads(to_json(build_cfdd_full(1)))
    doc["arrows"][0]["color"] = "blue"
    with pytest.raises(ValueError, match="unknown fields"):
        from_json(json.dumps(doc))


def test_bad_schema_version_rejected():
    doc = json.loads(to_json(build_cfdd_full(1)))
    doc["schema_version"] = 2
    with pytest.raises(ValueError, match="schema_version"):
        from_json(json.dumps(doc))


def test_bad_kind_rejected():
    with pytest.raises(ValueError, match="unknown kind"):
        from_json(json.dumps({"schema_version": 1, "kind": "XYZ"}))


def test_bad_token_rejected():
    doc = json.loads(to_json(build_cfdd_full(1)))
    doc["arrows"][0]["left"] = "r4"
    with pytest.raises(ValueError):
        from_json(json.dumps(doc))


def test_incoherent_arrow_rejected():
    doc = json.loads(to_json(build_cfdd_full(1)))
    doc["arrows"][0]["left"] = "r2"
    with pytest.raises(ValueError):
        from_json(json.dumps(doc))


def test_sides_validated():
    doc = json.loads(to_json(build_cfdd_full(1)))
    doc["sides"] = ["right", "left"]
    with pytest.raises(ValueError, match="sides"):
        from_json(json.dumps(doc))


@pytest.mark.parametrize("S", fixtures(), ids=lambda s: type(s).__name__)
def test_non_string_names_rejected(S):
    doc = json.loads(to_json(S))
    if doc["kind"] == "complex":
        doc["generators"][0] = 7
    else:
        doc["generators"][0]["name"] = 7
    with pytest.raises(ValueError, match="strings"):
        from_json(json.dumps(doc))
    doc = json.loads(to_json(S))
    edges = doc["operations" if doc["kind"] == "A" else "arrows"]
    edges[0]["source"] = ["a"]
    with pytest.raises(ValueError, match="strings"):
        from_json(json.dumps(doc))


@pytest.mark.parametrize("field", ["generators", "arrows"])
def test_non_array_fields_rejected(field):
    doc = json.loads(to_json(ChainComplexF2(("a", "b"), frozenset({("a", "b")}))))
    doc[field] = "ab"
    with pytest.raises(ValueError, match="array"):
        from_json(json.dumps(doc))


def test_non_string_token_rejected():
    doc = json.loads(to_json(build_cfdd_full(1)))
    doc["arrows"][0]["left"] = ["r1"]
    with pytest.raises(ValueError, match="token"):
        from_json(json.dumps(doc))
