"""Deterministic JSON serialization for the CLI.

Schema version 1.  Every document carries ``schema_version``, a
``kind`` in {DD, D, A, complex}, and the algebra ``sides`` its labels
live in.  All arrays are sorted, output is UTF-8 JSON with sorted keys,
and parsing rejects unknown fields, so parse(print(S)) == S and reruns
are byte-identical.
"""

import json

from .algebra import INTERVALS, check_token, idem_index, idem_token, is_idempotent, side_of
from .structures import (
    AGenerator,
    AModule,
    ChainComplexF2,
    DGenerator,
    DStructure,
    DDGenerator,
    DDStructure,
)

SCHEMA_VERSION = 1


def _require_fields(obj: dict, fields: set, where: str):
    if not isinstance(obj, dict):
        raise ValueError(f"{where}: expected an object")
    extra = set(obj) - fields
    if extra:
        raise ValueError(f"{where}: unknown fields {sorted(extra)}")
    missing = fields - set(obj)
    if missing:
        raise ValueError(f"{where}: missing fields {sorted(missing)}")


def _array(doc: dict, field: str) -> list:
    if not isinstance(doc[field], list):
        raise ValueError(f"{field}: expected an array")
    return doc[field]


def _name(value, where: str) -> str:
    if not isinstance(value, str):
        raise ValueError(f"{where}: generator names must be strings, got {value!r}")
    return value


def _idem(side: str, token: str) -> int:
    if side_of(token) != side or not is_idempotent(token):
        raise ValueError(f"bad idempotent token {token!r} for side {side}")
    return idem_index(token)


def to_dict(S) -> dict:
    if isinstance(S, DDStructure):
        return {
            "schema_version": SCHEMA_VERSION,
            "kind": "DD",
            "sides": ["left", "right"],
            "generators": [
                {
                    "name": g.name,
                    "left": idem_token("left", g.left),
                    "right": idem_token("right", g.right),
                }
                for g in sorted(S.generators, key=lambda g: g.name)
            ],
            "arrows": [
                {"source": s, "left": l, "right": r, "target": t}
                for s, l, r, t in sorted(S.arrows)
            ],
        }
    if isinstance(S, DStructure):
        return {
            "schema_version": SCHEMA_VERSION,
            "kind": "D",
            "sides": [S.side],
            "generators": [
                {"name": g.name, "idem": idem_token(S.side, g.idem)}
                for g in sorted(S.generators, key=lambda g: g.name)
            ],
            "arrows": [
                {"source": s, "label": t, "target": z}
                for s, t, z in sorted(S.arrows)
            ],
        }
    if isinstance(S, AModule):
        return {
            "schema_version": SCHEMA_VERSION,
            "kind": "A",
            "sides": [],
            "generators": [
                {"name": g.name, "occupancy": g.occupancy}
                for g in sorted(S.generators, key=lambda g: g.name)
            ],
            "operations": [
                {"source": s, "chords": list(seq), "target": t}
                for s, seq, t in sorted(S.operations)
            ],
            "capped_arity": S.capped_arity,
        }
    if isinstance(S, ChainComplexF2):
        return {
            "schema_version": SCHEMA_VERSION,
            "kind": "complex",
            "sides": [],
            "generators": sorted(S.generators),
            "arrows": [
                {"source": s, "target": t} for s, t in sorted(S.arrows)
            ],
        }
    raise ValueError(f"cannot serialize a {type(S).__name__}")


def to_json(S) -> str:
    return json.dumps(to_dict(S), indent=2, sort_keys=True) + "\n"


def from_dict(doc: dict):
    if not isinstance(doc, dict):
        raise ValueError("top level: expected an object")
    if doc.get("schema_version") != SCHEMA_VERSION:
        raise ValueError(f"unsupported schema_version {doc.get('schema_version')!r}")
    kind = doc.get("kind")
    if kind == "DD":
        _require_fields(
            doc, {"schema_version", "kind", "sides", "generators", "arrows"}, "DD"
        )
        if doc["sides"] != ["left", "right"]:
            raise ValueError("DD structures carry sides ['left', 'right']")
        gens = []
        for g in _array(doc, "generators"):
            _require_fields(g, {"name", "left", "right"}, "generator")
            gens.append(
                DDGenerator(
                    _name(g["name"], "generator"),
                    _idem("left", g["left"]),
                    _idem("right", g["right"]),
                )
            )
        arrows = set()
        for a in _array(doc, "arrows"):
            _require_fields(a, {"source", "left", "right", "target"}, "arrow")
            src, tgt = _name(a["source"], "arrow"), _name(a["target"], "arrow")
            arrows.add((src, check_token(a["left"]), check_token(a["right"]), tgt))
        return DDStructure(tuple(gens), frozenset(arrows))
    if kind == "D":
        _require_fields(
            doc, {"schema_version", "kind", "sides", "generators", "arrows"}, "D"
        )
        if doc["sides"] not in (["left"], ["right"]):
            raise ValueError("D structures carry one side")
        side = doc["sides"][0]
        gens = []
        for g in _array(doc, "generators"):
            _require_fields(g, {"name", "idem"}, "generator")
            gens.append(DGenerator(_name(g["name"], "generator"), _idem(side, g["idem"])))
        arrows = set()
        for a in _array(doc, "arrows"):
            _require_fields(a, {"source", "label", "target"}, "arrow")
            src, tgt = _name(a["source"], "arrow"), _name(a["target"], "arrow")
            arrows.add((src, check_token(a["label"]), tgt))
        return DStructure(side, tuple(gens), frozenset(arrows))
    if kind == "A":
        _require_fields(
            doc,
            {"schema_version", "kind", "sides", "generators", "operations", "capped_arity"},
            "A",
        )
        if doc["sides"] != []:
            raise ValueError("A modules store side-agnostic chords")
        gens = []
        for g in _array(doc, "generators"):
            _require_fields(g, {"name", "occupancy"}, "generator")
            if g["occupancy"] not in (1, 2):
                raise ValueError(f"bad occupancy {g['occupancy']!r}")
            gens.append(AGenerator(_name(g["name"], "generator"), g["occupancy"]))
        ops = set()
        for o in _array(doc, "operations"):
            _require_fields(o, {"source", "chords", "target"}, "operation")
            seq = tuple(_array(o, "chords"))
            for c in seq:
                if c not in INTERVALS:
                    raise ValueError(f"unknown chord interval {c!r}")
            ops.add((_name(o["source"], "operation"), seq, _name(o["target"], "operation")))
        cap = doc["capped_arity"]
        if cap is not None and (not isinstance(cap, int) or cap < 0):
            raise ValueError(f"bad capped_arity {cap!r}")
        return AModule(tuple(gens), frozenset(ops), cap)
    if kind == "complex":
        _require_fields(
            doc, {"schema_version", "kind", "sides", "generators", "arrows"}, "complex"
        )
        if doc["sides"] != []:
            raise ValueError("complexes carry no algebra labels")
        gens = tuple(_name(g, "generator") for g in _array(doc, "generators"))
        arrows = set()
        for a in _array(doc, "arrows"):
            _require_fields(a, {"source", "target"}, "arrow")
            arrows.add((_name(a["source"], "arrow"), _name(a["target"], "arrow")))
        return ChainComplexF2(gens, frozenset(arrows))
    raise ValueError(f"unknown kind {kind!r}")


def from_json(text: str):
    return from_dict(json.loads(text))
