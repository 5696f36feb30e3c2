"""Deterministic JSON serialization for the CLI.

Schema version 1.  Every document carries ``schema_version``, a
``kind`` in {DD, D, A, complex}, and the algebra ``sides`` its labels
live in.  All arrays are sorted, and the output is exactly what
``json.dumps(doc, indent=2, sort_keys=True)`` prints (ASCII, non-ASCII
characters escaped) plus a trailing newline.  Parsing rejects unknown
fields, so parse(print(S)) == S and reruns are byte-identical.
"""

import json
from json.encoder import encode_basestring_ascii as _quote

from .algebra import (
    INTERVALS,
    SIDES,
    basis_tokens,
    check_token,
    idem_index,
    idem_token,
    is_idempotent,
    side_of,
)
from .structures import (
    _DD_CODE,
    _LABELS,
    AGenerator,
    AModule,
    ChainComplexF2,
    DGenerator,
    DStructure,
    DDGenerator,
    DDStructure,
)

SCHEMA_VERSION = 1

# side -> {idempotent index -> token}, and its inverse
_IDEM = {side: {k: idem_token(side, k) for k in (1, 2)} for side in SIDES}
_INDEX = {side: {t: k for k, t in tokens.items()} for side, tokens in _IDEM.items()}
# DD idempotent code -> (left token, right token)
_DD_TOKENS = {c: (_IDEM["left"][a], _IDEM["right"][b]) for (a, b), c in _DD_CODE.items()}
_TOKENS = frozenset(basis_tokens("left") + basis_tokens("right"))
_DD_GENERATOR = {"name", "left", "right"}
_DD_ARROW = {"source", "left", "right", "target"}


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


def _block(items, indent: str = "  ") -> str:
    """A JSON array of already-encoded items, laid out as json.dumps with
    indent=2 lays it out when its closing bracket sits at indent."""
    if not items:
        return "[]"
    return "[\n" + ",\n".join(items) + f"\n{indent}]"


def _document(kind: str, sides, **fields) -> str:
    """The top-level object: kind, schema_version, sides and the already
    encoded fields, keys sorted."""
    fields.update(
        kind=_quote(kind),
        schema_version=str(SCHEMA_VERSION),
        sides=_block([f'    "{side}"' for side in sides]),
    )
    return "{\n" + ",\n".join(f'  "{k}": {fields[k]}' for k in sorted(fields)) + "\n}\n"


# label id -> the start of an arrow object, up to its source name: fields
# "left" and "right" for a DD label (l, r), "label" for a D label (t,),
# none for the empty label of a complex
_HEADS = [
    "    {\n      "
    + "".join(f'"{field}": "{token}",\n      ' for field, token in zip(fields, label))
    + '"source": '
    for label in _LABELS
    for fields in [("left", "right") if len(label) == 2 else ("label",)]
]


def to_json(S) -> str:
    """S as a schema-version-1 document, laid out exactly as
    json.dumps(doc, indent=2, sort_keys=True) prints it, plus a newline.

    Each kind fills fixed templates, so every generator and arrow costs
    one string format.  Names are escaped by the encoder json.dumps uses;
    tokens and chord intervals are plain ASCII.  A DD, D or complex is
    printed from its numbered view: generators from ``names`` (sorted at
    construction) and ``codes``, arrows from ``steps`` by source number,
    label id, then target number, which is sorted arrow order.
    """
    if isinstance(S, AModule):
        q = {g.name: _quote(g.name) for g in S.generators}
        gens = [
            f'    {{\n      "name": {q[g.name]},\n'
            f'      "occupancy": {json.dumps(g.occupancy)}\n    }}'
            for g in S.generators
        ]
        ops = []
        for s, seq, t in sorted(S.operations):
            chords = _block([f'        "{c}"' for c in seq], "      ")
            ops.append(
                f'    {{\n      "chords": {chords},\n'
                f'      "source": {q[s]},\n      "target": {q[t]}\n    }}'
            )
        return _document(
            "A",
            (),
            capped_arity=json.dumps(S.capped_arity),
            generators=_block(gens),
            operations=_block(ops),
        )
    if not isinstance(S, (DDStructure, DStructure, ChainComplexF2)):
        raise ValueError(f"cannot serialize a {type(S).__name__}")
    q = [_quote(name) for name in S.names]
    arrows = _block(
        [
            f'{_HEADS[a]}{source},\n      "target": {q[t]}\n    }}'
            for source, steps in zip(q, S.steps)
            for a, t in steps
        ]
    )
    if isinstance(S, DDStructure):
        gens = [
            f'    {{\n      "left": "{_DD_TOKENS[c][0]}",\n      "name": {name},\n'
            f'      "right": "{_DD_TOKENS[c][1]}"\n    }}'
            for c, name in zip(S.codes, q)
        ]
        return _document("DD", SIDES, arrows=arrows, generators=_block(gens))
    if isinstance(S, DStructure):
        idem = _IDEM[S.side]
        gens = [
            f'    {{\n      "idem": "{idem[c]}",\n      "name": {name}\n    }}'
            for c, name in zip(S.codes, q)
        ]
        return _document("D", (S.side,), arrows=arrows, generators=_block(gens))
    return _document("complex", (), arrows=arrows, generators=_block([f"    {name}" for name in q]))


def _parse(doc):
    """(constructor, arguments) of the structure the parsed document doc
    describes, every field checked; the constructor checks the rest."""
    if not isinstance(doc, dict):
        raise ValueError("top level: expected an object")
    version = doc.get("schema_version")
    if type(version) is not int or version != SCHEMA_VERSION:
        raise ValueError(f"unsupported schema_version {version!r}")
    kind = doc.get("kind")
    if kind == "DD":
        _require_fields(
            doc, {"schema_version", "kind", "sides", "generators", "arrows"}, "DD"
        )
        if doc["sides"] != ["left", "right"]:
            raise ValueError("DD structures carry sides ['left', 'right']")
        # Each object whose fields are exactly right and all strings, with
        # known tokens, is read directly; anything else goes through the
        # field-by-field checks that name what is wrong.
        left, right = _INDEX["left"], _INDEX["right"]
        gens = []
        for g in _array(doc, "generators"):
            if type(g) is dict and g.keys() == _DD_GENERATOR:
                name, l, r = g["name"], g["left"], g["right"]
                if type(name) is type(l) is type(r) is str and l in left and r in right:
                    gens.append(DDGenerator(name, left[l], right[r]))
                    continue
            _require_fields(g, _DD_GENERATOR, "generator")
            gens.append(
                DDGenerator(
                    _name(g["name"], "generator"),
                    _idem("left", g["left"]),
                    _idem("right", g["right"]),
                )
            )
        arrows = set()
        add = arrows.add
        for a in _array(doc, "arrows"):
            if type(a) is dict and a.keys() == _DD_ARROW:
                s, l, r, t = a["source"], a["left"], a["right"], a["target"]
                if type(s) is type(l) is type(r) is type(t) is str and l in _TOKENS and r in _TOKENS:
                    add((s, l, r, t))
                    continue
            _require_fields(a, _DD_ARROW, "arrow")
            src, tgt = _name(a["source"], "arrow"), _name(a["target"], "arrow")
            add((src, check_token(a["left"]), check_token(a["right"]), tgt))
        return DDStructure, (tuple(gens), frozenset(arrows))
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
        return DStructure, (side, tuple(gens), frozenset(arrows))
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
            if type(g["occupancy"]) is not int or g["occupancy"] not in (1, 2):
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
        return AModule, (tuple(gens), frozenset(ops), doc["capped_arity"])
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
        return ChainComplexF2, (gens, frozenset(arrows))
    raise ValueError(f"unknown kind {kind!r}")


def from_json(text: str):
    try:
        doc = json.loads(text)
    except RecursionError:
        raise ValueError("document nested too deeply") from None
    make, args = _parse(doc)
    del doc  # the structure builds its view without the document alive
    return make(*args)
