"""Deterministic JSON serialization for the CLI.

Schema version 1.  Every document carries ``schema_version``, a
``kind`` in {DD, D, A, complex}, and the algebra ``sides`` its labels
live in.  All arrays are sorted, and the output is exactly what
``json.dumps(doc, indent=2, sort_keys=True)`` prints (ASCII, non-ASCII
characters escaped) plus a trailing newline.  Parsing rejects unknown
fields, so parse(print(S)) == S and reruns are byte-identical.
"""

import json
from collections import Counter
from json.encoder import encode_basestring_ascii as _quote

from .algebra import (
    SIDES,
    check_token,
    idem_index,
    idem_token,
    is_idempotent,
    side_of,
)
from .structures import (
    _BARE,
    _DD_CODE,
    _DD_ID,
    _D_ID,
    _INTERVAL,
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

# side -> {idempotent index -> token}
_IDEM = {side: {k: idem_token(side, k) for k in (1, 2)} for side in SIDES}
# DD idempotent code -> (left token, right token)
_DD_TOKENS = {c: (_IDEM["left"][a], _IDEM["right"][b]) for (a, b), c in _DD_CODE.items()}


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

    A module is laid out by json.dumps itself.  A DD, D or complex fills
    fixed templates, so every generator and arrow costs one string format;
    names are escaped by the encoder json.dumps uses, and tokens are plain
    ASCII.  It is printed from its numbered view: generators from
    ``names`` (sorted at construction) and ``codes``, arrows from
    ``steps`` by source number, label id, then target number, which is
    sorted arrow order.
    """
    if isinstance(S, AModule):
        doc = {
            "generators": [{"name": g.name, "occupancy": g.occupancy} for g in S.generators],
            "kind": "A",
            "operations": [{"chords": list(c), "source": s, "target": t} for s, c, t in sorted(S.operations)],
            "schema_version": SCHEMA_VERSION,
            "sides": [],
        }
        return json.dumps(doc, indent=2, sort_keys=True) + "\n"
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


# kind -> (structure class, generator class, generator idempotent fields,
# arrow label fields); a complex's generators are bare names
_NUMBERED = {
    "DD": (DDStructure, DDGenerator, ("left", "right"), ("left", "right")),
    "D": (DStructure, DGenerator, ("idem",), ("label",)),
    "complex": (ChainComplexF2, None, (), ()),
}
# kind -> (the sides a document may carry, the message if it carries others)
_SIDES = {
    "DD": ([["left", "right"]], "DD structures carry sides ['left', 'right']"),
    "D": ([["left"], ["right"]], "D structures carry one side"),
    "complex": ([[]], "complexes carry no algebra labels"),
}
# sides -> {idempotent token: code}, nested left then right for DD
_CODES = {(side,): {token: k for k, token in _IDEM[side].items()} for side in SIDES}
_CODES[SIDES] = {
    _IDEM["left"][a]: {_IDEM["right"][b]: _DD_CODE[a, b] for b in (1, 2)} for a in (1, 2)
}


def _rows(doc, kind, sides):
    """(names, codes, rows) of a DD, D or complex document: the sorted
    generator names, their idempotent codes, and per source number the
    sorted (label id, target number) of its arrow objects, each filed
    straight into its row.  None at the first object that is not exactly
    its fields with string names and known tokens and endpoints; the
    named route then finds the message.  A token of the other side is
    filed too: the internal constructor names it.  An object with the
    right number of fields and every field read has exactly the right
    fields."""
    gens = _array(doc, "generators")
    fields = _NUMBERED[kind][2]
    try:
        if kind == "complex":
            if not all(type(g) is str for g in gens):
                return None
            named = [(g, 0) for g in gens]
        else:
            named = []
            for g in gens:
                if type(g) is not dict or len(g) != 1 + len(fields) or type(g["name"]) is not str:
                    return None
                code = _CODES[sides]
                for field in fields:
                    code = code[g[field]]
                named.append((g["name"], code))
        named.sort()
        names = tuple(name for name, _ in named)
        index = {name: k for k, name in enumerate(names)}
        rows = [[] for _ in names]
        arrows = _array(doc, "arrows")
        if kind == "DD":
            for a in arrows:
                if type(a) is not dict or len(a) != 4:
                    return None
                step = _DD_ID[a["left"]][a["right"]], index[a["target"]]
                rows[index[a["source"]]].append(step)
        elif kind == "D":
            for a in arrows:
                if type(a) is not dict or len(a) != 3:
                    return None
                rows[index[a["source"]]].append((_D_ID[a["label"]], index[a["target"]]))
        else:
            for a in arrows:
                if type(a) is not dict or len(a) != 2:
                    return None
                rows[index[a["source"]]].append((_BARE, index[a["target"]]))
    except (KeyError, TypeError):  # a missing field, or an unknown or unhashable value
        return None
    for row in rows:
        row.sort()
    return names, tuple(code for _, code in named), rows


def _from_view(cls, names, codes, rows, side):
    """The structure of class cls on the view, checked by the internal
    constructor; then a ValueError naming any arrow listed twice, since
    an arrow repeated in a sum over F2 cancels and none is printed so."""
    S = cls._from_rows(names, codes, rows, side)
    for x, row in enumerate(rows):
        if len(set(row)) < len(row):
            a, t = next(step for step, following in zip(row, row[1:]) if step == following)
            raise ValueError(f"arrow listed twice: {(names[x], *_LABELS[a], names[t])}")
    return S


def _module(generators, operations):
    """The AModule of the operation list, checked by its constructor;
    then a ValueError naming the first operation listed twice, since a
    repeated operation over F2 cancels and none is printed so."""
    M = AModule(generators, operations)
    twice = [op for op, k in Counter(operations).items() if k > 1]
    if twice:
        raise ValueError(f"operation listed twice: {twice[0]}")
    return M


def _named(doc, kind, sides):
    """(constructor, arguments) of the document through the public
    constructor, every object checked field by field, in order."""
    cls, gen_cls, idem_fields, label_fields = _NUMBERED[kind]
    gens = []
    for g in _array(doc, "generators"):
        if gen_cls is None:
            gens.append(_name(g, "generator"))
            continue
        _require_fields(g, {"name", *idem_fields}, "generator")
        name = _name(g["name"], "generator")
        gens.append(gen_cls(name, *[_idem(s, g[f]) for s, f in zip(sides, idem_fields)]))
    arrows = set()
    for a in _array(doc, "arrows"):
        _require_fields(a, {"source", "target", *label_fields}, "arrow")
        src, tgt = _name(a["source"], "arrow"), _name(a["target"], "arrow")
        arrows.add((src, *[check_token(a[f]) for f in label_fields], tgt))
    side = sides[:1] if kind == "D" else ()
    return cls, (*side, tuple(gens), frozenset(arrows))


def _parse(doc):
    """(constructor, arguments) of the structure the parsed document doc
    describes, every field checked; the constructor checks the rest.  A
    DD, D or complex document is read straight into its numbered view;
    one that does not read cleanly is read again by name, so each fault
    gets the public constructor's message."""
    if not isinstance(doc, dict):
        raise ValueError("top level: expected an object")
    version = doc.get("schema_version")
    if type(version) is not int or version != SCHEMA_VERSION:
        raise ValueError(f"unsupported schema_version {version!r}")
    kind = doc.get("kind")
    if kind in ("DD", "D", "complex"):
        _require_fields(
            doc, {"schema_version", "kind", "sides", "generators", "arrows"}, kind
        )
        allowed, message = _SIDES[kind]
        if doc["sides"] not in allowed:
            raise ValueError(message)
        sides = tuple(doc["sides"])
        view = _rows(doc, kind, sides)
        if view is None:
            return _named(doc, kind, sides)
        return _from_view, (_NUMBERED[kind][0], *view, sides[0] if kind == "D" else None)
    if kind == "A":
        _require_fields(doc, {"schema_version", "kind", "sides", "generators", "operations"}, "A")
        if doc["sides"] != []:
            raise ValueError("A modules store side-agnostic chords")
        gens = []
        for g in _array(doc, "generators"):
            _require_fields(g, {"name", "occupancy"}, "generator")
            if type(g["occupancy"]) is not int or g["occupancy"] not in (1, 2):
                raise ValueError(f"bad occupancy {g['occupancy']!r}")
            gens.append(AGenerator(_name(g["name"], "generator"), g["occupancy"]))
        ops = []
        for o in _array(doc, "operations"):
            _require_fields(o, {"source", "chords", "target"}, "operation")
            seq = tuple(_array(o, "chords"))
            for c in seq:
                if type(c) is not str or c not in _INTERVAL:  # c + "*" for a starred chord
                    raise ValueError(f"unknown chord interval {c!r}")
            ops.append((_name(o["source"], "operation"), seq, _name(o["target"], "operation")))
        return _module, (tuple(gens), ops)
    raise ValueError(f"unknown kind {kind!r}")


def from_json(text: str):
    try:
        doc = json.loads(text)
    except RecursionError:
        raise ValueError("document nested too deeply") from None
    make, args = _parse(doc)
    del doc  # the structure is built and checked without the document alive
    return make(*args)
