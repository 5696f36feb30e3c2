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

from .algebra import check_token, is_idempotent, side_of
from .structures import (
    _BARE,
    _DD_ID,
    _D_ID,
    _INTERVAL,
    _IS_UNIT,
    _KINDS,
    _LABEL_ID,
    _LABELS,
    AGenerator,
    AModule,
    ChainComplexF2,
    DStructure,
    DDStructure,
    _arrows,
    _reject,
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


def _idem(side: str, token: str) -> str:
    if side_of(token) != side or not is_idempotent(token):
        raise ValueError(f"bad idempotent token {token!r} for side {side}")
    return token


def _bracket(out, start):
    """Lay out out[start:], the pieces of a top-level field's items, each
    item led by ",\n", as json.dumps with indent=2 lays out the array."""
    if len(out) == start:
        out.append("[]")
    else:
        out[start] = "[\n"
        out.append("\n  ]")


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
_TARGET, _CLOSE = ',\n      "target": ', "\n    }"
# a generator's code, the id of its unit label (l, r), (t,) or () -> (its
# generator object up to the name, the rest of it)
_GENERATORS = {
    **{
        c: (f'    {{\n      "left": "{l}",\n      "name": ', f',\n      "right": "{r}"{_CLOSE}')
        for l, right in _DD_ID.items()
        for r, c in right.items()
        if _IS_UNIT[c]
    },
    **{c: (f'    {{\n      "idem": "{t}",\n      "name": ', _CLOSE) for t, c in _D_ID.items() if _IS_UNIT[c]},
    _BARE: ("    ", ""),
}


def to_json(S) -> str:
    """S as a schema-version-1 document, laid out exactly as
    json.dumps(doc, indent=2, sort_keys=True) prints it, plus a newline.

    A module is laid out by json.dumps itself.  A DD, D or complex is
    one list of pieces joined once: fixed template strings, separators,
    and each name quoted once by the encoder json.dumps uses (tokens are
    plain ASCII).  It is printed from its numbered view: generators from
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
    kind = _KINDS.get(type(S))
    if kind is None:
        raise ValueError(f"cannot serialize a {type(S).__name__}")
    q = [_quote(name) for name in S.names]
    out = ['{\n  "arrows": ']
    add = out.extend
    for source, steps in zip(q, S.steps):
        for a, t in steps:
            add((",\n", _HEADS[a], source, _TARGET, q[t], _CLOSE))
    _bracket(out, 1)
    out.append(',\n  "generators": ')
    start = len(out)
    around = _GENERATORS
    for c, name in zip(S.codes, q):
        head, tail = around[c]
        add((",\n", head, name, tail))
    _bracket(out, start)
    out.append(f',\n  "kind": "{kind}",\n  "schema_version": {SCHEMA_VERSION},\n  "sides": ')
    start = len(out)
    for side in S._SIDES if S.side is None else (S.side,):
        add((",\n", f'    "{side}"'))
    _bracket(out, start)
    out.append("\n}\n")
    return "".join(out)


# kind -> (the sides its documents may carry, the message if one carries
# others), then for a numbered kind its class, generator idempotent fields
# and arrow label fields; a complex's generators are bare names
_DOCUMENTS = {
    "DD": ([["left", "right"]], "DD structures carry sides ['left', 'right']",
           DDStructure, ("left", "right"), ("left", "right")),
    "D": ([["left"], ["right"]], "D structures carry one side", DStructure, ("idem",), ("label",)),
    "complex": ([[]], "complexes carry no algebra labels", ChainComplexF2, (), ()),
    "A": ([[]], "A modules store side-agnostic chords"),
}


def _compact(obj):
    """The json object_hook of the first parse.  An object that is
    exactly an arrow's fields becomes the triple (source, label id,
    target): left, right, source, target for DD, label, source, target
    for D, source, target for a complex.  One that is exactly a
    generator's fields becomes the pair (name, code), the code the id of
    its label: (left, right) for DD (left, name, right), (idem,) for D
    (idem, name).  Any other object, or one with an unknown or
    unhashable token, stays a dict.  Only the hook makes tuples, and all
    but their names and endpoints come from the label tables, so a tuple
    where no arrow or generator of the document's kind belongs gives that
    object away: a chord or a token of another side makes a code that is
    no unit label of the kind, which the internal constructor refuses."""
    n = len(obj)
    try:
        if n == 4:
            return obj["source"], _DD_ID[obj["left"]][obj["right"]], obj["target"]
        if n == 3:
            if "label" in obj:
                return obj["source"], _D_ID[obj["label"]], obj["target"]
            return obj["name"], _DD_ID[obj["left"]][obj["right"]]
        if n == 2:
            if "source" in obj:
                return obj["source"], _BARE, obj["target"]
            return obj["name"], _D_ID[obj["idem"]]
    except (KeyError, TypeError):  # another object, or an unknown or unhashable token
        pass
    return obj


def _generator(g, fields, sides):
    """(name, code) of the generator g, read field by field."""
    if not fields:
        return _name(g, "generator"), _BARE
    _require_fields(g, {"name", *fields}, "generator")
    name = _name(g["name"], "generator")
    return name, _LABEL_ID[tuple(_idem(s, g[f]) for s, f in zip(sides, fields))]


def _arrow(a, fields):
    """The arrow object a by name, (source, *label tokens, target), read
    field by field."""
    _require_fields(a, {"source", "target", *fields}, "arrow")
    src, tgt = _name(a["source"], "arrow"), _name(a["target"], "arrow")
    return (src, *[check_token(a[f]) for f in fields], tgt)


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


def _header(doc):
    """(kind, sides) of the parsed document doc, its top-level fields
    checked: an A document lists operations, the others arrows."""
    if not isinstance(doc, dict):
        raise ValueError("top level: expected an object")
    version = doc.get("schema_version")
    if type(version) is not int or version != SCHEMA_VERSION:
        raise ValueError(f"unsupported schema_version {version!r}")
    kind = doc.get("kind")
    if kind not in tuple(_DOCUMENTS):  # not a dict lookup: the kind may be unhashable
        raise ValueError(f"unknown kind {kind!r}")
    edges = "operations" if kind == "A" else "arrows"
    _require_fields(doc, {"schema_version", "kind", "sides", "generators", edges}, kind)
    allowed, message = _DOCUMENTS[kind][:2]
    if doc["sides"] not in allowed:
        raise ValueError(message)
    return kind, tuple(doc["sides"])


def _read(doc):
    """(constructor, arguments) of the structure the parsed document doc
    describes, every object checked in order, generators before arrows.

    A DD, D or complex document's generators and arrows are read into
    (name, code) pairs and (source, label id, target) triples: the hook's
    tuples as they are, any other object field by field.  The generators
    are sorted and each arrow is filed straight into its source's row,
    for ``_from_view`` to build once the parsed document is gone; the
    internal constructor refuses a code or label of another kind.  A
    hook-made arrow with an unknown endpoint raises.  If one read field
    by field cannot be filed (an unknown endpoint, or DD tokens on the
    wrong sides), ``_reject``, the public route's namer, names the least
    faulty arrow by repr among all of them.  An A document is read field
    by field."""
    kind, sides = _header(doc)
    if kind == "A":
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
    cls, idem_fields, label_fields = _DOCUMENTS[kind][2:]
    named = [g if type(g) is tuple else _generator(g, idem_fields, sides) for g in _array(doc, "generators")]
    named.sort()
    names, codes = tuple(name for name, _ in named), tuple(c for _, c in named)
    index = {name: k for k, name in enumerate(names)}
    rows, stray = [[] for _ in names], []
    for arrow in _array(doc, "arrows"):
        if type(arrow) is tuple:
            s, a, t = arrow
        else:
            arrow = _arrow(arrow, label_fields)
            s, a, t = arrow[0], _LABEL_ID.get(arrow[1:-1]), arrow[-1]
            if a is None or s not in index or t not in index:
                stray.append(arrow)
                continue
        rows[index[s]].append((a, index[t]))
    side = sides[0] if kind == "D" else None
    if stray:
        idems = cls._from_rows(names, codes, [()] * len(names), side).idems
        _reject(_arrows(names, rows, names).union(stray), sides, idems, idems, "arrow", "on arrow")
    for row in rows:
        row.sort()
    return _from_view, (cls, names, codes, rows, side)


def _load(text, hook=None):
    try:
        return json.loads(text, object_hook=hook)
    except RecursionError:
        raise ValueError("document nested too deeply") from None


def from_json(text: str):
    """The structure the schema-version-1 document text describes.

    The text is parsed once with a hook (``_compact``) that turns each
    arrow object of a DD, D or complex document into a (source, label
    id, target) triple and each generator object into a tuple as soon as
    it is parsed, so no arrow dict outlives its own parse; ``_read`` then
    files the triples straight into the numbered rows, and the structure
    is built and checked once the parsed document is gone.  The hook
    leaves A objects as they are.  Only a faulty document is parsed
    again, without the hook, and read by the same ``_read``, so the
    message shows each object as it was written.
    """
    try:
        make, args = _read(_load(text, _compact))
        return make(*args)
    except (KeyError, TypeError, ValueError):  # a faulty document
        pass
    make, args = _read(_load(text))
    return make(*args)
