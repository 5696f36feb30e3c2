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
    _KINDS,
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
# kind, or a D structure's side -> code -> (its generator object up to
# the name, the rest of it)
_GENERATORS = {
    "DD": {
        c: (f'    {{\n      "left": "{l}",\n      "name": ', f',\n      "right": "{r}"{_CLOSE}')
        for c, (l, r) in _DD_TOKENS.items()
    },
    **{
        side: {c: (f'    {{\n      "idem": "{t}",\n      "name": ', _CLOSE) for c, t in idem.items()}
        for side, idem in _IDEM.items()
    },
    "complex": {0: ("    ", "")},
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
    around = _GENERATORS[S.side or kind]
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
# left token -> right token -> code, the hook's reading of a DD generator
_DD_CODES = {
    _IDEM["left"][a]: {_IDEM["right"][b]: _DD_CODE[a, b] for b in (1, 2)} for a in (1, 2)
}
# idempotent token -> itself, the hook's reading of a D generator
_IDEM_TOKENS = {token: token for idem in _IDEM.values() for token in idem.values()}
# sides -> {what the hook read of a generator's idempotents: code}
_CODES = {(side,): {token: k for k, token in _IDEM[side].items()} for side in SIDES}
_CODES[SIDES] = {c: c for c in _DD_CODE.values()}


# kind -> the label ids its arrows may carry; a D document's arrows may
# carry a token of the other side, which the internal constructor names
_LABEL_IDS = {
    "DD": frozenset(k for row in _DD_ID.values() for k in row.values()),
    "D": frozenset(_D_ID.values()),
    "complex": frozenset([_BARE]),
}


def _compact(obj):
    """The json object_hook of the numbered route.  An object that is
    exactly an arrow's fields becomes the triple (source, label id,
    target): left, right, source, target for DD, label, source, target
    for D, source, target for a complex.  One that is exactly a
    generator's fields becomes the pair (name, code) for DD (left, name,
    right) and (name, idempotent token) for D (idem, name).  Any other
    object, or one with an unknown or unhashable token, stays a dict.
    Only the hook makes tuples, and all but their names and endpoints
    come from its tables, so a tuple where no arrow or generator of the
    document's kind belongs gives that object away."""
    n = len(obj)
    try:
        if n == 4:
            return obj["source"], _DD_ID[obj["left"]][obj["right"]], obj["target"]
        if n == 3:
            if "label" in obj:
                return obj["source"], _D_ID[obj["label"]], obj["target"]
            return obj["name"], _DD_CODES[obj["left"]][obj["right"]]
        if n == 2:
            if "source" in obj:
                return obj["source"], _BARE, obj["target"]
            return obj["name"], _IDEM_TOKENS[obj["idem"]]
    except (KeyError, TypeError):  # another object, or an unknown or unhashable token
        pass
    return obj


def _rows(doc, kind, sides):
    """(class, names, codes, rows, side) of a DD, D or complex document
    parsed with ``_compact``: the sorted generator names, their
    idempotent codes, per source number the sorted (label id, target
    number) of its arrows, each triple filed straight into its row, and
    a D document's side.  None at the first generator that is not a
    string name with the kind's known tokens, or arrow that is not a
    triple of the kind with known endpoints; the named route then reads
    the text again and finds the message."""
    gens = _array(doc, "generators")
    try:
        if kind == "complex":
            if not all(type(g) is str for g in gens):
                return None
            named = [(g, 0) for g in gens]
        else:
            codes = _CODES[sides]
            named = []
            for g in gens:
                if type(g) is not tuple or len(g) != 2 or type(g[0]) is not str:
                    return None
                named.append((g[0], codes[g[1]]))
        named.sort()
        names = tuple(name for name, _ in named)
        index = {name: k for k, name in enumerate(names)}
        rows = [[] for _ in names]
        labels = _LABEL_IDS[kind]
        for arrow in _array(doc, "arrows"):
            if type(arrow) is not tuple:
                return None
            s, a, t = arrow
            if a not in labels:
                return None
            rows[index[s]].append((a, index[t]))
    except (KeyError, TypeError, ValueError):  # an unknown or unhashable value, a pair as an arrow
        return None
    for row in rows:
        row.sort()
    cls = _NUMBERED[kind][0]
    return cls, names, tuple(code for _, code in named), rows, sides[0] if kind == "D" else None


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


def _header(doc):
    """(kind, sides) of the parsed document doc, its top-level fields
    checked."""
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
        return kind, tuple(doc["sides"])
    if kind == "A":
        _require_fields(doc, {"schema_version", "kind", "sides", "generators", "operations"}, "A")
        if doc["sides"] != []:
            raise ValueError("A modules store side-agnostic chords")
        return kind, ()
    raise ValueError(f"unknown kind {kind!r}")


def _parse(doc):
    """(constructor, arguments) of the structure the parsed document doc
    describes, read by name, every field checked; the constructor checks
    the rest."""
    kind, sides = _header(doc)
    if kind != "A":
        return _named(doc, kind, sides)
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


def _load(text, hook=None):
    try:
        return json.loads(text, object_hook=hook)
    except RecursionError:
        raise ValueError("document nested too deeply") from None


def _numbered(text):
    """The arguments of ``_from_view`` for a DD, D or complex document
    that reads cleanly with ``_compact``, or None for any other."""
    try:
        doc = _load(text, _compact)
        kind, sides = _header(doc)
        return None if kind == "A" else _rows(doc, kind, sides)
    except ValueError:
        return None


def from_json(text: str):
    """The structure the schema-version-1 document text describes.

    A DD, D or complex document is parsed with a hook (``_compact``) that
    turns each arrow object into a (source, label id, target) triple and
    each generator object into a tuple as soon as it is parsed, so no
    arrow dict outlives its own parse; the triples are then filed straight
    into the numbered rows.  A document that does not read cleanly so, an
    A document among them, is parsed again from the text without the hook
    and read by name, field by field, through the public constructor, so
    each fault gets that constructor's message.  The structure is built
    and checked once the parsed document is gone.
    """
    view = _numbered(text)
    if view is not None:
        return _from_view(*view)
    make, args = _parse(_load(text))
    return make(*args)
