import gc
import json
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bpc.algebra import INTERVALS, basis_tokens, left_idem, right_idem, token_left_idem, token_right_idem
from bpc.pairing import box_right
from bpc.serialize import from_json, to_json
from bpc.solid_torus import build_cfa_framed, build_cfa_infinity
from bpc.structures import (
    AGenerator,
    AModule,
    ChainComplexF2,
    DDGenerator,
    DDStructure,
    DGenerator,
    DStructure,
    _LABELS,
    _targets,
)
from bpc.torus_link import build_cfdd_full, build_cfdd_simplified
from test_solid_torus import truncated_infinity, unrolled


def fixtures():
    full = build_cfdd_full(2)
    return [
        full,
        build_cfdd_simplified(3),
        box_right(build_cfa_framed(2), full),
        build_cfa_infinity(),
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


def test_non_documents_rejected():
    with pytest.raises(ValueError) as error:
        to_json(object())
    assert str(error.value) == "cannot serialize a object"
    with pytest.raises(ValueError) as error:
        from_json("[]")
    assert str(error.value) == "top level: expected an object"


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


_DD_GEN = {"name": "a", "left": "i1", "right": "j1"}
_DD_ARROW = {"source": "a", "left": "i1", "right": "j1", "target": "a"}


@pytest.mark.parametrize(
    "gens, arrows, message",
    [
        (["a"], [], "generator: expected an object"),
        ([{"name": "a", "left": "i1"}], [], "generator: missing fields ['right']"),
        ([dict(_DD_GEN, extra=1)], [], "generator: unknown fields ['extra']"),
        ([dict(_DD_GEN, name=3)], [], "generator: generator names must be strings, got 3"),
        ([dict(_DD_GEN, left=1)], [], "unknown algebra token 1"),
        ([dict(_DD_GEN, right=["j1"])], [], "unknown algebra token ['j1']"),
        ([dict(_DD_GEN, left="i9")], [], "unknown algebra token 'i9'"),
        ([dict(_DD_GEN, left="j1")], [], "bad idempotent token 'j1' for side left"),
        ([dict(_DD_GEN, right="s1")], [], "bad idempotent token 's1' for side right"),
        ([_DD_GEN], [["a", "i1", "j1", "a"]], "arrow: expected an object"),
        ([_DD_GEN], [{"source": "a", "left": "i1", "right": "j1"}], "arrow: missing fields ['target']"),
        ([_DD_GEN], [dict(_DD_ARROW, extra=1)], "arrow: unknown fields ['extra']"),
        ([_DD_GEN], [dict(_DD_ARROW, source=1)], "arrow: generator names must be strings, got 1"),
        ([_DD_GEN], [dict(_DD_ARROW, target=None)], "arrow: generator names must be strings, got None"),
        ([_DD_GEN], [dict(_DD_ARROW, left=2)], "unknown algebra token 2"),
        ([_DD_GEN], [dict(_DD_ARROW, left={})], "unknown algebra token {}"),
        ([_DD_GEN], [dict(_DD_ARROW, right="s4")], "unknown algebra token 's4'"),
        ([_DD_GEN], [dict(_DD_ARROW, right="s4", target="b")], "unknown algebra token 's4'"),
        ([_DD_GEN], [dict(_DD_ARROW, left="j1")], "arrow labels on wrong sides: ('a', 'j1', 'j1', 'a')"),
        ([_DD_GEN], [dict(_DD_ARROW, left="r1")], "left label incoherent on arrow ('a', 'r1', 'j1', 'a')"),
        ([_DD_GEN], [dict(_DD_ARROW, target="b")], "arrow endpoint missing: ('a', 'i1', 'j1', 'b')"),
        # the first malformed object is named, generators before arrows
        ([_DD_GEN, dict(_DD_GEN, left="i9")], [dict(_DD_ARROW, extra=1)], "unknown algebra token 'i9'"),
        ([_DD_GEN], [_DD_ARROW, dict(_DD_ARROW, source=1), {}], "arrow: generator names must be strings, got 1"),
        # objects shaped like arrows where they do not belong
        ([_DD_GEN, _DD_ARROW], [], "generator: unknown fields ['source', 'target']"),
        ([_DD_GEN], [{"source": "a", "label": "i1", "target": "a"}], "arrow: unknown fields ['label']"),
        (
            [_DD_GEN],
            [dict(_DD_ARROW, target=_DD_ARROW)],
            f"arrow: generator names must be strings, got {_DD_ARROW!r}",
        ),
        # a generator's fields that would spell a coherent arrow a -(i1, j1)-> j1
        (
            [_DD_GEN, dict(_DD_GEN, name="j1")],
            [{"left": _LABELS.index(("i1", "j1")), "name": "a", "right": "j1"}],
            "arrow: unknown fields ['name']",
        ),
    ],
)
def test_malformed_dd_objects_give_exact_messages(gens, arrows, message):
    doc = {"schema_version": 1, "kind": "DD", "sides": ["left", "right"], "generators": gens, "arrows": arrows}
    with pytest.raises(ValueError) as err:
        from_json(json.dumps(doc))
    assert str(err.value) == message


def _d_doc(side, label, *later):
    """A D document over side with generators x (idempotent 1) and y
    (idempotent 2), an arrow x -(label)-> y and the later arrows."""
    idem = {"left": "i", "right": "j"}[side]
    gens = [{"name": "x", "idem": f"{idem}1"}, {"name": "y", "idem": f"{idem}2"}]
    arrows = [{"source": "x", "label": label, "target": "y"}, *later]
    return {"schema_version": 1, "kind": "D", "sides": [side], "generators": gens, "arrows": arrows}


@pytest.mark.parametrize(
    "doc, message",
    [
        (_d_doc("left", "s1"), "label 's1' not on side 'left'"),
        (_d_doc("right", "r1"), "label 'r1' not on side 'right'"),
        # a field fault later in the document is named first
        (_d_doc("left", "s1", {"source": "x", "label": "r1"}), "arrow: missing fields ['target']"),
    ],
    ids=["left", "right", "later-field"],
)
def test_other_side_tokens_in_d_documents(doc, message):
    """A token of the other side is named as the public constructor names
    it, after every field fault of the document."""
    with pytest.raises(ValueError) as err:
        from_json(json.dumps(doc))
    assert str(err.value) == message


@pytest.mark.parametrize(
    "S, edit, message",
    [
        (build_cfa_framed(2), lambda doc: doc["operations"][0].pop("chords"), "operation: missing fields ['chords']"),
        (build_cfdd_full(1), lambda doc: doc.update(extra=dict(_DD_ARROW)), "DD: unknown fields ['extra']"),
    ],
    ids=["operation-without-chords", "top-level-field"],
)
def test_arrow_shaped_objects_elsewhere_keep_their_messages(S, edit, message):
    """An object shaped like an arrow outside a DD, D or complex
    document's arrows gets the message any such object gets."""
    doc = json.loads(to_json(S))
    edit(doc)
    with pytest.raises(ValueError) as err:
        from_json(json.dumps(doc))
    assert str(err.value) == message


def _peak(f, *args):
    """The tracemalloc peak of f(*args), in bytes, over what was allocated before."""
    gc.collect()
    tracemalloc.start()
    try:
        f(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_reading_and_printing_stay_within_a_multiple_of_the_document():
    """The full model at n = 32 prints at a peak near 1.65 times its
    document's length and reads at 2.6 to 2.8 times on Python 3.10 to
    3.13; holding each arrow as its own string while printing, or as a
    dict while reading, breaks these bounds."""
    S = build_cfdd_full(32)
    text = to_json(S)
    assert _peak(to_json, S) < 2.5 * len(text)
    assert _peak(from_json, text) < 4 * len(text)


# a structure of each numbered kind and the message naming its first
# arrow listed twice
REPEATS = [
    (build_cfdd_full(1), "arrow listed twice: ('ab', 'r1', 's3', 'x1y1')"),
    (
        DStructure("right", (DGenerator("x", 1), DGenerator("y", 2)), {("x", "s1", "y")}),
        "arrow listed twice: ('x', 's1', 'y')",
    ),
    (ChainComplexF2(("a", "b", "c"), frozenset({("a", "b")})), "arrow listed twice: ('a', 'b')"),
]


@pytest.mark.parametrize("S, message", REPEATS, ids=["DD", "D", "complex"])
def test_arrow_listed_twice_is_rejected(S, message):
    """Over F2 a repeated arrow cancels, and to_json never prints one, so
    the parser names it instead of reading the two as one."""
    doc = json.loads(to_json(S))
    assert from_json(json.dumps(doc)) == S
    doc["arrows"].append(dict(doc["arrows"][0]))
    with pytest.raises(ValueError) as err:
        from_json(json.dumps(doc))
    assert str(err.value) == message


def test_arrow_listed_twice_keeps_the_older_messages_first():
    """A document with a repeated arrow and another fault gets the other
    fault's message, as before repeats were rejected."""
    doc = json.loads(to_json(build_cfdd_full(1)))
    doc["arrows"].append(dict(doc["arrows"][0]))
    doc["generators"].append(dict(doc["generators"][0]))
    with pytest.raises(ValueError, match="duplicate generator name 'ab'"):
        from_json(json.dumps(doc))
    doc = json.loads(to_json(build_cfdd_full(1)))
    doc["arrows"] += [dict(doc["arrows"][0]), dict(doc["arrows"][0], target="zz")]
    with pytest.raises(ValueError) as err:
        from_json(json.dumps(doc))
    assert str(err.value) == "arrow endpoint missing: ('ab', 'r1', 's3', 'zz')"


def test_operation_listed_twice_is_rejected():
    """As with arrows, a repeated operation cancels over F2, so the parser
    names it, after any other fault of the document."""
    doc = json.loads(to_json(truncated_infinity(0)))
    doc["operations"].append(dict(doc["operations"][0]))
    with pytest.raises(ValueError) as err:
        from_json(json.dumps(doc))
    assert str(err.value) == "operation listed twice: ('w', ('3', '2'), 'w')"
    doc["operations"].append(dict(doc["operations"][0], target="zz"))
    with pytest.raises(ValueError) as err:
        from_json(json.dumps(doc))
    assert str(err.value) == "operation endpoint missing: ('w', ('3', '2'), 'zz')"


def test_public_constructors_keep_set_semantics():
    arrows = [("a", "b"), ("a", "b")]
    assert ChainComplexF2(("a", "b"), arrows) == ChainComplexF2(("a", "b"), arrows[:1])
    gens, ops = (AGenerator("w", 1),), [("w", ("3", "2"), "w")] * 2
    assert AModule(gens, ops) == AModule(gens, ops[:1])


# (field, a non-integer JSON value that equals an accepted integer, message)
INTEGER_FIELDS = [
    ("schema_version", True, "unsupported schema_version True"),
    ("schema_version", 1.0, "unsupported schema_version 1.0"),
    ("occupancy", 1.0, "bad occupancy 1.0"),
    ("occupancy", True, "bad occupancy True"),
]


@pytest.mark.parametrize("field, value, message", INTEGER_FIELDS)
def test_integer_fields_must_be_json_integers(field, value, message):
    doc = json.loads(to_json(build_cfa_framed(2)))
    (doc["generators"][0] if field == "occupancy" else doc)[field] = value
    with pytest.raises(ValueError) as err:
        from_json(json.dumps(doc))
    assert str(err.value) == message


def test_a_document_spells_a_loop_with_a_starred_chord():
    doc = json.loads(to_json(build_cfa_infinity()))
    assert doc["operations"] == [{"chords": ["3", "23*", "2"], "source": "w", "target": "w"}]
    assert "capped_arity" not in doc
    for bad in ("23**", "*", "*23"):
        doc["operations"][0]["chords"][1] = bad
        with pytest.raises(ValueError) as err:
            from_json(json.dumps(doc))
        assert str(err.value) == f"unknown chord interval {bad!r}"


@pytest.mark.parametrize("value", [None, 18, False])
def test_a_document_carrying_a_family_cap_is_refused(value):
    doc = json.loads(to_json(build_cfa_infinity()))
    doc["capped_arity"] = value
    with pytest.raises(ValueError) as err:
        from_json(json.dumps(doc))
    assert str(err.value) == "A: unknown fields ['capped_arity']"


@pytest.mark.parametrize("occupancy", [1.0, True, 2.0])
def test_a_module_rejects_non_integer_occupancy(occupancy):
    with pytest.raises(ValueError, match="non-integer occupancy"):
        AModule((AGenerator("w", occupancy),), frozenset())


# ---------------------------------------------------------------------------
# properties over random structures with arbitrary names

NAME_CHARS = st.one_of(st.sampled_from('"\\/\x00\x08\x1f\x7f é€😀'), st.characters())
NAMES = st.lists(st.text(NAME_CHARS, max_size=6), unique=True, max_size=6)
IDEM = st.sampled_from((1, 2))


def _coherent(side, x, y):
    """Tokens of side carrying idempotent x to y."""
    return [
        t for t in basis_tokens(side) if (token_left_idem(t), token_right_idem(t)) == (x, y)
    ]


@st.composite
def dd_structures(draw):
    gens = tuple(DDGenerator(name, draw(IDEM), draw(IDEM)) for name in draw(NAMES))
    arrows = set()
    for _ in range(draw(st.integers(0, 10)) if gens else 0):
        x, y = draw(st.sampled_from(gens)), draw(st.sampled_from(gens))
        l = draw(st.sampled_from(_coherent("left", x.left, y.left)))
        r = draw(st.sampled_from(_coherent("right", x.right, y.right)))
        arrows.add((x.name, l, r, y.name))
    return DDStructure(gens, frozenset(arrows))


@st.composite
def d_structures(draw):
    side = draw(st.sampled_from(("left", "right")))
    gens = tuple(DGenerator(name, draw(IDEM)) for name in draw(NAMES))
    arrows = set()
    for _ in range(draw(st.integers(0, 10)) if gens else 0):
        x, y = draw(st.sampled_from(gens)), draw(st.sampled_from(gens))
        arrows.add((x.name, draw(st.sampled_from(_coherent(side, x.idem, y.idem))), y.name))
    return DStructure(side, gens, frozenset(arrows))


def _walk(draw, idem, length, first=INTERVALS):
    """A composable chord sequence of length chords from arc idem, the
    first of them from first, and the arc it ends on."""
    seq = []
    for _ in range(length):
        seq.append(draw(st.sampled_from([c for c in first if left_idem(c) == idem])))
        idem, first = right_idem(seq[-1]), INTERVALS
    return seq, idem


@st.composite
def a_modules(draw):
    """Random tables, at times with one looping operation: chords before
    the star that no other operation from its source begins with, the
    chord of their last arc that composes with itself, then chords that
    start with another chord."""
    gens = tuple(AGenerator(name, draw(IDEM)) for name in draw(NAMES))
    ops = set()
    for _ in range(draw(st.integers(0, 6)) if gens else 0):
        src = draw(st.sampled_from(gens))
        seq, idem = _walk(draw, src.occupancy, draw(st.integers(1, 4)))
        # the target's occupancy is where the last chord ends
        ends = [g for g in gens if g.occupancy == idem]
        if ends:
            ops.add((src.name, tuple(seq), draw(st.sampled_from(ends)).name))
    if gens and draw(st.booleans()):
        src = draw(st.sampled_from(gens))
        before, idem = _walk(draw, src.occupancy, draw(st.integers(1, 2)))
        loop = "12" if idem == 1 else "23"
        after, idem = _walk(draw, idem, draw(st.integers(1, 2)), [c for c in INTERVALS if c != loop])
        ends = [g for g in gens if g.occupancy == idem]
        begun = any(s == src.name and seq[: len(before)] == tuple(before) for s, seq, _ in ops)
        if ends and not begun:
            seq = (*before, loop + "*", *after)
            ops.add((src.name, seq, draw(st.sampled_from(ends)).name))
    return AModule(gens, frozenset(ops))


@st.composite
def complexes(draw):
    names = draw(NAMES)
    if not names:
        return ChainComplexF2((), frozenset())
    pairs = st.tuples(st.sampled_from(names), st.sampled_from(names))
    return ChainComplexF2(tuple(names), frozenset(draw(st.sets(pairs, max_size=10))))


STRUCTURES = st.one_of(dd_structures(), d_structures(), a_modules(), complexes())
PROPERTY_SETTINGS = settings(max_examples=60, deadline=None)
EMPTY = [
    DDStructure((), frozenset()),
    DStructure("left", (), frozenset()),
    DStructure("right", (), frozenset()),
    AModule((), frozenset()),
    ChainComplexF2((), frozenset()),
]


STARRED = [(c + "*",) for c in INTERVALS]


def _check_tree(M):
    """M's prefix tree against its operation table, read as the sequences
    each operation spells, a starred chord any number of times: every node
    begins such a sequence of its generator and holds exactly the targets
    of the operations spelling its path; a node is its own child exactly
    on the starred chords after its path; the nodes, loops left out, are
    the prefixes of the operations with their stars read no times; and
    any sequence of one or two chords, or an operation's with its star
    read 0 to 3 times, or one chord longer or shorter, finds exactly the
    targets of the operations spelling it."""

    def spelled(x, seq):
        words = [(s, [unrolled(w, j) for j in range(len(seq) + 1)], t) for s, w, t in M.operations]
        begun = any(s == x and any(u[: len(seq)] == seq for u in us) for s, us, _ in words)
        return begun, sorted(t for s, us, t in words if s == x and seq in us)

    nodes = []
    stack = [(x, (), children) for x, children in M.tree.items()]
    while stack:
        x, path, children = stack.pop()
        for chord, node in children.items():
            targets, grandchildren = node
            prefix = path + (chord,)
            assert spelled(x, prefix) == (True, sorted(targets))
            loops = sorted(c for c, child in grandchildren.items() if child is node)
            stars = sorted(
                w[len(prefix)][:-1]
                for s, w, _ in M.operations
                if s == x and w[: len(prefix)] == prefix and w[len(prefix) :][:1] in STARRED
            )
            assert loops == stars
            nodes.append((x, prefix))
            others = {c: child for c, child in grandchildren.items() if child is not node}
            stack.append((x, prefix, others))
    once = {(x, unrolled(w, 0)) for x, w, _ in M.operations}
    assert sorted(nodes) == sorted({(x, seq[:k]) for x, seq in once for k in range(1, len(seq) + 1)})
    tries = [(c,) for c in INTERVALS] + [(c, d) for c in INTERVALS for d in INTERVALS]
    for _, w, _ in M.operations:
        for seq in {unrolled(w, j) for j in range(4)}:
            tries += [seq, seq[:-1]] + [seq + (c,) for c in INTERVALS]
    for x in M.tree:
        for seq in tries:
            if seq:
                assert sorted(_targets(M, x, seq)) == spelled(x, seq)[1]


@pytest.mark.parametrize(
    "M",
    [build_cfa_framed(m) for m in range(1, 9)]
    + [build_cfa_infinity()]
    + [truncated_infinity(cap) for cap in range(17)],
    ids=[f"framed{m}" for m in range(1, 9)] + ["inf"] + [f"inf{cap}" for cap in range(17)],
)
def test_module_tree_indexes_the_built_in_tables(M):
    """The framed tables, the infinity module and its family cut at each
    k <= cap."""
    _check_tree(M)


@PROPERTY_SETTINGS
@given(a_modules())
def test_module_tree_indexes_the_table(M):
    _check_tree(M)


def _pinned_layout(text):
    return json.dumps(json.loads(text), indent=2, sort_keys=True) + "\n"


@PROPERTY_SETTINGS
@given(STRUCTURES)
def test_output_is_the_pinned_json_layout(S):
    text = to_json(S)
    assert text == _pinned_layout(text)
    assert text.isascii()


@PROPERTY_SETTINGS
@given(STRUCTURES)
def test_round_trip_with_arbitrary_names(S):
    assert from_json(to_json(S)) == S


@pytest.mark.parametrize("S", EMPTY, ids=lambda s: type(s).__name__)
def test_empty_structures(S):
    text = to_json(S)
    assert text == _pinned_layout(text)
    assert '"generators": []' in text
    assert from_json(text) == S


def _malformations(doc, data):
    """Edits that each leave the schema-version-1 document doc malformed."""
    edges = "operations" if doc["kind"] == "A" else "arrows"
    edits = [
        lambda d: d.pop(data.draw(st.sampled_from(sorted(d)))),
        lambda d: d.update({data.draw(st.text(min_size=1).filter(lambda k: k not in d)): 0}),
        lambda d: d.update(kind=data.draw(st.text().filter(lambda k: k not in KINDS))),
        lambda d: d.update(schema_version=data.draw(st.sampled_from([0, 2, "1", None]))),
        lambda d: d.update(sides=data.draw(st.sampled_from([["up"], "left", None, ["left"] * 3]))),
        lambda d: d.update({edges: data.draw(st.sampled_from(["", {}, 1, None]))}),
        lambda d: d.update(generators=data.draw(st.sampled_from(["", {}, 1, None]))),
    ]
    if doc["generators"]:
        edits += [
            lambda d: d["generators"].append(d["generators"][0]),  # a duplicate name
            lambda d: d["generators"].__setitem__(0, data.draw(st.sampled_from([[], 3, None]))),
        ]
        if doc["kind"] != "complex":
            edits += [
                lambda d: d["generators"][0].pop(data.draw(st.sampled_from(sorted(d["generators"][0])))),
                lambda d: d["generators"][0].update(extra=1),
                lambda d: d["generators"][0].update(name=data.draw(st.sampled_from([1, None, ["a"]]))),
            ]
        if doc["kind"] in ("DD", "D"):
            key = data.draw(st.sampled_from(sorted(set(doc["generators"][0]) - {"name"})))
            bad = data.draw(st.sampled_from(["i3", "i0", "j3", "r1", "s1", "", 1, None]))
            edits.append(lambda d: d["generators"][0].update({key: bad}))
    if doc[edges]:
        names = {g if doc["kind"] == "complex" else g["name"] for g in doc["generators"]}
        stranger = data.draw(st.text().filter(lambda k: k not in names))
        edits += [
            lambda d: d[edges][0].update(source=stranger),
            lambda d: d[edges][0].update(target=data.draw(st.sampled_from([1, None, ["a"]]))),
            lambda d: d[edges][0].pop(data.draw(st.sampled_from(sorted(d[edges][0])))),
            lambda d: d[edges][0].update(extra=1),
        ]
        token = {"DD": "left", "D": "label"}.get(doc["kind"])
        if token:
            bad = data.draw(st.sampled_from(["r4", "x", "", "i3", 1, None, ["r1"]]))
            edits.append(lambda d: d[edges][0].update({token: bad}))
        if doc["kind"] == "A":
            bad = data.draw(st.sampled_from([[], ["4"], [1], "3", None]))
            edits.append(lambda d: d[edges][0].update(chords=bad))
    return edits


KINDS = ("DD", "D", "A", "complex")


@PROPERTY_SETTINGS
@given(st.one_of(STRUCTURES, st.sampled_from(EMPTY)), st.data())
def test_malformed_documents_raise_value_error(S, data):
    doc = json.loads(to_json(S))
    edits = _malformations(doc, data)
    data.draw(st.sampled_from(edits))(doc)
    with pytest.raises(ValueError):
        from_json(json.dumps(doc))


@PROPERTY_SETTINGS
@given(STRUCTURES, st.data())
def test_truncated_documents_raise_value_error(S, data):
    text = to_json(S)
    cut = data.draw(st.integers(0, len(text) - 3))  # the closing brace and newline go
    with pytest.raises(ValueError):
        from_json(text[:cut])


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False) | st.text(),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(), inner, max_size=3),
    max_leaves=8,
)


@PROPERTY_SETTINGS
@given(STRUCTURES, st.data())
def test_any_edited_document_parses_back_or_raises_value_error(S, data):
    """Replace one value anywhere in a valid document by arbitrary JSON:
    parsing either raises ValueError or gives a structure that round-trips."""
    doc = json.loads(to_json(S))
    holder, key = doc, data.draw(st.sampled_from(sorted(doc)))
    while isinstance(holder[key], (dict, list)) and holder[key] and data.draw(st.booleans()):
        holder = holder[key]
        keys = sorted(holder) if isinstance(holder, dict) else range(len(holder))
        key = data.draw(st.sampled_from(keys))
    holder[key] = data.draw(JSON_VALUES)
    try:
        parsed = from_json(json.dumps(doc))
    except ValueError:
        return
    assert from_json(to_json(parsed)) == parsed


def test_deeply_nested_document_raises_value_error():
    with pytest.raises(ValueError, match="nested too deeply"):
        from_json("[" * 100_000 + "]" * 100_000)
