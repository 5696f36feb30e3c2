import dataclasses
import itertools
import json
import random
import os
import re
import subprocess
import sys

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from bpc.algebra import (
    SIDES,
    basis_tokens,
    idem_token,
    is_idempotent,
    mul_basis,
    side_of,
    token_left_idem,
    token_right_idem,
)
from bpc.pairing import box_left, box_right
from bpc.serialize import to_json
from bpc.solid_torus import build_cfa, build_cfa_framed
from bpc.structures import (
    AGenerator,
    AModule,
    ChainComplexF2,
    CheckReport,
    DGenerator,
    DStructure,
    DDGenerator,
    DDMorphism,
    DDStructure,
    check_a,
    check_complex,
    check_d,
    check_dd,
    compose,
    d_of_morphism,
    identity_morphism,
    isomorphic,
    reduce,
    verify_homotopy,
)
from bpc.structures import _KINDS, _LABELS
from bpc.torus_link import build_cfdd_full, build_cfdd_simplified, build_equivalence


def two_generator_dd(arrows):
    gens = (DDGenerator("ab", 1, 1), DDGenerator("x1y1", 2, 2))
    return DDStructure(gens, frozenset(arrows))


HOPF_ARROWS = {
    ("ab", "r1", "s3", "x1y1"),
    ("ab", "r3", "s1", "x1y1"),
    ("ab", "r123", "s123", "x1y1"),
    ("x1y1", "r2", "s2", "ab"),
}


def test_check_dd_hopf_passes():
    assert check_dd(two_generator_dd(HOPF_ARROWS)).ok


def test_check_dd_empty_passes():
    assert check_dd(DDStructure((), frozenset())).ok


def test_check_dd_two_step_cancellation_cases():
    # r1 r2 = r12 but s3 s2 = 0, so this pair is fine
    ok = two_generator_dd({("ab", "r1", "s3", "x1y1"), ("x1y1", "r2", "s2", "ab")})
    assert check_dd(ok).ok
    # r1 r2 = r12 and s1 s2 = s12 survive at (ab, ab)
    bad = two_generator_dd({("ab", "r1", "s1", "x1y1"), ("x1y1", "r2", "s2", "ab")})
    report = check_dd(bad)
    assert not report.ok
    assert report.lines == ("ab -> ab: r12*s12",)
    assert bool(check_dd(ok)) and not bool(report)


def test_arrow_coherence_enforced():
    with pytest.raises(ValueError):
        # r2 runs from idempotent 2 to 1, not out of an a-type generator
        two_generator_dd({("ab", "r2", "s1", "x1y1")})


def test_structure_and_morphism_share_label_checks():
    M = two_generator_dd(HOPF_ARROWS)
    cases = [
        (("ab", "r2", "s1", "x1y1"), "left label incoherent on{} ('ab', 'r2', 's1', 'x1y1')"),
        (("ab", "r1", "s2", "x1y1"), "right label incoherent on{} ('ab', 'r1', 's2', 'x1y1')"),
        (("ab", "s1", "r1", "x1y1"), "arrow labels on wrong sides: ('ab', 's1', 'r1', 'x1y1')"),
    ]
    for arrow, message in cases:
        with pytest.raises(ValueError) as structure_error:
            two_generator_dd({arrow})
        assert str(structure_error.value) == message.format(" arrow")
        # the side swap has coherent idempotents: a morphism used to accept it
        with pytest.raises(ValueError) as morphism_error:
            DDMorphism(M, M, frozenset({arrow}))
        assert str(morphism_error.value) == message.format("")


def test_bad_arrow_among_many_is_named():
    F, G, H = build_equivalence(4)
    M, N = F.source, F.target
    bad = ("ab", "i1", "j1", "nowhere")
    with pytest.raises(ValueError) as error:
        DDMorphism(M, N, F.arrows | {bad})
    assert str(error.value) == f"morphism endpoint missing: {bad}"
    bad = ("ab", "r2", "j1", "u_ab")
    with pytest.raises(ValueError) as error:
        DDMorphism(M, N, F.arrows | {bad})
    assert str(error.value) == f"left label incoherent on {bad}"
    with pytest.raises(ValueError) as error:
        DDStructure(M.generators, M.arrows | {bad})
    assert str(error.value) == f"arrow endpoint missing: {bad}"


def test_label_error_messages():
    d_gens = (DGenerator("p", 1), DGenerator("q", 2))
    d_cases = [
        ("left", ("p", "s1", "q"), "label 's1' not on side 'left'"),
        ("right", ("p", "r1", "q"), "label 'r1' not on side 'right'"),
        ("left", ("p", "r2", "q"), "label incoherent on arrow ('p', 'r2', 'q')"),
        ("left", ("p", "r12", "q"), "label incoherent on arrow ('p', 'r12', 'q')"),
        ("left", ("p", "x9", "q"), "unknown algebra token 'x9'"),
        ("left", ("p", "r1", "z"), "arrow endpoint missing: ('p', 'r1', 'z')"),
    ]
    for side, arrow, message in d_cases:
        with pytest.raises(ValueError) as error:
            DStructure(side, d_gens, frozenset({arrow}))
        assert str(error.value) == message
    dd_cases = [
        # the left token is checked first, and its side before any idempotent
        (
            ("ab", "s1", "bogus", "x1y1"),
            "arrow labels on wrong sides: ('ab', 's1', 'bogus', 'x1y1')",
        ),
        (("ab", "r1", "bogus", "x1y1"), "unknown algebra token 'bogus'"),
        (("ab", "r2", "s2", "x1y1"), "left label incoherent on arrow ('ab', 'r2', 's2', 'x1y1')"),
    ]
    for arrow, message in dd_cases:
        with pytest.raises(ValueError) as error:
            two_generator_dd({arrow})
        assert str(error.value) == message


def test_idempotent_indices_outside_one_two_rejected():
    # such generators used to be accepted and serialized as "i3" or "i0",
    # a document from_json then rejected
    cases = [
        (
            lambda: DDStructure((DDGenerator("b", 1, 1), DDGenerator("a", 3, 1)), frozenset()),
            "generator 'a' has idempotent index outside {1, 2}: (3, 1)",
        ),
        (
            lambda: DStructure("left", (DGenerator("p", 0),), frozenset()),
            "generator 'p' has idempotent index outside {1, 2}: (0,)",
        ),
        # equal to 1 or 2 in Python, but not the int 1 or 2
        (
            lambda: DDStructure((DDGenerator("a", True, 1),), frozenset()),
            "generator 'a' has idempotent index outside {1, 2}: (True, 1)",
        ),
        (
            lambda: DStructure("left", (DGenerator("p", 2.0),), frozenset()),
            "generator 'p' has idempotent index outside {1, 2}: (2.0,)",
        ),
        (
            lambda: DStructure("left", (DGenerator("p", "1"),), frozenset()),
            "generator 'p' has idempotent index outside {1, 2}: ('1',)",
        ),
        (
            lambda: AModule((AGenerator("w", 3),), frozenset()),
            "generator 'w' has idempotent index outside {1, 2}: 3",
        ),
    ]
    for build, message in cases:
        with pytest.raises(ValueError) as error:
            build()
        assert str(error.value) == message


@pytest.mark.parametrize("arrows", [frozenset(), frozenset({("a", "r1", "a")})])
def test_d_structure_rejects_an_unknown_side(arrows):
    # with no arrows this used to be accepted, and to_json then raised KeyError
    with pytest.raises(ValueError) as error:
        DStructure("up", (DGenerator("a", 1),), arrows)
    assert str(error.value) == "unknown side 'up'"


@pytest.mark.parametrize("cap", [True, -1, 2.0, "3"], ids=repr)
def test_a_module_rejects_a_bad_capped_arity(cap):
    # a module takes no family cap: a starred chord spells the whole family
    with pytest.raises(TypeError):
        AModule((AGenerator("w", 1),), frozenset(), cap)


W = (AGenerator("w", 1),)
# (operations, the message naming the least faulty one by repr)
LOOP_RULES = {
    "two stars": (
        {("w", ("3", "23*", "2", "3", "23*", "2"), "w")},
        "more than one starred chord: ('w', ('3', '23*', '2', '3', '23*', '2'), 'w')",
    ),
    "star first": (
        {("w", ("12*", "3", "2"), "w")},
        "starred chord first or last: ('w', ('12*', '3', '2'), 'w')",
    ),
    "star last": (
        {("w", ("3", "2", "12*"), "w")},
        "starred chord first or last: ('w', ('3', '2', '12*'), 'w')",
    ),
    "followed by itself": (
        {("w", ("3", "23*", "23", "2"), "w")},
        "starred chord followed by itself: ('w', ('3', '23*', '23', '2'), 'w')",
    ),
    "not composing with itself": (
        {("w", ("3", "2*", "3", "2"), "w")},
        "starred chord does not compose with itself: ('w', ('3', '2*', '3', '2'), 'w')",
    ),
    "not composing with its neighbours": (
        {("w", ("3", "12*", "2"), "w")},
        "sequence not internally composable: ('3', '12*', '2')",
    ),
    "unknown starred chord": (
        {("w", ("3", "4*", "2"), "w")},
        "unknown chord interval '4*'",
    ),
    "an operation beginning with the chords before a star": (
        {("w", ("3", "23*", "2"), "w"), ("w", ("3", "2", "3", "2"), "w")},
        "operations share the chords before a star: ('w', ('3', '2', '3', '2'), 'w')",
    ),
    # m(w; 3, 2) = w is spelled by both, like an operation listed twice
    "two operations spelling one sequence to one target": (
        {("w", ("3", "23*", "2"), "w"), ("w", ("3", "2"), "w")},
        "operations share the chords before a star: ('w', ('3', '2'), 'w')",
    ),
    "two loops after the same chords": (
        {("w", ("3", "23*", "2"), "w"), ("w", ("3", "23*", "2", "12", "3", "2"), "w")},
        "operations share the chords before a star: ('w', ('3', '23*', '2'), 'w')",
    ),
    # the least faulty operation by repr is named, whatever its fault
    "a loop fault before a chord fault": (
        {("w", ("3", "23*", "2"), "w"), ("w", ("3", "2"), "w"), ("w", ("5",), "w")},
        "operations share the chords before a star: ('w', ('3', '2'), 'w')",
    ),
}


@pytest.mark.parametrize("ops, message", LOOP_RULES.values(), ids=LOOP_RULES)
def test_a_module_refuses_a_loop_that_breaks_a_table_rule(ops, message):
    with pytest.raises(ValueError) as error:
        AModule(W, frozenset(ops))
    assert str(error.value) == message


@pytest.mark.parametrize("chords", ["32", ()], ids=repr)
def test_a_module_takes_operation_chords_as_a_nonempty_tuple(chords):
    # "32" beside ("3", "2") would spell m(w; 3, 2) = w twice, which cancels
    with pytest.raises(ValueError) as error:
        AModule(W, frozenset({("w", ("3", "2"), "w"), ("w", chords, "w")}))
    assert str(error.value) == f"operation chords must be a nonempty tuple: {('w', chords, 'w')}"


def test_loops_after_other_chords_or_from_other_sources_are_kept_apart():
    # a loop after (3) and one after (3, 23, 2, 3), or from another source,
    # share no chords before their stars
    M = AModule(
        (AGenerator("v", 1), AGenerator("w", 1)),
        frozenset({("w", ("3", "23*", "2"), "w"), ("v", ("3", "23*", "2"), "w"), ("v", ("1", "2"), "v")}),
    )
    assert M.tree["w"]["3"][1]["23"] is M.tree["w"]["3"]
    assert M.tree["v"]["3"][1]["23"] is M.tree["v"]["3"]
    assert M.tree["v"]["1"][1]["2"] == (["v"], {})


def test_non_string_generator_names_rejected():
    # the serializer writes names as JSON strings, and from_json reads only strings
    cases = [
        lambda: ChainComplexF2((1, 2), frozenset({(1, 2)})),
        lambda: DDStructure((DDGenerator(7, 1, 1),), frozenset()),
        lambda: DStructure("left", (DGenerator(None, 1),), frozenset()),
        lambda: AModule((AGenerator(("w",), 1),), frozenset()),
    ]
    for build in cases:
        with pytest.raises(ValueError, match="^generator names must be strings, got "):
            build()


MIXED_NAMES = {
    "complex": lambda: ChainComplexF2((1, "a"), frozenset()),
    "DD": lambda: DDStructure((DDGenerator(1, 1, 1), DDGenerator("a", 1, 1)), frozenset()),
    "D": lambda: DStructure("left", (DGenerator(1, 1), DGenerator("a", 1)), frozenset()),
    "A": lambda: AModule((AGenerator(1, 1), AGenerator("a", 1)), frozenset()),
}


@pytest.mark.parametrize("build", MIXED_NAMES.values(), ids=MIXED_NAMES.keys())
def test_mixed_type_names_rejected_before_sorting(build):
    # sorting 1 against "a" raises TypeError, so the names are checked first
    with pytest.raises(ValueError) as error:
        build()
    assert str(error.value) == "generator names must be strings, got 1"


def test_duplicate_name_reported_is_the_least():
    with pytest.raises(ValueError) as error:
        ChainComplexF2(("b", "a", "b", "a"), frozenset())
    assert str(error.value) == "duplicate generator name 'a'"


def test_bad_d_and_complex_arrow_among_many_is_named():
    D = box_right(build_cfa_framed(3), build_cfdd_full(4))
    g = D.generators[0]
    bad = (g.name, "r123" if g.idem == 2 else "r2", g.name)
    with pytest.raises(ValueError) as error:
        DStructure("left", D.generators, D.arrows | {bad})
    assert str(error.value) == f"label incoherent on arrow {bad}"
    C = box_left(build_cfa_framed(2), D)
    bad = (C.generators[0], "nowhere")
    with pytest.raises(ValueError) as error:
        ChainComplexF2(C.generators, C.arrows | {bad})
    assert str(error.value) == f"arrow endpoint missing: {bad}"


DD_A = DDStructure((DDGenerator("a", 1, 1),), frozenset())
# (build, a misshapen arrow, the kind's shape, a well-shaped arrow to an
# unknown generator)
MISSHAPEN_ARROWS = {
    "DDStructure": (
        lambda arrows: DDStructure(DD_A.generators, arrows),
        ("a", "a"),
        "(source, left, right, target)",
        ("a", "i1", "j1", "z"),
    ),
    "DStructure": (
        lambda arrows: DStructure("left", (DGenerator("a", 1),), arrows),
        ("a", "i1", "i1", "a"),
        "(source, token, target)",
        ("a", "i1", "z"),
    ),
    "ChainComplexF2": (
        lambda arrows: ChainComplexF2(("a",), arrows),
        ("a", "i1", "a"),
        "(source, target)",
        ("a", "z"),
    ),
    "DDMorphism": (
        lambda arrows: DDMorphism(DD_A, DD_A, arrows),
        ("a", "i1", "a"),
        "(source, left, right, target)",
        ("a", "i1", "j1", "z"),
    ),
}


@pytest.mark.parametrize("build, arrow, shape, stranger", MISSHAPEN_ARROWS.values(), ids=MISSHAPEN_ARROWS)
def test_arrow_of_the_wrong_length_is_named(build, arrow, shape, stranger):
    """An arrow that does not unpack into its kind's shape is named with
    that shape, the least such by repr (a non-tuple too), before any
    unknown endpoint; Python's own unpacking message named neither."""
    for arrows, least in (
        ({arrow}, arrow),
        ({arrow, stranger}, arrow),
        ({arrow, ("a",) * 5, 7, stranger}, min((arrow, ("a",) * 5, 7), key=repr)),
    ):
        with pytest.raises(ValueError) as error:
            build(frozenset(arrows))
        assert str(error.value) == f"arrow {least!r} is not {shape}"


def test_check_d_surgery_cycle_passes():
    gens = (DGenerator("w_ab", 1), DGenerator("w_x2b", 2), DGenerator("w_x4b", 2))
    arrows = {("w_ab", "r123", "w_x2b"), ("w_x2b", "r23", "w_x4b"), ("w_x4b", "r2", "w_ab")}
    assert check_d(DStructure("left", gens, frozenset(arrows))).ok


def test_check_d_self_arrows():
    gens = (DGenerator("x", 2),)
    chord_loop = DStructure("left", gens, frozenset({("x", "r23", "x")}))
    assert check_d(chord_loop).ok  # r23 * r23 = 0
    idem_loop = DStructure("left", gens, frozenset({("x", "i2", "x")}))
    report = check_d(idem_loop)
    assert not report.ok
    assert report.lines == ("x -> x: i2",)


def test_check_d_empty_passes():
    assert check_d(DStructure("left", (), frozenset())).ok


def test_check_a_detects_missing_composite():
    # m(x, 1) = y and m(x, 12) = z with nothing else fails on (1, 2)
    module = AModule(
        (AGenerator("x", 1), AGenerator("y", 2), AGenerator("z", 1)),
        frozenset({("x", ("1",), "y"), ("x", ("12",), "z")}),
    )
    report = check_a(module)
    assert not report.ok
    assert report.lines == ("x: (1,2) -> z",)


def test_check_a_validation():
    with pytest.raises(ValueError):
        AModule((AGenerator("x", 2),), frozenset({("x", ("1",), "x")}))
    with pytest.raises(ValueError):
        AModule((AGenerator("x", 1),), frozenset({("x", ("1", "1"), "x")}))
    # chord 1 ends at arc 2, so it cannot land on x of occupancy 1
    with pytest.raises(ValueError) as error:
        AModule((AGenerator("x", 1),), frozenset({("x", ("1",), "x")}))
    assert str(error.value) == "sequence not composable with target: (('1',), 'x')"


def test_zero_and_identity_morphisms():
    M = build_cfdd_full(2)
    assert d_of_morphism(DDMorphism(M, M, frozenset())).is_zero()
    ident = identity_morphism(M)
    assert d_of_morphism(ident).is_zero()
    assert compose(ident, ident) == ident


def test_d_of_morphism_on_equivalence_maps():
    F, G, H = build_equivalence(3)
    assert d_of_morphism(F).is_zero()
    assert d_of_morphism(G).is_zero()
    assert not d_of_morphism(H).is_zero()


def test_single_unit_arrow_is_not_a_chain_map():
    simp = build_cfdd_simplified(2)
    full = build_cfdd_full(2)
    h = DDMorphism(simp, full, frozenset({("u_x1y1", "i2", "j2", "x2y2")}))
    assert not d_of_morphism(h).is_zero()


def test_compose_edge_cases():
    F, G, H = build_equivalence(3)
    N = F.target
    assert compose(F, G) == identity_morphism(N)
    assert compose(F, identity_morphism(F.source)) == F
    assert compose(F, DDMorphism(N, F.source, frozenset())).is_zero()
    with pytest.raises(ValueError):
        compose(F, F)


def test_verify_homotopy_trivial():
    M = build_cfdd_full(2)
    ident = identity_morphism(M)
    assert verify_homotopy(ident, ident, DDMorphism(M, M, frozenset())).ok


def test_verify_homotopy_accepts_equivalence_and_rejects_mutation():
    F, G, H = build_equivalence(3)
    assert verify_homotopy(F, G, H).ok
    mutated = DDMorphism(
        H.source,
        H.target,
        frozenset(a for a in H.arrows if a != ("x1y1", "r23", "s23", "x2y2")),
    )
    report = verify_homotopy(F, G, mutated)
    assert not report.ok
    # the hole left by the deleted value shows up on the paths through it
    assert any("x2y2" in line for line in report.lines)


def test_d_squared_of_random_morphisms_vanishes():
    M = build_cfdd_full(2)
    N = build_cfdd_simplified(2)
    candidates = sorted(
        (g.name, f"i{g.left}", f"j{g.right}", h.name)
        for g in M.generators
        for h in N.generators
        if (g.left, g.right) == (h.left, h.right)
    )
    rng = random.Random(7)
    for _ in range(20):
        chosen = frozenset(a for a in candidates if rng.random() < 0.4)
        h = DDMorphism(M, N, chosen)
        assert d_of_morphism(d_of_morphism(h)).is_zero()


def test_reduce_trivial_cases():
    hopf = two_generator_dd(HOPF_ARROWS)
    assert reduce(hopf) == hopf  # no unit arrows
    pair = DDStructure(
        (DDGenerator("a", 1, 1), DDGenerator("b", 1, 1)),
        frozenset({("a", "i1", "j1", "b")}),
    )
    assert reduce(pair) == DDStructure((), frozenset())


def test_reduce_preserves_structure_equation():
    for n in range(1, 5):
        S = build_cfdd_full(n)
        red = reduce(S)
        assert check_dd(red).ok
        assert not any(
            is_idempotent(l) and is_idempotent(r) for _, l, r, _ in red.arrows
        )


def test_reduce_complex_collapses_to_homology():
    C = ChainComplexF2(("a", "b", "c"), frozenset({("a", "b")}))
    red = reduce(C)
    assert len(red.generators) == 1 and not red.arrows


def _label_product(u, v):
    """u * v side by side, or None when some side's product is zero."""
    p = tuple(mul_basis(a, b) for a, b in zip(u, v))
    return None if None in p else p


def _view(S):
    """(kind, attrs, arrow triples, mul, unit) read from structures' integer
    view, the shape the oracles below were written against."""
    names = S.names
    arrows = {(names[s], _LABELS[a], names[t]) for s, row in enumerate(S.steps) for a, t in row}
    unit = lambda label: all(map(is_idempotent, label))  # noqa: E731
    return _KINDS[type(S)], S.idems, arrows, _label_product, unit


def _natural_key(name):
    """Embedded decimal runs compared as integers."""
    parts = re.split(r"(\d+)", name)
    parts[1::2] = map(int, parts[1::2])
    return tuple(parts)


def _reduce_reference(S, rng=None):
    """The rescanning cancellation loop reduce replaced, kept as its oracle:
    every step re-sorts all unit arrows and rebuilds the arrow set."""
    _, attrs, arrows, mul, unit = _view(S)
    names = set(attrs)
    while True:
        units = sorted(
            ((s, t) for s, label, t in arrows if unit(label) and s != t),
            key=lambda a: (_natural_key(a[0]), _natural_key(a[1]), *a),
        )
        if not units:
            break
        x, y = units[-1] if rng is None else units[rng.randrange(len(units))]
        ins = [(w, label) for w, label, t in arrows if t == y and w not in (x, y)]
        outs = [(label, z) for s, label, z in arrows if s == x and z not in (x, y)]
        arrows = {
            (s, label, t)
            for s, label, t in arrows
            if s not in (x, y) and t not in (x, y)
        }
        for w, l1 in ins:
            for l2, z in outs:
                p = mul(l1, l2)
                if p is not None:
                    arrows ^= {(w, p, z)}
        names -= {x, y}
    return _rebuilt(S, names, arrows)


def _rebuilt(S, names, arrows):
    """S's kind on its named generators and the (source, label, target)
    arrows, through the public constructor."""
    gens = tuple(g for g, name in zip(S.generators, S.names) if name in names)
    arrows = frozenset((s, *label, t) for s, label, t in arrows)
    return DStructure(S.side, gens, arrows) if isinstance(S, DStructure) else type(S)(gens, arrows)


# names whose natural keys tie (a01/a1, a3/a\u0663), digit runs of several
# lengths and a non-ASCII decimal digit
_TIED_NAMES = ("a01", "a1", "a3", "a\u0663", "a9", "a10", "a100", "b", "b2x9", "b2x10", "x01y1")


def _random_structure(kind, rng):
    """A random DD, D or complex structure on 8 of _TIED_NAMES with
    random idempotents, its arrows a random set of the coherent ones,
    unit self-loops and parallel labels included."""
    names = rng.sample(_TIED_NAMES, 8)
    if kind == "complex":
        arrows = {(s, t) for s in names for t in names if rng.random() < 0.2}
        return ChainComplexF2(tuple(names), frozenset(arrows))
    sides = ("left", "right") if kind == "DD" else ("left",)
    idems = {name: tuple(rng.choice((1, 2)) for _ in sides) for name in names}
    tokens = [basis_tokens(side) for side in sides]
    arrows = set()
    for s in names:
        for t in names:
            labels = [()]
            for ends, side_tokens in zip(zip(idems[s], idems[t]), tokens):
                fits = [k for k in side_tokens if (token_left_idem(k), token_right_idem(k)) == ends]
                labels = [(*label, k) for label in labels for k in fits]
            arrows.update((s, *label, t) for label in labels if rng.random() < 0.2)
    if kind == "DD":
        gens = tuple(DDGenerator(name, *idems[name]) for name in names)
        return DDStructure(gens, frozenset(arrows))
    gens = tuple(DGenerator(name, *idems[name]) for name in names)
    return DStructure("left", gens, frozenset(arrows))


def _reduce_inputs():
    for n in range(1, 9):
        S = build_cfdd_full(n)
        D = box_right(build_cfa_framed(3), S)
        yield f"DD-n{n}", S
        yield f"D-n{n}", D
        yield f"complex-n{n}", box_left(build_cfa_framed(2), D)
    rng = random.Random(12)
    for k in range(6):
        for kind in ("DD", "D", "complex"):
            yield f"random-{kind}-{k}", _random_structure(kind, rng)
    # cancelling f -> e toggles a -> b away and d -> c's fill-in brings it back
    yield "fill-in-recreates-a-removed-unit", ChainComplexF2(
        tuple("abcdef"),
        frozenset({("a", "b"), ("a", "c"), ("a", "e"), ("d", "b"), ("d", "c"), ("f", "b"), ("f", "e")}),
    )
    # cancelling d -> e leaves c -> a, and the fill-in c -> b files a key above it
    yield "fill-in-files-the-greatest-key", ChainComplexF2(
        tuple("abcde"), frozenset({("d", "e"), ("d", "b"), ("c", "e"), ("c", "a")})
    )


REDUCE_INPUTS = dict(_reduce_inputs())


@pytest.mark.parametrize("S", REDUCE_INPUTS.values(), ids=REDUCE_INPUTS.keys())
def test_reduce_matches_reference(S):
    assert reduce(S) == _reduce_reference(S)
    for seed in range(3):
        assert reduce(S, random.Random(seed)) == _reduce_reference(S, random.Random(seed))


def test_reduce_breaks_natural_key_ties_by_name():
    # "a01" and "a1" have equal natural keys; the greater name goes first
    C = ChainComplexF2(("a01", "a1", "b"), frozenset({("b", "a01"), ("b", "a1")}))
    assert reduce(C).generators == ("a01",)
    # equal source keys are ordered by the target's key before any name
    C = ChainComplexF2(("a01", "a1", "b"), frozenset({("a01", "b"), ("a1", "a01")}))
    assert reduce(C).generators == ("a1",)
    # superscript digits are not decimal: they stay text in the key
    C = ChainComplexF2(("²", "b"), frozenset({("b", "²")}))
    assert reduce(C).generators == ()


@pytest.mark.parametrize("n", [48, 96, 192])
def test_reduce_full_model(n):
    # at n=96 the 18,432 generators put the index keys near 2**57
    red = reduce(build_cfdd_full(n))
    assert check_dd(red).ok
    assert len(red.generators) == 4 * n - 2
    assert len(red.arrows) == len(build_cfdd_simplified(n).arrows)


def test_isomorphic_reflexive_and_symmetric():
    structures = [build_cfdd_full(2), build_cfdd_simplified(3), reduce(build_cfdd_full(3))]
    for S in structures:
        assert isomorphic(S, S) is not None
    red, simp = reduce(build_cfdd_full(3)), build_cfdd_simplified(3)
    forward = isomorphic(red, simp)
    backward = isomorphic(simp, red)
    assert forward is not None and backward is not None
    assert {v: k for k, v in forward.items()}.keys() == backward.keys()


def test_isomorphic_detects_missing_arrow():
    hopf = two_generator_dd(HOPF_ARROWS)
    depleted = two_generator_dd(HOPF_ARROWS - {("ab", "r1", "s3", "x1y1")})
    assert isomorphic(hopf, depleted) is None


def test_isomorphic_full_vs_simplified():
    for n in range(2, 7):
        red = reduce(build_cfdd_full(n))
        simp = build_cfdd_simplified(n)
        assert len(red.generators) == len(simp.generators) == 4 * n - 2
        assert isomorphic(red, simp) is not None


def test_isomorphic_respects_self_loops():
    loops = ChainComplexF2(("p", "q"), frozenset({("p", "p"), ("q", "q")}))
    swap = ChainComplexF2(("p", "q"), frozenset({("p", "q"), ("q", "p")}))
    assert isomorphic(loops, swap) is None
    assert isomorphic(loops, loops) is not None
    gens = (DGenerator("p", 1), DGenerator("q", 1))
    d_loops = DStructure("left", gens, frozenset({("p", "r12", "p"), ("q", "r12", "q")}))
    d_swap = DStructure("left", gens, frozenset({("p", "r12", "q"), ("q", "r12", "p")}))
    assert isomorphic(d_loops, d_swap) is None
    assert isomorphic(d_swap, d_loops) is None
    assert isomorphic(d_loops, d_loops) is not None


def test_isomorphic_rejects_kind_mismatch():
    with pytest.raises(ValueError):
        isomorphic(build_cfdd_full(1), ChainComplexF2(("a",), frozenset()))


def _isomorphic_reference(S1, S2):
    """The backtracking search isomorphic replaced, kept as its oracle:
    one recursion level per generator over signature-equal candidates."""
    kind1, attrs1, arrows1, _, _ = _view(S1)
    kind2, attrs2, arrows2, _, _ = _view(S2)
    assert kind1 == kind2
    if len(attrs1) != len(attrs2) or len(arrows1) != len(arrows2):
        return None

    def edge_map(arrows):
        out = {}
        for s, label, t in arrows:
            out.setdefault((s, t), set()).add(label)
        return out

    edges1, edges2 = edge_map(arrows1), edge_map(arrows2)

    def signatures(attrs, edges):
        outs = {g: [] for g in attrs}
        ins = {g: [] for g in attrs}
        for (s, t), labels in edges.items():
            for label in sorted(labels):
                outs[s].append(label)
                ins[t].append(label)
        return {
            g: (
                attrs[g],
                tuple(sorted(outs[g])),
                tuple(sorted(ins[g])),
                tuple(sorted(edges.get((g, g), ()))),
            )
            for g in attrs
        }

    sig1, sig2 = signatures(attrs1, edges1), signatures(attrs2, edges2)
    by_sig2 = {}
    for g, sig in sig2.items():
        by_sig2.setdefault(sig, []).append(g)
    candidates = {}
    for g, sig in sig1.items():
        pool = by_sig2.get(sig)
        if not pool:
            return None
        candidates[g] = sorted(pool)

    out_adj1 = {}
    in_adj1 = {}
    for s, label, t in arrows1:
        out_adj1.setdefault(s, set()).add(t)
        in_adj1.setdefault(t, set()).add(s)

    order = sorted(attrs1, key=lambda g: (len(candidates[g]), g))
    assignment = {}
    used = set()

    def consistent(g, h):
        for n in out_adj1.get(g, ()):
            if n in assignment and edges1[(g, n)] != edges2.get((h, assignment[n])):
                return False
        for n in in_adj1.get(g, ()):
            if n in assignment and edges1[(n, g)] != edges2.get((assignment[n], h)):
                return False
        return True

    def extend(k):
        if k == len(order):
            return True
        g = order[k]
        for h in candidates[g]:
            if h in used:
                continue
            if consistent(g, h):
                assignment[g] = h
                used.add(h)
                if extend(k + 1):
                    return True
                del assignment[g]
                used.discard(h)
        return False

    return dict(assignment) if extend(0) else None


def _assert_isomorphism(S1, S2, mapping):
    """mapping is a generator bijection carrying idempotents and labeled arrows."""
    _, attrs1, arrows1, _, _ = _view(S1)
    _, attrs2, arrows2, _, _ = _view(S2)
    assert mapping.keys() == attrs1.keys()
    assert sorted(mapping.values()) == sorted(attrs2)
    assert all(attrs1[g] == attrs2[h] for g, h in mapping.items())
    assert {(mapping[s], label, mapping[t]) for s, label, t in arrows1} == arrows2


def _assert_agrees_with_reference(S1, S2):
    """isomorphic and the oracle agree on found/not found; returns the verdict."""
    mapping = isomorphic(S1, S2)
    assert (mapping is None) == (_isomorphic_reference(S1, S2) is None)
    if mapping is not None:
        _assert_isomorphism(S1, S2, mapping)
    return mapping is not None


def _renamed(S, rng):
    """S with its generators renamed by a random bijection."""
    names = list(S.generators) if isinstance(S, ChainComplexF2) else [g.name for g in S.generators]
    fresh = [f"g{k}" for k in range(len(names))]
    rng.shuffle(fresh)
    new = dict(zip(names, fresh))
    if isinstance(S, ChainComplexF2):
        return ChainComplexF2(tuple(fresh), frozenset((new[s], new[t]) for s, t in S.arrows))
    gens = tuple(dataclasses.replace(g, name=new[g.name]) for g in S.generators)
    if isinstance(S, DStructure):
        return DStructure(S.side, gens, frozenset((new[s], l, new[t]) for s, l, t in S.arrows))
    return DDStructure(gens, frozenset((new[s], l, r, new[t]) for s, l, r, t in S.arrows))


def _swap_token(token):
    """Another basis token with the same idempotents, or None."""
    for other in basis_tokens(side_of(token)):
        same_idems = (token_left_idem(other), token_right_idem(other)) == (
            token_left_idem(token),
            token_right_idem(token),
        )
        if other != token and same_idems:
            return other
    return None


def _relabelled(S, k):
    """S with one label of its k-th arrow (sorted order) swapped for another
    coherent token, or None when neither label has one."""
    arrows = sorted(S.arrows)
    arrow = arrows[k]
    for pos in range(1, len(arrow) - 1):
        other = _swap_token(arrow[pos])
        if other is not None:
            changed = arrow[:pos] + (other,) + arrow[pos + 1 :]
            rest = frozenset(arrows[:k] + arrows[k + 1 :]) | {changed}
            if isinstance(S, DStructure):
                return DStructure(S.side, S.generators, rest)
            return DDStructure(S.generators, rest)
    return None


@pytest.mark.parametrize("n", range(2, 8))
def test_isomorphic_reduced_vs_simplified_matches_reference(n):
    red, simp = reduce(build_cfdd_full(n)), build_cfdd_simplified(n)
    assert _assert_agrees_with_reference(red, simp)
    assert _assert_agrees_with_reference(simp, red)
    for k in range(0, len(simp.arrows), 7):
        assert not _assert_agrees_with_reference(red, _relabelled(simp, k))


@pytest.mark.parametrize("n", range(2, 7))
def test_isomorphic_seeded_orders_match_reference(n):
    S = build_cfdd_full(n)
    base = reduce(S)
    for seed in range(3):
        _assert_agrees_with_reference(base, reduce(S, random.Random(seed)))


def _pairing_inputs():
    # the oracle takes seconds on the n=5 complexes, so they stop at n=4
    for n in range(1, 6):
        S = build_cfdd_full(n)
        for slope in (1, 2, 3):
            D = box_right(build_cfa_framed(slope), S)
            yield f"D-n{n}-r{slope}", D
            if n < 5:
                yield f"complex-n{n}-r{slope}", box_left(build_cfa_framed(2), D)


PAIRING_INPUTS = dict(_pairing_inputs())


@pytest.mark.parametrize("S", PAIRING_INPUTS.values(), ids=PAIRING_INPUTS.keys())
def test_isomorphic_pairing_outputs_vs_renamed_copies(S):
    rng = random.Random(len(S.generators))
    assert _assert_agrees_with_reference(S, _renamed(S, rng))
    if isinstance(S, DStructure):
        for k in range(0, len(S.arrows), 11):
            T = _relabelled(S, k)
            if T is not None:
                assert not _assert_agrees_with_reference(S, T)


def _cycles(*cycles):
    """Complex of directed cycles, one per (prefix, length)."""
    names = [f"{p}{k}" for p, length in cycles for k in range(length)]
    arrows = {(f"{p}{k}", f"{p}{(k + 1) % length}") for p, length in cycles for k in range(length)}
    return ChainComplexF2(tuple(names), frozenset(arrows))


def test_isomorphic_searches_past_a_failed_individualization():
    # every generator of a union of directed cycles has the same colour,
    # so the search must individualize; the first side-2 candidate of the
    # 6-cycle's a0 lies on a 3-cycle and fails
    S, T = _cycles(("a", 6), ("b", 3), ("c", 3)), _cycles(("a", 3), ("b", 3), ("c", 6))
    _assert_isomorphism(S, T, isomorphic(S, T))
    assert not _assert_agrees_with_reference(_cycles(("a", 6)), _cycles(("a", 3), ("b", 3)))


def test_isomorphic_checks_a_discrete_colouring():
    # one refinement round gives every generator its own colour, pairing
    # v-u, v2-u2, a1-b1, a2-b2, but the a's hang off the v's the other way
    # round than the b's off the u's, so that pairing is no isomorphism
    S = ChainComplexF2(
        ("v", "v2", "a1", "a2", "c", "d", "e", "f"),
        frozenset(
            {("v", "a1"), ("v", "c"), ("v2", "a2"), ("v2", "d")}
            | {("a1", "e"), ("a2", "f"), ("d", "d"), ("f", "f")}
        ),
    )
    T = ChainComplexF2(
        ("u", "u2", "b1", "b2", "c", "d", "e", "f"),
        frozenset(
            {("u", "b2"), ("u", "c"), ("u2", "b1"), ("u2", "d")}
            | {("b1", "e"), ("b2", "f"), ("d", "d"), ("f", "f")}
        ),
    )
    assert not _assert_agrees_with_reference(S, T)


def test_isomorphic_needs_no_recursion():
    S = build_cfdd_simplified(60)
    T = _renamed(S, random.Random(60))
    assert len(S.generators) == 238
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(150)
    try:
        mapping = isomorphic(S, T)
    finally:
        sys.setrecursionlimit(limit)
    _assert_isomorphism(S, T, mapping)


LEFT_TOKENS, RIGHT_TOKENS = basis_tokens("left"), basis_tokens("right")


@st.composite
def dd_structures(draw):
    idems = draw(st.lists(st.tuples(st.sampled_from((1, 2)), st.sampled_from((1, 2))), max_size=6))
    gens = tuple(DDGenerator(f"x{k}", l, r) for k, (l, r) in enumerate(idems))
    coherent = [
        (x.name, l, r, y.name)
        for x in gens
        for y in gens
        for l in LEFT_TOKENS
        if (token_left_idem(l), token_right_idem(l)) == (x.left, y.left)
        for r in RIGHT_TOKENS
        if (token_left_idem(r), token_right_idem(r)) == (x.right, y.right)
    ]
    if not coherent:
        return DDStructure(gens, frozenset())
    return DDStructure(gens, frozenset(draw(st.sets(st.sampled_from(coherent), max_size=12))))


@st.composite
def complexes(draw):
    names = [f"c{k}" for k in range(draw(st.integers(0, 6)))]
    if not names:
        return ChainComplexF2((), frozenset())
    pairs = st.tuples(st.sampled_from(names), st.sampled_from(names))
    return ChainComplexF2(tuple(names), frozenset(draw(st.sets(pairs, max_size=10))))


def _without_one_arrow(S, k):
    arrows = sorted(S.arrows)
    rest = frozenset(arrows[:k] + arrows[k + 1 :])
    if isinstance(S, ChainComplexF2):
        return ChainComplexF2(S.generators, rest)
    return DDStructure(S.generators, rest)


PROPERTY_SETTINGS = settings(max_examples=50, deadline=None)


@PROPERTY_SETTINGS
@given(st.one_of(dd_structures(), complexes()), st.randoms(use_true_random=False))
def test_isomorphic_finds_random_renaming(S, rng):
    T = _renamed(S, rng)
    _assert_isomorphism(S, T, isomorphic(S, T))


@PROPERTY_SETTINGS
@given(st.one_of(dd_structures(), complexes()), st.data())
def test_isomorphic_rejects_a_deleted_arrow(S, data):
    assume(S.arrows)
    k = data.draw(st.integers(0, len(S.arrows) - 1))
    T = _renamed(_without_one_arrow(S, k), data.draw(st.randoms(use_true_random=False)))
    assert isomorphic(S, T) is None


@PROPERTY_SETTINGS
@given(dd_structures(), st.data())
def test_isomorphic_rejects_a_swapped_label(S, data):
    assume(S.arrows)
    T = _relabelled(S, data.draw(st.integers(0, len(S.arrows) - 1)))
    assume(T is not None)
    T = _renamed(T, data.draw(st.randoms(use_true_random=False)))
    assert isomorphic(S, T) is None


@PROPERTY_SETTINGS
@given(st.data())
def test_isomorphic_matches_reference_on_random_complexes(data):
    # same generator and arrow counts, so neither search stops at the counts
    S = data.draw(complexes())
    names = S.generators
    assume(names)
    pairs = st.tuples(st.sampled_from(names), st.sampled_from(names))
    arrows = data.draw(st.sets(pairs, min_size=len(S.arrows), max_size=len(S.arrows)))
    _assert_agrees_with_reference(S, ChainComplexF2(names, frozenset(arrows)))


def test_check_complex():
    good = ChainComplexF2(("a", "b", "c"), frozenset({("a", "b"), ("a", "c")}))
    assert check_complex(good).ok
    bad = ChainComplexF2(("a", "b", "c"), frozenset({("a", "b"), ("b", "c")}))
    assert not check_complex(bad).ok


# ---------------------------------------------------------------------------
# exact failure reports: every checker prints "x -> z" plus ": " and the
# label factors joined by "*" when the label is not empty, sorted by
# (x, z, label); verify_homotopy prefixes each surviving arrow with its tag


def test_check_complex_report_lines():
    C = ChainComplexF2(
        ("a", "b", "c", "d"),
        frozenset({("a", "b"), ("b", "c"), ("b", "d"), ("a", "d"), ("c", "d")}),
    )
    report = check_complex(C)
    assert not report.ok
    assert report.lines == ("a -> c", "a -> d", "b -> d")
    assert report.text() == "a -> c\na -> d\nb -> d"


def test_check_dd_report_lines():
    S = build_cfdd_full(2)
    broken = DDStructure(S.generators, frozenset(a for a in S.arrows if a[0] != "x2y2"))
    assert check_dd(broken).lines == ("x1y3 -> x3y3: r23*s23", "x3y1 -> x3y3: r23*s23")


def test_check_d_report_lines():
    gens = (DGenerator("c0", 1), DGenerator("c1", 2), DGenerator("c2", 1))
    arrows = {
        ("c0", "i1", "c0"),
        ("c0", "r1", "c1"),
        ("c0", "r3", "c1"),
        ("c1", "r2", "c2"),
        ("c1", "r2", "c0"),
    }
    report = check_d(DStructure("left", gens, frozenset(arrows)))
    assert report.lines == (
        "c0 -> c0: i1",
        "c0 -> c0: r12",
        "c0 -> c1: r1",
        "c0 -> c1: r3",
        "c0 -> c2: r12",
        "c1 -> c0: r2",
        "c1 -> c1: r23",
    )


def _without_first_arrow(h):
    return DDMorphism(h.source, h.target, frozenset(sorted(h.arrows)[1:]))


def test_verify_homotopy_report_lines():
    F, G, H = build_equivalence(3)
    assert verify_homotopy(F, G, _without_first_arrow(H)).lines == (
        "G o F + id differs from d(H): a_y2 -> x4y4: r3*j2",
        "G o F + id differs from d(H): x5y1 -> x3y5: r23*s23",
    )
    assert verify_homotopy(_without_first_arrow(F), G, H).lines == (
        "F not a chain map: a_y2 -> u_x1y1: r1*j2",
        "F not a chain map: a_y2 -> u_x4y4: r3*j2",
        "F not a chain map: x5y1 -> u_a_y2: r2*s23",
        "F o G differs from identity: u_a_y2 -> u_a_y2: i1*j2",
        "G o F + id differs from d(H): a_y2 -> a_y2: i1*j2",
    )
    assert verify_homotopy(F, _without_first_arrow(G), H).lines == (
        "G not a chain map: u_a_y2 -> x1y1: r1*j2",
        "G not a chain map: u_a_y2 -> x3y1: r123*s23",
        "G not a chain map: u_a_y2 -> x3y5: r3*j2",
        "G not a chain map: u_a_y2 -> x5y3: r3*j2",
        "G not a chain map: u_x3y3 -> a_y2: r2*s23",
        "F o G differs from identity: u_a_y2 -> u_a_y2: i1*j2",
        "G o F + id differs from d(H): a_y2 -> a_y2: i1*j2",
        "G o F + id differs from d(H): x2y4 -> a_y2: r2*s23",
    )


def test_morphism_calculus_on_a_broken_chain_map():
    F, G, H = build_equivalence(3)
    assert sorted(F.arrows)[0] == ("a_y2", "i1", "j2", "u_a_y2")
    broken = _without_first_arrow(F)
    assert d_of_morphism(broken).arrows == {
        ("a_y2", "r1", "j2", "u_x1y1"),
        ("a_y2", "r3", "j2", "u_x4y4"),
        ("x5y1", "r2", "s23", "u_a_y2"),
    }
    assert compose(broken, G).arrows == identity_morphism(F.target).arrows - {
        ("u_a_y2", "i1", "j2", "u_a_y2")
    }
    defect = compose(G, broken).arrows ^ identity_morphism(F.source).arrows
    assert defect ^ d_of_morphism(H).arrows == {("a_y2", "i1", "j2", "a_y2")}


def _verify_reference(F, G, H):
    """verify_homotopy built from the public morphism calculus: every
    side of every identity is a DDMorphism."""
    M, N = F.source, F.target
    surviving = (
        ("F not a chain map", d_of_morphism(F).arrows),
        ("G not a chain map", d_of_morphism(G).arrows),
        ("F o G differs from identity", compose(F, G).arrows ^ identity_morphism(N).arrows),
        (
            "G o F + id differs from d(H)",
            compose(G, F).arrows ^ identity_morphism(M).arrows ^ d_of_morphism(H).arrows,
        ),
    )
    lines = tuple(
        f"{tag}: {x} -> {z}: {'*'.join(label)}"
        for tag, arrows in surviving
        for x, *label, z in sorted(arrows)
    )
    return CheckReport(not lines, lines)


def _with_extra_arrow(h):
    """h plus its least missing coherent arrow from the first source
    generator to the last target generator."""
    x, y = h.source.generators[0], h.target.generators[-1]
    coherent = sorted(
        (x.name, l, r, y.name)
        for l in basis_tokens("left")
        for r in basis_tokens("right")
        if (token_left_idem(l), token_right_idem(l)) == (x.left, y.left)
        and (token_left_idem(r), token_right_idem(r)) == (x.right, y.right)
    )
    extra = next(a for a in coherent if a not in h.arrows)
    return DDMorphism(h.source, h.target, h.arrows | {extra})


@pytest.mark.parametrize("n", range(3, 9))
def test_verify_homotopy_matches_morphism_reference(n):
    F, G, H = build_equivalence(n)
    cases = [(F, G, H)]
    for edit in (_without_first_arrow, _with_extra_arrow):
        cases += [(edit(F), G, H), (F, edit(G), H), (F, G, edit(H))]
    tags = set()
    for case in cases:
        report = verify_homotopy(*case)
        assert report == _verify_reference(*case)
        tags.update(line.split(":")[0] for line in report.lines)
    assert verify_homotopy(F, G, H).ok
    assert tags == {
        "F not a chain map",
        "G not a chain map",
        "F o G differs from identity",
        "G o F + id differs from d(H)",
    }


# ---------------------------------------------------------------------------
# the integer kernel against the tuple-keyed one it replaced: name-keyed
# adjacency, (x, label, z) tuples toggled in a set, labels multiplied
# token by token


def _reference_out(S, arrows):
    """{source name: [(label, target name)]} over (source, *label, target)."""
    out = {g: [] for g in S.idems}
    for arrow in arrows:
        out[arrow[0]].append((arrow[1:-1], arrow[-1]))
    return out


def _reference_parity(first_out, second_out):
    """(x, label, z) summed an odd number of times over two-step paths."""
    odd = set()
    for x, steps in first_out.items():
        for a, y in steps:
            for b, z in second_out[y]:
                label = _label_product(a, b)
                if label is not None:
                    odd ^= {(x, label, z)}
    return odd


def _reference_line(x, label, z):
    return f"{x} -> {z}: {'*'.join(label)}" if label else f"{x} -> {z}"


def _reference_check(S):
    out = _reference_out(S, S.arrows)
    odd = _reference_parity(out, out)
    lines = tuple(_reference_line(*k) for k in sorted(odd, key=lambda k: (k[0], k[2], k[1])))
    return CheckReport(not lines, lines)


def _reference_d(h):
    out = _reference_out(h.source, h.arrows)
    return _reference_parity(out, _reference_out(h.target, h.target.arrows)) ^ _reference_parity(
        _reference_out(h.source, h.source.arrows), out
    )


def _reference_compose(g, f):
    return _reference_parity(_reference_out(f.source, f.arrows), _reference_out(g.source, g.arrows))


def _reference_identity(M):
    return {
        (x, (idem_token("left", a), idem_token("right", b)), x) for x, (a, b) in M.idems.items()
    }


def _reference_verify(F, G, H):
    M, N = F.source, F.target
    surviving = (
        ("F not a chain map", _reference_d(F)),
        ("G not a chain map", _reference_d(G)),
        ("F o G differs from identity", _reference_compose(F, G) ^ _reference_identity(N)),
        (
            "G o F + id differs from d(H)",
            _reference_compose(G, F) ^ _reference_identity(M) ^ _reference_d(H),
        ),
    )
    lines = tuple(
        f"{tag}: {_reference_line(*arrow)}" for tag, arrows in surviving for arrow in sorted(arrows)
    )
    return CheckReport(not lines, lines)


def _named_arrows(arrows):
    return {(x, *label, z) for x, label, z in arrows}


# names whose sorted order differs from the order they are drawn in, and
# from the order of their embedded integers
NAMES = ("q", "a10", "a2", "b", "a1", "Z", "\u00e9", "x0", "a01")


@st.composite
def named_dd_structures(draw):
    names = draw(st.permutations(NAMES))
    idems = draw(st.lists(st.tuples(st.sampled_from((1, 2)), st.sampled_from((1, 2))), max_size=6))
    gens = tuple(DDGenerator(name, l, r) for name, (l, r) in zip(names, idems))
    return DDStructure(gens, frozenset(draw(_coherent_dd_arrows(gens, gens))))


def _coherent_dd_arrows(sources, targets):
    coherent = [
        (x.name, l, r, y.name)
        for x in sources
        for y in targets
        for l in LEFT_TOKENS
        if (token_left_idem(l), token_right_idem(l)) == (x.left, y.left)
        for r in RIGHT_TOKENS
        if (token_left_idem(r), token_right_idem(r)) == (x.right, y.right)
    ]
    return st.sets(st.sampled_from(coherent), max_size=12) if coherent else st.just(set())


@st.composite
def d_structures(draw):
    side = draw(st.sampled_from(("left", "right")))
    names = draw(st.permutations(NAMES))
    idems = draw(st.lists(st.sampled_from((1, 2)), max_size=6))
    gens = tuple(DGenerator(name, e) for name, e in zip(names, idems))
    coherent = [
        (x.name, t, y.name)
        for x in gens
        for y in gens
        for t in basis_tokens(side)
        if (token_left_idem(t), token_right_idem(t)) == (x.idem, y.idem)
    ]
    arrows = draw(st.sets(st.sampled_from(coherent), max_size=12)) if coherent else set()
    return DStructure(side, gens, frozenset(arrows))


def _morphism(data, source, target):
    arrows = data.draw(_coherent_dd_arrows(source.generators, target.generators))
    return DDMorphism(source, target, frozenset(arrows))


@PROPERTY_SETTINGS
@given(st.one_of(named_dd_structures(), dd_structures(), d_structures(), complexes()))
def test_checks_match_tuple_reference(S):
    check = {DDStructure: check_dd, DStructure: check_d, ChainComplexF2: check_complex}[type(S)]
    assert check(S) == _reference_check(S)


@PROPERTY_SETTINGS
@given(named_dd_structures(), named_dd_structures(), st.booleans(), st.data())
def test_morphism_calculus_matches_tuple_reference(M, N, identities, data):
    if identities:
        # F = G = id and H = 0 make every identity hold
        N = M
        F = G = identity_morphism(M)
        H = DDMorphism(M, M, frozenset())
    else:
        F, G, H = _morphism(data, M, N), _morphism(data, N, M), _morphism(data, M, M)
    for h in (F, G, H):
        assert d_of_morphism(h).arrows == _named_arrows(_reference_d(h))
    for g, f in ((G, F), (F, G), (H, H), (H, G)):
        assert compose(g, f).arrows == _named_arrows(_reference_compose(g, f))
    report = verify_homotopy(F, G, H)
    assert report == _reference_verify(F, G, H)
    assert report.ok or not identities


@pytest.mark.parametrize("n", (3, 4))
def test_equivalence_matches_tuple_reference(n):
    F, G, H = build_equivalence(n)
    assert check_dd(F.source) == _reference_check(F.source)
    assert check_dd(F.target) == _reference_check(F.target)
    for case in ((F, G, H), (_without_first_arrow(F), G, H), (F, G, _with_extra_arrow(H))):
        assert verify_homotopy(*case) == _reference_verify(*case)


def _labels_between(a, b, sides):
    """Every label, one token per side, that an arrow from idempotents a
    to idempotents b may carry."""
    tokens = [
        [t for t in basis_tokens(side) if (token_left_idem(t), token_right_idem(t)) == (e, f)]
        for side, e, f in zip(sides, a, b)
    ]
    return list(itertools.product(*tokens))


def _corrupt(arrows, source_idems, target_idems, sides, edit, rng):
    """The arrows with one arrow dropped, one coherent arrow added, or one
    arrow's label replaced by another coherent one, chosen by rng; None
    when no arrow can be relabelled."""
    arrows = set(arrows)
    if edit == "drop":
        return arrows - {rng.choice(sorted(arrows))}
    if edit == "add":
        sources, targets = sorted(source_idems), sorted(target_idems)
        while True:
            x, y = rng.choice(sources), rng.choice(targets)
            labels = _labels_between(source_idems[x], target_idems[y], sides)
            free = [label for label in labels if (x, *label, y) not in arrows]
            if free:
                return arrows | {(x, *rng.choice(free), y)}
    relabelled = [
        (arrow, (arrow[0], *label, arrow[-1]))
        for arrow in sorted(arrows)
        for label in _labels_between(source_idems[arrow[0]], target_idems[arrow[-1]], sides)
        if (arrow[0], *label, arrow[-1]) not in arrows
    ]
    if not relabelled:
        return None
    old, new = rng.choice(relabelled)
    return arrows - {old} | {new}


def _reference_rows(source, target, arrows):
    """The sorted rows of the (x, label, z) arrows from source to target."""
    return _reference_steps(source.index, target.index, _named_arrows(arrows))


@pytest.mark.parametrize("n", range(3, 7))
def test_corrupted_equivalences_match_tuple_reference(n):
    """Drop, add or relabel one arrow of F, G, H or M (the big structure,
    under unchanged maps), and of M, N and a D structure and a complex
    built from M: the checkers' lines, in order, the rows of d and of
    compositions, and verify_homotopy's lines, in order, agree with the
    name-keyed reference, which multiplies labels with mul_basis."""
    rng = random.Random(n)
    F, G, H = build_equivalence(n)
    M, N = F.source, F.target
    D = box_right(build_cfa(2), M)
    structures = (M, N, D, box_left(build_cfa(3), D))
    checks = {DDStructure: check_dd, DStructure: check_d, ChainComplexF2: check_complex}
    failed, tags = set(), set()
    for edit in ("drop", "add", "relabel"):
        for S in structures:
            sides = SIDES if isinstance(S, DDStructure) else (S.side,) if S.side else ()
            arrows = _corrupt(S.arrows, S.idems, S.idems, sides, edit, rng)
            if arrows is None:  # a complex has one label
                continue
            T = _rebuilt(S, S.names, ((a[0], a[1:-1], a[-1]) for a in arrows))
            report = checks[type(T)](T)
            assert report == _reference_check(T)
            if not report.ok:
                failed.add(type(T))
        for role in "FGHM":
            if role == "M":
                arrows = _corrupt(M.arrows, M.idems, M.idems, SIDES, edit, rng)
                big = DDStructure(M.generators, arrows)
                f = DDMorphism(big, N, F.arrows)
                g, h = DDMorphism(N, big, G.arrows), DDMorphism(big, big, H.arrows)
            else:
                old = {"F": F, "G": G, "H": H}[role]
                arrows = _corrupt(old.arrows, old.source.idems, old.target.idems, SIDES, edit, rng)
                new = DDMorphism(old.source, old.target, arrows)
                f, g, h = (new if role == r else m for r, m in zip("FGH", (F, G, H)))
            for m in (f, g, h):
                rows = _reference_rows(m.source, m.target, _reference_d(m))
                assert d_of_morphism(m).steps == rows
            for b, a in ((g, f), (f, g), (h, h), (h, g)):  # b after a
                rows = _reference_rows(a.source, b.target, _reference_compose(b, a))
                assert compose(b, a).steps == rows
            report = verify_homotopy(f, g, h)
            assert report == _reference_verify(f, g, h)
            tags.update(line.split(":")[0] for line in report.lines)
    assert failed == set(checks)
    assert tags == {
        "F not a chain map",
        "G not a chain map",
        "F o G differs from identity",
        "G o F + id differs from d(H)",
    }


# ---------------------------------------------------------------------------
# the view each constructor builds while it checks the arrows, against the
# separate lazy pass it replaced, and to_json's arrows, read from the view


def _reference_steps(index, target_index, arrows):
    """[[(label id, target number)] per source generator], each sorted."""
    steps = [[] for _ in index]
    for arrow in arrows:
        steps[index[arrow[0]]].append((_LABELS.index(arrow[1:-1]), target_index[arrow[-1]]))
    for row in steps:
        row.sort()
    return steps


def _reference_index(S):
    names = sorted(g if isinstance(S, ChainComplexF2) else g.name for g in S.generators)
    return {name: k for k, name in enumerate(names)}


@st.composite
def named_complexes(draw):
    names = draw(st.permutations(NAMES))[: draw(st.integers(0, 6))]
    if not names:
        return ChainComplexF2((), frozenset())
    pairs = st.tuples(st.sampled_from(names), st.sampled_from(names))
    return ChainComplexF2(tuple(names), frozenset(draw(st.sets(pairs, max_size=10))))


# the fields of a printed arrow, in the order of the arrow tuple
ARROW_FIELDS = {
    DDStructure: ("source", "left", "right", "target"),
    DStructure: ("source", "label", "target"),
    ChainComplexF2: ("source", "target"),
}


@PROPERTY_SETTINGS
@given(
    st.one_of(named_dd_structures(), d_structures(), named_complexes()),
    named_dd_structures(),
    named_dd_structures(),
    st.data(),
)
def test_views_match_reference_and_print_in_sorted_arrow_order(S, M, N, data):
    index = _reference_index(S)
    assert S.index == index
    assert S.names == tuple(index)
    assert S.steps == _reference_steps(index, index, S.arrows)
    h = _morphism(data, M, N)
    assert h.steps == _reference_steps(_reference_index(M), _reference_index(N), h.arrows)
    fields = ARROW_FIELDS[type(S)]
    printed = [tuple(a[f] for f in fields) for a in json.loads(to_json(S))["arrows"]]
    assert printed == sorted(S.arrows)


# ---------------------------------------------------------------------------
# the two construction routes: results handed over as numbered rows must
# equal the public constructor's rebuild from their derived generators
# and arrows, and the internal constructor checks as the public one does


def _public(S):
    """S rebuilt through the public constructor from its derived values."""
    if isinstance(S, DDMorphism):
        return DDMorphism(S.source, S.target, S.arrows)
    if isinstance(S, DStructure):
        return DStructure(S.side, S.generators, S.arrows)
    return type(S)(S.generators, S.arrows)


def _assert_routes_agree(S):
    R = _public(S)
    assert R == S and hash(R) == hash(S)
    assert S != S.steps  # a structure equals no object of another type
    assert R.steps == S.steps
    if isinstance(S, DDMorphism):
        return
    assert (R.side, R.names, R.codes, R.index) == (S.side, S.names, S.codes, S.index)
    assert to_json(R) == to_json(S)


def _rows_results():
    for n in range(1, 9):
        yield build_cfdd_full(n)
        if n >= 2:
            yield build_cfdd_simplified(n)
    # two generators that carry no arrows, beside a two-arrow cycle
    gens = [DDGenerator(x, *idems) for x, idems in zip("abcd", [(1, 1), (2, 2), (1, 2), (2, 1)])]
    yield DDStructure(gens, {("a", "r123", "s123", "b"), ("b", "r2", "s2", "a")})
    for n in (1, 2, 3):
        S = build_cfdd_full(n)
        for right in (1, 2, 3, 4, "inf"):
            D = box_right(build_cfa(right), S)
            yield D
            for left in (1, 2, 3, 4, "inf"):
                yield box_left(build_cfa(left), D)
    for S in (build_cfdd_full(5), box_right(build_cfa_framed(3), build_cfdd_full(4))):
        yield reduce(S)
        for seed in (1, 2, 3):
            yield reduce(S, random.Random(seed))
    yield reduce(box_left(build_cfa_framed(2), box_right(build_cfa_framed(3), build_cfdd_full(2))))
    for n in (3, 4, 5):
        F, G, H = build_equivalence(n)
        yield from (d_of_morphism(F), d_of_morphism(H), compose(G, F), compose(H, G))
        yield identity_morphism(F.source)


def test_numbered_results_match_the_public_route():
    for S in _rows_results():
        _assert_routes_agree(S)


@PROPERTY_SETTINGS
@given(
    st.one_of(named_dd_structures(), dd_structures(), d_structures(), complexes()),
    st.randoms(use_true_random=False),
)
def test_numbered_results_match_the_public_route_on_random_structures(S, rng):
    _assert_routes_agree(S)
    _assert_routes_agree(reduce(S))
    _assert_routes_agree(reduce(S, rng))
    internal = type(S)._from_rows(S.names, S.codes, S.steps, S.side)
    assert internal == S and to_json(internal) == to_json(S)


@PROPERTY_SETTINGS
@given(named_dd_structures(), named_dd_structures(), st.data())
def test_numbered_morphisms_match_the_public_route_on_random_structures(M, N, data):
    F, G = _morphism(data, M, N), _morphism(data, N, M)
    for h in (d_of_morphism(F), compose(G, F), compose(F, G), identity_morphism(M)):
        _assert_routes_agree(h)


def _message(build):
    with pytest.raises(ValueError) as error:
        build()
    return str(error.value)


RS2, R2 = _LABELS.index(("r2", "s2")), _LABELS.index(("r2",))
# the codes of generators (1, 1) and (2, 2) of a DD structure, and 1 and 2
# of a left D structure: the ids of their unit labels
U11, U22 = _LABELS.index(("i1", "j1")), _LABELS.index(("i2", "j2"))
I1, I2 = _LABELS.index(("i1",)), _LABELS.index(("i2",))
HOPF_EMPTY = two_generator_dd(())
INTERNAL_AND_PUBLIC = {
    "duplicate name": (
        lambda: DDStructure._from_rows(("a", "a"), (U11, U11), [[], []]),
        lambda: DDStructure((DDGenerator("a", 1, 1), DDGenerator("a", 1, 1)), frozenset()),
    ),
    "non-string name": (
        lambda: DStructure._from_rows((1,), (I1,), [[]], "left"),
        lambda: DStructure("left", (DGenerator(1, 1),), frozenset()),
    ),
    "unknown side": (
        lambda: DStructure._from_rows(("a",), (I1,), [[]], "up"),
        lambda: DStructure("up", (DGenerator("a", 1),), frozenset()),
    ),
    "incoherent row": (
        lambda: DDStructure._from_rows(("ab", "x1y1"), (U11, U22), [[(RS2, 1)], []]),
        lambda: two_generator_dd({("ab", "r2", "s2", "x1y1")}),
    ),
    "incoherent D row": (
        lambda: DStructure._from_rows(("a", "b"), (I1, I2), [[(R2, 1)], []], "left"),
        lambda: DStructure("left", (DGenerator("a", 1), DGenerator("b", 2)), {("a", "r2", "b")}),
    ),
    "incoherent morphism row": (
        lambda: DDMorphism._from_rows(HOPF_EMPTY, HOPF_EMPTY, [[(RS2, 1)], []]),
        lambda: DDMorphism(HOPF_EMPTY, HOPF_EMPTY, {("ab", "r2", "s2", "x1y1")}),
    ),
}


@pytest.mark.parametrize("internal, public", INTERNAL_AND_PUBLIC.values(), ids=INTERNAL_AND_PUBLIC)
def test_internal_constructor_raises_the_public_messages(internal, public):
    assert _message(internal) == _message(public)


# codes that are no unit label of the structure's kind: a chord label, a
# label of another kind, a D label of the other side, one out of range
BAD_CODES = {
    "bad DD code": (
        lambda: DDStructure._from_rows(("a", "b"), (RS2, U11), [[], []]),
        f"generator 'a' has code {RS2}, no unit label over ('left', 'right')",
    ),
    "D code in a DD structure": (
        lambda: DDStructure._from_rows(("a",), (I1,), [[]]),
        f"generator 'a' has code {I1}, no unit label over ('left', 'right')",
    ),
    "bad D code": (
        lambda: DStructure._from_rows(("p",), (0,), [[]], "left"),
        "generator 'p' has code 0, no unit label over ('left',)",
    ),
    "right D code on the left": (
        lambda: DStructure._from_rows(("p",), (_LABELS.index(("j1",)),), [[]], "left"),
        f"generator 'p' has code {_LABELS.index(('j1',))}, no unit label over ('left',)",
    ),
    "bad complex code": (
        lambda: ChainComplexF2._from_rows(("c",), (len(_LABELS),), [[]]),
        f"generator 'c' has code {len(_LABELS)}, no unit label over ()",
    ),
}


@pytest.mark.parametrize("build, message", BAD_CODES.values(), ids=BAD_CODES)
def test_internal_constructor_names_a_code_that_is_no_unit_label(build, message):
    """The public constructors name the idempotent indices they were given
    (``test_idempotent_indices_outside_one_two_rejected``); the internal
    one names the code."""
    assert _message(build) == message


MALFORMED_ROWS = {
    "target out of range": (
        lambda: DDStructure._from_rows(("a",), (U11,), [[(U11, 5)]]),
        f"generator 'a' has malformed step {(U11, 5)}",
    ),
    "target not a number": (
        lambda: DDStructure._from_rows(("a",), (U11,), [[(U11, "x")]]),
        f"generator 'a' has malformed step {(U11, 'x')}",
    ),
    "wrong row count": (
        lambda: DDStructure._from_rows(("a",), (U11,), [[], []]),
        "1 generators but 2 arrow rows",
    ),
    "malformed after incoherent": (
        lambda: DDStructure._from_rows(("ab", "x1y1"), (U11, U22), [[(RS2, 1)], [(U22, 2)]]),
        f"generator 'x1y1' has malformed step {(U22, 2)}",
    ),
    "morphism target out of range": (
        lambda: DDMorphism._from_rows(HOPF_EMPTY, HOPF_EMPTY, [[(U11, 2)], []]),
        f"generator 'ab' has malformed step {(U11, 2)}",
    ),
}


@pytest.mark.parametrize("build, message", MALFORMED_ROWS.values(), ids=MALFORMED_ROWS)
def test_internal_constructor_names_a_malformed_row(build, message):
    assert _message(build) == message


def test_numbered_results_derive_generators_and_arrows_on_first_read():
    S = build_cfdd_full(3)
    D = box_right(build_cfa_framed(2), S)
    results = (S, D, box_left(build_cfa_framed(3), D), reduce(S), reduce(D))
    for R in results:
        assert "generators" not in vars(R) and "arrows" not in vars(R)
        assert R.generators and R.arrows
        assert "generators" in vars(R) and "arrows" in vars(R)


def test_structures_are_immutable():
    S = build_cfdd_full(2)
    with pytest.raises(dataclasses.FrozenInstanceError):
        S.names = ()
    with pytest.raises(dataclasses.FrozenInstanceError):
        del S.steps
    assert repr(two_generator_dd(())) == (
        "DDStructure(generators=(DDGenerator(name='ab', left=1, right=1),"
        " DDGenerator(name='x1y1', left=2, right=2)), arrows=frozenset())"
    )


# public constructions with several faults, and the message naming the
# least faulty arrow or operation by repr
SEVERAL_FAULTS = {
    "missing endpoints": (
        "DDStructure([DDGenerator('a', 1, 1)], [('a', 'r1', 's1', y) for y in 'bcdefgh'])",
        "arrow endpoint missing: ('a', 'r1', 's1', 'b')",
    ),
    "incoherent arrows": (
        "DDStructure([DDGenerator(x, 1, 1) for x in 'abcdefg'], [(x, 'r2', 's2', 'a') for x in 'abcdefg'])",
        "left label incoherent on arrow ('a', 'r2', 's2', 'a')",
    ),
    "module operations": (
        "AModule((AGenerator('w', 1),), {('w', ('3',), y) for y in 'stuvxyz'})",
        "operation endpoint missing: ('w', ('3',), 's')",
    ),
    "module loops": (
        "AModule((AGenerator('w', 1),), {('w', ('3', '23*', '2'), 'w')} | {('w', ('3',) + ('23',) * k + ('2',), 'w') for k in range(1, 8)})",
        "operations share the chords before a star: ('w', ('3', '23', '2'), 'w')",
    ),
    "misshapen arrows": (
        "DDStructure([DDGenerator('a', 1, 1)], [(x, y) for x in 'ab' for y in 'stuvxyz'] + [('a', 'i1', 'j1', y) for y in 'stuvxyz'])",
        "arrow ('a', 's') is not (source, left, right, target)",
    ),
}


@pytest.mark.parametrize("build, message", SEVERAL_FAULTS.values(), ids=SEVERAL_FAULTS)
def test_rejection_names_the_same_fault_under_any_hash_seed(build, message):
    """Sets of strings iterate in an order that depends on PYTHONHASHSEED,
    so each construction runs in a fresh interpreter per seed."""
    script = (
        "from bpc.structures import AGenerator, AModule, DDGenerator, DDStructure\n"
        f"try:\n    {build}\nexcept ValueError as e:\n    print(e)\n"
    )
    src = os.path.dirname(os.path.dirname(sys.modules["bpc"].__file__))
    for seed in ("0", "1"):
        env = {**os.environ, "PYTHONHASHSEED": seed, "PYTHONPATH": src}
        run = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True)
        assert (run.returncode, run.stdout, run.stderr) == (0, message + "\n", ""), seed
