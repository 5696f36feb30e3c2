import random

import pytest

from bpc.algebra import is_idempotent
from bpc.pairing import box_left, box_right
from bpc.solid_torus import build_cfa_framed
from bpc.structures import (
    AGenerator,
    AModule,
    ChainComplexF2,
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
    zero_morphism,
)
from bpc.structures import _graph_data, _natural_key, _rebuild
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


def test_arrow_coherence_enforced():
    with pytest.raises(ValueError):
        # r2 runs from idempotent 2 to 1, not out of an a-type generator
        two_generator_dd({("ab", "r2", "s1", "x1y1")})


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
    # m(x, 1) = y and m(x, 12) = y with nothing else fails on (1, 2)
    module = AModule(
        (AGenerator("x", 1), AGenerator("y", 2)),
        frozenset({("x", ("1",), "y"), ("x", ("12",), "y")}),
    )
    report = check_a(module)
    assert not report.ok
    assert report.lines == ("x: (1,2) -> y",)


def test_check_a_validation():
    with pytest.raises(ValueError):
        AModule((AGenerator("x", 2),), frozenset({("x", ("1",), "x")}))
    with pytest.raises(ValueError):
        AModule((AGenerator("x", 1),), frozenset({("x", ("1", "1"), "x")}))


def test_zero_and_identity_morphisms():
    M = build_cfdd_full(2)
    assert d_of_morphism(zero_morphism(M, M)).is_zero()
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
    assert compose(F, zero_morphism(N, F.source)).is_zero()
    with pytest.raises(ValueError):
        compose(F, F)


def test_verify_homotopy_trivial():
    M = build_cfdd_full(2)
    ident = identity_morphism(M)
    assert verify_homotopy(ident, ident, zero_morphism(M, M)).ok


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


def _reduce_reference(S, rng=None):
    """The rescanning cancellation loop reduce replaced, kept as its oracle:
    every step re-sorts all unit arrows and rebuilds the arrow set."""
    _, attrs, arrows, mul, unit = _graph_data(S)
    names = set(attrs)
    while True:
        units = sorted(
            ((s, t) for s, label, t in arrows if unit(label) and s != t),
            key=lambda a: (_natural_key(a[0]), _natural_key(a[1])),
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
    return _rebuild(S, names, arrows)


def _reduce_inputs():
    for n in range(1, 9):
        S = build_cfdd_full(n)
        D = box_right(build_cfa_framed(3), S)
        yield f"DD-n{n}", S
        yield f"D-n{n}", D
        yield f"complex-n{n}", box_left(build_cfa_framed(2), D)


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
    # superscript digits are not decimal: they stay text in the key
    C = ChainComplexF2(("²", "b"), frozenset({("b", "²")}))
    assert reduce(C).generators == ()


def test_reduce_full_model_n48():
    red = reduce(build_cfdd_full(48))
    assert check_dd(red).ok
    assert len(red.generators) == 4 * 48 - 2 == 190
    assert len(red.arrows) == len(build_cfdd_simplified(48).arrows)


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


def test_check_complex():
    good = ChainComplexF2(("a", "b", "c"), frozenset({("a", "b"), ("a", "c")}))
    assert check_complex(good).ok
    bad = ChainComplexF2(("a", "b", "c"), frozenset({("a", "b"), ("b", "c")}))
    assert not check_complex(bad).ok
