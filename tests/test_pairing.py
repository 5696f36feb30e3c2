import gc
import random
import tracemalloc
from functools import cache
from itertools import combinations

import pytest

from bpc.algebra import INTERVALS, chord_token, is_idempotent, mul_basis, side_of
from bpc.pairing import (
    _STEP,
    PairingConfig,
    box_left,
    box_right,
    homology_rank,
)
from bpc.serialize import to_json
from bpc.solid_torus import build_cfa, build_cfa_framed, build_cfa_infinity
from bpc.structures import (
    _LABELS,
    AGenerator,
    AModule,
    ChainComplexF2,
    DGenerator,
    DStructure,
    DDGenerator,
    DDMorphism,
    DDStructure,
    check_d,
    isomorphic,
    reduce,
)
from bpc.torus_link import build_cfdd_full, build_cfdd_simplified
from test_solid_torus import truncated_infinity, unrolled


def test_step_table_agrees_with_token_helpers():
    assert len(_STEP) == len(_LABELS)
    for label, step in zip(_LABELS, _STEP):
        if not label:
            assert step is None
            continue
        chord, rest = step
        consumed = label[-1]
        if is_idempotent(consumed):
            assert chord is None
        else:
            assert chord_token(side_of(consumed), chord) == consumed
        # the residual: (l,) of a DD label (l, r), () of a D label (t,)
        assert _LABELS[rest] == label[:-1]


def test_infinity_surgery_arrows():
    n = 4
    D = box_right(build_cfa_infinity(), build_cfdd_full(n))
    assert len(D.generators) == n
    arrows = set(D.arrows)
    assert ("w*ab", "r123", "w*x2_b") in arrows
    for k in range(1, n - 1):
        assert (f"w*x{2 * k}_b", "r23", f"w*x{2 * k + 2}_b") in arrows
    assert (f"w*x{2 * n - 2}_b", "r2", "w*ab") in arrows
    assert len(arrows) == n


@pytest.mark.parametrize("n", range(2, 7))
def test_infinity_surgery_reduces_to_n_cycle(n):
    D = reduce(box_right(build_cfa_infinity(), build_cfdd_full(n)))
    assert len(D.generators) == n
    labels = sorted(t for _, t, _ in D.arrows)
    assert labels == sorted(["r123", "r2"] + ["r23"] * (n - 2))
    # a single cycle: every generator has one outgoing and one incoming arrow
    assert len({s for s, _, _ in D.arrows}) == n
    assert len({t for _, _, t in D.arrows}) == n


TREFOIL_ARROWS = {
    ("p1*ab", "r123", "p2*x2_b"),
    ("p2*x2_b", "r23", "q*x1y3"),
    ("p2*x2_b", "r23", "q*x3y1"),
    ("q*x1y3", "i2", "q*x2y2"),
    ("q*x3y1", "i2", "q*x2y2"),
    ("q*x1y3", "r23", "p1*x2_b"),
    ("p1*x2_b", "r2", "p2*ab"),
    ("p2*ab", "r123", "q*x1y1"),
    ("q*a_y2", "r1", "q*x1y1"),
    ("q*a_y2", "r3", "q*x3y3"),
    ("q*x3y3", "r2", "p1*ab"),
}


def test_trefoil_pairing_exact():
    D = box_right(build_cfa_framed(2), build_cfdd_full(2))
    assert len(D.generators) == 10
    assert set(D.arrows) == TREFOIL_ARROWS
    assert check_d(D).ok


def expected_trefoil_reduced():
    gens = (
        DGenerator("g_pa1", 1),
        DGenerator("g_xb1", 2),
        DGenerator("g_mid", 2),
        DGenerator("g_xb2", 2),
        DGenerator("g_pa2", 1),
        DGenerator("g_ay", 1),
        DGenerator("g_top", 2),
        DGenerator("g_low", 2),
    )
    arrows = {
        # unstable chain r123, r23, r23, r2
        ("g_pa1", "r123", "g_xb1"),
        ("g_xb1", "r23", "g_mid"),
        ("g_mid", "r23", "g_xb2"),
        ("g_xb2", "r2", "g_pa2"),
        # stable chain r2, r3, r1, r123
        ("g_top", "r2", "g_pa1"),
        ("g_ay", "r3", "g_top"),
        ("g_ay", "r1", "g_low"),
        ("g_pa2", "r123", "g_low"),
    }
    return DStructure("left", gens, frozenset(arrows))


def test_trefoil_reduction():
    D = box_right(build_cfa_framed(2), build_cfdd_full(2))
    R = reduce(D)
    assert len(R.generators) == 8
    assert isomorphic(R, expected_trefoil_reduced()) is not None


def hopf_complex(n1, n2):
    D = box_right(build_cfa_framed(n2), build_cfdd_full(1))
    return box_left(build_cfa_framed(n1), D)


def test_hopf_double_pairing_sole_arrow():
    C = hopf_complex(2, 3)
    assert len(C.generators) == 7
    assert C.arrows == frozenset({("q*q*x1y1", "p1*p1*ab")})
    assert homology_rank(C) == 5


def test_hopf_degenerate_slope():
    C = hopf_complex(1, 1)
    assert len(C.generators) == 2
    assert len(C.arrows) == 1
    assert homology_rank(C) == 0


@pytest.mark.parametrize("n1", range(1, 6))
@pytest.mark.parametrize("n2", range(1, 6))
def test_lens_space_ranks(n1, n2):
    if n1 * n2 == 1:
        pytest.skip("no lens space at the degenerate slope")
    assert homology_rank(hopf_complex(n1, n2)) == n1 * n2 - 1


def test_box_left_on_arrowless_structure():
    S = DStructure("left", (DGenerator("z", 1),), frozenset())
    C = box_left(build_cfa_framed(2), S)
    assert C.generators == ("p1*z", "p2*z")
    assert not C.arrows


def test_homology_rank_edge_cases():
    assert homology_rank(ChainComplexF2(("a", "b", "c"), frozenset())) == 3
    assert homology_rank(ChainComplexF2(("a", "b"), frozenset({("a", "b")}))) == 0
    bad = ChainComplexF2(("a", "b", "c"), frozenset({("a", "b"), ("b", "c")}))
    with pytest.raises(ValueError):
        homology_rank(bad)


@pytest.mark.xfail(strict=True, reason="ROADMAP item 17: bitset rows as wide as the generator count")
def test_homology_rank_memory_is_linear_in_the_complex():
    """pair (2, 3) at n = 96: 18,722 generators and 35,726 arrows.  The
    rank's traced peak stays within 128 bytes per generator and arrow
    (6.6 MiB); dense bitset rows peak near 30 MiB, a sparse elimination
    near 2 MiB."""
    C = box_left(build_cfa(2), box_right(build_cfa(3), build_cfdd_full(96)))
    size = len(C.names) + sum(map(len, C.steps))
    gc.collect()
    tracemalloc.start()
    try:
        homology_rank(C)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 128 * size, (peak, size)


RIGHT_D = DStructure("right", (DGenerator("x", 1), DGenerator("y", 2)), {("x", "s1", "y")})
WRONG_KINDS = {
    # a right D structure used to pass as a complex, a DD structure raised
    # AttributeError in box_left, and a D structure in box_right too
    "box_left of a right D": (
        lambda: box_left(build_cfa_framed(1), RIGHT_D),
        "box_left needs a DStructure over the left algebra, got side 'right'",
    ),
    "box_left of a DD": (
        lambda: box_left(build_cfa_framed(1), build_cfdd_full(1)),
        "box_left needs a DStructure over the left algebra, got DDStructure",
    ),
    "box_right of a D": (
        lambda: box_right(build_cfa_framed(1), RIGHT_D),
        "box_right needs a DDStructure, got DStructure",
    ),
    # homology_rank returned 1 for a D structure and named d^2 for a DD one
    "homology_rank of a D": (
        lambda: homology_rank(DStructure("left", (DGenerator("z", 1),), frozenset())),
        "homology_rank needs a ChainComplexF2, got DStructure",
    ),
    "homology_rank of a DD": (
        lambda: homology_rank(build_cfdd_full(2)),
        "homology_rank needs a ChainComplexF2, got DDStructure",
    ),
    # a DD morphism into a D structure used to construct
    "DD morphism to a D": (
        lambda: DDMorphism(
            build_cfdd_full(2), box_right(build_cfa_framed(3), build_cfdd_full(2)), frozenset()
        ),
        "a DD morphism's target must be a DDStructure, got DStructure",
    ),
    "DD morphism from a complex": (
        lambda: DDMorphism(ChainComplexF2((), frozenset()), build_cfdd_full(1), frozenset()),
        "a DD morphism's source must be a DDStructure, got ChainComplexF2",
    ),
    # both named reduce, which isomorphic was not
    "reduce of a module": (
        lambda: reduce(build_cfa_framed(2)),
        "reduce needs a DDStructure, DStructure or ChainComplexF2, got AModule",
    ),
    "isomorphic of modules": (
        lambda: isomorphic(build_cfa_framed(2), build_cfa_framed(2)),
        "isomorphic needs a DDStructure, DStructure or ChainComplexF2, got AModule",
    ),
    "isomorphic of D structures over different sides": (
        lambda: isomorphic(RIGHT_D, DStructure("left", RIGHT_D.generators, frozenset())),
        "cannot compare D structures over different algebras",
    ),
}


@pytest.mark.parametrize("build, message", WRONG_KINDS.values(), ids=WRONG_KINDS)
def test_wrong_kind_or_side_rejected(build, message):
    with pytest.raises(ValueError) as error:
        build()
    assert str(error.value) == message


def test_homology_rank_eliminates_equal_rows():
    # d(x) = d(y) = a + b: rank of the boundary is 1, so H has rank 2;
    # the two rows are equal small ints, the same object in CPython
    C = ChainComplexF2(
        ("a", "b", "x", "y"),
        frozenset({("x", "a"), ("x", "b"), ("y", "a"), ("y", "b")}),
    )
    assert homology_rank(C) == 2 == len(reduce(C).generators)


@pytest.mark.parametrize("seed", range(10))
def test_homology_rank_matches_cancellation(seed):
    # every arrow runs a_i -> b_j, so d squares to zero; dense rows make
    # equal and dependent rows common
    rng = random.Random(seed)
    k = rng.randint(2, 14)
    gens = tuple(f"{side}{i}" for side in "ab" for i in range(k))
    arrows = frozenset(
        (f"a{i}", f"b{j}") for i in range(k) for j in range(k) if rng.random() < 0.4
    )
    C = ChainComplexF2(gens, arrows)
    assert homology_rank(C) == len(reduce(C).generators)


@pytest.mark.parametrize("n", range(2, 7))
def test_box_generator_counts(n):
    D = box_right(build_cfa_infinity(), build_cfdd_full(n))
    assert len(D.generators) == n


@pytest.mark.parametrize("slope", ["inf", 1, 2, 3, 4, 5, 65])
@pytest.mark.parametrize("n", range(1, 7))
def test_box_outputs_satisfy_structure_equation(n, slope):
    A = build_cfa_infinity() if slope == "inf" else build_cfa_framed(slope)
    assert check_d(box_right(A, build_cfdd_full(n))).ok


def test_reduce_then_pair_matches_pair_then_reduce():
    for n1, n2 in [(1, 1), (2, 3), (4, 2), (5, 5)]:
        D = box_right(build_cfa_framed(n2), build_cfdd_full(1))
        direct = homology_rank(box_left(build_cfa_framed(n1), D))
        via_reduced = homology_rank(box_left(build_cfa_framed(n1), reduce(D)))
        assert direct == via_reduced
    # same comparison on a structure with unit arrows to cancel
    D = box_right(build_cfa_framed(2), build_cfdd_full(2))
    for n1 in (1, 2, 3):
        direct = homology_rank(box_left(build_cfa_framed(n1), D))
        via_reduced = homology_rank(box_left(build_cfa_framed(n1), reduce(D)))
        assert direct == via_reduced


def test_reduction_order_independent_on_paired_fixtures():
    rng = random.Random(3)
    fixtures = [
        box_right(build_cfa_framed(2), build_cfdd_full(2)),
        box_right(build_cfa_infinity(), build_cfdd_full(3)),
        box_left(build_cfa_framed(2), box_right(build_cfa_framed(3), build_cfdd_full(1))),
    ]
    for S in fixtures:
        base = reduce(S)
        for _ in range(5):
            assert isomorphic(base, reduce(S, rng=rng)) is not None


def test_unbounded_pairing_names_the_generator_and_the_loop_chord():
    # u and v exchange s23 arrows, so a path that reaches the loop of
    # (23, 23*, 2) goes round it forever; the walk stops once a state repeats
    S = DDStructure(
        (DDGenerator("u", 2, 2), DDGenerator("v", 2, 2)),
        frozenset({("u", "i2", "s23", "v"), ("v", "i2", "s23", "u")}),
    )
    A = AModule(
        (AGenerator("x", 2), AGenerator("y", 1)),
        frozenset({("x", ("23", "23*", "2"), "y")}),
    )
    with pytest.raises(ValueError) as error:
        box_right(A, S)
    assert str(error.value) == (
        "unbounded pairing: box_right from 'x*u' loops on chord 23"
    )
    # the infinity module on a D structure with an r23 self-arrow
    D = DStructure(
        "left",
        (DGenerator("a", 1), DGenerator("b", 2)),
        frozenset({("a", "r3", "b"), ("b", "r23", "b")}),
    )
    assert check_d(D).ok
    with pytest.raises(ValueError) as error:
        box_left(build_cfa_infinity(), D)
    assert str(error.value) == (
        "unbounded pairing: box_left from 'w*a' loops on chord 23"
    )


def test_a_loop_without_a_cycle_in_the_structure_ends():
    # x -(s23)-> y -(s23)-> z -(s2)-> t spells (23, 23, 2) from x and
    # (23, 2) from y, the loop read once and not at all; no cycle in S, so
    # no path stays on the loop
    S = DDStructure(
        (DDGenerator("x", 1, 2), DDGenerator("y", 1, 2), DDGenerator("z", 1, 2), DDGenerator("t", 1, 1)),
        frozenset({("x", "i1", "s23", "y"), ("y", "i1", "s23", "z"), ("z", "i1", "s2", "t")}),
    )
    A = AModule(
        (AGenerator("p", 2), AGenerator("q", 1)),
        frozenset({("p", ("23", "23*", "2"), "q")}),
    )
    D = box_right(A, S)
    assert D.arrows == frozenset({("p*x", "i1", "q*t"), ("p*y", "i1", "q*t")})
    assert (set(D.generators), D.arrows) == _box_reference(A, S)


def test_pairing_terminates_on_cyclic_structures():
    # two generators exchanging chord-labeled arrows with idempotent left
    # labels keep every path alive; the table's prefix tree still bounds
    # the search depth, at the module's one operation of ten chords
    gens = (DDGenerator("u", 2, 2), DDGenerator("v", 2, 2))
    S = DDStructure(
        gens, frozenset({("u", "i2", "s23", "v"), ("v", "i2", "s23", "u")})
    )
    module = AModule(
        (AGenerator("x", 2),),
        frozenset({("x", ("23",) * 10, "x")}),
    )
    D = box_right(module, S)
    # ten steps around the two-cycle lead each generator back to itself
    assert D.arrows == frozenset({("x*u", "i2", "x*u"), ("x*v", "i2", "x*v")})


def test_config_side_matches_function():
    with pytest.raises(ValueError):
        box_right(build_cfa_framed(1), build_cfdd_full(1), PairingConfig("left"))
    D = box_right(build_cfa_framed(1), build_cfdd_full(1))
    with pytest.raises(ValueError) as error:
        box_left(build_cfa_framed(1), D, PairingConfig("right"))
    assert str(error.value) == "box_left consumes the left algebra"
    with pytest.raises(ValueError):
        PairingConfig("up")


def test_double_infinity_filling_gives_the_three_sphere():
    for n in range(1, 5):
        D = box_right(build_cfa_infinity(), build_cfdd_full(n))
        C = box_left(build_cfa_infinity(), D)
        assert homology_rank(C) == 1


def test_idempotent_mismatch_reported():
    # chord 2 ends at arc 1, so an operation along it cannot land on y of
    # occupancy 2: the module is refused before any box product sees it
    with pytest.raises(ValueError) as error:
        AModule(
            (AGenerator("x", 2), AGenerator("y", 2)),
            frozenset({("x", ("2",), "y")}),
        )
    assert str(error.value) == "sequence not composable with target: (('2',), 'y')"



# ---------------------------------------------------------------------------
# oracles: ranks that the mathematics fixes, whatever the modules compute

SLOPES = (1, 2, 3, 4, "inf")


def _rank(S, left, right):
    """The homology rank of the closed manifold: S filled with the solid
    tori of the two slopes, as ``bpc pair --left L --right R`` prints it."""
    return homology_rank(box_left(build_cfa(left), box_right(build_cfa(right), S)))


@pytest.mark.parametrize("n", range(2, 7))
def test_full_and_simplified_models_give_the_same_ranks(n):
    """The two models are homotopy equivalent, and the box product keeps
    homotopy type, so every filling has one rank."""
    full, simplified = build_cfdd_full(n), build_cfdd_simplified(n)
    for left in SLOPES:
        for right in SLOPES:
            assert _rank(full, left, right) == _rank(simplified, left, right), (left, right)


# every pair of slopes from {2, 3, 4, inf} at n = 3..6 breaks the symmetry
# today; the solid-torus modules are at fault, not the DD structure
_SWAP_BROKEN = {
    (n, left, right) for n in range(3, 7) for left, right in combinations((2, 3, 4, "inf"), 2)
}


@pytest.mark.parametrize(
    "n, left, right",
    [
        pytest.param(
            n,
            left,
            right,
            marks=[pytest.mark.xfail(strict=True, reason="ROADMAP item 1")]
            if (n, left, right) in _SWAP_BROKEN
            else [],
        )
        for n in range(2, 7)
        for left, right in combinations(SLOPES, 2)
    ],
)
def test_swap_symmetry(n, left, right):
    """T(2,2n) has a homeomorphism exchanging its two components, so the
    fillings (left, right) and (right, left) are homeomorphic manifolds."""
    S = build_cfdd_full(n)
    assert _rank(S, left, right) == _rank(S, right, left)


# the fillings that print 0 today
_RANK_ZERO = {(1, 1, 1), (2, 1, "inf"), (2, "inf", 1)} | {(n, "inf", n - 1) for n in range(3, 7)}
# every filling from {1..5, inf}^2 at n = 1..6, the rank-0 ones strict xfails
_FILLINGS = [
    pytest.param(
        n,
        left,
        right,
        marks=[pytest.mark.xfail(strict=True, reason="ROADMAP item 1")]
        if (n, left, right) in _RANK_ZERO
        else [],
    )
    for n in range(1, 7)
    for left in (1, 2, 3, 4, 5, "inf")
    for right in (1, 2, 3, 4, 5, "inf")
]


@pytest.mark.parametrize("n, left, right", _FILLINGS)
def test_rank_is_at_least_one(n, left, right):
    """HF-hat of a closed 3-manifold is never zero."""
    assert _rank(build_cfdd_full(n), left, right) >= 1


@pytest.mark.xfail(strict=True, reason="ROADMAP item 1: S^1 x S^2 prints 0")
@pytest.mark.parametrize("n", [18, 24, 31])
def test_rank_is_at_least_one_at_larger_n(n):
    """(inf, n - 1) is S^1 x S^2, of rank 2, where paths reach 18 chords."""
    assert _rank(build_cfdd_full(n), "inf", n - 1) >= 1


@pytest.mark.parametrize("n", [8, 12, 16, 20, 24, 32])
def test_infinity_fillings_are_lens_spaces_of_rank_the_order_of_h1(n):
    """(inf, R) is the lens space with |H_1| = |R - n + 1|, an L-space, so
    that is its rank; R = n - 1 is S^1 x S^2, a strict xfail above."""
    S = build_cfdd_full(n)
    for right in range(1, 31):
        if right != n - 1:
            assert _rank(S, "inf", right) == abs(right - n + 1) == _h1_order(n, "inf", right), right


@pytest.mark.parametrize("n", range(1, 9))
def test_the_looping_module_pairs_as_its_truncation(n):
    """Every pair from {1..7, inf}^2 with an infinity side gives the same
    structures and bytes with the looping module as with the family cut at
    k <= 16: no path at n <= 8 reaches 18 chords."""
    S = build_cfdd_full(n)
    slopes = [*range(1, 8), "inf"]
    for left in slopes:
        for right in slopes:
            if "inf" not in (left, right):
                continue
            outputs = []
            for infinity in (build_cfa_infinity(), truncated_infinity(16)):
                pick = [infinity if s == "inf" else build_cfa_framed(s) for s in (left, right)]
                D = box_right(pick[1], S)
                C = box_left(pick[0], D)
                outputs.append((D, C, to_json(D), to_json(C), homology_rank(C)))
            assert outputs[0] == outputs[1], (left, right)


def _h1_order(n, left, right):
    """|H_1| of the filling that ``bpc pair --n n --left L --right R``
    computes, or 0 when its first Betti number is positive.

    The one framing convention the oracles use: an integer slope L stands
    for the framing L' = n - 1 - L of its component of T(2, 2n), and R for
    R' = n - 1 - R, so the linking matrix is [[L', n], [n, R']].  Read
    each integer framing as the slope p/q = L'/1 and inf as 1/0; then
    |H_1| = |p1 p2 - n^2 q1 q2|.  Under it the rank printed at (inf, R),
    |R - n + 1|, is the order of H_1 of that lens space.
    """
    (p1, q1), (p2, q2) = ((1, 0) if s == "inf" else (n - 1 - s, 1) for s in (left, right))
    return abs(p1 * p2 - n * n * q1 * q2)


@pytest.mark.parametrize("n, left, right", _FILLINGS)
def test_rank_bounds_first_homology(n, left, right):
    """chi(HF-hat) = |H_1| when b_1 = 0, so the rank is at least |H_1| and
    has its parity; when b_1 > 0, chi = 0 and HF-hat is nonzero, so the
    rank is even and at least 2."""
    rank, order = _rank(build_cfdd_full(n), left, right), _h1_order(n, left, right)
    if order:
        assert rank >= order and (rank - order) % 2 == 0
    else:
        assert rank >= 2 and rank % 2 == 0


# the surgery exact triangle: slopes m, m + 1 and inf on one boundary are
# pairwise at distance 1, on the grid n = 1..10, slopes {1..8, inf}
TRIANGLE_SLOPES = (*range(1, 9), "inf")


@cache
def _triangle_ranks(n):
    """{(left, right): rank} over TRIANGLE_SLOPES on both sides, each
    filling computed once."""
    S = build_cfdd_full(n)
    return {(left, right): _rank(S, left, right) for left in TRIANGLE_SLOPES for right in TRIANGLE_SLOPES}


def _triad(n, side, other, m):
    """The ranks of the fillings with m, m + 1 and inf on side and other
    on the other side, as printed (a printed 0 stays 0)."""
    ranks = _triangle_ranks(n)
    return [ranks[(s, other) if side == "left" else (other, s)] for s in (m, m + 1, "inf")]


# the 168 triads that break the inequality today, all with the triad on
# the left: framed right side R >= 2 and m < R, m <= n - 2 (at n = 3,
# R = 3 the ranks are 10, 13 and 1)
_TRIANGLE_BROKEN = {
    (n, "left", right, m) for n in range(3, 11) for right in range(2, 9) for m in range(1, min(right, n - 1))
}
_TRIADS = [
    (n, side, other, m)
    for n in range(1, 11)
    for side in ("left", "right")
    for other in TRIANGLE_SLOPES
    for m in range(1, 8)
]


@pytest.mark.parametrize("n", range(1, 11))
def test_triangle_ranks_have_an_even_sum(n):
    """The maps of an exact triangle of F2 spaces have ranks summing to
    the total dimension over two, so a + b + c is even."""
    odd = [triad for triad in _TRIADS if triad[0] == n and sum(_triad(*triad)) % 2]
    assert not odd


@pytest.mark.parametrize(
    "n, side, other, m",
    [
        pytest.param(
            *triad,
            marks=[pytest.mark.xfail(strict=True, reason="ROADMAP item 1")] if triad in _TRIANGLE_BROKEN else [],
        )
        for triad in _TRIADS
    ],
)
def test_surgery_exact_triangle(n, side, other, m):
    """HF-hat of the three fillings fits in an exact triangle
    (Ozsvath-Szabo, arXiv math/0105202), whatever the framing convention
    and b_1, so each rank is at most the sum of the other two."""
    a, b, c = _triad(n, side, other, m)
    assert a <= b + c and b <= a + c and c <= a + b, (a, b, c)


def test_the_triangle_grid_counts():
    """1,260 triads from 810 fillings, 168 of them strict xfails."""
    assert len(_TRIADS) == 1260 and len(_TRIANGLE_BROKEN) == 168
    assert sum(len(_triangle_ranks(n)) for n in range(1, 11)) == 810


# the (L, inf) fillings printed wrong today: every b_1 = 0 one with n >= 3
# and L >= 2, where L + n - 3 is printed, and S^1 x S^2 at L = n - 1 for
# these n, where 2n - 4 is printed
_LEFT_LENS_WRONG = {(n, left) for n in range(3, 11) for left in range(2, 8) if left != n - 1} | {
    (n, n - 1) for n in (2, 4, 5, 6, 7, 8)
}


@pytest.mark.parametrize(
    "n, left",
    [
        pytest.param(
            n,
            left,
            marks=[pytest.mark.xfail(strict=True, reason="ROADMAP item 1")]
            if (n, left) in _LEFT_LENS_WRONG
            else [],
        )
        for n in range(1, 11)
        for left in range(1, 8)
    ],
)
def test_left_infinity_fillings_are_lens_spaces_of_rank_the_order_of_h1(n, left):
    """(L, inf), the framed module on the left, is a lens space with
    |H_1| = |L - n + 1|, an L-space of that rank, or S^1 x S^2 of rank 2
    where the order is 0; the mirror of the (inf, R) oracle above."""
    assert _triangle_ranks(n)[left, "inf"] == (_h1_order(n, left, "inf") or 2)


# ---------------------------------------------------------------------------
# the two-object bed: a framed module against a k-generator loop, neither
# with more than 8 generators (ROADMAP item 1)


def _loop(k):
    """D_k: the simplified model at n = k filled by inf on the right and
    reduced, a k-generator loop whose H_1 lattice is the meridian (1, k - 1)."""
    return reduce(box_right(build_cfa_infinity(), build_cfdd_simplified(k)))


@pytest.mark.parametrize("k", range(2, 9))
def test_the_bed_loop_is_a_d_structure_of_k_generators(k):
    D = _loop(k)
    assert check_d(D).ok and len(D.names) == k


# the ranks printed today that differ: (1, 2), where S^1 x S^2 prints 0, and
# every m >= 2 against k >= 3 but (2, 3), where m + k - 3 is printed
_BED_WRONG = {(1, 2)} | {(m, k) for m in range(2, 8) for k in range(3, 9)} - {(2, 3)}


@pytest.mark.parametrize(
    "m, k",
    [
        pytest.param(
            m,
            k,
            marks=[pytest.mark.xfail(strict=True, reason="ROADMAP item 1")]
            if (m, k) in _BED_WRONG
            else [],
        )
        for m in ("inf", *range(1, 8))
        for k in range(2, 9)
    ],
)
def test_the_bed_pairs_a_framed_module_with_the_loop_to_a_lens_space(m, k):
    """A_m's lattice is (1, m), so A_m glued to D_k has |H_1| = |m - k + 1|
    (S^3 for m = inf): a lens space, an L-space of that rank, or S^1 x S^2
    of rank 2 where the order is 0."""
    expected = 1 if m == "inf" else abs(m - k + 1) or 2
    assert homology_rank(box_left(build_cfa(m), _loop(k))) == expected


# ---------------------------------------------------------------------------
# a reference box product, written from the definition on names


def _box_reference(A, S):
    """(generators, arrows) of A boxed with S, as names: box_right's
    DGenerators and (a*x, l, b*y) arrows for a DD structure S, box_left's
    names and (a*x, b*y) arrows for a left D structure.

    Every path from x is enumerated, until its chords begin no sequence
    an operation of a spells.  An idempotent consumed-side step counts
    only as a whole path of length one, relabelling a*x to a*y (strict
    unitality); a path of chords counts when they spell an operation (a,
    chords, b) of A's table, a starred chord read any number of times,
    and the product of its residual labels is nonzero, landing on b*y.
    Contributions are summed mod 2."""
    interval = {chord_token(side, c): c for side in ("left", "right") for c in INTERVALS}
    if isinstance(S, DDStructure):  # consume r of (x, l, r, y), keep (l,)
        consumed = {g.name: g.right for g in S.generators}
        kept = {g.name: g.left for g in S.generators}
        steps = [(x, (l,), r, y) for x, l, r, y in S.arrows]
    else:  # consume t of (x, t, y), keep ()
        consumed, kept = {g.name: g.idem for g in S.generators}, None
        steps = [(x, (), t, y) for x, t, y in S.arrows]
    out = {x: [] for x in consumed}
    for x, rest, token, y in steps:
        out[x].append((rest, token, y))

    def spellings(a, seq):
        """(whether seq begins a sequence an operation of a spells, the
        targets of the operations of a that spell seq)"""
        begun, targets = False, []
        for source, chords, b in A.operations:
            if source == a:
                words = [unrolled(chords, j) for j in range(len(seq) + 1)]
                begun = begun or any(w[: len(seq)] == seq for w in words)
                targets += [b] if seq in words else []
        return begun, targets

    def times(u, v):
        if not u:
            return ()
        p = mul_basis(u[0], v[0])
        return None if p is None else (p,)

    gens, odd = set(), set()
    for a in A.generators:
        for x, e in consumed.items():
            if e != a.occupancy:
                continue
            src = f"{a.name}*{x}"
            gens.add(src if kept is None else DGenerator(src, kept[x]))
            paths = []
            for rest, token, y in out[x]:
                if is_idempotent(token):
                    odd ^= {(src, *rest, f"{a.name}*{y}")}
                else:
                    paths.append((rest, (interval[token],), y))
            while paths:  # chord paths whose chords begin an operation of a
                rest, seq, y = paths.pop()
                begun, targets = spellings(a.name, seq)
                if not begun:
                    continue
                for b in targets:
                    odd ^= {(src, *rest, f"{b}*{y}")}
                for more, token, z in out[y]:
                    product = times(rest, more)
                    if not is_idempotent(token) and product is not None:
                        paths.append((product, seq + (interval[token],), z))
    return gens, odd


def _assert_sorted(T):
    """Names in sorted order and every row strictly increasing."""
    assert list(T.names) == sorted(T.names)
    for row in T.steps:
        assert all(u < v for u, v in zip(row, row[1:])), row


@pytest.mark.parametrize("right", [1, 2, 3, 4, 5, "inf"])
@pytest.mark.parametrize("n", range(1, 5))
def test_box_products_match_the_reference(n, right):
    """Every ``bpc pair`` input with n <= 4 and slopes {1..5, inf}."""
    S = build_cfdd_full(n)
    D = box_right(build_cfa(right), S)
    assert (set(D.generators), D.arrows) == _box_reference(build_cfa(right), S)
    _assert_sorted(D)
    for left in (1, 2, 3, 4, 5, "inf"):
        C = box_left(build_cfa(left), D)
        assert (set(C.generators), C.arrows) == _box_reference(build_cfa(left), D)
        _assert_sorted(C)


# hand-built inputs on which the mod-2 sum cancels, which no pair input does
_CANCELLING = {
    # x -(i1, s23)-> y spells a -(23)-> a, the same arrow a*x -(i1)-> a*y
    # as the idempotent step beside it
    "a chord path cancels an idempotent step": (
        AModule((AGenerator("a", 2),), {("a", ("23",), "a")}),
        DDStructure(
            (DDGenerator("x", 1, 2), DDGenerator("y", 1, 2)),
            {("x", "i1", "j2", "y"), ("x", "i1", "s23", "y")},
        ),
        set(),
    ),
    # the same in box_left, with x -(r12)-> y beside x -(i1)-> y
    "a chord path cancels an idempotent step, box_left": (
        AModule((AGenerator("a", 1),), {("a", ("12",), "a")}),
        DStructure(
            "left",
            (DGenerator("x", 1), DGenerator("y", 1)),
            {("x", "i1", "y"), ("x", "r12", "y")},
        ),
        set(),
    ),
    # two first steps x -(i1, s1)-> y and x -(i1, s3)-> y spell two
    # operations a -> b; y -(i1, s2)-> z -(i1, s1)-> w and y -(i1, s2)->
    # z2 -(i1, s1)-> w, two paths through the stack, spell one b -> b
    "two chord paths cancel": (
        AModule(
            (AGenerator("a", 1), AGenerator("b", 2)),
            {("a", ("1",), "b"), ("a", ("3",), "b"), ("b", ("2", "1"), "b")},
        ),
        DDStructure(
            (
                DDGenerator("w", 1, 2),
                DDGenerator("x", 1, 1),
                DDGenerator("y", 1, 2),
                DDGenerator("z", 1, 1),
                DDGenerator("z2", 1, 1),
            ),
            {
                ("x", "i1", "s1", "y"),
                ("x", "i1", "s3", "y"),
                ("y", "i1", "s2", "z"),
                ("y", "i1", "s2", "z2"),
                ("z", "i1", "s1", "w"),
                ("z2", "i1", "s1", "w"),
            },
        ),
        {("a*z", "i1", "b*w"), ("a*z2", "i1", "b*w")},
    ),
}


@pytest.mark.parametrize("A, S, arrows", _CANCELLING.values(), ids=_CANCELLING)
def test_cancelling_paths_match_the_reference(A, S, arrows):
    T = box_right(A, S) if isinstance(S, DDStructure) else box_left(A, S)
    assert T.arrows == arrows
    assert (set(T.generators), T.arrows) == _box_reference(A, S)
    _assert_sorted(T)


def test_module_names_holding_a_star_still_sort_the_products():
    # "p*q" + "*b" sorts between "p*" + "a" and "p*" + "z"
    A = AModule((AGenerator("p", 1), AGenerator("p*q", 2)), {("p", ("1",), "p*q")})
    S = DStructure(
        "left",
        (DGenerator("a", 1), DGenerator("b", 2), DGenerator("z", 1)),
        {("a", "r1", "b"), ("z", "r1", "b")},
    )
    C = box_left(A, S)
    assert C.names == ("p*a", "p*q*b", "p*z")
    assert C.arrows == {("p*a", "p*q*b"), ("p*z", "p*q*b")}
    assert (set(C.generators), C.arrows) == _box_reference(A, S)
    _assert_sorted(C)
