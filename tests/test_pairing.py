import random
from itertools import combinations

import pytest

from bpc.algebra import chord_token, is_idempotent, side_of
from bpc.pairing import (
    _STEP,
    PairingConfig,
    PathCapExceeded,
    box_left,
    box_right,
    homology_rank,
)
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


@pytest.mark.parametrize("slope", ["inf", 1, 2, 3, 4, 5])
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


def test_family_cap_guard():
    # a module truncated too early is flagged rather than silently wrong
    # and the message names the generator and chord path that touched the cap
    with pytest.raises(PathCapExceeded, match=r"box_right from 'w\*ab' along chords 3 23"):
        box_right(build_cfa_infinity(0), build_cfdd_full(2))
    D = box_right(build_cfa_framed(2), build_cfdd_full(2))
    with pytest.raises(PathCapExceeded, match=r"box_left from 'w\*q\*a_y2' along chords 3 2"):
        box_left(build_cfa_infinity(0), D)
    # the default cap is far beyond any live path of these pairings
    box_right(build_cfa_infinity(), build_cfdd_full(6))


def test_pairing_terminates_on_cyclic_structures():
    # two generators exchanging chord-labeled arrows with idempotent left
    # labels keep every path alive; the table's prefix tree still bounds
    # the search depth
    gens = (DDGenerator("u", 2, 2), DDGenerator("v", 2, 2))
    S = DDStructure(
        gens, frozenset({("u", "i2", "s23", "v"), ("v", "i2", "s23", "u")})
    )
    module = AModule(
        (AGenerator("x", 2),),
        frozenset({("x", ("23",) * 9 + ("2",), "x")}),
    )
    D = box_right(module, S, PairingConfig(path_cap=12))
    assert len(D.generators) == 2 and not D.arrows


def test_path_cap_must_cover_table():
    with pytest.raises(
        ValueError, match=r"^path cap 2 is smaller than the longest module operation \(arity 5\)$"
    ):
        box_right(build_cfa_framed(5), build_cfdd_full(2), PairingConfig(path_cap=2))


def test_config_side_matches_function():
    with pytest.raises(ValueError):
        box_right(build_cfa_framed(1), build_cfdd_full(1), PairingConfig("left"))
    with pytest.raises(ValueError):
        PairingConfig("up")


def test_double_infinity_filling_gives_the_three_sphere():
    for n in range(1, 5):
        D = box_right(build_cfa_infinity(), build_cfdd_full(n))
        C = box_left(build_cfa_infinity(), D)
        assert homology_rank(C) == 1


def test_idempotent_mismatch_reported():
    # the module sends its generator to one pairing with the wrong class
    gens = (DDGenerator("u", 2, 2), DDGenerator("v", 2, 1))
    S = DDStructure(gens, frozenset({("u", "i2", "s2", "v")}))
    module = AModule(
        (AGenerator("x", 2), AGenerator("y", 2)),
        frozenset({("x", ("2",), "y")}),
    )
    with pytest.raises(ValueError) as error:
        box_right(module, S)
    assert str(error.value) == (
        "idempotent mismatch in inputs: operation lands on 'y' which does not pair with 'v'"
    )



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
