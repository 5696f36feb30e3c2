import pytest

from bpc.solid_torus import (
    INFINITY,
    build_cfa,
    build_cfa_framed,
    build_cfa_infinity,
    parse_slope,
)
from bpc.structures import check_a


def test_infinity_smallest_cap():
    M = build_cfa_infinity(0)
    assert [g.name for g in M.generators] == ["w"]
    assert M.operations == frozenset({("w", ("3", "2"), "w")})


def test_infinity_cap_two():
    M = build_cfa_infinity(2)
    assert len(M.operations) == 3
    assert max(len(seq) for _, seq, _ in M.operations) == 4  # arity 5 with the module input
    assert M.capped_arity == 4


def test_infinity_relation_checker():
    assert check_a(build_cfa_infinity(4)).ok


def test_framed_m2_exact_table():
    M = build_cfa_framed(2)
    assert M.operations == frozenset(
        {
            ("q", ("2",), "p1"),
            ("p1", ("3", "2"), "p2"),
            ("p2", ("3", "2", "1"), "q"),
        }
    )
    occ = {g.name: g.occupancy for g in M.generators}
    assert occ == {"q": 2, "p1": 1, "p2": 1}


def test_framed_m1_table():
    M = build_cfa_framed(1)
    assert M.operations == frozenset(
        {("q", ("2",), "p1"), ("p1", ("3", "2", "1"), "q")}
    )
    assert check_a(M).ok


@pytest.mark.parametrize("m", range(1, 9))
def test_framed_counts_and_relation(m):
    M = build_cfa_framed(m)
    assert len(M.generators) == 1 + m
    middle = len([(i, j) for i in range(1, m + 1) for j in range(0, m) if i + j + 1 <= m])
    assert len(M.operations) == 1 + middle + 1
    assert check_a(M).ok


@pytest.mark.parametrize("cap", range(0, 9))
def test_infinity_relation_all_caps(cap):
    assert check_a(build_cfa_infinity(cap)).ok


def test_bad_framings_rejected():
    with pytest.raises(ValueError):
        build_cfa_framed(0)
    with pytest.raises(ValueError):
        build_cfa_framed(-3)
    with pytest.raises(ValueError):
        build_cfa_infinity(-1)


def test_parse_slope():
    assert parse_slope("inf") == INFINITY
    assert parse_slope("3") == 3
    for bad in ("0", "-1", "x", "1.5", ""):
        with pytest.raises(ValueError):
            parse_slope(bad)


@pytest.mark.parametrize("text", ["1_0", " 2", "2 ", "+3", "\u0663", "3\u0663", "Inf", "\u00b2"])
def test_parse_slope_takes_only_ascii_digits(text):
    # int() accepts all but the last two of these
    with pytest.raises(ValueError) as info:
        parse_slope(text)
    assert str(info.value) == f"bad slope {text!r}: expected 'inf' or a positive integer"


def test_build_cfa_dispatch():
    assert build_cfa(INFINITY).capped_arity == 18  # default family cap 16
    assert build_cfa(4).capped_arity is None
