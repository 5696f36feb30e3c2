import itertools

import pytest

from bpc.algebra import (
    INTERVALS,
    SIDES,
    basis_tokens,
    check_token,
    chord_factorizations,
    chord_token,
    idem_index,
    is_idempotent,
    left_idem,
    mul_basis,
    mul_interval,
    right_idem,
    side_of,
    token_left_idem,
    token_right_idem,
)


# chord endpoints on the 4-marked circle, written out independently of bpc.algebra
ORACLE_SPANS = {"1": (0, 1), "2": (1, 2), "3": (2, 3), "12": (0, 2), "23": (1, 3), "123": (0, 3)}


def oracle_chord_product(a, b):
    """Independent product table from chord endpoints on the 4-marked circle."""
    ends = ORACLE_SPANS
    if ends[a][1] != ends[b][0]:
        return None
    glued = (ends[a][0], ends[b][1])
    for name, span in ends.items():
        if span == glued:
            return name
    return None


def test_products_match_endpoint_oracle():
    for a in INTERVALS:
        for b in INTERVALS:
            assert mul_interval(a, b) == oracle_chord_product(a, b), (a, b)


def test_exactly_four_nonzero_chord_products():
    nonzero = {
        (a, b): mul_interval(a, b)
        for a in INTERVALS
        for b in INTERVALS
        if mul_interval(a, b) is not None
    }
    assert nonzero == {
        ("1", "2"): "12",
        ("2", "3"): "23",
        ("1", "23"): "123",
        ("12", "3"): "123",
    }


def test_spec_products():
    assert mul_basis("r1", "r2") == "r12"
    assert mul_basis("r1", "r23") == "r123"
    assert mul_basis("r2", "r1") is None
    assert mul_basis("i1", "i2") is None
    assert mul_basis("i1", "i1") == "i1"
    assert mul_basis("s2", "s3") == "s23"


# module docstring: r1 = i1*r1*i2, r2 = i2*r2*i1, r3 = i1*r3*i2,
# r12 = i1*r12*i1, r23 = i2*r23*i2, r123 = i1*r123*i2 (same for s)
DOCSTRING_IDEMPOTENTS = {
    "1": (1, 2),
    "2": (2, 1),
    "3": (1, 2),
    "12": (1, 1),
    "23": (2, 2),
    "123": (1, 2),
}


def test_idempotent_assignment():
    for interval, (li, ri) in DOCSTRING_IDEMPOTENTS.items():
        assert left_idem(interval) == li, interval
        assert right_idem(interval) == ri, interval
        assert mul_basis(f"i{li}", chord_token("left", interval)) == f"r{interval}"
        assert mul_basis(chord_token("left", interval), f"i{ri}") == f"r{interval}"
        assert mul_basis(f"i{3 - li}", chord_token("left", interval)) is None
        assert mul_basis(chord_token("left", interval), f"i{3 - ri}") is None


@pytest.mark.parametrize("side", ["left", "right"])
def test_associativity_exhaustive(side):
    basis = basis_tokens(side)
    assert len(basis) == 8
    checked = 0
    for a, b, c in itertools.product(basis, repeat=3):
        ab = mul_basis(a, b)
        bc = mul_basis(b, c)
        left = mul_basis(ab, c) if ab else None
        right = mul_basis(a, bc) if bc else None
        assert left == right, (a, b, c)
        checked += 1
    assert checked == 512


@pytest.mark.parametrize("side", ["left", "right"])
def test_unit_law(side):
    # the unit is the sum of the two idempotents: exactly one fixes each token
    idems = basis_tokens(side)[:2]
    for t in basis_tokens(side):
        assert [p for e in idems if (p := mul_basis(e, t)) is not None] == [t]
        assert [p for e in idems if (p := mul_basis(t, e)) is not None] == [t]


def test_chord_products_stay_in_basis():
    for a in INTERVALS:
        for b in INTERVALS:
            p = mul_interval(a, b)
            assert p is None or p in INTERVALS


def test_factorizations():
    assert chord_factorizations("12") == (("1", "2"),)
    assert set(chord_factorizations("123")) == {("1", "23"), ("12", "3")}
    assert chord_factorizations("2") == ()


def test_side_mismatch():
    with pytest.raises(ValueError, match="across sides"):
        mul_basis("r1", "s2")
    with pytest.raises(ValueError, match="across sides"):
        mul_basis("j1", "i1")


# ---------------------------------------------------------------------------
# the token tables against an oracle written from chord endpoints alone

ORACLE_PREFIXES = {"left": ("i", "r"), "right": ("j", "s")}


def oracle_arc(point):
    """Matched arc of a marked point: 0 and 2 lie on arc 1, 1 and 3 on arc 2."""
    return 1 if point in (0, 2) else 2


def oracle_basis(side):
    """token -> ("idem", k) or ("chord", (start, end)) for one side."""
    idem, chord = ORACLE_PREFIXES[side]
    basis = {f"{idem}{k}": ("idem", k) for k in (1, 2)}
    basis.update({f"{chord}{name}": ("chord", span) for name, span in ORACLE_SPANS.items()})
    return basis


def oracle_product(side, a, b):
    basis = oracle_basis(side)
    (kind_a, va), (kind_b, vb) = basis[a], basis[b]
    if kind_a == kind_b == "idem":
        return a if va == vb else None
    if kind_a == "idem":
        return b if oracle_arc(vb[0]) == va else None
    if kind_b == "idem":
        return a if oracle_arc(va[1]) == vb else None
    if va[1] != vb[0]:
        return None
    glued = ("chord", (va[0], vb[1]))
    return next(t for t, v in basis.items() if v == glued)


def test_products_exhaustive_against_oracle():
    for side in SIDES:
        basis = oracle_basis(side)
        assert set(basis_tokens(side)) == set(basis)
        for a, b in itertools.product(basis, repeat=2):
            assert mul_basis(a, b) == oracle_product(side, a, b), (a, b)
    for a, b in itertools.product(oracle_basis("left"), oracle_basis("right")):
        for x, y in ((a, b), (b, a)):
            with pytest.raises(ValueError, match="across sides"):
                mul_basis(x, y)


def test_token_helpers_against_oracle():
    for side in SIDES:
        for token, (kind, value) in oracle_basis(side).items():
            assert side_of(token) == side
            assert check_token(token) == token
            assert is_idempotent(token) == (kind == "idem")
            if kind == "idem":
                assert idem_index(token) == value
                assert token_left_idem(token) == token_right_idem(token) == value
            else:
                (interval,) = [iv for iv, span in ORACLE_SPANS.items() if span == value]
                assert chord_token(side, interval) == token
                assert (token_left_idem(token), token_right_idem(token)) == (
                    DOCSTRING_IDEMPOTENTS[interval]
                )
                with pytest.raises(ValueError, match="not an idempotent token"):
                    idem_index(token)
        with pytest.raises(ValueError, match="unknown chord interval '13'"):
            chord_token(side, "13")


UNKNOWN_TOKENS = ["i3", "j0", "r4", "s1234", "x1", "r", "", " r1", "R1", 1, None, ("r1",), ["r1"]]
TOKEN_HELPERS = [
    side_of,
    is_idempotent,
    idem_index,
    token_left_idem,
    token_right_idem,
    check_token,
    lambda t: mul_basis(t, t),
    lambda t: mul_basis("i1", t),
    lambda t: mul_basis(t, "j2"),
]


@pytest.mark.parametrize("token", UNKNOWN_TOKENS, ids=repr)
def test_unknown_tokens_rejected(token):
    for helper in TOKEN_HELPERS:
        with pytest.raises(ValueError):
            helper(token)
