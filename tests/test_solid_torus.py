import pytest

from bpc.algebra import chord_factorizations, mul_interval
from bpc.solid_torus import (
    INFINITY,
    build_cfa,
    build_cfa_framed,
    build_cfa_infinity,
    parse_slope,
)
from bpc.structures import AGenerator, AModule, _targets, check_a


def truncated_infinity(cap):
    """The infinity module's family m(w; 3, 23^k, 2) = w cut at k <= cap:
    one operation per k, no loop."""
    ops = frozenset(("w", ("3",) + ("23",) * k + ("2",), "w") for k in range(cap + 1))
    return AModule((AGenerator("w", 1),), ops)


def unrolled(chords, j):
    """The written chords with a starred chord, if any, read j times."""
    for k, c in enumerate(chords):
        if c.endswith("*"):
            return chords[:k] + (c[:-1],) * j + chords[k + 1 :]
    return chords


def test_infinity_is_one_looping_operation():
    M = build_cfa_infinity()
    assert [g.name for g in M.generators] == ["w"]
    assert M.operations == frozenset({("w", ("3", "23*", "2"), "w")})
    # the node that chord 3 reaches is its own child on chord 23
    loop = M.tree["w"]["3"]
    assert loop[1]["23"] is loop and loop[0] == []


def test_infinity_smallest_cap():
    # the family cut at k <= 0 is m(w; 3, 2) = w, the exact module's k = 0
    M = truncated_infinity(0)
    assert M.operations == frozenset({("w", ("3", "2"), "w")})
    assert _targets(build_cfa_infinity(), "w", ("3", "2")) == ["w"]


def test_infinity_cap_two():
    M = truncated_infinity(2)
    assert len(M.operations) == 3
    assert max(len(seq) for _, seq, _ in M.operations) == 4  # arity 5 with the module input
    exact = build_cfa_infinity()
    for _, seq, _ in M.operations:
        assert _targets(exact, "w", seq) == ["w"]
    # nothing else: a sequence off the family finds no operation
    for seq in [("3",), ("3", "23"), ("3", "23", "23"), ("3", "2", "2"), ("3", "23", "2", "23")]:
        assert not _targets(exact, "w", seq)


def test_infinity_relation_checker():
    assert check_a(build_cfa_infinity()).ok


def test_check_a_flags_a_looping_module_with_a_corrupted_target():
    # m(w; 3, 23^k, 2) = v instead of w: the split m(m(w; 3, 23^a, 2), 3,
    # 23^b, 2) vanishes, since v has no operations, and the contraction
    # 2 3 = 23 leaves v on every (3, 23^a, 2, 3, 23^b, 2)
    M = AModule(
        (AGenerator("v", 1), AGenerator("w", 1)),
        frozenset({("w", ("3", "23*", "2"), "v")}),
    )
    report = check_a(M)
    assert not report.ok
    assert "w: (3,2,3,2) -> v" in report.lines
    assert "w: (3,23,23,2,3,23,2) -> v" in report.lines


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
    # the table breaks the relation on two concatenations of operations
    # (ROADMAP item 1)
    M = build_cfa_framed(1)
    assert M.operations == frozenset(
        {("q", ("2",), "p1"), ("p1", ("3", "2", "1"), "q")}
    )
    assert check_a(M).lines == ("p1: (3,2,1,2) -> p1", "q: (2,3,2,1) -> q")


@pytest.mark.parametrize("m", range(1, 9))
def test_framed_counts_and_relation(m):
    M = build_cfa_framed(m)
    assert len(M.generators) == 1 + m
    middle = len([(i, j) for i in range(1, m + 1) for j in range(0, m) if i + j + 1 <= m])
    assert len(M.operations) == 1 + middle + 1
    # check_a prints the exhaustive oracle's lines: 2, 3, 5, .., 15 of them
    lines = check_a(M).lines
    assert lines == relation_lines(M) and len(lines) == max(2, 2 * m - 1)


def _spells(written, seq):
    """Whether seq is the written chords, a starred chord, if any, read
    some number of times."""
    return seq in (written, unrolled(written, len(seq) - len(written) + 1))


def _relation_residue(M, x, seq):
    """The generators left an odd number of times by the A-infinity
    relation on (x, seq), summed from M.operations: every split
    m(m(x, seq[:i]), seq[i:]) and every contraction of two adjacent
    chords whose product is a chord."""

    def m(source, chords):
        return {y for s, written, y in M.operations if s == source and _spells(written, chords)}

    odd = set()
    for cut in range(1, len(seq)):
        for mid in m(x, seq[:cut]):
            odd ^= m(mid, seq[cut:])
    for pos in range(len(seq) - 1):
        product = mul_interval(seq[pos], seq[pos + 1])
        if product is not None:
            odd ^= m(x, seq[:pos] + (product,) + seq[pos + 2 :])
    return odd


def _relation_violations(M):
    """[(generator, sequence, residue)] over every sequence on which a term
    of the A-infinity relation can be nonzero, with a nonzero residue.

    These modules have no m_1, so a split term needs two operations,
    x -> y on seq[:i] and y -> z on seq[i:], and a contraction term needs
    seq to refine an operation by factoring one chord: the candidates are
    the concatenations of two operations and the one-chord refinements,
    a starred chord read 0 .. 4D + 3 times as in check_a's bound."""
    bound = 4 * max((len(seq) for _, seq, _ in M.operations), default=0) + 3
    readings = {}  # source -> {(chords as read, target)}
    for x, written, y in M.operations:
        readings.setdefault(x, set()).update((unrolled(written, j), y) for j in range(bound + 1))
    candidates = set()
    for x, spelled in readings.items():
        for chords, y in spelled:
            for pos, c in enumerate(chords):
                for u, v in chord_factorizations(c):
                    candidates.add((x, chords[:pos] + (u, v) + chords[pos + 1 :]))
            candidates.update((x, chords + more) for more, _ in readings.get(y, ()))
    return [(x, seq, odd) for x, seq in sorted(candidates) if (odd := _relation_residue(M, x, seq))]


def relation_lines(M):
    """The oracle's violations as check_a prints them."""
    return tuple(f"{x}: ({','.join(seq)}) -> {'+'.join(sorted(odd))}" for x, seq, odd in _relation_violations(M))


@pytest.mark.parametrize(
    "slope",
    [
        INFINITY,
        *[
            pytest.param(m, marks=pytest.mark.xfail(strict=True, reason="ROADMAP item 1: framed modules"))
            for m in range(1, 6)
        ],
    ],
)
def test_the_a_infinity_relation_holds_on_every_sequence_a_term_can_reach(slope):
    """The exhaustive oracle, which check_a matches (ROADMAP item 1, step
    1): build_cfa_framed(m) leaves (p1; 3, 2, 1, 2) -> p1 and (q; 2,
    3, 2, 1) -> q at m = 1, sequences that refine no operation."""
    assert _relation_violations(build_cfa(slope)) == []


def test_the_relation_oracle_reaches_a_looping_module():
    # the corrupted loop of check_a's test: its residues lie on
    # concatenations of two readings of the one operation
    M = AModule((AGenerator("v", 1), AGenerator("w", 1)), frozenset({("w", ("3", "23*", "2"), "v")}))
    violations = _relation_violations(M)
    assert ("w", ("3", "2", "3", "2"), {"v"}) in violations
    assert relation_lines(M) == check_a(M).lines


@pytest.mark.parametrize("m", range(1, 6))
def test_check_a_ok_implies_a_zero_residue_at_3212(m):
    """(p_m; 3, 2, 1, 2) refines no operation of build_cfa_framed(m), and
    its one nonzero term, m(m(p_m; 3, 2, 1), 2) = m(q; 2), leaves p1;
    check_a must not pass a module with a nonzero residue."""
    M = build_cfa_framed(m)
    assert not check_a(M).ok or not _relation_residue(M, f"p{m}", ("3", "2", "1", "2"))


@pytest.mark.parametrize("cap", range(0, 9))
def test_infinity_relation_all_caps(cap):
    # no cut of the family passes on its own: two of its operations
    # concatenate past the cap, (w; 3, 2, 3, 2) -> w at cap 0, on
    # (cap + 1)(cap + 2) / 2 sequences; the exact module spells every
    # operation of it
    M = truncated_infinity(cap)
    assert check_a(M).lines == relation_lines(M)
    assert len(check_a(M).lines) == (cap + 1) * (cap + 2) // 2
    assert cap or check_a(M).lines == ("w: (3,2,3,2) -> w",)
    assert all(_targets(build_cfa_infinity(), "w", seq) == ["w"] for _, seq, _ in M.operations)


def test_bad_framings_rejected():
    with pytest.raises(ValueError):
        build_cfa_framed(0)
    with pytest.raises(ValueError):
        build_cfa_framed(-3)


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
    assert build_cfa(INFINITY) == build_cfa_infinity()
    assert build_cfa(4) == build_cfa_framed(4)
