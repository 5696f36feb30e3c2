"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines as
they are produced.  Every assertion is exact; the handful of wall-clock
budgets from the requirements are asserted with time to spare.
"""

import itertools
import random
import time

from bpc.algebra import basis_tokens, is_idempotent, mul_basis
from bpc.pairing import box_left, box_right, homology_rank
from bpc.solid_torus import build_cfa_framed, build_cfa_infinity
from bpc.structures import (
    DGenerator,
    DStructure,
    check_a,
    check_d,
    check_dd,
    isomorphic,
    reduce,
)
from bpc.torus_link import (
    build_cfdd_full,
    build_cfdd_simplified,
    build_equivalence,
)


class Timer:
    def __enter__(self):
        self.start = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.elapsed = time.perf_counter() - self.start


def report(number, name, elapsed=None):
    suffix = "" if elapsed is None else f" ({elapsed:.3f}s)"
    print(f"criterion {number:2d} {name}: PASS{suffix}")


def test_criterion_01_generator_census(census_oracle):
    with Timer() as t:
        for n in range(1, 31):
            want = sorted(g for gens in census_oracle(n).values() for g in gens)
            assert len(want) == 2 * n * n
            S = build_cfdd_full(n)
            assert [(g.name, g.left, g.right) for g in S.generators] == want
    assert t.elapsed < 1.0
    report(1, "generator census", t.elapsed)


def test_criterion_02_structure_equations():
    with Timer() as t:
        for n in range(1, 7):
            assert check_dd(build_cfdd_full(n)).ok, f"full n={n}"
        for n in range(2, 9):
            assert check_dd(build_cfdd_simplified(n)).ok, f"simplified n={n}"
    assert t.elapsed < 10.0
    report(2, "structure equations", t.elapsed)


def test_criterion_03_homotopy_equivalence():
    with Timer() as t:
        from bpc.structures import verify_homotopy

        for n in range(3, 7):
            F, G, H = build_equivalence(n)
            rep = verify_homotopy(F, G, H)
            assert rep.ok, f"n={n}:\n{rep.text()}"
    assert t.elapsed < 10.0
    report(3, "homotopy equivalence", t.elapsed)


def test_criterion_04_reduction_consistency():
    for n in range(2, 7):
        red = reduce(build_cfdd_full(n))
        simp = build_cfdd_simplified(n)
        assert len(red.generators) == 4 * n - 2
        assert not any(
            is_idempotent(l) and is_idempotent(r) for _, l, r, _ in red.arrows
        )
        assert isomorphic(red, simp) is not None, f"n={n}"
    report(4, "reduction consistency")


def expected_surgery_cycle(n):
    gens = [DGenerator("c0", 1)] + [DGenerator(f"c{k}", 2) for k in range(1, n)]
    arrows = {("c0", "r123", "c1")}
    for k in range(1, n - 1):
        arrows.add((f"c{k}", "r23", f"c{k + 1}"))
    arrows.add((f"c{n - 1}", "r2", "c0"))
    return DStructure("left", tuple(gens), frozenset(arrows))


def test_criterion_05_infinity_surgery():
    for n in range(2, 7):
        D = reduce(box_right(build_cfa_infinity(), build_cfdd_full(n)))
        assert isomorphic(D, expected_surgery_cycle(n)) is not None, f"n={n}"
    report(5, "infinity surgery cycle")


def test_criterion_06_trefoil():
    from test_pairing import TREFOIL_ARROWS, expected_trefoil_reduced

    D = box_right(build_cfa_framed(2), build_cfdd_full(2))
    assert len(D.generators) == 10
    assert set(D.arrows) == TREFOIL_ARROWS
    R = reduce(D)
    assert len(R.generators) == 8
    assert isomorphic(R, expected_trefoil_reduced()) is not None
    report(6, "trefoil complement")


def test_criterion_07_lens_spaces():
    with Timer() as t:
        hopf = build_cfdd_full(1)
        for n1, n2 in itertools.product(range(1, 6), repeat=2):
            if n1 * n2 == 1:
                continue
            D = box_right(build_cfa_framed(n2), hopf)
            C = box_left(build_cfa_framed(n1), D)
            assert homology_rank(C) == n1 * n2 - 1, (n1, n2)
    assert t.elapsed < 5.0
    report(7, "lens space ranks", t.elapsed)


def test_criterion_08_hopf_identity_bimodule():
    S = build_cfdd_full(1)
    assert sorted(g.name for g in S.generators) == ["ab", "x1y1"]
    assert S.arrows == frozenset(
        {
            ("ab", "r1", "s3", "x1y1"),
            ("ab", "r3", "s1", "x1y1"),
            ("ab", "r123", "s123", "x1y1"),
            ("x1y1", "r2", "s2", "ab"),
        }
    )
    report(8, "Hopf identity bimodule")


def test_criterion_09_periodic_domains():
    from bpc.diagram import independent, periodic_domains, provincially_admissible

    for n in range(2, 9):
        d1, d2 = periodic_domains(n)
        assert independent(d1, d2), f"n={n}"
        assert provincially_admissible(n), f"n={n}"
    report(9, "periodic domains")


def test_criterion_10_property_suite():
    # reduction preserves homology rank on paired fixtures
    paired = []
    for n1, n2 in [(1, 1), (2, 3), (5, 4)]:
        D = box_right(build_cfa_framed(n2), build_cfdd_full(1))
        paired.append(box_left(build_cfa_framed(n1), D))
    D24 = box_right(build_cfa_framed(2), build_cfdd_full(2))
    paired.append(box_left(build_cfa_framed(3), D24))
    for C in paired:
        reduced = reduce(C)
        assert homology_rank(C) == homology_rank(reduced) == len(reduced.generators)

    # cancellation lands in one isomorphism class across 5 random orders
    rng = random.Random(0)
    fixtures = [
        D24,
        box_right(build_cfa_infinity(), build_cfdd_full(3)),
        paired[1],
        paired[3],
    ]
    for S in fixtures:
        base = reduce(S)
        for _ in range(5):
            assert isomorphic(base, reduce(S, rng=rng)) is not None

    # relation checker on every solid-torus module in range
    for m in range(1, 9):
        assert check_a(build_cfa_framed(m)).ok, f"m={m}"
    for cap in range(0, 9):
        assert check_a(build_cfa_infinity(cap)).ok, f"K={cap}"

    # box outputs satisfy the one-sided structure equation
    for n in range(1, 7):
        S = build_cfdd_full(n)
        for slope in ("inf", 1, 2, 3, 4, 5):
            A = build_cfa_infinity() if slope == "inf" else build_cfa_framed(slope)
            assert check_d(box_right(A, S)).ok, (n, slope)

    # algebra associativity on all 512 basis triples per side
    for side in ("left", "right"):
        basis = basis_tokens(side)
        for a, b, c in itertools.product(basis, repeat=3):
            ab = mul_basis(a, b)
            bc = mul_basis(b, c)
            assert (mul_basis(ab, c) if ab else None) == (
                mul_basis(a, bc) if bc else None
            )
    report(10, "property suite")


def test_structure_equations_at_n32():
    S = build_cfdd_full(32)
    assert check_dd(S).ok
    assert check_dd(build_cfdd_simplified(32)).ok
    for slope in (1, 2, 3):
        assert check_d(box_right(build_cfa_framed(slope), S)).ok, slope
