import hashlib
import json
import pathlib
import re

import pytest

from bpc.serialize import to_json
from bpc.structures import _DD_ID, DDGenerator, check_dd
from bpc.torus_link import (
    _build_simplified,
    _full_numbering,
    build_cfdd_full,
    build_cfdd_simplified,
    build_equivalence,
    full_build_log,
)


def _group(name):
    """The census group of a generator name."""
    if name == "ab":
        return "ab"
    if name.startswith("a_y"):
        return "a_y"
    return "x_b" if name.endswith("_b") else "xy"


@pytest.mark.parametrize("n", range(1, 31))
def test_generator_census(n, census_oracle):
    groups = census_oracle(n)
    assert sum(map(len, groups.values())) == 2 * n * n
    S = build_cfdd_full(n)
    found = {group: [] for group in groups}
    for g in S.generators:
        found[_group(g.name)].append((g.name, g.left, g.right))
    assert found == {group: sorted(gens) for group, gens in groups.items()}


def test_direct_generators_match_enumeration(census_oracle):
    """The numbered view: names in sorted order, each with its code, the
    id of its unit label (i_left, j_right)."""
    for n in range(1, 31):
        want = sorted(g for gens in census_oracle(n).values() for g in gens)
        S = build_cfdd_full(n)
        assert list(zip(S.names, S.codes)) == [(x, _DD_ID[f"i{left}"][f"j{right}"]) for x, left, right in want]


def test_enumerate_rejects_bad_n():
    for build in (build_cfdd_full, full_build_log):
        with pytest.raises(ValueError, match="n must be a positive integer"):
            build(0)


def test_full_n1_is_the_identity_bimodule():
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


def test_full_n2_spec_arrows():
    S = build_cfdd_full(2)
    from_x1y3 = {(l, r, t) for s, l, r, t in S.arrows if s == "x1y3"}
    assert from_x1y3 == {("i2", "j2", "x2y2"), ("r23", "s2", "x2_b")}
    from_x2y2 = {(l, r, t) for s, l, r, t in S.arrows if s == "x2y2"}
    assert from_x2y2 == {("r23", "s23", "x3y3")}


@pytest.mark.parametrize("n", range(1, 7))
def test_full_satisfies_structure_equation(n):
    assert check_dd(build_cfdd_full(n)).ok


def _swap_name(name):
    """The generator name with the two sides exchanged: x{i}y{j} <-> x{j}y{i},
    a_y{k} <-> x{k}_b, ab fixed."""
    for pattern, swapped in (
        (r"x(\d+)y(\d+)", "x{1}y{0}"),
        (r"a_y(\d+)", "x{0}_b"),
        (r"x(\d+)_b", "a_y{0}"),
        (r"ab", "ab"),
    ):
        match = re.fullmatch(pattern, name)
        if match:
            return swapped.format(*match.groups())
    raise AssertionError(f"unexpected generator name {name!r}")


_SWAP_TOKENS = str.maketrans("rsij", "srji")  # r <-> s, i <-> j


@pytest.mark.parametrize("n", range(1, 31))
def test_full_is_swap_symmetric(n):
    """Exchanging the two sides (labels, names and each generator's two
    idempotents) maps the full model onto itself."""
    S = build_cfdd_full(n)
    gens = {DDGenerator(_swap_name(g.name), g.right, g.left) for g in S.generators}
    assert gens == set(S.generators)
    swapped = {
        (_swap_name(x), r.translate(_SWAP_TOKENS), l.translate(_SWAP_TOKENS), _swap_name(y))
        for x, l, r, y in S.arrows
    }
    assert swapped == S.arrows


@pytest.mark.parametrize("n", range(2, 9))
def test_simplified_satisfies_structure_equation(n):
    S = build_cfdd_simplified(n)
    assert len(S.generators) == 4 * n - 2
    assert check_dd(S).ok


def test_simplified_n3_spec_arrows():
    S = build_cfdd_simplified(3)
    from_x4y4 = {(l, r, t) for s, l, r, t in S.arrows if s == "u_x4y4"}
    assert from_x4y4 == {("r2", "s23", "u_a_y4"), ("r23", "s2", "u_x4_b")}
    assert not any(s == "u_x2y2" for s, _, _, _ in S.arrows)


def test_simplified_rejects_n1():
    with pytest.raises(ValueError):
        build_cfdd_simplified(1)


def test_build_log_lists_every_family():
    log = full_build_log(3)
    for k in range(1, 15):
        assert any(line.startswith(f"F{k}:") for line in log), k


def test_equivalence_spec_values():
    F, G, H = build_equivalence(3)
    f_from_x1y5 = {(l, r, t) for s, l, r, t in F.arrows if s == "x1y5"}
    assert f_from_x1y5 == {("i2", "j2", "u_x3y3")}
    g_from_u_x1y1 = {(l, r, t) for s, l, r, t in G.arrows if s == "u_x1y1"}
    assert g_from_u_x1y1 == {("i2", "j2", "x1y1"), ("r23", "s23", "x3y1")}
    assert not any(s == "ab" for s, _, _, _ in H.arrows)


def test_equivalence_rejects_small_n():
    with pytest.raises(ValueError):
        build_equivalence(2)


# sha256 digests of to_json of each build, and for build_equivalence of
# the sorted arrows of F, G and H as a JSON array: those up to n = 32
# recorded before the builders filled numbered rows directly, those at
# the sizes ``bpc equiv`` is benchmarked at (n = 32, 33, 64) before they
# stopped collecting arrow triples and sets
BUILDER_DIGESTS = json.loads(
    pathlib.Path(__file__).with_name("builder_digests.json").read_text(encoding="utf-8")
)


def _morphism_arrows(n, k):
    return json.dumps(sorted(build_equivalence(n)[k].arrows))


BUILDER_OUTPUTS = {
    **{f"build_cfdd_full({n})": lambda n=n: to_json(build_cfdd_full(n)) for n in (12, 16, 24, 32)},
    **{f"build_cfdd_simplified({n})": lambda n=n: to_json(build_cfdd_simplified(n)) for n in (12, 32)},
    **{
        f"build_equivalence({n}) {name}": lambda n=n, k=k: _morphism_arrows(n, k)
        for n in (3, 8, 16)
        for k, name in enumerate("FGH")
    },
    "build_cfdd_full(64)": lambda: to_json(build_cfdd_full(64)),
    **{
        f"build_equivalence({n}) {name}": lambda n=n, k=k: _morphism_arrows(n, k)
        for n in (32, 33, 64)
        for k, name in enumerate("FGH")
    },
}


def test_builder_digests_are_all_recorded():
    assert list(BUILDER_OUTPUTS) == list(BUILDER_DIGESTS)


@pytest.mark.parametrize("case", BUILDER_OUTPUTS)
def test_builder_output_bytes(case):
    text = BUILDER_OUTPUTS[case]()
    assert hashlib.sha256(text.encode()).hexdigest() == BUILDER_DIGESTS[case]


def test_families_are_disjoint():
    """The build files every family's arrows into rows without a set, so
    the per-family counts of the log must add up to the arrow count."""
    for n in range(1, 41):
        counts = [int(line.split("; ")[1].split()[0]) for line in full_build_log(n)[1:]]
        S = build_cfdd_full(n)
        assert len(counts) == 14
        assert sum(counts) == sum(map(len, S.steps)) == len(S.arrows)


@pytest.mark.parametrize("n", [*range(1, 61), 500, 501])
def test_full_numbering_follows_string_order(n):
    """The full build numbers its generators by arithmetic on the naming
    scheme; the result is plain string order, also where the indices
    pass from 3 to 4 digits (2n - 1 = 999, 1001), and each number table
    entry names its generator.  The codes are checked against the census
    by ``test_direct_generators_match_enumeration``."""
    names, codes, (ab, ay, xb, xy) = _full_numbering(n)
    assert names == tuple(sorted(names))
    assert len(names) == len(codes) == 2 * n * n
    assert names[ab] == "ab"
    for k in range(1, n):
        assert names[ay[k]] == f"a_y{2 * k}"
        assert names[xb[k]] == f"x{2 * k}_b"
    top = 2 * n - 1
    for i in range(1, top + 1):
        row = xy[i]
        for j in range(1 + (i % 2 == 0), top + 1, 2):
            assert names[row[j]] == f"x{i}y{j}"


# ---------------------------------------------------------------------------
# reference: the arrows as (source number, label id, target number)
# triples, the collapses of the formulas' sums left to Python sets


def _reference_rows(count, arrows):
    rows = [[] for _ in range(count)]
    for s, a, t in arrows:
        rows[s].append((a, t))
    for row in rows:
        row.sort()
    return rows


def _reference_full_rows(n):
    names, _, (ab, ay, xb, xy) = _full_numbering(n)
    top = 2 * n - 1
    dd = _DD_ID
    arrows = []
    add, unit = arrows.append, dd["i2"]["j2"]
    for i in range(1, top + 1):
        for j in range(1 + (i % 2 == 0), top + 1, 2):
            if j != i:
                d = 1 if j > i else -1
                add((xy[i][j], unit, xy[i + d][j - d]))
                if abs(j - i) > 2:
                    add((xy[i][j], unit, xy[j - d][i + d]))
    for k in range(1, n):
        arrows += [(ay[k], dd["r1"]["j2"], t) for t in {xy[1][2 * k - 1], xy[2 * k - 1][1]}]
        arrows += [(xb[k], dd["i2"]["s1"], t) for t in {xy[2 * k - 1][1], xy[1][2 * k - 1]}]
        arrows += [(ay[k], dd["r3"]["j2"], t) for t in {xy[2 * k + 1][top], xy[top][2 * k + 1]}]
        arrows += [(xb[k], dd["i2"]["s3"], t) for t in {xy[top][2 * k + 1], xy[2 * k + 1][top]}]
    add((xy[top][top], dd["r2"]["s2"], ab))
    for left, right in (("r3", "s1"), ("r1", "s3")):
        arrows += [(ab, dd[left][right], t) for t in {xy[1][top], xy[top][1]}]
    for k in range(1, n):
        add((xy[2 * k - 1][top], dd["r23"]["s2"], xb[k]))
        add((xy[top][2 * k - 1], dd["r2"]["s23"], ay[k]))
        add((ay[k], dd["r123"]["s23"], xy[2 * k + 1][1]))
        add((xb[k], dd["r23"]["s123"], xy[1][2 * k + 1]))
        for l in range(1, n):
            add((xy[2 * k - 1][2 * l - 1], dd["r23"]["s23"], xy[2 * k][2 * l]))
            add((xy[2 * k][2 * l], dd["r23"]["s23"], xy[2 * k + 1][2 * l + 1]))
    add((ab, dd["r123"]["s123"], xy[1][1]))
    return _reference_rows(len(names), arrows)


def _reference_equivalence_rows(n):
    names, _, (ab, ay, xb, xy) = _full_numbering(n)
    N, (u_ab, u_ay, u_xb, u_d) = _build_simplified(n)
    top = 2 * n - 1
    dd = _DD_ID
    unit, cut = dd["i2"]["j2"], dd["r23"]["s23"]

    def pair(i, j):
        return {xy[i][j], xy[j][i]}

    f_arrows = {(ab, dd["i1"]["j1"], u_ab)}
    for k in range(1, n):
        f_arrows.add((ay[k], dd["i1"]["j2"], u_ay[k]))
        f_arrows.add((xb[k], dd["i2"]["j1"], u_xb[k]))
    for k in range(1, n + 1):
        f_arrows.add((xy[1][2 * k - 1], unit, u_d[k]))
        f_arrows.add((xy[2 * k - 1][top], unit, u_d[k + n - 1]))
    for k in range(1, n):
        f_arrows.add((xy[2 * k][2 * n - 2], dd["r2"]["s23"], u_ay[k]))

    g_arrows = {(u_ab, dd["i1"]["j1"], ab)}
    for k in range(1, n):
        g_arrows.add((u_ay[k], dd["i1"]["j2"], ay[k]))
        g_arrows.add((u_xb[k], dd["i2"]["j1"], xb[k]))
    g_arrows.add((u_d[1], unit, xy[1][1]))
    g_arrows.add((u_d[1], cut, xy[3][1]))
    for k in range(2, n):
        g_arrows.add((u_d[k], unit, xy[1][2 * k - 1]))
        g_arrows.add((u_d[k], unit, xy[2 * k - 1][1]))
        g_arrows.add((u_d[k], cut, xy[2 * k + 1][1]))
    for k in range(n, 2 * n - 1):
        g_arrows.add((u_d[k], unit, xy[2 * k - 2 * n + 1][top]))
        g_arrows.add((u_d[k], unit, xy[top][2 * k - 2 * n + 1]))
    g_arrows.add((u_d[top], unit, xy[top][top]))

    h_arrows = set()
    for k in range(1, n):
        if k <= n - 2:
            ay_targets = pair(2 * k + 1, top)
            xb_targets = pair(top, 2 * k + 1)
        else:
            ay_targets = xb_targets = {xy[top][top]}
        h_arrows.update((ay[k], dd["r3"]["j2"], t) for t in ay_targets)
        h_arrows.update((xb[k], dd["i2"]["s3"], t) for t in xb_targets)
    add = h_arrows.add
    for i in range(1, top + 1):
        for j in range(1 + (i % 2 == 0), top + 1, 2):
            x = xy[i][j]
            if i < j:
                add((x, unit, xy[i + 1][j - 1]))
                add((x, unit, xy[j - 1][i + 1]))
                if i != 1 and j != top:
                    add((x, unit, xy[j + 1][i - 1]))
            elif i > j:
                if j == 1 and 3 <= i <= 2 * n - 3:
                    add((x, cut, xy[i + 1][2]))
                    add((x, cut, xy[2][i + 1]))
                    a, b = i - 1, 2
                else:
                    a, b = i - 1, j + 1
                add((x, unit, xy[a][b]))
                add((x, unit, xy[b][a]))
            elif i == 1:
                add((x, cut, xy[2][2]))
            elif i != top:
                add((x, unit, xy[i + 1][i - 1]))
    M, N = len(names), len(N.names)
    return _reference_rows(M, f_arrows), _reference_rows(N, g_arrows), _reference_rows(M, h_arrows)


@pytest.mark.parametrize("n", range(1, 41))
def test_full_rows_match_the_reference(n):
    assert build_cfdd_full(n).steps == _reference_full_rows(n)


@pytest.mark.parametrize("n", range(3, 41))
def test_equivalence_rows_match_the_reference(n):
    assert [m.steps for m in build_equivalence(n)] == list(_reference_equivalence_rows(n))


def _count(m, source, left, right, target):
    """How often the row of source in m, a morphism or a structure, holds
    the step (left right, target)."""
    row = m.steps[getattr(m, "source", m).index[source]]
    return row.count((_DD_ID[left][right], getattr(m, "target", m).index[target]))


@pytest.mark.parametrize("n", [3, 4, 5, 40])
def test_coinciding_summands_are_one_arrow(n):
    """Where two summands of a formula name the same arrow, the rows hold
    it once: F's x1y{2n-1} -> u_x{n}y{n} (given at k = n and at k = 1),
    H's symmetrized pairs x_a y_b + x_b y_a with a = b, and H's single
    x{2n-1}y{2n-1} target at k = n - 1; in the full structure, F1's
    mirror target when |i - j| = 2, F2 and F3 at k = 1, F4 and F5 at
    k = n - 1."""
    F, G, H = build_equivalence(n)
    S, top = F.source, 2 * n - 1
    assert _count(F, f"x1y{top}", "i2", "j2", f"u_x{n}y{n}") == 1
    for i in range(1, top - 1):
        assert _count(H, f"x{i}y{i + 2}", "i2", "j2", f"x{i + 1}y{i + 1}") == 1
        assert _count(H, f"x{i + 2}y{i}", "i2", "j2", f"x{i + 1}y{i + 1}") == 1
        assert _count(S, f"x{i}y{i + 2}", "i2", "j2", f"x{i + 1}y{i + 1}") == 1
        assert _count(S, f"x{i + 2}y{i}", "i2", "j2", f"x{i + 1}y{i + 1}") == 1
    assert _count(H, f"a_y{2 * n - 2}", "r3", "j2", f"x{top}y{top}") == 1
    assert _count(H, f"x{2 * n - 2}_b", "i2", "s3", f"x{top}y{top}") == 1
    assert _count(S, "a_y2", "r1", "j2", "x1y1") == _count(S, "x2_b", "i2", "s1", "x1y1") == 1
    assert _count(S, f"a_y{2 * n - 2}", "r3", "j2", f"x{top}y{top}") == 1
    assert _count(S, f"x{2 * n - 2}_b", "i2", "s3", f"x{top}y{top}") == 1


def test_full_n1_outer_annuli_are_one_arrow_each():
    """At n = 1, F7's pair x1 y{2n-1} + x{2n-1} y1 is x1y1 twice: one arrow per label."""
    S = build_cfdd_full(1)
    assert _count(S, "ab", "r3", "s1", "x1y1") == _count(S, "ab", "r1", "s3", "x1y1") == 1
