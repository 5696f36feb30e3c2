"""Type-DD bimodules of (2,2n) torus-link complements.

``build_cfdd_full`` assembles the differential from fourteen arrow
families read off the arced Heegaard diagram (provincial rectangles,
boundary quadrilaterals, cut annuli, and the wide domains through the
outer regions).  ``build_cfdd_simplified`` produces the smaller model
with no unit-labeled arrows, and ``build_equivalence`` the maps relating
the two together with the homotopy witnessing G o F ~ id.

Generator naming: "ab", "a_y4", "x2_b", "x3y5"; the simplified model
prefixes every name with "u_".
"""

from itertools import chain

from .structures import _DD_CODE, _DD_ID, DDMorphism, DDStructure


def _ay(j):
    return f"a_y{j}"


def _xb(i):
    return f"x{i}_b"


def _full_families(n, ab, ay, xb, xy):
    """The fourteen arrow families of the full structure.

    Yields (family id, description, provenance, arrows), each arrow a
    (source number, label id, target number) triple over the number
    tables ab, ay[k] of a_y{2k}, xb[k] of x{2k}_b and xy[i][j] of
    x{i}y{j}.  Coincident summands inside one family instance
    (the "otherwise" degenerations) are collapsed to a single arrow: F1
    leaves out a mirror target equal to the first, and the other
    families build target sets.
    """
    top = 2 * n - 1
    dd = _DD_ID

    # x{i}y{j} -> x{i+d}y{j-d}, d = 1 toward the diagonal, plus the mirror
    # x{j-d}y{i+d} unless it is the same generator (|i - j| = 2)
    f1 = []
    add, unit = f1.append, dd["i2"]["j2"]
    for i in range(1, top + 1):
        for j in range(1 + (i % 2 == 0), top + 1, 2):
            if j != i:
                d = 1 if j > i else -1
                add((xy[i][j], unit, xy[i + d][j - d]))
                if abs(j - i) > 2:
                    add((xy[i][j], unit, xy[j - d][i + d]))
    yield ("F1", "provincial rectangles, unit labels, i,j=1..2n-1 same parity", "domain count", f1)

    a = dd["r1"]["j2"]
    f2 = [(ay[k], a, t) for k in range(1, n) for t in {xy[1][2 * k - 1], xy[2 * k - 1][1]}]
    yield ("F2", "r1 quadrilaterals, a_y{2k} -> x1 y{2k-1} + x{2k-1} y1, k=1..n-1", "domain count", f2)

    a = dd["i2"]["s1"]
    f3 = [(xb[k], a, t) for k in range(1, n) for t in {xy[2 * k - 1][1], xy[1][2 * k - 1]}]
    yield ("F3", "s1 quadrilaterals, x{2k}_b -> x{2k-1} y1 + x1 y{2k-1}, k=1..n-1", "domain count", f3)

    a = dd["r3"]["j2"]
    f4 = [(ay[k], a, t) for k in range(1, n) for t in {xy[2 * k + 1][top], xy[top][2 * k + 1]}]
    yield ("F4", "r3 quadrilaterals, a_y{2k} -> x{2k+1} y{2n-1} + x{2n-1} y{2k+1}, k=1..n-1", "domain count", f4)

    a = dd["i2"]["s3"]
    f5 = [(xb[k], a, t) for k in range(1, n) for t in {xy[top][2 * k + 1], xy[2 * k + 1][top]}]
    yield ("F5", "s3 quadrilaterals, x{2k}_b -> x{2n-1} y{2k+1} + x{2k+1} y{2n-1}, k=1..n-1", "domain count", f5)

    yield (
        "F6",
        "central rectangle, x{2n-1}y{2n-1} -> r2 s2 ab",
        "domain count",
        [(xy[top][top], dd["r2"]["s2"], ab)],
    )

    f7 = [
        (ab, dd[left][right], t)
        for left, right in (("r3", "s1"), ("r1", "s3"))
        for t in {xy[1][top], xy[top][1]}
    ]
    yield ("F7", "outer annuli, ab -> (r3 s1 + r1 s3)(x1 y{2n-1} + x{2n-1} y1)", "domain count", f7)

    a = dd["r23"]["s2"]
    f8 = [(xy[2 * k - 1][top], a, xb[k]) for k in range(1, n)]
    yield (
        "F8",
        "vertical strip, one cut, x{2k-1}y{2n-1} -> r23 s2 x{2k}_b, k=1..n-1",
        "target index fixed by the structure equation",
        f8,
    )

    a = dd["r2"]["s23"]
    f9 = [(xy[top][2 * l - 1], a, ay[l]) for l in range(1, n)]
    yield (
        "F9",
        "vertical strip, one cut, x{2n-1}y{2l-1} -> r2 s23 a_y{2l}, l=1..n-1",
        "target index fixed by the structure equation",
        f9,
    )

    a = dd["r23"]["s23"]
    f10 = [(xy[2 * k - 1][2 * l - 1], a, xy[2 * k][2 * l]) for k in range(1, n) for l in range(1, n)]
    yield (
        "F10",
        "vertical strip, two cuts, x{2k-1}y{2l-1} -> r23 s23 x{2k}y{2l}, k,l=1..n-1",
        "target index fixed by the structure equation",
        f10,
    )

    f11 = [(xy[2 * k][2 * l], a, xy[2 * k + 1][2 * l + 1]) for k in range(1, n) for l in range(1, n)]
    yield ("F11", "diagonal ladder, x{2k}y{2l} -> r23 s23 x{2k+1}y{2l+1}, k,l=1..n-1", "forced by the structure equation", f11)

    a = dd["r123"]["s23"]
    f12 = [(ay[j], a, xy[2 * j + 1][1]) for j in range(1, n)]
    yield ("F12", "wide annulus, a_y{2j} -> r123 s23 x{2j+1}y1, j=1..n-1", "domain count", f12)

    a = dd["r23"]["s123"]
    f13 = [(xb[j], a, xy[1][2 * j + 1]) for j in range(1, n)]
    yield ("F13", "wide annulus, x{2j}_b -> r23 s123 x1 y{2j+1}, j=1..n-1", "domain count", f13)

    yield (
        "F14",
        "full diagram, ab -> r123 s123 x1y1",
        "three disk classes, odd total count",
        [(ab, dd["r123"]["s123"], xy[1][1])],
    )


def _xy_names(n):
    """Table xy[i][j] = "x{i}y{j}" for i, j = 1..2n-1 of equal parity
    (None elsewhere), so each name is formatted once per build."""
    if n < 1:
        raise ValueError("n must be a positive integer")
    top = 2 * n - 1
    return [
        [f"x{i}y{j}" if i and j and (i - j) % 2 == 0 else None for j in range(top + 1)]
        for i in range(top + 1)
    ]


def _numbered(named):
    """(names, codes, {name: number}) of the (name, idempotent code)
    pairs named, in any order: names sorted, numbers their positions."""
    named.sort()
    names = tuple(name for name, _ in named)
    return names, tuple(code for _, code in named), {name: k for k, name in enumerate(names)}


def _rows(count, arrows):
    """[sorted [(label id, target number)] per source number 0 .. count
    - 1] over the (source number, label id, target number) arrows."""
    rows = [[] for _ in range(count)]
    for s, a, t in arrows:
        rows[s].append((a, t))
    for row in rows:
        row.sort()
    return rows


def _distinct_tables(n):
    """Tables (ab, ay, xb, xy) of distinct ints, one per generator, that
    are not its number: enough to count each family's arrows, and no name
    is formatted or sorted."""
    if n < 1:
        raise ValueError("n must be a positive integer")
    size = 2 * n
    xy = [range(i * size, (i + 1) * size) for i in range(size)]
    return -1, range(-2, -2 - n, -1), range(-2 - n, -2 - 2 * n, -1), xy


def build_cfdd_full(n: int) -> DDStructure:
    """The full type-DD structure of the (2,2n) torus-link complement:
    its 2n^2 generators of the neutral algebra summand, the only one
    that carries arrows."""
    return _build_full(n)[0]


def _build_full(n):
    """``build_cfdd_full(n)`` and the number tables (ab, ay, xb, xy) that
    ``_full_families`` reads.  The families are disjoint, so their arrows
    go straight into the rows."""
    xy = _xy_names(n)
    top = 2 * n - 1
    named = [("ab", _DD_CODE[1, 1])]
    named += [(_ay(j), _DD_CODE[1, 2]) for j in range(2, top, 2)]
    named += [(_xb(i), _DD_CODE[2, 1]) for i in range(2, top, 2)]
    named += [(name, _DD_CODE[2, 2]) for row in xy for name in row if name]
    names, codes, number = _numbered(named)
    tables = (
        number["ab"],
        [None] + [number[_ay(2 * k)] for k in range(1, n)],
        [None] + [number[_xb(2 * k)] for k in range(1, n)],
        [[name and number[name] for name in row] for row in xy],
    )
    arrows = chain.from_iterable(family for *_, family in _full_families(n, *tables))
    return DDStructure._from_rows(names, codes, _rows(len(names), arrows)), tables


def full_build_log(n: int):
    """Plain-text build log: family, arrow count, index range, provenance."""
    lines = [f"full type-DD structure, n={n}"]
    for fid, desc, provenance, family in _full_families(n, *_distinct_tables(n)):
        count = f"{len(family)} arrow" + ("" if len(family) == 1 else "s")
        lines.append(f"{fid}: {desc}; {count} [{provenance}]")
    return tuple(lines)


def build_cfdd_simplified(n: int) -> DDStructure:
    """The 4n-2 generator model with no unit-labeled arrows."""
    return _build_simplified(n)[0]


def _build_simplified(n):
    """``build_cfdd_simplified(n)`` and its number tables (ab, ay, xb, d):
    ay[k] numbers u_a_y{2k}, xb[k] u_x{2k}_b and d[k] u_x{k}y{k}."""
    if n < 2:
        raise ValueError("the simplified model needs n >= 2")
    top = 2 * n - 1
    ay = [f"u_{_ay(2 * k)}" for k in range(n)]
    xb = [f"u_{_xb(2 * k)}" for k in range(n)]
    d = [f"u_x{k}y{k}" for k in range(top + 1)]
    named = [("u_ab", _DD_CODE[1, 1])]
    named += [(name, _DD_CODE[1, 2]) for name in ay[1:]]
    named += [(name, _DD_CODE[2, 1]) for name in xb[1:]]
    named += [(name, _DD_CODE[2, 2]) for name in d[1:]]
    names, codes, number = _numbered(named)
    ab = number["u_ab"]
    ay, xb, d = ([None] + [number[name] for name in table[1:]] for table in (ay, xb, d))

    dd = _DD_ID
    arrows = [
        (ab, dd["r123"]["s123"], d[1]),
        (ab, dd["r1"]["s3"], d[n]),
        (ab, dd["r3"]["s1"], d[n]),
        (d[top], dd["r2"]["s2"], ab),
    ]
    for k in range(1, n):
        arrows += [
            (ay[k], dd["r1"]["j2"], d[k]),
            (ay[k], dd["r3"]["j2"], d[n + k]),
            (xb[k], dd["i2"]["s1"], d[k]),
            (xb[k], dd["i2"]["s3"], d[n + k]),
            (xb[k], dd["r23"]["s123"], d[k + 1]),
        ]
    for k in range(n, 2 * n - 1):
        m = k - n + 1
        arrows += [(d[k], dd["r2"]["s23"], ay[m]), (d[k], dd["r23"]["s2"], xb[m])]
    S = DDStructure._from_rows(names, codes, _rows(len(names), arrows))
    return S, (ab, ay, xb, d)


def build_equivalence(n: int):
    """The morphisms (F, G, H) relating full and simplified structures.

    F: full -> simplified and G: simplified -> full are inverse chain
    maps up to the self-homotopy H of the full structure.  Arrows are
    number triples over the two builds' tables, collected in sets as
    sums mod 2 would collapse them.
    """
    if n < 3:
        raise ValueError("the equivalence data is built for n >= 3")
    M, (ab, ay, xb, xy) = _build_full(n)
    N, (u_ab, u_ay, u_xb, u_d) = _build_simplified(n)
    top = 2 * n - 1
    dd = _DD_ID
    unit = dd["i2"]["j2"]

    def pair(i, j):
        """The symmetrized generator set {x_i y_j, x_j y_i}."""
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
    F = DDMorphism._from_rows(M, N, _rows(len(M.names), f_arrows))

    g_arrows = {(u_ab, dd["i1"]["j1"], ab)}
    for k in range(1, n):
        g_arrows.add((u_ay[k], dd["i1"]["j2"], ay[k]))
        g_arrows.add((u_xb[k], dd["i2"]["j1"], xb[k]))
    g_arrows.add((u_d[1], unit, xy[1][1]))
    g_arrows.add((u_d[1], dd["r23"]["s23"], xy[3][1]))
    for k in range(2, n):
        g_arrows.add((u_d[k], unit, xy[1][2 * k - 1]))
        g_arrows.add((u_d[k], unit, xy[2 * k - 1][1]))
        g_arrows.add((u_d[k], dd["r23"]["s23"], xy[2 * k + 1][1]))
    for k in range(n, 2 * n - 1):
        g_arrows.add((u_d[k], unit, xy[2 * k - 2 * n + 1][top]))
        g_arrows.add((u_d[k], unit, xy[top][2 * k - 2 * n + 1]))
    g_arrows.add((u_d[top], unit, xy[top][top]))
    G = DDMorphism._from_rows(N, M, _rows(len(N.names), g_arrows))

    h_arrows = set()
    r3, s3 = dd["r3"]["j2"], dd["i2"]["s3"]
    for k in range(1, n):
        if k <= n - 2:
            ay_targets = pair(2 * k + 1, top)
            xb_targets = pair(top, 2 * k + 1)
        else:
            ay_targets = xb_targets = {xy[top][top]}
        h_arrows.update((ay[k], r3, t) for t in ay_targets)
        h_arrows.update((xb[k], s3, t) for t in xb_targets)
    # the set collapses the two numbers of {x_a y_b, x_b y_a} when a = b
    add, cut = h_arrows.add, dd["r23"]["s23"]
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
    H = DDMorphism._from_rows(M, M, _rows(len(M.names), h_arrows))
    return F, G, H
