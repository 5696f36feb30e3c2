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

from .structures import _DD_ID, DDMorphism, DDStructure


def _pair(row, label, xy, a, b):
    """File the symmetrized sum x_a y_b + x_b y_a with label into row: one
    step where the two coincide (a == b), the case the formulas' sums
    collapse to a single arrow.  Returns the number of steps filed."""
    row.append((label, xy[a][b]))
    if a == b:
        return 1
    row.append((label, xy[b][a]))
    return 2


def _full_families(n, ab, ay, xb, xy, rows):
    """The fourteen arrow families of the full structure.

    Files each arrow as a (label id, target number) step into
    rows[source number] and yields (family id, description, provenance,
    arrow count) once the family is filed, over the number tables ab,
    ay[k] of a_y{2k}, xb[k] of x{2k}_b and xy[i][j] of x{i}y{j}.  The
    families are disjoint, so no step is filed twice; inside one family
    instance a symmetrized sum whose two summands coincide (the
    "otherwise" degenerations) is one arrow, see ``_pair``.
    """
    top = 2 * n - 1
    dd = _DD_ID

    # x{i}y{j} -> x{i+d}y{j-d} + x{j-d}y{i+d}, d = 1 toward the diagonal:
    # d = -1 below it (j < i), d = 1 above it
    unit, count = dd["i2"]["j2"], 0
    for i in range(1, top + 1):
        xi = xy[i]
        for j in range(1 + (i % 2 == 0), i, 2):
            count += _pair(rows[xi[j]], unit, xy, i - 1, j + 1)
        for j in range(i + 2, top + 1, 2):
            count += _pair(rows[xi[j]], unit, xy, i + 1, j - 1)
    yield ("F1", "provincial rectangles, unit labels, i,j=1..2n-1 same parity", "domain count", count)

    a = dd["r1"]["j2"]
    count = sum(_pair(rows[ay[k]], a, xy, 1, 2 * k - 1) for k in range(1, n))
    yield ("F2", "r1 quadrilaterals, a_y{2k} -> x1 y{2k-1} + x{2k-1} y1, k=1..n-1", "domain count", count)

    a = dd["i2"]["s1"]
    count = sum(_pair(rows[xb[k]], a, xy, 2 * k - 1, 1) for k in range(1, n))
    yield ("F3", "s1 quadrilaterals, x{2k}_b -> x{2k-1} y1 + x1 y{2k-1}, k=1..n-1", "domain count", count)

    a = dd["r3"]["j2"]
    count = sum(_pair(rows[ay[k]], a, xy, 2 * k + 1, top) for k in range(1, n))
    yield ("F4", "r3 quadrilaterals, a_y{2k} -> x{2k+1} y{2n-1} + x{2n-1} y{2k+1}, k=1..n-1", "domain count", count)

    a = dd["i2"]["s3"]
    count = sum(_pair(rows[xb[k]], a, xy, top, 2 * k + 1) for k in range(1, n))
    yield ("F5", "s3 quadrilaterals, x{2k}_b -> x{2n-1} y{2k+1} + x{2k+1} y{2n-1}, k=1..n-1", "domain count", count)

    rows[xy[top][top]].append((dd["r2"]["s2"], ab))
    yield ("F6", "central rectangle, x{2n-1}y{2n-1} -> r2 s2 ab", "domain count", 1)

    count = sum(_pair(rows[ab], dd[left][right], xy, 1, top) for left, right in (("r3", "s1"), ("r1", "s3")))
    yield ("F7", "outer annuli, ab -> (r3 s1 + r1 s3)(x1 y{2n-1} + x{2n-1} y1)", "domain count", count)

    a = dd["r23"]["s2"]
    for k in range(1, n):
        rows[xy[2 * k - 1][top]].append((a, xb[k]))
    yield (
        "F8",
        "vertical strip, one cut, x{2k-1}y{2n-1} -> r23 s2 x{2k}_b, k=1..n-1",
        "target index fixed by the structure equation",
        n - 1,
    )

    a = dd["r2"]["s23"]
    for l in range(1, n):
        rows[xy[top][2 * l - 1]].append((a, ay[l]))
    yield (
        "F9",
        "vertical strip, one cut, x{2n-1}y{2l-1} -> r2 s23 a_y{2l}, l=1..n-1",
        "target index fixed by the structure equation",
        n - 1,
    )

    a = dd["r23"]["s23"]
    for k in range(1, n):
        source, target = xy[2 * k - 1], xy[2 * k]
        for l in range(1, n):
            rows[source[2 * l - 1]].append((a, target[2 * l]))
    yield (
        "F10",
        "vertical strip, two cuts, x{2k-1}y{2l-1} -> r23 s23 x{2k}y{2l}, k,l=1..n-1",
        "target index fixed by the structure equation",
        (n - 1) ** 2,
    )

    for k in range(1, n):
        source, target = xy[2 * k], xy[2 * k + 1]
        for l in range(1, n):
            rows[source[2 * l]].append((a, target[2 * l + 1]))
    yield ("F11", "diagonal ladder, x{2k}y{2l} -> r23 s23 x{2k+1}y{2l+1}, k,l=1..n-1", "forced by the structure equation", (n - 1) ** 2)

    a = dd["r123"]["s23"]
    for j in range(1, n):
        rows[ay[j]].append((a, xy[2 * j + 1][1]))
    yield ("F12", "wide annulus, a_y{2j} -> r123 s23 x{2j+1}y1, j=1..n-1", "domain count", n - 1)

    a = dd["r23"]["s123"]
    for j in range(1, n):
        rows[xb[j]].append((a, xy[1][2 * j + 1]))
    yield ("F13", "wide annulus, x{2j}_b -> r23 s123 x1 y{2j+1}, j=1..n-1", "domain count", n - 1)

    rows[ab].append((dd["r123"]["s123"], xy[1][1]))
    yield ("F14", "full diagram, ab -> r123 s123 x1y1", "three disk classes, odd total count", 1)


def _numbered(named):
    """(names, codes, {name: number}) of the (name, unit label id)
    pairs named, in any order: names sorted, numbers their positions."""
    named.sort()
    names = tuple(name for name, _ in named)
    return names, tuple(code for _, code in named), {name: k for k, name in enumerate(names)}


def _sorted_rows(rows):
    """rows, each sorted in place into (label id, target number) order."""
    for row in rows:
        row.sort()
    return rows


def build_cfdd_full(n: int) -> DDStructure:
    """The full type-DD structure of the (2,2n) torus-link complement:
    its 2n^2 generators of the neutral algebra summand, the only one
    that carries arrows."""
    return _build_full(n)[0]


def _build_full(n):
    """``build_cfdd_full(n)``, the number tables (ab, ay, xb, xy) that
    ``_full_families`` reads, and the log lines of the families it files."""
    names, codes, tables = _full_numbering(n)
    rows = [[] for _ in names]
    log = [f"full type-DD structure, n={n}"]
    for fid, desc, provenance, count in _full_families(n, *tables, rows):
        log.append(f"{fid}: {desc}; {count} arrow{'' if count == 1 else 's'} [{provenance}]")
    return DDStructure._from_rows(names, codes, _sorted_rows(rows)), tables, tuple(log)


def _full_numbering(n):
    """(names, codes, (ab, ay, xb, xy)) of the full structure's generators.

    Generators are numbered in plain string order of their names, which
    follows from the naming scheme, so the names are formatted once,
    already in that order, and nothing is sorted but the indices: first
    a_y{j} for j in order of str(j), then ab, then one block of n names
    per i = 1..2n-1 in order of f"{i}:" (the character after a name's
    first index, "_" or "y", sorts after every digit): x{i}_b, if i is
    even, then x{i}y{j} for the j of i's parity in order of str(j).
    """
    if n < 1:
        raise ValueError("n must be a positive integer")
    top = 2 * n - 1
    by_str = sorted(range(1, top + 1), key=str)
    evens = [j for j in by_str if j % 2 == 0]
    odds = [j for j in by_str if j % 2]
    # place[j]: the offset of x{i}y{j} in i's block (x{i}_b, if any, is 0)
    place = [None] * (top + 1)
    for k, j in enumerate(evens, 1):
        place[j] = k
    for k, j in enumerate(odds):
        place[j] = k
    ay = [None] + [place[j] - 1 for j in range(2, top, 2)]
    names = [f"a_y{j}" for j in evens] + ["ab"]
    codes = [_DD_ID["i1"]["j2"]] * (n - 1) + [_DD_ID["i1"]["j1"]]
    xb = [None] * n
    xy = [None] * (top + 1)
    even_block = [_DD_ID["i2"]["j1"]] + [_DD_ID["i2"]["j2"]] * (n - 1)
    odd_block = [_DD_ID["i2"]["j2"]] * n
    even_tails, odd_tails = [str(j) for j in evens], [str(j) for j in odds]
    even_places, odd_places = place[2::2], place[1::2]
    for i in sorted(range(1, top + 1), key=lambda i: f"{i}:"):
        start = len(names)
        row = [None] * (top + 1)
        head = f"x{i}y"
        if i % 2:
            names += [head + tail for tail in odd_tails]
            codes += odd_block
            row[1::2] = [start + k for k in odd_places]
        else:
            xb[i // 2] = start
            names.append(f"x{i}_b")
            names += [head + tail for tail in even_tails]
            codes += even_block
            row[2::2] = [start + k for k in even_places]
        xy[i] = row
    return tuple(names), tuple(codes), (n - 1, ay, xb, xy)


def full_build_log(n: int):
    """Plain-text build log: family, arrow count, index range, provenance."""
    return _build_full(n)[2]


def build_cfdd_simplified(n: int) -> DDStructure:
    """The 4n-2 generator model with no unit-labeled arrows."""
    return _build_simplified(n)[0]


def _build_simplified(n):
    """``build_cfdd_simplified(n)`` and its number tables (ab, ay, xb, d):
    ay[k] numbers u_a_y{2k}, xb[k] u_x{2k}_b and d[k] u_x{k}y{k}."""
    if n < 2:
        raise ValueError("the simplified model needs n >= 2")
    top = 2 * n - 1
    ay = [f"u_a_y{2 * k}" for k in range(n)]
    xb = [f"u_x{2 * k}_b" for k in range(n)]
    d = [f"u_x{k}y{k}" for k in range(top + 1)]
    dd = _DD_ID
    named = [("u_ab", dd["i1"]["j1"])]
    named += [(name, dd["i1"]["j2"]) for name in ay[1:]]
    named += [(name, dd["i2"]["j1"]) for name in xb[1:]]
    named += [(name, dd["i2"]["j2"]) for name in d[1:]]
    names, codes, number = _numbered(named)
    ab = number["u_ab"]
    ay, xb, d = ([None] + [number[name] for name in table[1:]] for table in (ay, xb, d))

    r1, r3, s1, s3 = dd["r1"]["j2"], dd["r3"]["j2"], dd["i2"]["s1"], dd["i2"]["s3"]
    r2s23, r23s2, r23s123 = dd["r2"]["s23"], dd["r23"]["s2"], dd["r23"]["s123"]
    rows = [[] for _ in names]
    rows[ab] += [(dd["r123"]["s123"], d[1]), (dd["r1"]["s3"], d[n]), (dd["r3"]["s1"], d[n])]
    rows[d[top]].append((dd["r2"]["s2"], ab))
    for k in range(1, n):
        rows[ay[k]] += [(r1, d[k]), (r3, d[n + k])]
        rows[xb[k]] += [(s1, d[k]), (s3, d[n + k]), (r23s123, d[k + 1])]
    for k in range(n, top):
        m = k - n + 1
        rows[d[k]] += [(r2s23, ay[m]), (r23s2, xb[m])]
    return DDStructure._from_rows(names, codes, _sorted_rows(rows)), (ab, ay, xb, d)


def build_equivalence(n: int):
    """The morphisms (F, G, H) relating full and simplified structures.

    F: full -> simplified and G: simplified -> full are inverse chain
    maps up to the self-homotopy H of the full structure.  Each arrow is
    filed as a (label id, target number) step into its source's row over
    the two builds' number tables, once: where two summands of a formula
    coincide they are one arrow (see ``_pair``), and F's x1y{2n-1} ->
    u_x{n}y{n}, which the formula gives at k = n and at k = 1, is filed
    at k = n only.
    """
    if n < 3:
        raise ValueError("the equivalence data is built for n >= 3")
    M, (ab, ay, xb, xy), _ = _build_full(n)
    N, (u_ab, u_ay, u_xb, u_d) = _build_simplified(n)
    top = 2 * n - 1
    dd = _DD_ID
    unit, cut = dd["i2"]["j2"], dd["r23"]["s23"]
    i1j1, i1j2, i2j1, r2s23 = dd["i1"]["j1"], dd["i1"]["j2"], dd["i2"]["j1"], dd["r2"]["s23"]

    rows = [[] for _ in M.names]
    rows[ab].append((i1j1, u_ab))
    for k in range(1, n):
        rows[ay[k]].append((i1j2, u_ay[k]))
        rows[xb[k]].append((i2j1, u_xb[k]))
        rows[xy[2 * k][2 * n - 2]].append((r2s23, u_ay[k]))
    for k in range(1, n + 1):
        rows[xy[1][2 * k - 1]].append((unit, u_d[k]))
    for k in range(2, n + 1):  # at k = 1 it is x1y{2n-1} -> u_x{n}y{n} again
        rows[xy[2 * k - 1][top]].append((unit, u_d[k + n - 1]))
    F = DDMorphism._from_rows(M, N, _sorted_rows(rows))

    rows = [[] for _ in N.names]
    rows[u_ab].append((i1j1, ab))
    for k in range(1, n):
        rows[u_ay[k]].append((i1j2, ay[k]))
        rows[u_xb[k]].append((i2j1, xb[k]))
        row = rows[u_d[k]]
        _pair(row, unit, xy, 1, 2 * k - 1)  # x1y1 alone at k = 1
        row.append((cut, xy[2 * k + 1][1]))
    for k in range(n, top + 1):  # x{2n-1}y{2n-1} alone at k = 2n - 1
        _pair(rows[u_d[k]], unit, xy, 2 * k - 2 * n + 1, top)
    G = DDMorphism._from_rows(N, M, _sorted_rows(rows))

    rows = [[] for _ in M.names]
    r3, s3 = dd["r3"]["j2"], dd["i2"]["s3"]
    for k in range(1, n):  # x{2n-1}y{2n-1} alone at k = n - 1
        _pair(rows[ay[k]], r3, xy, 2 * k + 1, top)
        _pair(rows[xb[k]], s3, xy, top, 2 * k + 1)
    for i in range(1, top + 1):
        xi = xy[i]
        for j in range(1 + (i % 2 == 0), i, 2):  # below the diagonal
            row = rows[xi[j]]
            if j == 1 and 3 <= i <= 2 * n - 3:
                _pair(row, cut, xy, i + 1, 2)
                _pair(row, unit, xy, i - 1, 2)
            else:
                _pair(row, unit, xy, i - 1, j + 1)
        if i == 1:
            rows[xi[i]].append((cut, xy[2][2]))
        elif i != top:
            rows[xi[i]].append((unit, xy[i + 1][i - 1]))
        for j in range(i + 2, top + 1, 2):  # above it
            row = rows[xi[j]]
            _pair(row, unit, xy, i + 1, j - 1)
            if i != 1 and j != top:
                row.append((unit, xy[j + 1][i - 1]))
    H = DDMorphism._from_rows(M, M, _sorted_rows(rows))
    return F, G, H
