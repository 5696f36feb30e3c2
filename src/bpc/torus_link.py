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

from dataclasses import dataclass

from .algebra import SIDES
from .structures import _DD_CODE, DDMorphism, DDStructure, _resolve

_KINDS = ("ab", "a_y", "x_b", "xy", "a_y_odd", "x_b_odd")


@dataclass(frozen=True)
class TorusLinkGenerator:
    """One intersection-point pair of the (2,2n) diagram."""

    kind: str
    i: int | None = None
    j: int | None = None

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise ValueError(f"unknown generator kind {self.kind!r}")

    @property
    def name(self) -> str:
        if self.kind == "ab":
            return "ab"
        if self.kind.startswith("a_y"):
            return f"a_y{self.j}"
        if self.kind.startswith("x_b"):
            return f"x{self.i}_b"
        return f"x{self.i}y{self.j}"

    @property
    def left_idem(self) -> int:
        return 1 if self.kind in ("ab", "a_y", "a_y_odd") else 2

    @property
    def right_idem(self) -> int:
        return 1 if self.kind in ("ab", "x_b", "x_b_odd") else 2

    @property
    def summand(self) -> int:
        # generators occupying both right arcs sit in the -1 summand,
        # both left arcs in the +1 summand
        if self.kind == "a_y_odd":
            return -1
        if self.kind == "x_b_odd":
            return 1
        return 0


def enumerate_generators(n: int):
    """All 2n^2+2n generators with their algebra-summand charge."""
    if n < 1:
        raise ValueError("n must be a positive integer")
    out = [(TorusLinkGenerator("ab"), 0)]
    for j in range(2, 2 * n - 1, 2):
        out.append((TorusLinkGenerator("a_y", j=j), 0))
    for i in range(2, 2 * n - 1, 2):
        out.append((TorusLinkGenerator("x_b", i=i), 0))
    for i in range(1, 2 * n):
        for j in range(1, 2 * n):
            if (i - j) % 2 == 0:
                out.append((TorusLinkGenerator("xy", i=i, j=j), 0))
    for j in range(1, 2 * n, 2):
        out.append((TorusLinkGenerator("a_y_odd", j=j), -1))
    for i in range(1, 2 * n, 2):
        out.append((TorusLinkGenerator("x_b_odd", i=i), 1))
    return out


def _xy(i, j):
    return f"x{i}y{j}"


def _ay(j):
    return f"a_y{j}"


def _xb(i):
    return f"x{i}_b"


def _full_families(n, xy):
    """The fourteen arrow families of the full structure.

    Yields (family id, description, provenance, arrows).  Coincident
    summands inside one family instance (the "otherwise" degenerations)
    are collapsed to a single arrow: F1 leaves out a mirror target equal
    to the first, and the other families build target sets.  ``xy`` is
    the name table of ``_xy_names(n)``.
    """
    top = 2 * n - 1

    # x{i}y{j} -> x{i+d}y{j-d}, d = 1 toward the diagonal, plus the mirror
    # x{j-d}y{i+d} unless it is the same generator (|i - j| = 2)
    f1 = []
    add = f1.append
    for i in range(1, top + 1):
        for j in range(1 + (i % 2 == 0), top + 1, 2):
            if j != i:
                d = 1 if j > i else -1
                add((xy[i][j], "i2", "j2", xy[i + d][j - d]))
                if abs(j - i) > 2:
                    add((xy[i][j], "i2", "j2", xy[j - d][i + d]))
    yield ("F1", "provincial rectangles, unit labels, i,j=1..2n-1 same parity", "domain count", f1)

    f2 = []
    for k in range(1, n):
        targets = {xy[1][2 * k - 1], xy[2 * k - 1][1]}
        f2 += [(_ay(2 * k), "r1", "j2", t) for t in sorted(targets)]
    yield ("F2", "r1 quadrilaterals, a_y{2k} -> x1 y{2k-1} + x{2k-1} y1, k=1..n-1", "domain count", f2)

    f3 = []
    for k in range(1, n):
        targets = {xy[2 * k - 1][1], xy[1][2 * k - 1]}
        f3 += [(_xb(2 * k), "i2", "s1", t) for t in sorted(targets)]
    yield ("F3", "s1 quadrilaterals, x{2k}_b -> x{2k-1} y1 + x1 y{2k-1}, k=1..n-1", "domain count", f3)

    f4 = []
    for k in range(1, n):
        targets = {xy[2 * k + 1][top], xy[top][2 * k + 1]}
        f4 += [(_ay(2 * k), "r3", "j2", t) for t in sorted(targets)]
    yield ("F4", "r3 quadrilaterals, a_y{2k} -> x{2k+1} y{2n-1} + x{2n-1} y{2k+1}, k=1..n-1", "domain count", f4)

    f5 = []
    for k in range(1, n):
        targets = {xy[top][2 * k + 1], xy[2 * k + 1][top]}
        f5 += [(_xb(2 * k), "i2", "s3", t) for t in sorted(targets)]
    yield ("F5", "s3 quadrilaterals, x{2k}_b -> x{2n-1} y{2k+1} + x{2k+1} y{2n-1}, k=1..n-1", "domain count", f5)

    yield (
        "F6",
        "central rectangle, x{2n-1}y{2n-1} -> r2 s2 ab",
        "domain count",
        [(xy[top][top], "r2", "s2", "ab")],
    )

    f7 = []
    for left, right in (("r3", "s1"), ("r1", "s3")):
        for t in sorted({xy[1][top], xy[top][1]}):
            f7.append(("ab", left, right, t))
    yield ("F7", "outer annuli, ab -> (r3 s1 + r1 s3)(x1 y{2n-1} + x{2n-1} y1)", "domain count", f7)

    f8 = [(xy[2 * k - 1][top], "r23", "s2", _xb(2 * k)) for k in range(1, n)]
    yield (
        "F8",
        "vertical strip, one cut, x{2k-1}y{2n-1} -> r23 s2 x{2k}_b, k=1..n-1",
        "target index fixed by the structure equation",
        f8,
    )

    f9 = [(xy[top][2 * l - 1], "r2", "s23", _ay(2 * l)) for l in range(1, n)]
    yield (
        "F9",
        "vertical strip, one cut, x{2n-1}y{2l-1} -> r2 s23 a_y{2l}, l=1..n-1",
        "target index fixed by the structure equation",
        f9,
    )

    f10 = [
        (xy[2 * k - 1][2 * l - 1], "r23", "s23", xy[2 * k][2 * l])
        for k in range(1, n)
        for l in range(1, n)
    ]
    yield (
        "F10",
        "vertical strip, two cuts, x{2k-1}y{2l-1} -> r23 s23 x{2k}y{2l}, k,l=1..n-1",
        "target index fixed by the structure equation",
        f10,
    )

    f11 = [
        (xy[2 * k][2 * l], "r23", "s23", xy[2 * k + 1][2 * l + 1])
        for k in range(1, n)
        for l in range(1, n)
    ]
    yield ("F11", "diagonal ladder, x{2k}y{2l} -> r23 s23 x{2k+1}y{2l+1}, k,l=1..n-1", "forced by the structure equation", f11)

    f12 = [(_ay(2 * j), "r123", "s23", xy[2 * j + 1][1]) for j in range(1, n)]
    yield ("F12", "wide annulus, a_y{2j} -> r123 s23 x{2j+1}y1, j=1..n-1", "domain count", f12)

    f13 = [(_xb(2 * j), "r23", "s123", xy[1][2 * j + 1]) for j in range(1, n)]
    yield ("F13", "wide annulus, x{2j}_b -> r23 s123 x1 y{2j+1}, j=1..n-1", "domain count", f13)

    yield (
        "F14",
        "full diagram, ab -> r123 s123 x1y1",
        "three disk classes, odd total count",
        [("ab", "r123", "s123", xy[1][1])],
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


def _dd(named, arrows):
    """The DDStructure on the (name, idempotent code) pairs named, in any
    order, and the arrows between those names."""
    named.sort()
    names = tuple(name for name, _ in named)
    index = {name: k for k, name in enumerate(names)}
    steps = _resolve(arrows, index, index, SIDES)
    return DDStructure._from_rows(names, tuple(code for _, code in named), steps)


def _named(n, xy, include_charged):
    """(name, idempotent code) of each generator of ``enumerate_generators(n)``,
    with the xy names taken from the table xy."""
    top = 2 * n - 1
    a_y, x_b = _DD_CODE[1, 2], _DD_CODE[2, 1]
    named = [("ab", _DD_CODE[1, 1])]
    named += [(_ay(j), a_y) for j in range(2, top, 2)]
    named += [(_xb(i), x_b) for i in range(2, top, 2)]
    named += [(name, _DD_CODE[2, 2]) for row in xy for name in row if name]
    if include_charged:
        named += [(_ay(j), a_y) for j in range(1, top + 1, 2)]
        named += [(_xb(i), x_b) for i in range(1, top + 1, 2)]
    return named


def build_cfdd_full(n: int, include_charged: bool = False) -> DDStructure:
    """The full type-DD structure of the (2,2n) torus-link complement.

    Only the neutral summand carries arrows; ``include_charged`` appends
    the 2n charged generators as isolated vertices.
    """
    return _build_full(n, _xy_names(n), include_charged)


def _build_full(n, xy, include_charged=False):
    """``build_cfdd_full(n)`` with its xy names taken from the table xy."""
    arrows = set()
    for _, _, _, family in _full_families(n, xy):
        arrows.update(family)
    return _dd(_named(n, xy, include_charged), arrows)


def full_build_log(n: int):
    """Plain-text build log: family, arrow count, index range, provenance."""
    lines = [f"full type-DD structure, n={n}"]
    for fid, desc, provenance, family in _full_families(n, _xy_names(n)):
        count = f"{len(family)} arrow" + ("" if len(family) == 1 else "s")
        lines.append(f"{fid}: {desc}; {count} [{provenance}]")
    return tuple(lines)


def build_cfdd_simplified(n: int) -> DDStructure:
    """The 4n-2 generator model with no unit-labeled arrows."""
    if n < 2:
        raise ValueError("the simplified model needs n >= 2")
    top = 2 * n - 1
    named = [("u_ab", _DD_CODE[1, 1])]
    named += [(f"u_{_ay(2 * k)}", _DD_CODE[1, 2]) for k in range(1, n)]
    named += [(f"u_{_xb(2 * k)}", _DD_CODE[2, 1]) for k in range(1, n)]
    named += [(f"u_{_xy(k, k)}", _DD_CODE[2, 2]) for k in range(1, top + 1)]

    arrows = set()
    arrows.add(("u_ab", "r123", "s123", f"u_{_xy(1, 1)}"))
    arrows.add(("u_ab", "r1", "s3", f"u_{_xy(n, n)}"))
    arrows.add(("u_ab", "r3", "s1", f"u_{_xy(n, n)}"))
    for k in range(1, n):
        arrows.add((f"u_{_ay(2 * k)}", "r1", "j2", f"u_{_xy(k, k)}"))
        arrows.add((f"u_{_ay(2 * k)}", "r3", "j2", f"u_{_xy(n + k, n + k)}"))
        arrows.add((f"u_{_xb(2 * k)}", "i2", "s1", f"u_{_xy(k, k)}"))
        arrows.add((f"u_{_xb(2 * k)}", "i2", "s3", f"u_{_xy(n + k, n + k)}"))
        arrows.add((f"u_{_xb(2 * k)}", "r23", "s123", f"u_{_xy(k + 1, k + 1)}"))
    for k in range(n, 2 * n - 1):
        m = 2 * (k - n + 1)
        arrows.add((f"u_{_xy(k, k)}", "r2", "s23", f"u_{_ay(m)}"))
        arrows.add((f"u_{_xy(k, k)}", "r23", "s2", f"u_{_xb(m)}"))
    arrows.add((f"u_{_xy(top, top)}", "r2", "s2", "u_ab"))
    return _dd(named, arrows)


def build_equivalence(n: int):
    """The morphisms (F, G, H) relating full and simplified structures.

    F: full -> simplified and G: simplified -> full are inverse chain
    maps up to the self-homotopy H of the full structure.  Names x{i}y{j}
    are read from the table of ``_xy_names(n)``.
    """
    if n < 3:
        raise ValueError("the equivalence data is built for n >= 3")
    xy = _xy_names(n)
    M = _build_full(n, xy)
    N = build_cfdd_simplified(n)
    top = 2 * n - 1

    def pair(i, j):
        """The symmetrized generator set {x_i y_j, x_j y_i}."""
        return {xy[i][j], xy[j][i]}

    f_arrows = {("ab", "i1", "j1", "u_ab")}
    for k in range(1, n):
        f_arrows.add((_ay(2 * k), "i1", "j2", f"u_{_ay(2 * k)}"))
        f_arrows.add((_xb(2 * k), "i2", "j1", f"u_{_xb(2 * k)}"))
    for k in range(1, n + 1):
        f_arrows.add((xy[1][2 * k - 1], "i2", "j2", f"u_{_xy(k, k)}"))
        f_arrows.add((xy[2 * k - 1][top], "i2", "j2", f"u_{_xy(k + n - 1, k + n - 1)}"))
    for k in range(1, n):
        f_arrows.add((xy[2 * k][2 * n - 2], "r2", "s23", f"u_{_ay(2 * k)}"))
    F = DDMorphism(M, N, frozenset(f_arrows))

    g_arrows = {("u_ab", "i1", "j1", "ab")}
    for k in range(1, n):
        g_arrows.add((f"u_{_ay(2 * k)}", "i1", "j2", _ay(2 * k)))
        g_arrows.add((f"u_{_xb(2 * k)}", "i2", "j1", _xb(2 * k)))
    g_arrows.add((f"u_{_xy(1, 1)}", "i2", "j2", xy[1][1]))
    g_arrows.add((f"u_{_xy(1, 1)}", "r23", "s23", xy[3][1]))
    for k in range(2, n):
        g_arrows.add((f"u_{_xy(k, k)}", "i2", "j2", xy[1][2 * k - 1]))
        g_arrows.add((f"u_{_xy(k, k)}", "i2", "j2", xy[2 * k - 1][1]))
        g_arrows.add((f"u_{_xy(k, k)}", "r23", "s23", xy[2 * k + 1][1]))
    for k in range(n, 2 * n - 1):
        g_arrows.add((f"u_{_xy(k, k)}", "i2", "j2", xy[2 * k - 2 * n + 1][top]))
        g_arrows.add((f"u_{_xy(k, k)}", "i2", "j2", xy[top][2 * k - 2 * n + 1]))
    g_arrows.add((f"u_{_xy(top, top)}", "i2", "j2", xy[top][top]))
    G = DDMorphism(N, M, frozenset(g_arrows))

    h_arrows = set()
    for k in range(1, n):
        if k <= n - 2:
            ay_targets = pair(2 * k + 1, top)
            xb_targets = pair(top, 2 * k + 1)
        else:
            ay_targets = xb_targets = {xy[top][top]}
        h_arrows.update((_ay(2 * k), "r3", "j2", t) for t in ay_targets)
        h_arrows.update((_xb(2 * k), "i2", "s3", t) for t in xb_targets)
    # the set collapses the two names of {x_a y_b, x_b y_a} when a = b
    add = h_arrows.add
    for i in range(1, top + 1):
        for j in range(1 + (i % 2 == 0), top + 1, 2):
            x = xy[i][j]
            if i < j:
                add((x, "i2", "j2", xy[i + 1][j - 1]))
                add((x, "i2", "j2", xy[j - 1][i + 1]))
                if i != 1 and j != top:
                    add((x, "i2", "j2", xy[j + 1][i - 1]))
            elif i > j:
                if j == 1 and 3 <= i <= 2 * n - 3:
                    add((x, "r23", "s23", xy[i + 1][2]))
                    add((x, "r23", "s23", xy[2][i + 1]))
                    a, b = i - 1, 2
                else:
                    a, b = i - 1, j + 1
                add((x, "i2", "j2", xy[a][b]))
                add((x, "i2", "j2", xy[b][a]))
            elif i == 1:
                add((x, "r23", "s23", xy[2][2]))
            elif i != top:
                add((x, "i2", "j2", xy[i + 1][i - 1]))
    H = DDMorphism(M, M, frozenset(h_arrows))
    return F, G, H
