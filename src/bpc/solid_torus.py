"""A-infinity modules of framed solid tori.

The modules store side-agnostic chord intervals; whether they consume
the left (r) or right (s) labels of a bimodule is decided at pairing
time.  Only the infinity slope and positive integer framings occur;
anything else is rejected rather than extrapolated.
"""

from .structures import AGenerator, AModule

INFINITY = "inf"

DEFAULT_FAMILY_CAP = 16


def _decimal(text: str) -> bool:
    """Whether text is ASCII decimal digits only, the CLI's rule for every
    integer: int() alone would also take signs, spaces, underscores and
    non-ASCII digits."""
    return text.isascii() and text.isdigit()


def parse_slope(text: str):
    """CLI slope syntax: 'inf' or a positive decimal integer."""
    if text == INFINITY:
        return INFINITY
    if not _decimal(text):
        raise ValueError(f"bad slope {text!r}: expected 'inf' or a positive integer")
    m = int(text)
    if m < 1:
        raise ValueError(f"bad slope {text!r}: framings must be >= 1")
    return m


def build_cfa_infinity(cap: int = DEFAULT_FAMILY_CAP) -> AModule:
    """Infinity-framed solid torus: m(w, c3, c23^k, c2) = w for k <= cap.

    The single generator pairs with class-1 (b-side) generators.  The
    table is the cap-truncation of an infinite family, recorded via
    ``capped_arity`` so pairing can flag runs that reach the horizon.
    """
    if cap < 0:
        raise ValueError("family cap must be >= 0")
    ops = frozenset(
        ("w", ("3",) + ("23",) * k + ("2",), "w") for k in range(cap + 1)
    )
    return AModule((AGenerator("w", 1),), ops, capped_arity=cap + 2)


def build_cfa_framed(m: int) -> AModule:
    """Integer framing m >= 1: generators q, p_1, ..., p_m."""
    if m < 1:
        raise ValueError("integer framings must be >= 1")
    gens = (AGenerator("q", 2),) + tuple(AGenerator(f"p{i}", 1) for i in range(1, m + 1))
    ops = {("q", ("2",), "p1")}
    for i in range(1, m + 1):
        for j in range(0, m - i):
            ops.add((f"p{i}", ("3",) + ("23",) * j + ("2",), f"p{i + j + 1}"))
    ops.add((f"p{m}", ("3", "2", "1"), "q"))
    return AModule(gens, frozenset(ops))


def build_cfa(slope, cap: int = DEFAULT_FAMILY_CAP) -> AModule:
    return build_cfa_infinity(cap) if slope == INFINITY else build_cfa_framed(slope)
