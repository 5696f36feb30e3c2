"""Region-vector combinatorics of the arced Heegaard diagram.

The diagram of the (2,2n) link complement has six outer regions
Q0..Q5 (Q0 contains the framed arc and is never crossed) and two
ladders of provincial regions P1..P_{2n-3}, R1..R_{2n-3}.  The two
periodic domains are transcribed as integer region vectors and tested
for the properties the calculus relies on: linear independence, and the
absence of a nonzero combination supported on provincial regions only.
The boundary map from regions to curves is deliberately not modeled.
"""

from dataclasses import dataclass


def region_names(n: int):
    if n < 1:
        raise ValueError("n must be a positive integer")
    ladder = range(1, 2 * n - 2)
    return (
        tuple(f"Q{k}" for k in range(6))
        + tuple(f"P{i}" for i in ladder)
        + tuple(f"R{i}" for i in ladder)
    )


@dataclass(frozen=True)
class RegionVector:
    """Integer coefficients over the regions of the n-th diagram."""

    n: int
    coeffs: tuple

    def __post_init__(self):
        names = region_names(self.n)
        if len(self.coeffs) != len(names):
            raise ValueError(f"expected {len(names)} coefficients")
        if self.coeffs[0] != 0:
            raise ValueError("the region holding the framed arc is never crossed")

    @classmethod
    def from_dict(cls, n: int, coeffs: dict) -> "RegionVector":
        names = region_names(n)
        unknown = set(coeffs) - set(names)
        if unknown:
            raise ValueError(f"unknown regions: {sorted(unknown)}")
        return cls(n, tuple(coeffs.get(name, 0) for name in names))

    def items(self):
        return tuple(zip(region_names(self.n), self.coeffs))

    def __str__(self):
        return " ".join(f"{name}={c}" for name, c in self.items())


def periodic_domains(n: int):
    """The two generating periodic domains of the n-th diagram."""
    first = {"Q3": 1, "Q5": 1, "Q1": n + 2, "Q4": n + 2, "Q2": n + 3}
    second = {"Q3": 1, "Q5": -1, "Q4": 1, "Q1": -1}
    for i in range(1, 2 * n - 2):
        first[f"P{i}"] = i + 1
        first[f"R{i}"] = i + 1
        step = (1 + (-1) ** i) // 2
        if step:
            second[f"P{i}"] = step
            second[f"R{i}"] = -step
    return RegionVector.from_dict(n, first), RegionVector.from_dict(n, second)


def _rank2(columns):
    """Rank of a matrix given as two integer columns."""
    a, b = columns
    for x, y in zip(a, b):
        for u, v in zip(a, b):
            if x * v - y * u:
                return 2
    if any(a) or any(b):
        return 1
    return 0


def independent(v1: RegionVector, v2: RegionVector) -> bool:
    """Whether the two vectors span a rank-2 lattice."""
    if v1.n != v2.n:
        raise ValueError("vectors belong to different diagrams")
    return _rank2((v1.coeffs, v2.coeffs)) == 2


def provincially_admissible(n: int) -> bool:
    """No nonzero combination of the periodic domains is provincial.

    A provincial combination vanishes on every Q region, so the test is
    that restricting to the Q columns loses no rank.
    """
    d1, d2 = periodic_domains(n)
    q = slice(0, 6)
    full = _rank2((d1.coeffs, d2.coeffs))
    restricted = _rank2((d1.coeffs[q], d2.coeffs[q]))
    return restricted == full
