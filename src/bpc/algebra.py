"""The genus-1 torus algebra over F2, in two tagged copies.

Basis per copy: two idempotents and six chords running between the four
marked points 0 < 1 < 2 < 3 of a boundary circle.  Chord "12" is the
concatenation of "1" and "2", "123" of all three elementary chords.
The left copy uses the tokens i1, i2, r1, r2, r3, r12, r23, r123; the
right copy j1, j2, s1, ..., s123.  Products never mix sides.

Idempotents record the matched arc of a chord endpoint: marked points 0
and 2 lie on arc 1, points 1 and 3 on arc 2.  This forces

    r1 = i1*r1*i2,  r2 = i2*r2*i1,  r3 = i1*r3*i2,

and consequently r12 = i1*r12*i1, r23 = i2*r23*i2, r123 = i1*r123*i2
(identically with j/s on the right).  The unit is i1 + i2 and is never
represented as a ninth basis element.
"""

from dataclasses import dataclass

SIDES = ("left", "right")
INTERVALS = ("1", "2", "3", "12", "23", "123")

# chord endpoints on the circle 0 < 1 < 2 < 3
_START = {"1": 0, "2": 1, "3": 2, "12": 0, "23": 1, "123": 0}
_END = {"1": 1, "2": 2, "3": 3, "12": 2, "23": 3, "123": 3}

_IDEM_PREFIX = {"left": "i", "right": "j"}
_CHORD_PREFIX = {"left": "r", "right": "s"}
_PREFIX_SIDE = {"i": "left", "r": "left", "j": "right", "s": "right"}


def _arc(point: int) -> int:
    return 1 if point % 2 == 0 else 2


def idem_token(side: str, index: int) -> str:
    return _IDEM_PREFIX[side] + str(index)


def chord_token(side: str, interval: str) -> str:
    if interval not in INTERVALS:
        raise ValueError(f"unknown chord interval {interval!r}")
    return _CHORD_PREFIX[side] + interval


def side_of(token: str) -> str:
    side = _PREFIX_SIDE.get(token[:1])
    if side is None:
        raise ValueError(f"unknown algebra token {token!r}")
    return side


def is_idempotent(token: str) -> bool:
    return token[0] in "ij"


def is_chord(token: str) -> bool:
    return token[0] in "rs"


def idem_index(token: str) -> int:
    if not is_idempotent(token) or token[1:] not in ("1", "2"):
        raise ValueError(f"not an idempotent token: {token!r}")
    return int(token[1:])


def chord_interval(token: str) -> str:
    if not is_chord(token) or token[1:] not in INTERVALS:
        raise ValueError(f"not a chord token: {token!r}")
    return token[1:]


def left_idem(interval: str) -> int:
    """Index of the unique idempotent e with e * chord = chord."""
    return _arc(_START[interval])


def right_idem(interval: str) -> int:
    """Index of the unique idempotent e with chord * e = chord."""
    return _arc(_END[interval])


def token_left_idem(token: str) -> int:
    return idem_index(token) if is_idempotent(token) else left_idem(chord_interval(token))


def token_right_idem(token: str) -> int:
    return idem_index(token) if is_idempotent(token) else right_idem(chord_interval(token))


def mul_interval(a: str, b: str) -> str | None:
    """Concatenation of chord intervals; None when the endpoints do not meet."""
    if _END[a] != _START[b]:
        return None
    c = a + b
    return c if c in INTERVALS else None


def chord_factorizations(interval: str) -> tuple[tuple[str, str], ...]:
    """All pairs (u, v) of intervals with u*v == interval."""
    return tuple(
        (u, v) for u in INTERVALS for v in INTERVALS if mul_interval(u, v) == interval
    )


def mul_basis(a: str, b: str) -> str | None:
    """Product of two basis tokens of the same side; None for zero."""
    if side_of(a) != side_of(b):
        raise ValueError(f"cannot multiply across sides: {a!r} * {b!r}")
    ai, bi = is_idempotent(a), is_idempotent(b)
    if ai and bi:
        return a if a == b else None
    if ai:
        return b if idem_index(a) == token_left_idem(b) else None
    if bi:
        return a if token_right_idem(a) == idem_index(b) else None
    c = mul_interval(chord_interval(a), chord_interval(b))
    return None if c is None else chord_token(side_of(a), c)


def basis_tokens(side: str) -> tuple[str, ...]:
    return (idem_token(side, 1), idem_token(side, 2)) + tuple(
        chord_token(side, iv) for iv in INTERVALS
    )


_BASIS_ORDER = {t: k for side in SIDES for k, t in enumerate(basis_tokens(side))}


def check_token(token: str) -> str:
    """Validate a basis token, returning it unchanged."""
    if not isinstance(token, str) or token not in _BASIS_ORDER:
        raise ValueError(f"unknown algebra token {token!r}")
    return token


@dataclass(frozen=True)
class AlgebraElement:
    """F2-linear combination of basis tokens of one side."""

    side: str
    support: frozenset

    def __post_init__(self):
        if self.side not in SIDES:
            raise ValueError(f"unknown side {self.side!r}")
        for t in self.support:
            if side_of(check_token(t)) != self.side:
                raise ValueError(f"token {t!r} is not on side {self.side!r}")

    @classmethod
    def zero(cls, side: str) -> "AlgebraElement":
        return cls(side, frozenset())

    @classmethod
    def unit(cls, side: str) -> "AlgebraElement":
        return cls(side, frozenset({idem_token(side, 1), idem_token(side, 2)}))

    @classmethod
    def basis(cls, token: str) -> "AlgebraElement":
        return cls(side_of(check_token(token)), frozenset({token}))

    @classmethod
    def parse(cls, text: str, side: str | None = None) -> "AlgebraElement":
        tokens = [t.strip() for t in text.split("+") if t.strip()]
        if not tokens:
            if side is None:
                raise ValueError("cannot parse the zero element without a side")
            return cls.zero(side)
        out = cls.basis(tokens[0])
        for t in tokens[1:]:
            out = out + cls.basis(t)
        if side is not None and out.side != side:
            raise ValueError(f"element {text!r} is not on side {side!r}")
        return out

    def is_zero(self) -> bool:
        return not self.support

    def __add__(self, other: "AlgebraElement") -> "AlgebraElement":
        if self.side != other.side:
            raise ValueError("cannot add across sides")
        return AlgebraElement(self.side, self.support ^ other.support)

    def __mul__(self, other: "AlgebraElement") -> "AlgebraElement":
        if self.side != other.side:
            raise ValueError("cannot multiply across sides")
        parity = {}
        for a in self.support:
            for b in other.support:
                p = mul_basis(a, b)
                if p is not None:
                    parity[p] = not parity.get(p, False)
        return AlgebraElement(
            self.side, frozenset(t for t, odd in parity.items() if odd)
        )

    def __str__(self) -> str:
        if not self.support:
            return "0"
        return "+".join(sorted(self.support, key=_BASIS_ORDER.__getitem__))
