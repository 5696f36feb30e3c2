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

The token helpers and ``mul_basis`` read small tables over the 16 basis
tokens (side, idempotents, chord interval, and the 2 x 8 x 8 same-side
products).  The tables are filled once, at import, from the chord
endpoint rules below; a token outside them raises ``ValueError``.
"""

SIDES = ("left", "right")
INTERVALS = ("1", "2", "3", "12", "23", "123")

# chord endpoints on the circle 0 < 1 < 2 < 3
_START = {"1": 0, "2": 1, "3": 2, "12": 0, "23": 1, "123": 0}
_END = {"1": 1, "2": 2, "3": 3, "12": 2, "23": 3, "123": 3}

_IDEM_PREFIX = {"left": "i", "right": "j"}
_CHORD_PREFIX = {"left": "r", "right": "s"}


def _arc(point: int) -> int:
    return 1 if point % 2 == 0 else 2


def idem_token(side: str, index: int) -> str:
    return _IDEM_PREFIX[side] + str(index)


def chord_token(side: str, interval: str) -> str:
    if interval not in INTERVALS:
        raise ValueError(f"unknown chord interval {interval!r}")
    return _CHORD_PREFIX[side] + interval


def left_idem(interval: str) -> int:
    """Index of the unique idempotent e with e * chord = chord."""
    return _arc(_START[interval])


def right_idem(interval: str) -> int:
    """Index of the unique idempotent e with chord * e = chord."""
    return _arc(_END[interval])


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


def basis_tokens(side: str) -> tuple[str, ...]:
    return (idem_token(side, 1), idem_token(side, 2)) + tuple(
        chord_token(side, iv) for iv in INTERVALS
    )


# ---------------------------------------------------------------------------
# tables over the 16 basis tokens, filled once from the rules above

_SIDE = {}  # token -> side
_IS_IDEM = {}  # token -> whether it is an idempotent
_IDEM_INDEX = {}  # idempotent token -> 1 or 2
_CHORD_INTERVAL = {}  # chord token -> interval
_LEFT_IDEM = {}  # token -> index of e with e * token = token
_RIGHT_IDEM = {}  # token -> index of e with token * e = token
_PRODUCT = {}  # token a -> {same-side token b -> a * b, None for zero}


def _product(a: str, b: str) -> str | None:
    """a * b by the idempotent relations and chord concatenation."""
    if _RIGHT_IDEM[a] != _LEFT_IDEM[b]:
        return None
    if _IS_IDEM[a]:
        return b
    if _IS_IDEM[b]:
        return a
    c = mul_interval(_CHORD_INTERVAL[a], _CHORD_INTERVAL[b])
    return None if c is None else chord_token(_SIDE[a], c)


for _side in SIDES:
    for _index in (1, 2):
        _t = idem_token(_side, _index)
        _IDEM_INDEX[_t] = _LEFT_IDEM[_t] = _RIGHT_IDEM[_t] = _index
    for _iv in INTERVALS:
        _t = chord_token(_side, _iv)
        _CHORD_INTERVAL[_t] = _iv
        _LEFT_IDEM[_t], _RIGHT_IDEM[_t] = left_idem(_iv), right_idem(_iv)
    for _t in basis_tokens(_side):
        _SIDE[_t] = _side
        _IS_IDEM[_t] = _t in _IDEM_INDEX
    for _t in basis_tokens(_side):
        _PRODUCT[_t] = {_b: _product(_t, _b) for _b in basis_tokens(_side)}

del _side, _index, _iv, _t


def _lookup(table: dict, token, what: str):
    try:
        return table[token]
    except (KeyError, TypeError):
        raise ValueError(f"{what} {token!r}") from None


def side_of(token: str) -> str:
    return _lookup(_SIDE, token, "unknown algebra token")


def is_idempotent(token: str) -> bool:
    return _lookup(_IS_IDEM, token, "unknown algebra token")


def idem_index(token: str) -> int:
    return _lookup(_IDEM_INDEX, token, "not an idempotent token:")


def chord_interval(token: str) -> str:
    return _lookup(_CHORD_INTERVAL, token, "not a chord token:")


def token_left_idem(token: str) -> int:
    return _lookup(_LEFT_IDEM, token, "unknown algebra token")


def token_right_idem(token: str) -> int:
    return _lookup(_RIGHT_IDEM, token, "unknown algebra token")


def check_token(token: str) -> str:
    """Validate a basis token, returning it unchanged."""
    side_of(token)
    return token


def mul_basis(a: str, b: str) -> str | None:
    """Product of two basis tokens of the same side; None for zero."""
    try:
        return _PRODUCT[a][b]
    except (KeyError, TypeError):
        side_of(a)  # an unknown token is named first
        side_of(b)
        raise ValueError(f"cannot multiply across sides: {a!r} * {b!r}") from None
