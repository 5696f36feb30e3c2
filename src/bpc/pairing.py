"""Box tensor products and homology ranks.

``box_right`` pairs an A-infinity module against the right algebra of a
type-DD structure, leaving a type-D structure over the left algebra;
``box_left`` consumes the remaining labels of a type-D structure and
yields a bare F2 chain complex.

The differential sums over directed label paths in the bimodule: a
length-one step whose consumed-side label is an idempotent fixing the
module generator passes through unchanged, while a path of chord labels
is matched against a single operation of the module table, the residual
labels multiplying up along the way.  Strict unitality: a path of
length >= 2 containing an idempotent consumed-side label contributes
nothing.  Both products run this one walk (``_walk``); a path's
residual starts as its first step's residual, a left label (l,) for
box_right and the empty label for box_left.  Paths are pruned on zero
residual products and on sequences that leave the module's prefix tree
(``AModule.tree``, built once where the module checks its table), or
raise a ValueError if they repeat a state around a loop, a starred
chord's node: such a pairing is unbounded.  Each product
generator's row is emitted as it is walked: its pass-through arrows come
sorted and distinct (see ``_walk`` for the three reasons), so only a row
that chord paths land in is summed mod 2 in a set and sorted again.
"""

from .algebra import _CHORD_INTERVAL, idem_token
from .structures import (
    _BARE,
    _D_ID,
    _LABEL_ID,
    _LABELS,
    _MUL,
    _NLABELS,
    AModule,
    ChainComplexF2,
    DStructure,
    DDStructure,
    _Frozen,
    check_complex,
)

# label id -> (chord interval of its last, consumed-side token, or None
# for an idempotent; the id of the residual label left without it: (l,)
# of a DD label (l, r), () of a D label (t,)), and None for the empty label
_STEP = tuple(
    (_CHORD_INTERVAL.get(label[-1]), _LABEL_ID[label[:-1]]) if label else None
    for label in _LABELS
)

DEFAULT_PATH_CAP = 64


class PairingConfig(_Frozen):
    """Which algebra the module consumes.  ``path_cap`` is kept for callers
    that still pass it and is not read: ``_walk`` bounds every path."""

    _FIELDS = _STATE = ("side", "path_cap")

    def __init__(self, side: str = "right", path_cap: int = DEFAULT_PATH_CAP):
        if side not in ("left", "right"):
            raise ValueError(f"unknown side {side!r}")
        self.__dict__.update(side=side, path_cap=path_cap)


def _products(A: AModule, S, consumed, side):
    """The sorted (name "a*x", a, x) of module generators a and generators
    x of S whose consumed-side unit label consumed[x] is the unit of a's
    occupancy on side, and {a: [the number of a*x in that order, or None,
    by x]}.  Built by a + "*", then x in S's name order: the order of
    "a*x" unless a module name holds "*"."""
    numbers, found = {}, []
    for a in sorted(A.generators, key=lambda g: g.name + "*"):
        numbers[a.name] = mine = [None] * len(S.names)
        prefix, unit = a.name + "*", _D_ID[idem_token(side, a.occupancy)]
        for x, name in enumerate(S.names):
            if consumed[x] == unit:
                mine[x] = len(found)
                found.append((prefix + name, a.name, x))
    if any("*" in a for a in numbers):  # "p*q*x" sorts between "p*a" and "p*z"
        found.sort()
        for k, (_, a, x) in enumerate(found):
            numbers[a][x] = k
    return found, numbers


def _walk(A: AModule, S, where: str, consumed, side):
    """(found, rows) of A boxed with the DD or D structure S on side:
    found as ``_products`` gives it for the consumed-side unit labels
    consumed[x] of S's generators, and per product generator the sorted
    (label id, target number) of its arrows, each label the residual
    product of a path, which starts as its first step's residual.

    Each product generator's first step is taken inline: an idempotent
    step appends its arrow to the row, a chord step enters A's tree, and
    only paths that continue go on the stack, where idempotent steps are
    dropped (strict unitality).  Most products never leave the first step.
    The idempotent steps of a*x come in sorted order and distinct, for
    three reasons: coherence fixes x's consumed-side token, and label ids
    sort by (residual, consumed token); for a fixed module generator,
    product numbers increase with x; and S's rows are sorted and never
    repeat a step.  Chord paths that land are kept apart, in hits; only
    a row with hits is summed mod 2 with them in a set and sorted again.

    A chord step lands on a generator whose consumed-side idempotent is
    the chord's right idempotent (S is coherent), which is the occupancy
    of every target of the chord's tree node (``AModule`` checks it), so
    each target pairs with the generator landed on.

    A path counts its steps in a row around a loop (a node that is its own
    child); its states there, a generator of S and a residual label, have
    repeated after len(S.names) * _NLABELS steps, so the walk raises."""
    tree, steps = A.tree, S.steps
    found, numbers = _products(A, S, consumed, side)
    step_of, mul = _STEP, _MUL
    laps = len(S.names) * _NLABELS  # loop steps that must repeat a state
    # (residual product so far, tree node of the chords so far, current
    # generator, loop steps in a row) of each path that continues; empty
    # between sources
    stack, rows = [], []
    push, pop = stack.append, stack.pop
    for name, a, start in found:
        mine, children = numbers[a], tree[a]
        row, hits = [], []  # (label, target) of idempotent steps; of landed chord paths
        for label, nxt in steps[start]:
            chord, rest = step_of[label]
            if chord is None:
                row.append((rest, mine[nxt]))
                continue
            node = children.get(chord)
            if node is None:
                continue
            for tgt in node[0]:
                hits.append((rest, numbers[tgt][nxt]))
            if node[1]:
                push((rest, node, nxt, 0))
        while stack:
            prod, here, at, run = pop()
            prods, children = mul[prod], here[1]
            for label, nxt in steps[at]:
                chord, rest = step_of[label]
                if chord is None:
                    continue
                nprod = prods[rest]
                if nprod is None:
                    continue
                node = children.get(chord)
                if node is None:
                    continue
                for tgt in node[0]:
                    hits.append((nprod, numbers[tgt][nxt]))
                if node is not here:
                    if node[1]:
                        push((nprod, node, nxt, 0))
                elif run == laps:
                    raise ValueError(f"unbounded pairing: {where} from {name!r} loops on chord {chord}")
                else:
                    push((nprod, node, nxt, run + 1))
        if hits:  # each arrow is toggled: a sum mod 2
            odd = set(row)
            for hit in hits:
                if hit in odd:
                    odd.remove(hit)
                else:
                    odd.add(hit)
            row = sorted(odd)
        rows.append(row)
    return found, rows


def box_right(A: AModule, S: DDStructure, cfg: PairingConfig | None = None) -> DStructure:
    """Type-D structure of (A over the right algebra) box (S)."""
    if cfg is not None and cfg.side != "right":
        raise ValueError("box_right consumes the right algebra")
    if not isinstance(S, DDStructure):
        raise ValueError(f"box_right needs a DDStructure, got {type(S).__name__}")
    codes = S.codes  # the unit labels (l, r): r is consumed, (l,) is left
    found, rows = _walk(A, S, "box_right", [_D_ID[_LABELS[c][1]] for c in codes], "right")
    left = tuple(_STEP[codes[x]][1] for _, _, x in found)
    return DStructure._from_rows(tuple(name for name, _, _ in found), left, rows, "left")


def box_left(A: AModule, S: DStructure, cfg: PairingConfig | None = None) -> ChainComplexF2:
    """F2 chain complex of (A over the remaining algebra) box (S)."""
    if cfg is not None and cfg.side != "left":
        raise ValueError("box_left consumes the left algebra")
    if not isinstance(S, DStructure) or S.side != "left":
        got = f"side {S.side!r}" if isinstance(S, DStructure) else type(S).__name__
        raise ValueError(f"box_left needs a DStructure over the left algebra, got {got}")
    found, rows = _walk(A, S, "box_left", S.codes, "left")
    return ChainComplexF2._from_rows(tuple(name for name, _, _ in found), (_BARE,) * len(rows), rows)


def homology_rank(C: ChainComplexF2) -> int:
    """dim - 2 rank(boundary), by exact elimination over F2."""
    if not isinstance(C, ChainComplexF2):
        raise ValueError(f"homology_rank needs a ChainComplexF2, got {type(C).__name__}")
    # rows[g]: the boundary of generator g as a bitset over generator numbers
    rows = []
    for steps in C.steps:
        row = 0
        for _, t in steps:
            row ^= 1 << t
        rows.append(row)
    # d squared vanishes on g when the rows of its boundary sum to zero
    for steps in C.steps:
        row = 0
        for _, t in steps:
            row ^= rows[t]
        if row:
            first = check_complex(C).lines[0]
            raise ValueError(f"boundary does not square to zero: {first}")
    # echelon basis of the boundary's row space, one row per leading bit;
    # each row is reduced against it and joins it if anything is left
    pivots = {}
    for row in rows:
        while row:
            top = row.bit_length() - 1
            if top not in pivots:
                pivots[top] = row
                break
            row ^= pivots[top]
    return len(rows) - 2 * len(pivots)
