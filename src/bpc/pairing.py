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
nothing.  Both products run this one walk (``_walk``); a box_right
residual is a left label (l,), starting from the left unit, and a
box_left residual is the empty label.  Finiteness comes from pruning on zero residual products and
on sequences that leave the table's prefix tree, so no path is longer
than the module's longest operation; a path cap below that is rejected.
"""

import math
from dataclasses import dataclass

from .algebra import _CHORD_INTERVAL
from .structures import (
    _BARE,
    _LABEL_ID,
    _LABELS,
    _MUL,
    _NLABELS,
    _UNIT,
    AModule,
    ChainComplexF2,
    DStructure,
    DDStructure,
)

# label id -> (chord interval of its last, consumed-side token, or None
# for an idempotent; the id of the residual label left without it: (l,)
# of a DD label (l, r), () of a D label (t,)), and None for the empty label
_STEP = tuple(
    (_CHORD_INTERVAL.get(label[-1]), _LABEL_ID[label[:-1]]) if label else None
    for label in _LABELS
)

DEFAULT_PATH_CAP = 64


@dataclass(frozen=True)
class PairingConfig:
    """Which algebra the module consumes, and the hard path bound."""

    side: str = "right"
    path_cap: int = DEFAULT_PATH_CAP

    def __post_init__(self):
        if self.side not in ("left", "right"):
            raise ValueError(f"unknown side {self.side!r}")


class PathCapExceeded(RuntimeError):
    """Path enumeration hit a cap; the result would be unreliable."""


def _op_trie(module: AModule):
    """{module generator: {chord: (chord sequence, targets, {chord: ...})}}:
    the prefix tree of the module's table, one node per prefix of a
    table sequence, holding the targets of the operation on exactly that
    sequence (none for a proper prefix only) and its children (none for
    a sequence that prefixes no longer one)."""
    trie = {g.name: {} for g in module.generators}
    for (src, seq), targets in module.table.items():
        children = trie[src]
        for k, chord in enumerate(seq, 1):
            node = children.setdefault(chord, (seq[:k], [], {}))
            children = node[2]
        node[1].extend(targets)
    return trie


def _check_cap(cfg: PairingConfig, module: AModule):
    """Reject a path cap below the module's longest operation.

    Paths are extended only along proper prefixes of table sequences, so
    no chord sequence gets longer than max_arity; this check is what
    keeps every path within the cap.
    """
    if cfg.path_cap < module.max_arity:
        raise ValueError(
            f"path cap {cfg.path_cap} is smaller than the longest module operation"
            f" (arity {module.max_arity})"
        )


def _guard_path(module: AModule, where: str, source: str, seq: tuple):
    """Raise PathCapExceeded, naming the path; seq has reached the family cap."""
    raise PathCapExceeded(
        f"module family cap {module.capped_arity} touched (rebuild it with a larger cap)"
        f" during {where} from {source!r} along chords {' '.join(seq)}"
    )


def _products(A: AModule, S, idems):
    """The sorted (name "a*x", a, x) of module generators a and generators
    x of S with a's occupancy equal to idems[x] (a name may hold "*"),
    and {a: [the number of a*x in that order, or None, by x]}."""
    found = sorted(
        [
            (f"{a.name}*{name}", a.name, x)
            for a in A.generators
            for x, name in enumerate(S.names)
            if idems[x] == a.occupancy
        ]
    )
    numbers = {a.name: [None] * len(S.names) for a in A.generators}
    for k, (_, a, x) in enumerate(found):
        numbers[a][x] = k
    return found, numbers


def _walk(A: AModule, S, cfg: PairingConfig, where: str, consumed, units):
    """(found, rows) of A boxed with the DD or D structure S: found as
    ``_products`` gives it for the consumed-side idempotents consumed[x]
    of S's generators, and per product generator the sorted (label id,
    target number) of its arrows, each label the residual product of a
    path, started from the label units[x] of its first generator x."""
    _check_cap(cfg, A)
    trie = _op_trie(A)
    horizon = math.inf if A.capped_arity is None else A.capped_arity
    names, steps = S.names, S.steps
    found, numbers = _products(A, S, consumed)
    m = len(found)
    width = _NLABELS * m
    parity = set()  # packed keys source * width + label * m + target
    add, remove = parity.add, parity.remove  # each arrow is toggled: a sum mod 2
    step_of, mul = _STEP, _MUL
    for source, (name, a, start) in enumerate(found):
        mine = numbers[a]
        base = source * width
        # (residual product so far, chord sequence so far, its trie
        # children, current generator)
        stack = [(units[start], (), trie[a], start)]
        while stack:
            prod, seq, children, at = stack.pop()
            row = mul[prod]
            capped = len(seq) + 1 >= horizon  # one more chord reaches the family cap
            for label, nxt in steps[at]:
                chord, rest = step_of[label]
                if chord is None:
                    if not seq:
                        key = base + rest * m + mine[nxt]
                        if key in parity:
                            remove(key)
                        else:
                            add(key)
                    continue
                nprod = row[rest]
                if nprod is None:
                    continue
                if capped:
                    _guard_path(A, where, name, seq + (chord,))
                node = children.get(chord)
                if node is None:
                    continue
                nseq, targets, grandchildren = node
                lid = base + nprod * m
                for tgt in targets:
                    t = numbers[tgt][nxt]
                    if t is None:
                        raise ValueError(
                            f"idempotent mismatch in inputs: operation lands on"
                            f" {tgt!r} which does not pair with {names[nxt]!r}"
                        )
                    key = lid + t
                    if key in parity:
                        remove(key)
                    else:
                        add(key)
                if grandchildren:
                    stack.append((nprod, nseq, grandchildren, nxt))
    rows = [[] for _ in found]
    for key in sorted(parity):  # in (source, label, target) order
        x, step = divmod(key, width)
        rows[x].append(divmod(step, m))  # (label, target)
    return found, rows


def box_right(A: AModule, S: DDStructure, cfg: PairingConfig | None = None) -> DStructure:
    """Type-D structure of (A over the right algebra) box (S)."""
    cfg = cfg or PairingConfig("right")
    if cfg.side != "right":
        raise ValueError("box_right consumes the right algebra")
    if not isinstance(S, DDStructure):
        raise ValueError(f"box_right needs a DDStructure, got {type(S).__name__}")
    codes = S.codes  # 2 * left + right, right in {1, 2}
    # a path starts from the residual of its first generator's unit label (i, j): (i,)
    units = [_STEP[_UNIT[c]][1] for c in codes]
    found, rows = _walk(A, S, cfg, "box_right", [2 - c % 2 for c in codes], units)
    left = tuple((codes[x] - 1) // 2 for _, _, x in found)
    return DStructure._from_rows(tuple(name for name, _, _ in found), left, rows, "left")


def box_left(A: AModule, S: DStructure, cfg: PairingConfig | None = None) -> ChainComplexF2:
    """F2 chain complex of (A over the remaining algebra) box (S)."""
    cfg = cfg or PairingConfig("left")
    if cfg.side != "left":
        raise ValueError("box_left consumes the left algebra")
    if not isinstance(S, DStructure) or S.side != "left":
        got = f"side {S.side!r}" if isinstance(S, DStructure) else type(S).__name__
        raise ValueError(f"box_left needs a DStructure over the left algebra, got {got}")
    found, rows = _walk(A, S, cfg, "box_left", S.codes, (_BARE,) * len(S.names))
    return ChainComplexF2._from_rows(tuple(name for name, _, _ in found), None, rows)


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
            raise ValueError("boundary does not square to zero")
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
