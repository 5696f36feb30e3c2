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
nothing.  Finiteness comes from pruning on zero residual products and
on sequences that leave the table's prefix tree, so no path is longer
than the module's longest operation; a path cap below that is rejected.
"""

import math
from dataclasses import dataclass

from .algebra import _CHORD_INTERVAL, _PRODUCT, idem_token
from .structures import (
    _LABEL,
    AModule,
    ChainComplexF2,
    DGenerator,
    DStructure,
    DDStructure,
    _toggle,
    check_complex,
)

# interned label -> (chord interval of its last, consumed-side token, or
# None for an idempotent; the left token of a DD label (l, r), or None)
_STEP = {
    label: (_CHORD_INTERVAL.get(label[-1]), label[0] if len(label) == 2 else None)
    for label in _LABEL
    if label
}

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


def _op_lookup(module: AModule):
    table = module.table
    prefixes = set()
    for src, seq in table:
        for k in range(1, len(seq)):
            prefixes.add((src, seq[:k]))
    return table, prefixes


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


def _pair_names(A: AModule, pairs):
    """{module generator: {generator of S: 'a*d'}} over the (a, d) pairs,
    so each product name is formatted once."""
    named = {a.name: {} for a in A.generators}
    for a, d in pairs:
        named[a][d.name] = f"{a}*{d.name}"
    return named


def _landing(named, tgt, nxt):
    """The product generator tgt*nxt, or a ValueError if they do not pair."""
    out = named[tgt].get(nxt)
    if out is None:
        raise ValueError(
            f"idempotent mismatch in inputs: operation lands on"
            f" {tgt!r} which does not pair with {nxt!r}"
        )
    return out


def box_right(A: AModule, S: DDStructure, cfg: PairingConfig | None = None) -> DStructure:
    """Type-D structure of (A over the right algebra) box (S)."""
    cfg = cfg or PairingConfig("right")
    if cfg.side != "right":
        raise ValueError("box_right consumes the right algebra")
    _check_cap(cfg, A)
    table, prefixes = _op_lookup(A)
    horizon = math.inf if A.capped_arity is None else A.capped_arity
    pairs = [
        (a.name, d)
        for a in A.generators
        for d in S.generators
        if a.occupancy == d.right
    ]
    named = _pair_names(A, pairs)
    gens = tuple(DGenerator(named[a][d.name], d.left) for a, d in pairs)
    parity = set()
    for a, d in pairs:
        mine = named[a]
        source = mine[d.name]
        # (label product so far, chord sequence so far, current generator)
        stack = [(idem_token("left", d.left), (), d.name)]
        while stack:
            prod, seq, at = stack.pop()
            row = _PRODUCT[prod]
            for label, nxt in S.out[at]:
                chord, l = _STEP[label]
                if chord is None:
                    if not seq:
                        _toggle(parity, (source, l, mine[nxt]))
                    continue
                nprod = row[l]
                if nprod is None:
                    continue
                nseq = seq + (chord,)
                if len(nseq) >= horizon:
                    _guard_path(A, "box_right", source, nseq)
                key = (a, nseq)
                if key in table:
                    for tgt in table[key]:
                        _toggle(parity, (source, nprod, _landing(named, tgt, nxt)))
                if key in prefixes:
                    stack.append((nprod, nseq, nxt))
    return DStructure("left", gens, frozenset(parity))


def box_left(A: AModule, S: DStructure, cfg: PairingConfig | None = None) -> ChainComplexF2:
    """F2 chain complex of (A over the remaining algebra) box (S)."""
    cfg = cfg or PairingConfig("left")
    if cfg.side != "left":
        raise ValueError("box_left consumes the left algebra")
    _check_cap(cfg, A)
    table, prefixes = _op_lookup(A)
    horizon = math.inf if A.capped_arity is None else A.capped_arity
    pairs = [
        (a.name, d) for a in A.generators for d in S.generators if a.occupancy == d.idem
    ]
    named = _pair_names(A, pairs)
    gens = tuple(named[a][d.name] for a, d in pairs)
    parity = set()
    for a, d in pairs:
        mine = named[a]
        source = mine[d.name]
        stack = [((), d.name)]
        while stack:
            seq, at = stack.pop()
            for label, nxt in S.out[at]:
                chord = _STEP[label][0]
                if chord is None:
                    if not seq:
                        _toggle(parity, (source, mine[nxt]))
                    continue
                nseq = seq + (chord,)
                if len(nseq) >= horizon:
                    _guard_path(A, "box_left", source, nseq)
                key = (a, nseq)
                if key in table:
                    for tgt in table[key]:
                        _toggle(parity, (source, _landing(named, tgt, nxt)))
                if key in prefixes:
                    stack.append((nseq, nxt))
    return ChainComplexF2(gens, frozenset(parity))


def homology_rank(C: ChainComplexF2) -> int:
    """dim - 2 rank(boundary), by exact elimination over F2."""
    if not check_complex(C):
        raise ValueError("boundary does not square to zero")
    idx = {g: k for k, g in enumerate(C.generators)}
    # echelon basis of the boundary's row space, one row per leading bit;
    # each row is reduced against it and joins it if anything is left
    pivots = {}
    for g in C.generators:
        row = 0
        for _, tgt in C.out[g]:
            row ^= 1 << idx[tgt]
        while row:
            top = row.bit_length() - 1
            if top not in pivots:
                pivots[top] = row
                break
            row ^= pivots[top]
    return len(C.generators) - 2 * len(pivots)
