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

from dataclasses import dataclass

from .algebra import chord_interval, idem_token, is_idempotent, mul_basis
from .structures import (
    AModule,
    ChainComplexF2,
    DGenerator,
    DStructure,
    DDStructure,
    _toggle,
    check_complex,
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
    """Raise PathCapExceeded, naming the path, if seq reaches the family cap."""
    if module.capped_arity is not None and len(seq) >= module.capped_arity:
        raise PathCapExceeded(
            f"module family cap {module.capped_arity} touched (rebuild it with a larger cap)"
            f" during {where} from {source!r} along chords {' '.join(seq)}"
        )


def box_right(A: AModule, S: DDStructure, cfg: PairingConfig | None = None) -> DStructure:
    """Type-D structure of (A over the right algebra) box (S)."""
    cfg = cfg or PairingConfig("right")
    if cfg.side != "right":
        raise ValueError("box_right consumes the right algebra")
    _check_cap(cfg, A)
    table, prefixes = _op_lookup(A)
    occupancy = {g.name: g.occupancy for g in A.generators}
    pairs = [
        (a.name, d)
        for a in A.generators
        for d in S.generators
        if a.occupancy == d.right
    ]
    gens = tuple(DGenerator(f"{a}*{d.name}", d.left) for a, d in pairs)
    known = {g.name for g in gens}
    parity = set()
    for a, d in pairs:
        source = f"{a}*{d.name}"
        # (label product so far, chord sequence so far, current generator)
        stack = [(idem_token("left", d.left), (), d.name)]
        while stack:
            prod, seq, at = stack.pop()
            for (l, r), nxt in S.out[at]:
                if is_idempotent(r):
                    if not seq:
                        _toggle(parity, (source, l, f"{a}*{nxt}"))
                    continue
                nprod = mul_basis(prod, l)
                if nprod is None:
                    continue
                nseq = seq + (chord_interval(r),)
                _guard_path(A, "box_right", source, nseq)
                key = (a, nseq)
                if key in table:
                    for tgt in table[key]:
                        out = f"{tgt}*{nxt}"
                        if out not in known:
                            raise ValueError(
                                f"idempotent mismatch in inputs: operation lands on"
                                f" {tgt!r} which does not pair with {nxt!r}"
                            )
                        _toggle(parity, (source, nprod, out))
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
    pairs = [
        (a.name, d) for a in A.generators for d in S.generators if a.occupancy == d.idem
    ]
    gens = tuple(f"{a}*{d.name}" for a, d in pairs)
    known = set(gens)
    parity = set()
    for a, d in pairs:
        source = f"{a}*{d.name}"
        stack = [((), d.name)]
        while stack:
            seq, at = stack.pop()
            for (t,), nxt in S.out[at]:
                if is_idempotent(t):
                    if not seq:
                        _toggle(parity, (source, f"{a}*{nxt}"))
                    continue
                nseq = seq + (chord_interval(t),)
                _guard_path(A, "box_left", source, nseq)
                key = (a, nseq)
                if key in table:
                    for tgt in table[key]:
                        out = f"{tgt}*{nxt}"
                        if out not in known:
                            raise ValueError(
                                f"idempotent mismatch in inputs: operation lands on"
                                f" {tgt!r} which does not pair with {nxt!r}"
                            )
                        _toggle(parity, (source, out))
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
