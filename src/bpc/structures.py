"""Containers and calculus for type-D/DD structures, A-infinity modules,
morphisms, cancellation, and isomorphism testing.

All structures are immutable labeled directed multigraphs over the torus
algebra.  Arrow labels are basis monomials (a single idempotent or chord
token per side); a label that is a sum of basis elements is stored as
parallel arrows, and arrow sets are kept reduced mod 2.  Idempotent
coherence is enforced at construction: an arrow x ->(t) y can only carry
a token whose forced idempotents agree with those of x and y.

The structure equation for a type-DD structure with both algebra
differentials zero reads: for every ordered generator pair (x, z), the
mod-2 sum over two-step paths x -> y -> z of the componentwise label
products vanishes.  check_dd/check_d verify exactly that.
"""

import bisect
import random
import re
from dataclasses import dataclass
from functools import cached_property

from .algebra import (
    INTERVALS,
    chord_factorizations,
    idem_token,
    is_idempotent,
    left_idem,
    mul_basis,
    mul_interval,
    right_idem,
    side_of,
    token_left_idem,
    token_right_idem,
)


@dataclass(frozen=True)
class CheckReport:
    """Outcome of a structure-equation check; one violation per line."""

    ok: bool
    lines: tuple = ()

    def __bool__(self):
        return self.ok

    def text(self) -> str:
        return "\n".join(self.lines)


# ---------------------------------------------------------------------------
# generators


@dataclass(frozen=True)
class DDGenerator:
    name: str
    left: int  # iota index, 1 or 2
    right: int  # j index, 1 or 2


@dataclass(frozen=True)
class DGenerator:
    name: str
    idem: int


@dataclass(frozen=True)
class AGenerator:
    name: str
    occupancy: int  # idempotent class this generator pairs with


def _check_unique(names):
    seen = set()
    for n in names:
        if n in seen:
            raise ValueError(f"duplicate generator name {n!r}")
        seen.add(n)


def _normalize(struct):
    """Sort generators by name so equality ignores construction order."""
    key = (lambda g: g) if isinstance(struct, ChainComplexF2) else (lambda g: g.name)
    object.__setattr__(struct, "generators", tuple(sorted(struct.generators, key=key)))
    for attr in ("arrows", "operations"):
        if hasattr(struct, attr):
            object.__setattr__(struct, attr, frozenset(getattr(struct, attr)))


# ---------------------------------------------------------------------------
# type-DD structures


def _check_labels(arrow, x: DDGenerator, y: DDGenerator, where: str):
    """Raise unless arrow x -> y has a left and a right label, each
    carrying x's idempotent on its side to y's."""
    _, l, r, _ = arrow
    if side_of(l) != "left" or side_of(r) != "right":
        raise ValueError(f"arrow labels on wrong sides: {arrow}")
    if token_left_idem(l) != x.left or token_right_idem(l) != y.left:
        raise ValueError(f"left label incoherent {where} {arrow}")
    if token_left_idem(r) != x.right or token_right_idem(r) != y.right:
        raise ValueError(f"right label incoherent {where} {arrow}")


@dataclass(frozen=True)
class DDStructure:
    """Generators plus arrows (source, left token, right token, target)."""

    generators: tuple
    arrows: frozenset

    def __post_init__(self):
        _normalize(self)
        _check_unique(g.name for g in self.generators)
        by_name = {g.name: g for g in self.generators}
        for arrow in self.arrows:
            src, _, _, tgt = arrow
            if src not in by_name or tgt not in by_name:
                raise ValueError(f"arrow endpoint missing: {arrow}")
            _check_labels(arrow, by_name[src], by_name[tgt], "on arrow")

    @cached_property
    def by_name(self):
        return {g.name: g for g in self.generators}

    @cached_property
    def arrows_from(self):
        out = {g.name: [] for g in self.generators}
        for src, l, r, tgt in sorted(self.arrows):
            out[src].append((l, r, tgt))
        return out

    def generator_names(self):
        return tuple(g.name for g in self.generators)


@dataclass(frozen=True)
class DStructure:
    """One-sided specialization of DDStructure (single label per arrow)."""

    side: str
    generators: tuple
    arrows: frozenset

    def __post_init__(self):
        _normalize(self)
        _check_unique(g.name for g in self.generators)
        by_name = {g.name: g for g in self.generators}
        for src, t, tgt in self.arrows:
            if src not in by_name or tgt not in by_name:
                raise ValueError(f"arrow endpoint missing: {(src, t, tgt)}")
            if side_of(t) != self.side:
                raise ValueError(f"label {t!r} not on side {self.side!r}")
            if token_left_idem(t) != by_name[src].idem:
                raise ValueError(f"label incoherent on arrow {(src, t, tgt)}")
            if token_right_idem(t) != by_name[tgt].idem:
                raise ValueError(f"label incoherent on arrow {(src, t, tgt)}")

    @cached_property
    def by_name(self):
        return {g.name: g for g in self.generators}

    def generator_names(self):
        return tuple(g.name for g in self.generators)


@dataclass(frozen=True)
class ChainComplexF2:
    """Basis plus unlabeled boundary arrows; everything over F2."""

    generators: tuple
    arrows: frozenset

    def __post_init__(self):
        _normalize(self)
        _check_unique(self.generators)
        gens = set(self.generators)
        for src, tgt in self.arrows:
            if src not in gens or tgt not in gens:
                raise ValueError(f"arrow endpoint missing: {(src, tgt)}")

    def generator_names(self):
        return tuple(self.generators)


@dataclass(frozen=True)
class AModule:
    """Right A-infinity module given by a finite operation table.

    Operations are (source, chord sequence, target) with side-agnostic
    interval labels; the attachment side is chosen at pairing time.  A
    table obtained by truncating a parametric family records the arity
    horizon in ``capped_arity`` so pairing can detect unreliable runs.
    """

    generators: tuple
    operations: frozenset
    capped_arity: int | None = None

    def __post_init__(self):
        _normalize(self)
        _check_unique(g.name for g in self.generators)
        occ = {g.name: g.occupancy for g in self.generators}
        for src, seq, tgt in self.operations:
            if src not in occ or tgt not in occ:
                raise ValueError(f"operation endpoint missing: {(src, seq, tgt)}")
            if not seq:
                raise ValueError("operations need at least one chord")
            for c in seq:
                if c not in INTERVALS:
                    raise ValueError(f"unknown chord interval {c!r}")
            if left_idem(seq[0]) != occ[src]:
                raise ValueError(f"sequence not composable with source: {(src, seq)}")
            for a, b in zip(seq, seq[1:]):
                if right_idem(a) != left_idem(b):
                    raise ValueError(f"sequence not internally composable: {seq}")

    @cached_property
    def table(self):
        out = {}
        for src, seq, tgt in sorted(self.operations):
            out.setdefault((src, seq), []).append(tgt)
        return out

    @cached_property
    def max_arity(self):
        return max((len(seq) for _, seq, _ in self.operations), default=0)

    def generator_names(self):
        return tuple(g.name for g in self.generators)


@dataclass(frozen=True)
class DDMorphism:
    """Arrow collection between two DD structures over the same algebras."""

    source: DDStructure
    target: DDStructure
    arrows: frozenset

    def __post_init__(self):
        src_gens = self.source.by_name
        tgt_gens = self.target.by_name
        for arrow in self.arrows:
            src, _, _, tgt = arrow
            if src not in src_gens or tgt not in tgt_gens:
                raise ValueError(f"morphism endpoint missing: {arrow}")
            _check_labels(arrow, src_gens[src], tgt_gens[tgt], "on")

    def is_zero(self):
        return not self.arrows


def identity_morphism(M: DDStructure) -> DDMorphism:
    arrows = frozenset(
        (g.name, idem_token("left", g.left), idem_token("right", g.right), g.name)
        for g in M.generators
    )
    return DDMorphism(M, M, arrows)


def zero_morphism(M: DDStructure, N: DDStructure) -> DDMorphism:
    return DDMorphism(M, N, frozenset())


# ---------------------------------------------------------------------------
# structure-equation checkers


def _toggle(parity, key):
    parity[key] = not parity.get(key, False)


def check_dd(S: DDStructure) -> CheckReport:
    """Verify the quadratic structure equation of a type-DD structure."""
    parity = {}
    for x, l1, r1, y in S.arrows:
        for l2, r2, z in S.arrows_from[y]:
            lp = mul_basis(l1, l2)
            if lp is None:
                continue
            rp = mul_basis(r1, r2)
            if rp is None:
                continue
            _toggle(parity, (x, z, lp, rp))
    bad = sorted(k for k, odd in parity.items() if odd)
    lines = tuple(f"{x} -> {z}: {lp}*{rp}" for x, z, lp, rp in bad)
    return CheckReport(not lines, lines)


def check_d(S: DStructure) -> CheckReport:
    """One-sided analogue of check_dd."""
    outgoing = {}
    for src, t, tgt in sorted(S.arrows):
        outgoing.setdefault(src, []).append((t, tgt))
    parity = {}
    for x, t1, y in S.arrows:
        for t2, z in outgoing.get(y, ()):
            p = mul_basis(t1, t2)
            if p is not None:
                _toggle(parity, (x, z, p))
    bad = sorted(k for k, odd in parity.items() if odd)
    lines = tuple(f"{x} -> {z}: {p}" for x, z, p in bad)
    return CheckReport(not lines, lines)


def check_a(M: AModule, cap: int | None = None) -> CheckReport:
    """Verify the A-infinity module relation on refined input sequences.

    A relation instance has a nonzero mu_2 term only when its sequence
    arises from a table operation by factoring one composite chord into
    its two pieces; those refined sequences are exactly the instances a
    finite table must balance.  For every such (generator, sequence) up
    to the cap, the sum over splits m(m(x, a_1..a_i), a_{i+1}..a_k) plus
    the sum over adjacent contractions m(x, .., mu_2(a_i, a_{i+1}), ..)
    must vanish mod 2.
    """
    if cap is None:
        cap = M.max_arity + 2
    table = M.table
    candidates = set()
    for src, seq, _ in M.operations:
        for pos, c in enumerate(seq):
            for u, v in chord_factorizations(c):
                refined = seq[:pos] + (u, v) + seq[pos + 1 :]
                if len(refined) <= cap:
                    candidates.add((src, refined))
    lines = []
    for x, seq in sorted(candidates):
        parity = {}
        for cut in range(1, len(seq)):
            for mid in table.get((x, seq[:cut]), ()):
                for tgt in table.get((mid, seq[cut:]), ()):
                    _toggle(parity, tgt)
        for pos in range(len(seq) - 1):
            prod = mul_interval(seq[pos], seq[pos + 1])
            if prod is not None:
                contracted = seq[:pos] + (prod,) + seq[pos + 2 :]
                for tgt in table.get((x, contracted), ()):
                    _toggle(parity, tgt)
        odd = sorted(t for t, p in parity.items() if p)
        if odd:
            lines.append(f"{x}: ({','.join(seq)}) -> {'+'.join(odd)}")
    return CheckReport(not lines, tuple(lines))


def check_complex(C: ChainComplexF2) -> CheckReport:
    """Verify that the boundary squares to zero."""
    outgoing = {}
    for src, tgt in sorted(C.arrows):
        outgoing.setdefault(src, []).append(tgt)
    parity = {}
    for x, y in C.arrows:
        for z in outgoing.get(y, ()):
            _toggle(parity, (x, z))
    bad = sorted(k for k, odd in parity.items() if odd)
    return CheckReport(not bad, tuple(f"{x} -> {z}" for x, z in bad))


# ---------------------------------------------------------------------------
# morphism calculus


def _require_same_structure(a: DDStructure, b: DDStructure, what: str):
    if a != b:
        raise ValueError(f"structure mismatch: {what}")


def d_of_morphism(h: DDMorphism) -> DDMorphism:
    """Differential of a morphism: target-structure arrows after h plus h
    after source-structure arrows, labels multiplied on each side.

    The result is empty exactly when h is a chain map.
    """
    parity = {}
    for x, a, b, y in h.arrows:
        for c, d, z in h.target.arrows_from[y]:
            lp, rp = mul_basis(a, c), mul_basis(b, d)
            if lp is not None and rp is not None:
                _toggle(parity, (x, lp, rp, z))
    incoming = {}
    for w, a, b, x in h.source.arrows:
        incoming.setdefault(x, []).append((w, a, b))
    for x, c, d, y in h.arrows:
        for w, a, b in incoming.get(x, ()):
            lp, rp = mul_basis(a, c), mul_basis(b, d)
            if lp is not None and rp is not None:
                _toggle(parity, (w, lp, rp, y))
    arrows = frozenset(k for k, odd in parity.items() if odd)
    return DDMorphism(h.source, h.target, arrows)


def compose(g: DDMorphism, f: DDMorphism) -> DDMorphism:
    """Composite g after f; f feeds into g."""
    _require_same_structure(g.source, f.target, "compose(g, f) needs f: M->N, g: N->P")
    by_source = {}
    for y, c, d, z in g.arrows:
        by_source.setdefault(y, []).append((c, d, z))
    parity = {}
    for x, a, b, y in f.arrows:
        for c, d, z in by_source.get(y, ()):
            lp, rp = mul_basis(a, c), mul_basis(b, d)
            if lp is not None and rp is not None:
                _toggle(parity, (x, lp, rp, z))
    arrows = frozenset(k for k, odd in parity.items() if odd)
    return DDMorphism(f.source, g.target, arrows)


def _morphism_sum(f: DDMorphism, g: DDMorphism) -> DDMorphism:
    _require_same_structure(f.source, g.source, "sum of morphisms")
    _require_same_structure(f.target, g.target, "sum of morphisms")
    return DDMorphism(f.source, f.target, f.arrows ^ g.arrows)


def verify_homotopy(F: DDMorphism, G: DDMorphism, H: DDMorphism) -> CheckReport:
    """Check that F, G are inverse chain maps up to the homotopy H.

    Identities verified: d(F) = 0, d(G) = 0, F o G = id on the small
    structure, and G o F + id = d(H) on the big one.
    """
    M, N = F.source, F.target
    _require_same_structure(G.source, N, "G must map the small structure back")
    _require_same_structure(G.target, M, "G must land in the big structure")
    _require_same_structure(H.source, M, "H must be a self-morphism of the big one")
    _require_same_structure(H.target, M, "H must be a self-morphism of the big one")
    lines = []

    def surviving(tag, morphism):
        for src, l, r, tgt in sorted(morphism.arrows):
            lines.append(f"{tag}: {src} -> {tgt}: {l}*{r}")

    dF = d_of_morphism(F)
    if not dF.is_zero():
        surviving("F not a chain map", dF)
    dG = d_of_morphism(G)
    if not dG.is_zero():
        surviving("G not a chain map", dG)
    fg = _morphism_sum(compose(F, G), identity_morphism(N))
    if not fg.is_zero():
        surviving("F o G differs from identity", fg)
    gf = _morphism_sum(compose(G, F), identity_morphism(M))
    defect = _morphism_sum(gf, d_of_morphism(H))
    if not defect.is_zero():
        surviving("G o F + id differs from d(H)", defect)
    return CheckReport(not lines, tuple(lines))


# ---------------------------------------------------------------------------
# cancellation


def _graph_data(S):
    """Uniform (kind, gens, attrs, arrows, label ops) view of a structure.

    Arrows become (src, label, tgt) with an opaque label tuple; () is the
    trivial label of a chain complex and is its own unit.
    """
    if isinstance(S, DDStructure):
        arrows = {(s, (l, r), t) for s, l, r, t in S.arrows}
        attrs = {g.name: (g.left, g.right) for g in S.generators}

        def mul(u, v):
            lp = mul_basis(u[0], v[0])
            if lp is None:
                return None
            rp = mul_basis(u[1], v[1])
            return None if rp is None else (lp, rp)

        def unit(label):
            return is_idempotent(label[0]) and is_idempotent(label[1])

        return "DD", attrs, arrows, mul, unit
    if isinstance(S, DStructure):
        arrows = {(s, (t,), z) for s, t, z in S.arrows}
        attrs = {g.name: (g.idem,) for g in S.generators}

        def mul(u, v):
            p = mul_basis(u[0], v[0])
            return None if p is None else (p,)

        def unit(label):
            return is_idempotent(label[0])

        return "D", attrs, arrows, mul, unit
    if isinstance(S, ChainComplexF2):
        arrows = {(s, (), t) for s, t in S.arrows}
        attrs = {g: () for g in S.generators}
        return "complex", attrs, arrows, lambda u, v: (), lambda label: True
    raise ValueError(f"cannot reduce a {type(S).__name__}")


def _rebuild(S, names, arrows):
    if isinstance(S, DDStructure):
        keep = tuple(g for g in S.generators if g.name in names)
        return DDStructure(keep, frozenset((s, l[0], l[1], t) for s, l, t in arrows))
    if isinstance(S, DStructure):
        keep = tuple(g for g in S.generators if g.name in names)
        return DStructure(S.side, keep, frozenset((s, l[0], t) for s, l, t in arrows))
    keep = tuple(g for g in S.generators if g in names)
    return ChainComplexF2(keep, frozenset((s, t) for s, l, t in arrows))


def _natural_key(name):
    """Name sort key comparing embedded integers numerically."""
    return tuple(int(p) if p.isdecimal() else p for p in re.split(r"(\d+)", name))


def reduce(S, rng: random.Random | None = None):
    """Cancel unit-labeled arrows until none remain.

    Each step removes one arrow x -> y whose label is a pure idempotent
    (trivial for complexes), deletes both generators, and reroutes every
    composite w -> y, x -> z to w -> z with multiplied labels, mod 2.
    The default order cancels the greatest (source, target) unit arrow
    first, names ordered naturally (embedded integers compared as
    numbers, names with equal natural keys by plain string order), which
    collapses indexed structures from their far corner; passing an rng
    picks uniformly instead.  The homotopy type does not depend on the
    choice.

    Arrows live in per-generator adjacency sets and the non-loop unit
    arrows in one sorted index, so cancelling x -> y costs one toggle per
    arrow at x or y plus in(y) * out(x) fill-in toggles, each a set
    update and, for a unit arrow, a bisect into the index; nothing
    rescans or re-sorts the whole arrow set.
    """
    _, attrs, arrows, mul, unit = _graph_data(S)
    key = {g: _natural_key(g) for g in attrs}
    out = {g: set() for g in attrs}  # g -> {(label, target)}
    into = {g: set() for g in attrs}  # g -> {(source, label)}
    for s, label, t in arrows:
        out[s].add((label, t))
        into[t].add((s, label))
    # non-loop unit arrows, ascending by natural (source, target) order
    units = sorted((key[s], key[t], s, t) for s, label, t in arrows if s != t and unit(label))

    def toggle(s, label, t):
        indexed = s != t and unit(label)
        if (label, t) in out[s]:
            out[s].discard((label, t))
            into[t].discard((s, label))
            if indexed:
                del units[bisect.bisect_left(units, (key[s], key[t], s, t))]
        else:
            out[s].add((label, t))
            into[t].add((s, label))
            if indexed:
                bisect.insort(units, (key[s], key[t], s, t))

    while units:
        _, _, x, y = units[-1] if rng is None else units[rng.randrange(len(units))]
        ins = [(w, label) for w, label in into[y] if w not in (x, y)]
        outs = [(label, z) for label, z in out[x] if z not in (x, y)]
        detached = {(g, label, t) for g in (x, y) for label, t in out[g]}
        detached.update((s, label, g) for g in (x, y) for s, label in into[g])
        for arrow in detached:
            toggle(*arrow)
        for g in (x, y):
            del out[g], into[g]
        for w, l1 in ins:
            for l2, z in outs:
                p = mul(l1, l2)
                if p is not None:
                    toggle(w, p, z)
    return _rebuild(S, out.keys(), {(s, label, t) for s in out for label, t in out[s]})


# ---------------------------------------------------------------------------
# isomorphism


def isomorphic(S1, S2):
    """Label- and idempotent-preserving generator bijection, or None.

    Colour refinement plus individualization (McKay and Piperno,
    "Practical graph isomorphism II", arXiv 1301.1493) on the disjoint
    union of both labeled graphs, generators and labels numbered as ints
    and colour ids shared by the two sides.  A generator starts coloured
    by its idempotents, in/out label multisets and self-loop labels; each
    refinement round recolours it by (colour, sorted (label, neighbour
    colour) over its in- and out-arrows) until the number of colours
    stops growing or every colour holds one generator per side.  A colour
    held unequally by the two sides ends the branch.  A discrete
    colouring forces the bijection, which is checked against the arrow
    sets.  Otherwise the first side-1 generator of the smallest
    non-singleton colour is individualized against each side-2 member on
    an explicit stack, each branch refined when popped.

    A round costs O(V + E log d) for V generators, E arrows and degree d,
    and a refinement at most one round per new colour.  Inputs whose
    refinement settles without branching, such as reduced vs simplified
    models, cost a few rounds; the search tree is exponential only for
    inputs that refinement cannot tell apart, and no recursion is used,
    so size is not limited by the interpreter stack.  Both inputs must
    be the same kind of structure.
    """
    kind1, attrs1, arrows1, _, _ = _graph_data(S1)
    kind2, attrs2, arrows2, _, _ = _graph_data(S2)
    if kind1 != kind2:
        raise ValueError(f"cannot compare {kind1} with {kind2}")
    if isinstance(S1, DStructure) and S1.side != S2.side:
        raise ValueError("cannot compare D structures over different algebras")
    k = len(attrs1)
    if k != len(attrs2) or len(arrows1) != len(arrows2):
        return None

    names = [*attrs1, *attrs2]
    labels = {}

    def numbered(arrows, start):
        number = {g: v for v, g in enumerate(names[start : start + k], start)}
        return {(number[s], labels.setdefault(l, len(labels)), number[t]) for s, l, t in arrows}

    edges1, edges2 = numbered(arrows1, 0), numbered(arrows2, k)

    # adj[v]: (direction-tagged label * n, neighbour); adding the
    # neighbour's colour (< n) packs (label, colour) into one int
    n, nlabels = 2 * k, len(labels)
    adj = [[] for _ in range(n)]
    loops = [[] for _ in range(n)]
    for s, label, t in edges1 | edges2:
        adj[s].append((label * n, t))
        adj[t].append(((nlabels + label) * n, s))
        if s == t:
            loops[s].append(label)

    def refine(colour, count):
        """Refined colouring and its colour count, or None if unbalanced."""
        while True:
            ids = {}
            colour = [
                ids.setdefault(
                    (colour[v], tuple(sorted([tag + colour[w] for tag, w in adj[v]]))), len(ids)
                )
                for v in range(n)
            ]
            if sorted(colour[:k]) != sorted(colour[k:]):
                return None
            if len(ids) == count or len(ids) == k:
                return colour, len(ids)
            count = len(ids)

    # out-tags sort before in-tags, so one sorted tuple holds both label multisets
    ids = {}
    initial = [
        ids.setdefault((a, tuple(sorted(t for t, _ in adj[v])), tuple(sorted(loops[v]))), len(ids))
        for v, a in enumerate([*attrs1.values(), *attrs2.values()])
    ]
    if sorted(initial[:k]) != sorted(initial[k:]):
        return None

    stack = [(initial, len(ids), None, None)]
    while stack:
        colour, count, g, h = stack.pop()
        if g is not None:
            colour = colour.copy()
            colour[g] = colour[h] = count
            count += 1
        refined = refine(colour, count)
        if refined is None:
            continue
        colour, count = refined
        cells = {}
        for v, c in enumerate(colour):
            cells.setdefault(c, []).append(v)
        if count == k:
            image = {v: cells[colour[v]][1] for v in range(k)}
            if all((image[s], label, image[t]) in edges2 for s, label, t in edges1):
                return {names[v]: names[w] for v, w in image.items()}
            continue
        cell = min((c for c in cells.values() if len(c) > 2), key=len)
        for h in reversed(cell[len(cell) // 2 :]):
            stack.append((colour, count, cell[0], h))
    return None
