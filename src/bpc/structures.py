"""Containers and calculus for type-D/DD structures, A-infinity modules,
morphisms, cancellation, and isomorphism testing.

All structures are immutable labeled directed multigraphs over the torus
algebra.  Arrow labels are basis monomials (a single idempotent or chord
token per side); a label that is a sum of basis elements is stored as
parallel arrows, and arrow sets are kept reduced mod 2.  Idempotent
coherence is enforced at construction: an arrow x ->(t) y can only carry
a token whose forced idempotents agree with those of x and y.

Each structure, and each morphism's arrow set, is also one labeled
graph: a cached out-adjacency {source: [(label, target)]} with interned
labels (l, r) for DD, (t,) for D and () for chain complexes.  The
structure equation of a type-DD structure with both algebra
differentials zero says that for every generator pair (x, z) the mod-2
sum over two-step paths x -> y -> z of the label products vanishes; the
checkers, the morphism differential and composition all evaluate that
sum with one kernel, ``_compose_parity``.
"""

import bisect
import random
import re
from dataclasses import dataclass, replace
from functools import cached_property

from .algebra import (
    _PRODUCT,
    INTERVALS,
    SIDES,
    basis_tokens,
    chord_factorizations,
    idem_token,
    is_idempotent,
    left_idem,
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
# labels: an arrow's label is what lies between its source and target,
# (l, r) for DD, (t,) for D and () for complexes; each label is interned
# (one tuple per value), and each kind has one table label -> {label:
# nonzero product} and one set of unit labels


_LEFT, _RIGHT = basis_tokens("left"), basis_tokens("right")
_LABEL = {
    label: label
    for label in [*((l, r) for l in _LEFT for r in _RIGHT), *((t,) for t in _LEFT + _RIGHT), ()]
}
# sides of a label's tokens -> {label: (source idempotents, target
# idempotents)}: an arrow x -(label)-> y over those sides is coherent
# exactly when the pair equals (idems[x], idems[y])
_LABEL_ENDS = {}
for _label in _LABEL:
    _LABEL_ENDS.setdefault(tuple(map(side_of, _label)), {})[_label] = (
        tuple(map(token_left_idem, _label)),
        tuple(map(token_right_idem, _label)),
    )
del _label
_IDEM_PAIRS = ((1, 1), (1, 2), (2, 1), (2, 2))
# every coherent DD arrow as (left token, right token, source code, target
# code), the code of idempotents (a, b) being 2 * a + b
_DD_VALID = frozenset(
    (l, r, 2 * a + b, 2 * c + d) for (l, r), ((a, b), (c, d)) in _LABEL_ENDS[SIDES].items()
)
# idempotent pair -> the unit label fixing it
_UNIT = {e: _LABEL[idem_token("left", e[0]), idem_token("right", e[1])] for e in _IDEM_PAIRS}

_D_PRODUCT = {
    _LABEL[a,]: {_LABEL[b,]: _LABEL[p,] for b, p in _PRODUCT[a].items() if p}
    for a in _LEFT + _RIGHT
}
# a DD product is nonzero when both sides are: 18 x 18 entries
_DD_PRODUCT = {
    _LABEL[l, r]: {
        _LABEL[b + c]: _LABEL[p + q]
        for b, p in _D_PRODUCT[l,].items()
        for c, q in _D_PRODUCT[r,].items()
    }
    for l in _LEFT
    for r in _RIGHT
}
_COMPLEX_PRODUCT = {(): {(): ()}}

_DD_UNITS = {label for label in _DD_PRODUCT if all(map(is_idempotent, label))}
_D_UNITS = {label for label in _D_PRODUCT if is_idempotent(label[0])}
_COMPLEX_UNITS = {()}


def _adjacency(names, arrows, sides):
    """{name: [(label, target)]} over arrows (source, *label, target)
    whose labels carry one token per side, each list sorted, so it runs
    in sorted arrow order."""
    out = {g: [] for g in names}
    if sides == 2:
        for s, l, r, t in arrows:
            out[s].append((_LABEL[l, r], t))
    elif sides == 1:
        for s, a, t in arrows:
            out[s].append((_LABEL[a,], t))
    else:
        for s, t in arrows:
            out[s].append(((), t))
    for steps in out.values():
        steps.sort()
    return out


def _triples(out):
    """The (source, label, target) arrows of an adjacency."""
    return ((s, label, t) for s, steps in out.items() for label, t in steps)


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
    """Raise unless the generator names are distinct strings."""
    seen = set()
    for n in names:
        if not isinstance(n, str):
            raise ValueError(f"generator names must be strings, got {n!r}")
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


def _check_idems(idems, valid):
    """Raise, naming a generator, unless every value of idems is in valid."""
    if not valid.issuperset(idems.values()):
        name = next(g for g, e in idems.items() if e not in valid)
        raise ValueError(f"generator {name!r} has idempotent index outside {{1, 2}}: {idems[name]}")


def _check_labels(arrow, sides, src_idems, tgt_idems, missing: str, where: str):
    """Raise unless both ends of the DD arrow (x, l, r, y), or D arrow
    (x, t, y), are in src_idems and tgt_idems and each token of its label
    lies on its side and carries x's idempotent on that side to y's.

    Constructors test each arrow against _LABEL_ENDS (DD arrows through
    _check_dd_arrows) and call this only on a mismatch, for the precise
    message.
    """
    x, label, y = arrow[0], arrow[1:-1], arrow[-1]
    if x not in src_idems or y not in tgt_idems:
        raise ValueError(f"{missing} endpoint missing: {arrow}")
    x_idems, y_idems = src_idems[x], tgt_idems[y]
    one = len(label) == 1
    for t, side in zip(label, sides):
        if side_of(t) != side:
            if one:
                raise ValueError(f"label {t!r} not on side {side!r}")
            raise ValueError(f"arrow labels on wrong sides: {arrow}")
    for t, side, a, b in zip(label, sides, x_idems, y_idems):
        if token_left_idem(t) != a or token_right_idem(t) != b:
            raise ValueError(f"{'' if one else side + ' '}label incoherent {where} {arrow}")


def _check_dd_arrows(arrows, source, target, missing: str, where: str):
    """Raise, naming an arrow, unless every DD arrow (x, l, r, y) runs
    from a generator of the DD structure source to one of target with
    coherent labels.

    One set of (l, r, code of x, code of y) against _DD_VALID settles the
    common case; only when that fails does the per-arrow loop run, to
    name the first bad arrow with _check_labels.
    """
    src, tgt = source.codes, target.codes
    try:
        if {(l, r, src[x], tgt[y]) for x, l, r, y in arrows} <= _DD_VALID:
            return
    except KeyError:  # an endpoint that is not a generator
        pass
    src_idems, tgt_idems = source.idems, target.idems
    ends = _LABEL_ENDS[SIDES]
    for arrow in arrows:
        x, l, r, y = arrow
        if ends.get((l, r)) != (src_idems.get(x), tgt_idems.get(y)):
            _check_labels(arrow, SIDES, src_idems, tgt_idems, missing, where)


@dataclass(frozen=True)
class DDStructure:
    """Generators plus arrows (source, left token, right token, target)."""

    generators: tuple
    arrows: frozenset

    def __post_init__(self):
        _normalize(self)
        _check_unique(g.name for g in self.generators)
        _check_idems(self.idems, set(_IDEM_PAIRS))
        _check_dd_arrows(self.arrows, self, self, "arrow", "on arrow")

    @cached_property
    def idems(self):
        """{name: (left idempotent, right idempotent)}."""
        return {g.name: (g.left, g.right) for g in self.generators}

    @cached_property
    def codes(self):
        """{name: 2 * left idempotent + right idempotent}."""
        return {g.name: 2 * g.left + g.right for g in self.generators}

    @cached_property
    def out(self):
        """{name: [((l, r), target)]}, each list in sorted arrow order."""
        return _adjacency(self.idems, self.arrows, 2)


@dataclass(frozen=True)
class DStructure:
    """One-sided specialization of DDStructure (single label per arrow)."""

    side: str
    generators: tuple
    arrows: frozenset

    def __post_init__(self):
        _normalize(self)
        _check_unique(g.name for g in self.generators)
        idems, sides = self.idems, (self.side,)
        _check_idems(idems, {(1,), (2,)})
        ends = _LABEL_ENDS.get(sides, {})
        for arrow in self.arrows:
            src, t, tgt = arrow
            if ends.get((t,)) != (idems.get(src), idems.get(tgt)):
                _check_labels(arrow, sides, idems, idems, "arrow", "on arrow")

    @cached_property
    def idems(self):
        """{name: (idempotent,)}."""
        return {g.name: (g.idem,) for g in self.generators}

    @cached_property
    def out(self):
        """{name: [((t,), target)]}, each list in sorted arrow order."""
        return _adjacency(self.idems, self.arrows, 1)


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

    @cached_property
    def idems(self):
        """{name: ()}: complexes carry no idempotents."""
        return {g: () for g in self.generators}

    @cached_property
    def out(self):
        """{name: [((), target)]}, each list in sorted arrow order."""
        return _adjacency(self.generators, self.arrows, 0)


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
        for name, k in occ.items():
            if type(k) is not int:  # True == 1 and 1.0 == 1 would pass the next check
                raise ValueError(f"generator {name!r} has non-integer occupancy {k!r}")
        _check_idems(occ, {1, 2})
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


@dataclass(frozen=True)
class DDMorphism:
    """Arrow collection between two DD structures over the same algebras."""

    source: DDStructure
    target: DDStructure
    arrows: frozenset

    def __post_init__(self):
        _check_dd_arrows(self.arrows, self.source, self.target, "morphism", "on")

    @cached_property
    def out(self):
        """{source name: [((l, r), target)]}, like DDStructure.out."""
        return _adjacency(self.source.idems, self.arrows, 2)

    def is_zero(self):
        return not self.arrows


def _identity(M: DDStructure):
    """The (x, label, x) arrows of the identity of M."""
    return {(g, _UNIT[e], g) for g, e in M.idems.items()}


def identity_morphism(M: DDStructure) -> DDMorphism:
    return DDMorphism(M, M, frozenset((x, *label, x) for x, label, _ in _identity(M)))


# ---------------------------------------------------------------------------
# structure-equation checkers


def _toggle(odd, key):
    """Add key to the set odd, or take it out if it is there: a sum mod 2."""
    if key in odd:
        odd.remove(key)
    else:
        odd.add(key)


def _compose_parity(first_out, second_out, product):
    """The set of (x, label, z) summed an odd number of times over the
    two-step paths x -(a)-> y -(b)-> z, the first step from first_out
    and the second from second_out, with label = a * b nonzero in
    product."""
    odd = set()
    add, remove = odd.add, odd.remove
    for x, steps in first_out.items():
        for a, y in steps:
            row = product[a]
            for b, z in second_out[y]:
                label = row.get(b)
                if label is not None:
                    key = (x, label, z)
                    if key in odd:
                        remove(key)
                    else:
                        add(key)
    return odd


def _line(x, label, z):
    """'x -> z', plus ': ' and the label's tokens joined by '*' if any."""
    return f"{x} -> {z}: {'*'.join(label)}" if label else f"{x} -> {z}"


def _report(odd):
    """One line per odd (x, label, z), sorted by (x, z, label)."""
    lines = tuple(_line(*k) for k in sorted(odd, key=lambda k: (k[0], k[2], k[1])))
    return CheckReport(not lines, lines)


def check_dd(S: DDStructure) -> CheckReport:
    """Verify the quadratic structure equation of a type-DD structure."""
    return _report(_compose_parity(S.out, S.out, _DD_PRODUCT))


def check_d(S: DStructure) -> CheckReport:
    """One-sided analogue of check_dd."""
    return _report(_compose_parity(S.out, S.out, _D_PRODUCT))


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
        parity = set()
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
        odd = sorted(parity)
        if odd:
            lines.append(f"{x}: ({','.join(seq)}) -> {'+'.join(odd)}")
    return CheckReport(not lines, tuple(lines))


def check_complex(C: ChainComplexF2) -> CheckReport:
    """Verify that the boundary squares to zero."""
    return _report(_compose_parity(C.out, C.out, _COMPLEX_PRODUCT))


# ---------------------------------------------------------------------------
# morphism calculus


def _require_same_structure(a: DDStructure, b: DDStructure, what: str):
    if a != b:
        raise ValueError(f"structure mismatch: {what}")


def _d_parity(h: DDMorphism):
    """The (x, label, z) arrows of d(h)."""
    odd = _compose_parity(h.out, h.target.out, _DD_PRODUCT)
    odd ^= _compose_parity(h.source.out, h.out, _DD_PRODUCT)
    return odd


def d_of_morphism(h: DDMorphism) -> DDMorphism:
    """Differential of a morphism: target-structure arrows after h plus h
    after source-structure arrows, labels multiplied on each side.

    The result is empty exactly when h is a chain map.
    """
    return DDMorphism(h.source, h.target, frozenset((x, *label, z) for x, label, z in _d_parity(h)))


def compose(g: DDMorphism, f: DDMorphism) -> DDMorphism:
    """Composite g after f; f feeds into g."""
    _require_same_structure(g.source, f.target, "compose(g, f) needs f: M->N, g: N->P")
    odd = _compose_parity(f.out, g.out, _DD_PRODUCT)
    return DDMorphism(f.source, g.target, frozenset((x, *label, z) for x, label, z in odd))


def verify_homotopy(F: DDMorphism, G: DDMorphism, H: DDMorphism) -> CheckReport:
    """Check that F, G are inverse chain maps up to the homotopy H.

    Identities verified: d(F) = 0, d(G) = 0, F o G = id on the small
    structure, and G o F + id = d(H) on the big one.  Each side is a set
    of (x, label, z) arrows from _compose_parity, and the arrows of each
    sum that survive mod 2 are reported in sorted order.
    """
    M, N = F.source, F.target
    _require_same_structure(G.source, N, "G must map the small structure back")
    _require_same_structure(G.target, M, "G must land in the big structure")
    _require_same_structure(H.source, M, "H must be a self-morphism of the big one")
    _require_same_structure(H.target, M, "H must be a self-morphism of the big one")
    # arrow sets, each empty exactly when its identity holds; F o G is G
    # then F, G o F is F then G
    surviving = (
        ("F not a chain map", _d_parity(F)),
        ("G not a chain map", _d_parity(G)),
        ("F o G differs from identity", _compose_parity(G.out, F.out, _DD_PRODUCT) ^ _identity(N)),
        (
            "G o F + id differs from d(H)",
            _compose_parity(F.out, G.out, _DD_PRODUCT) ^ _identity(M) ^ _d_parity(H),
        ),
    )
    lines = tuple(f"{tag}: {_line(*arrow)}" for tag, arrows in surviving for arrow in sorted(arrows))
    return CheckReport(not lines, lines)


# ---------------------------------------------------------------------------
# cancellation


_KINDS = {
    DDStructure: ("DD", _DD_PRODUCT, _DD_UNITS),
    DStructure: ("D", _D_PRODUCT, _D_UNITS),
    ChainComplexF2: ("complex", _COMPLEX_PRODUCT, _COMPLEX_UNITS),
}


def _graph_data(S):
    """Uniform (kind, idempotents, out-adjacency, product table, unit
    labels) view of a DD or D structure or a chain complex."""
    if type(S) not in _KINDS:
        raise ValueError(f"cannot reduce a {type(S).__name__}")
    kind, product, units = _KINDS[type(S)]
    return kind, S.idems, S.out, product, units


def _rebuild(S, names, arrows):
    """S with the named generators and the (source, label, target) arrows."""
    keep = tuple(g for g, name in zip(S.generators, S.idems) if name in names)
    return replace(S, generators=keep, arrows=frozenset((s, *label, t) for s, label, t in arrows))


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
    _, _, adjacency, product, unit_labels = _graph_data(S)
    key = {g: _natural_key(g) for g in adjacency}
    out = {g: set(steps) for g, steps in adjacency.items()}  # g -> {(label, target)}
    into = {g: set() for g in adjacency}  # g -> {(source, label)}
    for s, label, t in _triples(adjacency):
        into[t].add((s, label))
    # non-loop unit arrows, ascending by natural (source, target) order
    units = sorted(
        (key[s], key[t], s, t)
        for s, label, t in _triples(adjacency)
        if s != t and label in unit_labels
    )

    def toggle(s, label, t):
        indexed = s != t and label in unit_labels
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
            row = product[l1]
            for l2, z in outs:
                p = row.get(l2)
                if p is not None:
                    toggle(w, p, z)
    return _rebuild(S, out, _triples(out))


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
    kind1, attrs1, out1, _, _ = _graph_data(S1)
    kind2, attrs2, out2, _, _ = _graph_data(S2)
    if kind1 != kind2:
        raise ValueError(f"cannot compare {kind1} with {kind2}")
    if isinstance(S1, DStructure) and S1.side != S2.side:
        raise ValueError("cannot compare D structures over different algebras")
    k = len(attrs1)
    if k != len(attrs2) or len(S1.arrows) != len(S2.arrows):
        return None

    names = [*attrs1, *attrs2]
    labels = {}

    def numbered(adjacency, start):
        number = {g: v for v, g in enumerate(names[start : start + k], start)}
        return {
            (number[s], labels.setdefault(l, len(labels)), number[t])
            for s, l, t in _triples(adjacency)
        }

    edges1, edges2 = numbered(out1, 0), numbered(out2, k)

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
