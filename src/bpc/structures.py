"""Containers and calculus for type-D/DD structures, A-infinity modules,
morphisms, cancellation, and isomorphism testing.

All structures are immutable labeled directed multigraphs over the torus
algebra.  Arrow labels are basis monomials (a single idempotent or chord
token per side); a label that is a sum of basis elements is stored as
parallel arrows, and arrow sets are kept reduced mod 2.

Each structure, and each morphism's arrow set, has one integer view,
built at construction in the same pass over the arrows that checks
them: generators numbered in sorted name order, labels ((l, r) for DD,
(t,) for D, () for chain complexes) numbered once, in sorted label
order, and ``steps[x]``, the sorted list of (label id, target number) of
the arrows leaving x.  That pass enforces idempotent coherence: an arrow
x ->(t) y can only carry a token whose forced idempotents agree with
those of x and y.  One table gives the id of every nonzero label
product.  The structure equation of a type-DD structure with both
algebra differentials zero says that for every generator pair (x, z)
the mod-2 sum over two-step paths x -> y -> z of the label products
vanishes; the checkers, the morphism differential and composition all
evaluate that sum with one kernel, ``_compose_parity``, which toggles
packed ints and names only the arrows that survive.  ``reduce``,
``isomorphic``, the box products and ``homology_rank`` in
``bpc.pairing`` and ``to_json`` in ``bpc.serialize`` read the same
steps.
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
# (l, r) for DD, (t,) for D and () for complexes; every label has one id,
# its position in sorted label order, so sorting by id sorts by label


_LEFT, _RIGHT = basis_tokens("left"), basis_tokens("right")
_LABELS = tuple(
    sorted([*((l, r) for l in _LEFT for r in _RIGHT), *((t,) for t in _LEFT + _RIGHT), ()])
)
_NLABELS = len(_LABELS)
_LABEL_ID = {label: k for k, label in enumerate(_LABELS)}
_DD_ID = {l: {r: _LABEL_ID[l, r] for r in _RIGHT} for l in _LEFT}  # left -> right -> id
_D_ID = {t: _LABEL_ID[t,] for t in _LEFT + _RIGHT}
_BARE = _LABEL_ID[()]


def _label_products():
    """_MUL[a][b]: the id of label a times label b, or None when the
    product is zero or the labels are of different kinds.  Labels of one
    kind multiply side by side, and a product is nonzero when every
    side's is, so only the nonzero side products are visited."""
    table = [[None] * _NLABELS for _ in _LABELS]
    table[_BARE][_BARE] = _BARE
    nonzero = {t: [(b, p) for b, p in _PRODUCT[t].items() if p] for t in _D_ID}
    for a, products in nonzero.items():
        row = table[_D_ID[a]]
        for b, p in products:
            row[_D_ID[b]] = _D_ID[p]
    for l, right in _DD_ID.items():
        for r, label in right.items():
            row = table[label]
            for b, p in nonzero[l]:
                by_right, product_by_right = _DD_ID[b], _DD_ID[p]
                for c, q in nonzero[r]:
                    row[by_right[c]] = product_by_right[q]
    return table


_MUL = _label_products()
# _IS_UNIT[a]: every token of label a is an idempotent (so () is a unit)
_IS_UNIT = tuple(all(map(is_idempotent, label)) for label in _LABELS)

# sides of a label's tokens -> {label: (source idempotents, target
# idempotents)}: an arrow x -(label)-> y over those sides is coherent
# exactly when the pair equals (idems[x], idems[y])
_LABEL_ENDS = {}
for _label in _LABELS:
    _LABEL_ENDS.setdefault(tuple(map(side_of, _label)), {})[_label] = (
        tuple(map(token_left_idem, _label)),
        tuple(map(token_right_idem, _label)),
    )
del _label
_IDEM_PAIRS = ((1, 1), (1, 2), (2, 1), (2, 2))


def _code(idems):
    """One int per idempotent tuple: 2 * a + b for DD (a, b), a for D (a,)."""
    code = 0
    for e in idems:
        code = 2 * code + e
    return code


# sides -> [8 * source code + target code of the arrows each label id may
# carry over those sides, or None for a label of other sides]
_ENDS = {
    sides: [
        8 * _code(ends[label][0]) + _code(ends[label][1]) if label in ends else None
        for label in _LABELS
    ]
    for sides, ends in _LABEL_ENDS.items()
}
# code of an idempotent pair -> the id of the unit label fixing it
_UNIT = {2 * a + b: _DD_ID[idem_token("left", a)][idem_token("right", b)] for a, b in _IDEM_PAIRS}


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
    """Raise unless the generator names are distinct strings, naming the
    first non-string in the given order or else the least repeated name.

    One type-and-set pass settles the common case; the loops only find
    the name for the message.
    """
    if set(map(type, names)) <= {str} and len(set(names)) == len(names):
        return
    for n in names:
        if not isinstance(n, str):
            raise ValueError(f"generator names must be strings, got {n!r}")
    seen = set()
    for n in sorted(names):
        if n in seen:
            raise ValueError(f"duplicate generator name {n!r}")
        seen.add(n)


def _normalize(struct, names):
    """Check the generator names, then sort generators by name so equality
    ignores construction order."""
    _check_unique(names)
    key = (lambda g: g) if isinstance(struct, ChainComplexF2) else (lambda g: g.name)
    object.__setattr__(struct, "generators", tuple(sorted(struct.generators, key=key)))
    for attr in ("arrows", "operations"):
        if hasattr(struct, attr):
            object.__setattr__(struct, attr, frozenset(getattr(struct, attr)))


class _Numbered:
    """The integer view, set once at construction: ``names`` (sorted),
    ``index`` ({name: number}), ``codes`` (each generator's idempotent
    code, for DD and D) and ``steps``, per generator the sorted list of
    (label id, target number) of its arrows."""

    def _number(self, names, codes, sides):
        """Set the view; building the steps checks the arrows."""
        index = {name: k for k, name in enumerate(names)}
        self.__dict__.update(names=names, index=index, codes=codes)
        steps = _checked_steps(self.arrows, self, self, sides, "arrow", "on arrow")
        self.__dict__["steps"] = steps


# ---------------------------------------------------------------------------
# type-DD structures


def _check_idems(idems, valid):
    """Raise, naming a generator, unless every value of idems is in valid."""
    if not valid.issuperset(idems.values()):
        name = next(g for g, e in idems.items() if e not in valid)
        raise ValueError(f"generator {name!r} has idempotent index outside {{1, 2}}: {idems[name]}")


def _check_labels(arrow, sides, src_idems, tgt_idems, missing: str, where: str):
    """Raise unless both ends of the DD arrow (x, l, r, y), D arrow
    (x, t, y) or complex arrow (x, y) are in src_idems and tgt_idems and
    each token of its label lies on its side and carries x's idempotent
    on that side to y's."""
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


def _resolve(arrows, source, target, sides):
    """[[(label id, target number)] per generator of source] over the
    arrows (x, *label, y) from source to target, one token per side in
    each label, or None if an endpoint is not a generator or a label does
    not carry x's idempotents to y's.

    One pass resolves each arrow's endpoint numbers and label id, checks
    the idempotent codes against _ENDS and appends the step.
    """
    index, target_index = source.index, target.index
    codes8, target_codes, ends = [8 * c for c in source.codes], target.codes, _ENDS[sides]
    steps = [[] for _ in source.names]
    try:
        if len(sides) == 2:
            ids = _DD_ID
            for s, l, r, t in arrows:
                x, y, a = index[s], target_index[t], ids[l][r]
                if ends[a] != codes8[x] + target_codes[y]:
                    return None
                steps[x].append((a, y))
        elif sides:
            ids = _D_ID
            for s, l, t in arrows:
                x, y, a = index[s], target_index[t], ids[l]
                if ends[a] != codes8[x] + target_codes[y]:
                    return None
                steps[x].append((a, y))
        else:
            for s, t in arrows:
                steps[index[s]].append((_BARE, target_index[t]))
    except KeyError:
        return None
    return steps


def _checked_steps(arrows, source, target, sides, missing: str, where: str):
    """The steps of _resolve, each list sorted.  If _resolve finds a bad
    arrow, the per-arrow loop names the first one with _check_labels,
    and a ValueError is raised even if it names none."""
    steps = _resolve(arrows, source, target, sides)
    if steps is None:
        src_idems, tgt_idems = source.idems, target.idems
        ends = _LABEL_ENDS[sides]
        for arrow in arrows:
            if ends.get(arrow[1:-1]) != (src_idems.get(arrow[0]), tgt_idems.get(arrow[-1])):
                _check_labels(arrow, sides, src_idems, tgt_idems, missing, where)
        raise ValueError("arrow set rejected")
    for row in steps:
        row.sort()
    return steps


@dataclass(frozen=True)
class DDStructure(_Numbered):
    """Generators plus arrows (source, left token, right token, target)."""

    generators: tuple
    arrows: frozenset

    def __post_init__(self):
        _normalize(self, [g.name for g in self.generators])
        _check_idems(self.idems, set(_IDEM_PAIRS))
        gens = self.generators
        self._number(tuple(g.name for g in gens), tuple(2 * g.left + g.right for g in gens), SIDES)

    @cached_property
    def idems(self):
        """{name: (left idempotent, right idempotent)}."""
        return {g.name: (g.left, g.right) for g in self.generators}


@dataclass(frozen=True)
class DStructure(_Numbered):
    """One-sided specialization of DDStructure (single label per arrow)."""

    side: str
    generators: tuple
    arrows: frozenset

    def __post_init__(self):
        if self.side not in SIDES:
            raise ValueError(f"unknown side {self.side!r}")
        _normalize(self, [g.name for g in self.generators])
        _check_idems(self.idems, {(1,), (2,)})
        gens = self.generators
        self._number(tuple(g.name for g in gens), tuple(g.idem for g in gens), (self.side,))

    @cached_property
    def idems(self):
        """{name: (idempotent,)}."""
        return {g.name: (g.idem,) for g in self.generators}


@dataclass(frozen=True)
class ChainComplexF2(_Numbered):
    """Basis plus unlabeled boundary arrows; everything over F2."""

    generators: tuple
    arrows: frozenset

    def __post_init__(self):
        _normalize(self, tuple(self.generators))
        self._number(self.generators, (), ())

    @cached_property
    def idems(self):
        """{name: ()}: complexes carry no idempotents."""
        return {g: () for g in self.generators}


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
        cap = self.capped_arity
        if cap is not None and (type(cap) is not int or cap < 0):  # bool is not int here
            raise ValueError(f"bad capped_arity {cap!r}")
        _normalize(self, [g.name for g in self.generators])
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
        steps = _checked_steps(self.arrows, self.source, self.target, SIDES, "morphism", "on")
        self.__dict__["steps"] = steps  # as DDStructure.steps, targets numbered in the target

    def is_zero(self):
        return not self.arrows


def identity_morphism(M: DDStructure) -> DDMorphism:
    return DDMorphism(M, M, frozenset((x, *_LABELS[_UNIT[c]], x) for x, c in zip(M.names, M.codes)))


# ---------------------------------------------------------------------------
# structure-equation checkers


def _toggle(odd, key):
    """Add key to the set odd, or take it out if it is there: a sum mod 2."""
    if key in odd:
        odd.remove(key)
    else:
        odd.add(key)


def _compose_parity(first, second, nz):
    """The set of packed keys (x * _NLABELS + label) * nz + z summed an
    odd number of times over the two-step paths x -(a)-> y -(b)-> z, the
    first step from the steps first and the second from the steps second,
    whose nz targets z are numbered 0 .. nz - 1, with label = a * b
    nonzero.  Sorted keys run in (x, label, z) order."""
    odd = set()
    add, remove = odd.add, odd.remove
    mul = _MUL
    for x, steps in enumerate(first):
        base = x * _NLABELS
        for a, y in steps:
            after = second[y]
            if not after:  # most of d(F)'s first steps end where F has no arrows
                continue
            row = mul[a]
            for b, z in after:
                p = row[b]
                if p is not None:
                    key = (base + p) * nz + z
                    if key in odd:
                        remove(key)
                    else:
                        add(key)
    return odd


def _unpack(keys, sources, targets):
    """(source name, label, target name) for each packed key, in order."""
    nz = len(targets)
    for key in keys:
        xa, z = divmod(key, nz)
        x, a = divmod(xa, _NLABELS)
        yield sources[x], _LABELS[a], targets[z]


def _line(x, label, z):
    """'x -> z', plus ': ' and the label's tokens joined by '*' if any."""
    return f"{x} -> {z}: {'*'.join(label)}" if label else f"{x} -> {z}"


def _report(odd, names):
    """One line per odd key of a structure's own arrows, sorted by (x, z,
    label)."""
    arrows = sorted(_unpack(odd, names, names), key=lambda k: (k[0], k[2], k[1]))
    lines = tuple(_line(*k) for k in arrows)
    return CheckReport(not lines, lines)


def _check(S):
    return _report(_compose_parity(S.steps, S.steps, len(S.names)), S.names)


def check_dd(S: DDStructure) -> CheckReport:
    """Verify the quadratic structure equation of a type-DD structure."""
    return _check(S)


def check_d(S: DStructure) -> CheckReport:
    """One-sided analogue of check_dd."""
    return _check(S)


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
    return _check(C)


# ---------------------------------------------------------------------------
# morphism calculus


def _require_same_structure(a: DDStructure, b: DDStructure, what: str):
    if a != b:
        raise ValueError(f"structure mismatch: {what}")


def _d_parity(h: DDMorphism):
    """The packed keys of the arrows of d(h)."""
    nz = len(h.target.names)
    odd = _compose_parity(h.steps, h.target.steps, nz)
    odd ^= _compose_parity(h.source.steps, h.steps, nz)
    return odd


def _morphism(source, target, odd):
    """The DDMorphism source -> target with the arrows of the packed keys."""
    arrows = frozenset((x, *label, z) for x, label, z in _unpack(odd, source.names, target.names))
    return DDMorphism(source, target, arrows)


def d_of_morphism(h: DDMorphism) -> DDMorphism:
    """Differential of a morphism: target-structure arrows after h plus h
    after source-structure arrows, labels multiplied on each side.

    The result is empty exactly when h is a chain map.
    """
    return _morphism(h.source, h.target, _d_parity(h))


def compose(g: DDMorphism, f: DDMorphism) -> DDMorphism:
    """Composite g after f; f feeds into g."""
    _require_same_structure(g.source, f.target, "compose(g, f) needs f: M->N, g: N->P")
    return _morphism(f.source, g.target, _compose_parity(f.steps, g.steps, len(g.target.names)))


def _identity(M: DDStructure):
    """The packed keys of the identity of M."""
    n = len(M.names)
    return {(x * _NLABELS + _UNIT[c]) * n + x for x, c in enumerate(M.codes)}


def verify_homotopy(F: DDMorphism, G: DDMorphism, H: DDMorphism) -> CheckReport:
    """Check that F, G are inverse chain maps up to the homotopy H.

    Identities verified: d(F) = 0, d(G) = 0, F o G = id on the small
    structure, and G o F + id = d(H) on the big one.  Each side is a set
    of packed arrow keys from _compose_parity, and the arrows of each sum
    that survive mod 2 are reported in sorted (x, label, z) order.
    """
    M, N = F.source, F.target
    _require_same_structure(G.source, N, "G must map the small structure back")
    _require_same_structure(G.target, M, "G must land in the big structure")
    _require_same_structure(H.source, M, "H must be a self-morphism of the big one")
    _require_same_structure(H.target, M, "H must be a self-morphism of the big one")
    # (tag, key set, source, target), each set empty exactly when its
    # identity holds; F o G is G then F, G o F is F then G
    f_g = _compose_parity(G.steps, F.steps, len(N.names)) ^ _identity(N)
    g_f = _compose_parity(F.steps, G.steps, len(M.names)) ^ _identity(M) ^ _d_parity(H)
    surviving = (
        ("F not a chain map", _d_parity(F), M, N),
        ("G not a chain map", _d_parity(G), N, M),
        ("F o G differs from identity", f_g, N, N),
        ("G o F + id differs from d(H)", g_f, M, M),
    )
    lines = tuple(
        f"{tag}: {_line(*arrow)}"
        for tag, keys, source, target in surviving
        for arrow in _unpack(sorted(keys), source.names, target.names)
    )
    return CheckReport(not lines, lines)


# ---------------------------------------------------------------------------
# cancellation


_KINDS = {DDStructure: "DD", DStructure: "D", ChainComplexF2: "complex"}


def _kind(S):
    """'DD', 'D' or 'complex': the kinds reduce and isomorphic accept."""
    if type(S) not in _KINDS:
        raise ValueError(f"cannot reduce a {type(S).__name__}")
    return _KINDS[type(S)]


def _rebuild(S, names, arrows):
    """S with the named generators and the (source, label, target) arrows."""
    keep = tuple(g for g, name in zip(S.generators, S.names) if name in names)
    return replace(S, generators=keep, arrows=frozenset((s, *label, t) for s, label, t in arrows))


_DIGITS = re.compile(r"(\d+)")


def _natural_key(name):
    """Name sort key comparing embedded integers numerically: the split
    puts text at even positions and decimal runs at odd ones."""
    parts = _DIGITS.split(name)
    parts[1::2] = map(int, parts[1::2])
    return tuple(parts)


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

    Arrows live in per-generator adjacency sets over generator numbers
    and label ids, and the non-loop unit arrows in one sorted index of
    ints that order as (natural key of x, of y, x, y), so cancelling
    x -> y costs one toggle per arrow at x or y plus in(y) * out(x)
    fill-in toggles, each a set update and, for a unit arrow, a bisect
    into the index; nothing rescans or re-sorts the whole arrow set.
    """
    _kind(S)
    names, steps = S.names, S.steps
    n = len(names)
    # dense ranks of the natural keys, equal keys sharing one; generator
    # numbers already run in name order
    keys = [_natural_key(g) for g in names]
    rank_of = {key: r for r, key in enumerate(sorted(set(keys)))}
    rank = [rank_of[key] for key in keys]
    unit, mul = _IS_UNIT, _MUL

    def indexed(s, t):
        return ((rank[s] * n + rank[t]) * n + s) * n + t

    out = [set(row) for row in steps]  # g -> {(label, target)}
    into = [set() for _ in range(n)]  # g -> {(source, label)}
    for s, row in enumerate(steps):
        for a, t in row:
            into[t].add((s, a))
    units = sorted(
        indexed(s, t) for s, row in enumerate(steps) for a, t in row if s != t and unit[a]
    )

    def toggle(s, a, t):
        step = (a, t)
        if step in out[s]:
            out[s].discard(step)
            into[t].discard((s, a))
            if s != t and unit[a]:
                del units[bisect.bisect_left(units, indexed(s, t))]
        else:
            out[s].add(step)
            into[t].add((s, a))
            if s != t and unit[a]:
                bisect.insort(units, indexed(s, t))

    while units:
        key = units[-1] if rng is None else units[rng.randrange(len(units))]
        x, y = key // n % n, key % n
        ins = [(w, a) for w, a in into[y] if w != x and w != y]
        outs = [(a, z) for a, z in out[x] if z != x and z != y]
        detached = {(g, a, t) for g in (x, y) for a, t in out[g]}
        detached.update((s, a, g) for g in (x, y) for s, a in into[g])
        for arrow in detached:
            toggle(*arrow)
        out[x] = out[y] = into[x] = into[y] = None
        for w, l1 in ins:
            row = mul[l1]
            for l2, z in outs:
                p = row[l2]
                if p is not None:
                    toggle(w, p, z)
    alive = [g for g in range(n) if out[g] is not None]
    arrows = ((names[s], _LABELS[a], names[t]) for s in alive for a, t in out[s])
    return _rebuild(S, {names[g] for g in alive}, arrows)


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
    kind1, kind2 = _kind(S1), _kind(S2)
    if kind1 != kind2:
        raise ValueError(f"cannot compare {kind1} with {kind2}")
    if isinstance(S1, DStructure) and S1.side != S2.side:
        raise ValueError("cannot compare D structures over different algebras")
    k = len(S1.names)
    if k != len(S2.names) or len(S1.arrows) != len(S2.arrows):
        return None

    # side 1 keeps its generator numbers, side 2's are shifted by k
    names = [*S1.names, *S2.names]
    edges1 = {(s, label, t) for s, row in enumerate(S1.steps) for label, t in row}
    edges2 = {(s + k, label, t + k) for s, row in enumerate(S2.steps) for label, t in row}

    # adj[v]: (direction-tagged label * n, neighbour); adding the
    # neighbour's colour (< n) packs (label, colour) into one int
    n = 2 * k
    adj = [[] for _ in range(n)]
    loops = [[] for _ in range(n)]
    for s, label, t in edges1 | edges2:
        adj[s].append((label * n, t))
        adj[t].append(((_NLABELS + label) * n, s))
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
        for v, a in enumerate([*S1.idems.values(), *S2.idems.values()])
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
