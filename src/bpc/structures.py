"""Containers and calculus for type-D/DD structures, A-infinity modules,
morphisms, cancellation, and isomorphism testing.

All structures are immutable labeled directed multigraphs over the torus
algebra.  Arrow labels are basis monomials (a single idempotent or chord
token per side); a label that is a sum of basis elements is stored as
parallel arrows, and arrow sets are kept reduced mod 2.

A DD or D structure or a chain complex stores only its numbered view:
``names`` (sorted), ``steps[x]`` (the sorted (label id, target number)
of the arrows leaving x, labels (l, r), (t,) or () numbered in sorted
label order), ``codes`` (each generator's code: the id of the unit
label that fixes it, (i_a, j_b) for DD, (i_a,) or (j_a,) for D and ()
for a complex, so one numbering serves idempotents and labels) and a D
structure's ``side``; a DD morphism stores source, target and steps.
Generators, A-infinity modules and check reports store what they were
built from (a module also its ``tree``); every class is a ``_Frozen``.
``generators``, ``arrows``, ``idems`` and ``index`` are derived on first
read.  One internal constructor takes that view and checks it: distinct
string names, a unit label over the structure's sides as each code, and
every arrow x -(label)-> y starting at x's unit and ending at y's.  Every
internal producer hands it rows: the torus-link builders, the JSON
parser, ``reduce``, the box products and the morphism calculus.  Only
the public constructors, which take named generators and arrows by
design, resolve names into rows (``_resolve``).  Where a producer numbers
names or sorts rows, ``_numbered`` and ``_sorted_rows`` do it.  The
structure equation of a type-DD structure with both algebra
differentials zero says that for every generator pair (x, z) the mod-2
sum over two-step paths x -> y -> z of the label products (one table
gives each nonzero product's id) vanishes.  The checkers, the morphism
differential, composition and ``verify_homotopy`` sum such paths with
one kernel, ``_path_sums``: for a list of compositions, plus the
identity if asked, it walks each source generator's paths, toggles keys
label * nz + z in one small reused set and emits the survivors as that
generator's sorted row.
"""

import bisect
import random
import re
from functools import cached_property
from operator import attrgetter, itemgetter

from .algebra import (
    _PRODUCT,
    INTERVALS,
    SIDES,
    basis_tokens,
    chord_factorizations,
    idem_index,
    idem_token,
    is_idempotent,
    left_idem,
    mul_interval,
    right_idem,
    side_of,
    token_left_idem,
    token_right_idem,
)


class _Frozen:
    """The one immutable base, for structures, morphisms, generators,
    modules, reports and configs: state and cached values go straight into
    __dict__.  A value class's ``__init__`` stores its ``_FIELDS``, which
    are its ``_STATE``; a numbered kind's ``_from_rows(*view)`` stores the
    view through ``_set``, which checks it.  Equality compares ``_STATE``
    within one class, and the hash all but its last entry."""

    @classmethod
    def _from_rows(cls, *view):
        self = object.__new__(cls)
        self._set(*view)
        return self

    def __setattr__(self, name, value=None):
        raise AttributeError(f"cannot assign to field {name!r}")

    __delattr__ = __setattr__

    def __repr__(self):
        fields = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._FIELDS)
        return f"{type(self).__name__}({fields})"

    def __eq__(self, other):
        if self is other:
            return True
        if type(other) is not type(self):
            return NotImplemented
        return all(getattr(self, f) == getattr(other, f) for f in self._STATE)

    def __hash__(self):
        return hash((type(self).__name__, *[getattr(self, f) for f in self._STATE[:-1]]))


class CheckReport(_Frozen):
    """Outcome of a structure-equation check; one violation per line."""

    _FIELDS = _STATE = ("ok", "lines")

    def __init__(self, ok: bool, lines: tuple = ()):
        self.__dict__.update(ok=ok, lines=lines)

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
# unit label id -> its idempotent indices, (a, b), (a,) or ()
_INDICES = {k: tuple(map(idem_index, label)) for k, label in enumerate(_LABELS) if _IS_UNIT[k]}
# sides -> the ids of the unit labels over them: (i_a, j_b), (i_a,), (j_a,)
# or (), the valid codes of a generator of a structure over those sides
_UNITS = {
    sides: frozenset(k for k in _INDICES if tuple(map(side_of, _LABELS[k])) == sides)
    for sides in (SIDES, ("left",), ("right",), ())
}
# code c -> [per label id a: the unit d with c * a * d = a, which fixes the
# target of an arrow labeled a leaving a generator that c fixes, or None if
# c * a != a]: an arrow x -(a)-> y is coherent exactly when
# _ENDS[code(x)][a] == code(y), so never when a is a label of other sides
_ENDS = {
    c: [next(d for d in _INDICES if _MUL[a][d] == a) if _MUL[c][a] == a else None for a in range(_NLABELS)]
    for c in _INDICES
}


# ---------------------------------------------------------------------------
# generators


class DDGenerator(_Frozen):
    _FIELDS = _STATE = ("name", "left", "right")

    def __init__(self, name: str, left: int, right: int):  # iota and j indices, 1 or 2
        self.__dict__.update(name=name, left=left, right=right)


class DGenerator(_Frozen):
    _FIELDS = _STATE = ("name", "idem")

    def __init__(self, name: str, idem: int):
        self.__dict__.update(name=name, idem=idem)


class AGenerator(_Frozen):
    _FIELDS = _STATE = ("name", "occupancy")

    def __init__(self, name: str, occupancy: int):  # the idempotent class it pairs with
        self.__dict__.update(name=name, occupancy=occupancy)


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


_name = attrgetter("name")


def _sorted(generators, key):
    """The generators sorted by name, their names checked first in the
    given order, so names that do not sort raise a ValueError."""
    _check_unique([key(g) for g in generators])
    return tuple(sorted(generators, key=key))


def _outside(name, idems):
    return ValueError(f"generator {name!r} has idempotent index outside {{1, 2}}: {idems}")


def _check_side(side):
    if side not in SIDES:
        raise ValueError(f"unknown side {side!r}")


# ---------------------------------------------------------------------------
# arrows: resolved by name into rows, checked on ints, named on failure


# the arrow of a kind with 2, 1 or 0 sides
_SHAPES = ("(source, target)", "(source, token, target)", "(source, left, right, target)")


def _misshapen(arrows, sides):
    """A ValueError naming the least arrow by repr that is not a tuple of
    the kind's length, or None if every arrow is one."""
    width = len(sides) + 2
    bad = [a for a in arrows if not isinstance(a, tuple) or len(a) != width]
    return ValueError(f"arrow {min(bad, key=repr)!r} is not {_SHAPES[len(sides)]}") if bad else None


def _numbered(named):
    """(names, codes, {name: number}) of the (name, code) pairs named, in
    any order: names sorted, numbers their positions."""
    named.sort()
    names = tuple(name for name, _ in named)
    return names, tuple(code for _, code in named), {name: k for k, name in enumerate(names)}


def _sorted_rows(rows):
    """rows, each sorted in place into (label id, target number) order."""
    for row in rows:
        row.sort()
    return rows


def _resolve(arrows, index, target_index, sides):
    """[sorted [(label id, target number)] per source number] over the
    arrows (x, *label, y), one token per side in each label, x numbered
    by index and y by target_index; None if an endpoint or a token is
    unknown.  Coherence is left to the constructor.  Any arrow that is
    not a tuple of the kind's length raises first (``_misshapen``),
    whatever order the arrows come in."""
    error = _misshapen(arrows, sides)
    if error is not None:
        raise error
    steps = [[] for _ in index]
    try:
        for arrow in arrows:
            steps[index[arrow[0]]].append((_LABEL_ID[arrow[1:-1]], target_index[arrow[-1]]))
    except KeyError:
        return None
    return _sorted_rows(steps)


def _coherent(steps, source, target_codes):
    """Whether each step (a, y) of source generator x has
    _ENDS[source.codes[x]][a] == target_codes[y]; a ValueError unless
    steps holds one row of such index pairs per generator, naming the
    first generator whose row is not and its step (the row itself if it
    does not iterate)."""
    if len(steps) != len(source.names):
        raise ValueError(f"{len(source.names)} generators but {len(steps)} arrow rows")
    ok = True
    for name, c, row in zip(source.names, source.codes, steps):
        ends = _ENDS[c]
        step = row
        try:
            for step in row:
                a, y = step
                if ends[a] != target_codes[y]:
                    ok = False
        except (IndexError, TypeError, ValueError):
            raise ValueError(f"generator {name!r} has malformed step {step!r}") from None
    return ok


def _reject(arrows, sides, src_idems, tgt_idems, missing: str, where: str):
    """Raise a ValueError naming the least faulty arrow by repr (a set's
    order varies from run to run, and names need not sort): a DD arrow
    (x, l, r, y), D arrow (x, t, y) or complex arrow (x, y) with an end
    not in src_idems or tgt_idems, or a token off its side or not carrying
    x's idempotent on that side to y's; a general one if none is named."""
    for arrow in sorted(arrows, key=repr):
        x, label, y = arrow[0], arrow[1:-1], arrow[-1]
        if x not in src_idems or y not in tgt_idems:
            raise ValueError(f"{missing} endpoint missing: {arrow}")
        one = len(label) == 1
        for t, side in zip(label, sides):
            if side_of(t) != side:
                if one:
                    raise ValueError(f"label {t!r} not on side {side!r}")
                raise ValueError(f"arrow labels on wrong sides: {arrow}")
        for t, side, a, b in zip(label, sides, src_idems[x], tgt_idems[y]):
            if token_left_idem(t) != a or token_right_idem(t) != b:
                raise ValueError(f"{'' if one else side + ' '}label incoherent {where} {arrow}")
    raise ValueError("arrow set rejected")


def _arrows(names, steps, target_names):
    """The arrows (source name, *label, target name) of steps."""
    labels = _LABELS
    return frozenset(
        [(s, *labels[a], target_names[t]) for s, row in zip(names, steps) for a, t in row]
    )


# ---------------------------------------------------------------------------
# structures and DD morphisms


class _Numbered(_Frozen):
    """A DD or D structure or a chain complex (see the module docstring
    for what is stored and what derived)."""

    _FIELDS = ("generators", "arrows")
    _STATE = ("side", "names", "codes", "steps")
    side = None

    def _adopt(self, gens, names, arrows, side=None):
        """The public route: code each generator by the unit label at its
        idempotent indices (``_outside`` for the first index that is not
        the int 1 or 2), keep gens and arrows as the derived values,
        resolve the arrows by name and call the internal constructor."""
        sides = self._SIDES if side is None else (side,)
        codes = []
        for g in gens:
            indices = self._IDEMS(g)
            if not all(type(e) is int and e in (1, 2) for e in indices):  # True == 1 == 1.0
                raise _outside(g.name, indices)
            codes.append(_LABEL_ID[tuple(map(idem_token, sides, indices))])
        arrows = frozenset(arrows)
        index = {name: k for k, name in enumerate(names)}
        self.__dict__.update(generators=gens, arrows=arrows, index=index)
        self._set(names, tuple(codes), _resolve(arrows, index, index, sides), side)

    def _set(self, names, codes, steps, side=None):
        """Check and store the view: the side (D), distinct string names,
        a unit label over the structure's sides as each code, then rows
        coherent with the codes."""
        d = self.__dict__
        if self._SIDES is None:
            _check_side(side)
            d["side"] = side
        sides = self._SIDES if side is None else (side,)
        _check_unique(names)
        d.update(names=names, codes=codes, steps=steps)
        if not _UNITS[sides].issuperset(codes):
            name, c = next((x, c) for x, c in zip(names, codes) if c not in _UNITS[sides])
            raise ValueError(f"generator {name!r} has code {c!r}, no unit label over {sides}")
        if steps is None or not _coherent(steps, self, codes):
            _reject(self.arrows, sides, self.idems, self.idems, "arrow", "on arrow")

    @cached_property
    def arrows(self):
        return _arrows(self.names, self.steps, self.names)

    @cached_property
    def index(self):
        """{name: number}."""
        return {name: k for k, name in enumerate(self.names)}

    @cached_property
    def idems(self):
        """{name: idempotent tuple}: (left, right), (idem,) or ()."""
        return {name: _INDICES[c] for name, c in zip(self.names, self.codes)}

    @cached_property
    def generators(self):
        return tuple(self._GENERATOR(x, *_INDICES[c]) for x, c in zip(self.names, self.codes))


class DDStructure(_Numbered):
    """Generators plus arrows (source, left token, right token, target)."""

    _SIDES = SIDES
    _GENERATOR = DDGenerator
    _IDEMS = attrgetter("left", "right")

    def __init__(self, generators, arrows):
        gens = _sorted(generators, _name)
        self._adopt(gens, tuple(map(_name, gens)), arrows)


class DStructure(_Numbered):
    """One-sided specialization of DDStructure (single label per arrow)."""

    _FIELDS = ("side", "generators", "arrows")
    _SIDES = None  # the side is stored
    _GENERATOR = DGenerator
    _IDEMS = staticmethod(lambda g: (g.idem,))

    def __init__(self, side, generators, arrows):
        _check_side(side)
        gens = _sorted(generators, _name)
        self._adopt(gens, tuple(map(_name, gens)), arrows, side)


class ChainComplexF2(_Numbered):
    """Basis plus unlabeled boundary arrows; everything over F2."""

    _SIDES = ()
    _IDEMS = staticmethod(lambda g: ())

    def __init__(self, generators, arrows):
        gens = _sorted(generators, lambda g: g)
        self._adopt(gens, gens, arrows)

    @cached_property
    def generators(self):
        return self.names


# the chord pairs (a, b) that compose: a ends on the arc where b starts
_COMPOSABLE = frozenset((a, b) for a in INTERVALS for b in INTERVALS if right_idem(a) == left_idem(b))
# a written chord -> its interval: c, or c + "*" for c read any number of times
_INTERVAL = {**{c: c for c in INTERVALS}, **{c + "*": c for c in INTERVALS}}


def _read(op, occ):
    """(op's chords with a starred one read once, its index or None); a
    ValueError for the first rule op = (source, chords, target) breaks on
    its own.  The star rules make every reading compose if this one does."""
    src, seq, tgt = op
    if src not in occ or tgt not in occ:
        raise ValueError(f"operation endpoint missing: {op}")
    if type(seq) is not tuple or not seq:  # a string would spell its characters
        raise ValueError(f"operation chords must be a nonempty tuple: {op}")
    chords, star = tuple(map(_INTERVAL.get, seq)), None
    if None in chords:
        raise ValueError(f"unknown chord interval {seq[chords.index(None)]!r}")
    if chords != seq:
        star, *more = [k for k, c in enumerate(seq) if c != chords[k]]
        if more:
            raise ValueError(f"more than one starred chord: {op}")
        if not 0 < star < len(seq) - 1:
            raise ValueError(f"starred chord first or last: {op}")
        if chords[star + 1] == chords[star]:
            raise ValueError(f"starred chord followed by itself: {op}")
        if (chords[star],) * 2 not in _COMPOSABLE:
            raise ValueError(f"starred chord does not compose with itself: {op}")
    if left_idem(chords[0]) != occ[src]:
        raise ValueError(f"sequence not composable with source: {(src, seq)}")
    if right_idem(chords[-1]) != occ[tgt]:
        raise ValueError(f"sequence not composable with target: {(seq, tgt)}")
    if not _COMPOSABLE.issuperset(zip(chords, chords[1:])):
        raise ValueError(f"sequence not internally composable: {seq}")
    return chords, star


def _node(children, chords):
    """The tree node that chords reach from children, made as needed."""
    for c in chords:
        node = children.get(c)
        if node is None:
            node = children[c] = ([], {})
        children = node[1]
    return node


class AModule(_Frozen):
    """Right A-infinity module given by a finite operation table.

    Operations are (source, chord sequence, target) with side-agnostic
    interval labels; the attachment side is chosen at pairing time.  An
    operation's first chord starts at its source's occupancy and its last
    chord ends at its target's, so a box product's paths land on
    generators that pair.  A starred chord, "23*", is that chord zero or
    more times.  An operation has at most one, inside its sequence and
    not followed by itself, and no other operation from its source begins
    with the chords before it: so no two operations spell one sequence.

    ``tree`` indexes the table: {generator: {chord: node}}, a node
    (targets, {chord: node}) for each prefix of an operation's chords,
    holding the targets of the operations spelling exactly it; the node
    the chords before a star reach is its own child on that chord.  A
    faulty table is sorted by repr to name its least faulty operation.
    """

    _FIELDS = _STATE = ("generators", "operations")

    def __init__(self, generators: tuple, operations: frozenset):
        generators, operations = _sorted(generators, _name), frozenset(operations)
        occ = {g.name: g.occupancy for g in generators}
        for name, k in occ.items():
            if type(k) is not int:  # True == 1 and 1.0 == 1 would pass the next check
                raise ValueError(f"generator {name!r} has non-integer occupancy {k!r}")
        for name, k in occ.items():
            if k not in (1, 2):
                raise _outside(name, k)
        tree = {name: {} for name in occ}
        faults, loops = {}, {}  # op -> message; (source, chords before a star) -> ops
        for op in operations:
            try:
                chords, star = _read(op, occ)
            except ValueError as e:
                faults[op] = str(e)
                continue
            src, seq, tgt = op
            node = _node(tree[src], chords[:star])
            if star is not None:
                loops.setdefault((src, seq[:star]), []).append(op)
                node[1][chords[star]] = node
                node = _node(node[1], chords[star + 1 :])
            node[0].append(tgt)
        for op in operations.difference(faults) if loops else ():
            for k in range(1, len(op[1]) + 1):
                owners = loops.get((op[0], op[1][:k]), [op])
                for o in [op, *owners] if owners != [op] else ():
                    faults[o] = f"operations share the chords before a star: {o}"
        if faults:
            raise ValueError(faults[min(faults, key=repr)])
        self.__dict__.update(generators=generators, operations=operations, tree=tree)


class DDMorphism(_Frozen):
    """Arrow collection between two DD structures over the same algebras;
    its steps number targets in the target."""

    _FIELDS = ("source", "target", "arrows")
    _STATE = ("source", "target", "steps")

    def __init__(self, source, target, arrows):
        for role, end in (("source", source), ("target", target)):
            if not isinstance(end, DDStructure):
                got = type(end).__name__
                raise ValueError(f"a DD morphism's {role} must be a DDStructure, got {got}")
        self.__dict__["arrows"] = arrows = frozenset(arrows)
        self._set(source, target, _resolve(arrows, source.index, target.index, SIDES))

    def _set(self, source, target, steps):
        self.__dict__.update(source=source, target=target, steps=steps)
        if steps is None or not _coherent(steps, source, target.codes):
            _reject(self.arrows, SIDES, source.idems, target.idems, "morphism", "on")

    @cached_property
    def arrows(self):
        return _arrows(self.source.names, self.steps, self.target.names)

    def is_zero(self):
        return not any(self.steps)


def identity_morphism(M: DDStructure) -> DDMorphism:
    return DDMorphism._from_rows(M, M, [[(c, x)] for x, c in enumerate(M.codes)])


# ---------------------------------------------------------------------------
# structure-equation checkers


def _path_sums(terms, nz, units=None):
    """The nonzero rows of a sum of compositions: (x, sorted [(label, z)])
    for each such source x, in x order.

    Each term (first, second) adds the two-step paths x -(a)-> y -(b)-> z,
    the first step from first[x] and the second from second[y], with
    label = a * b nonzero; units, if given, adds the identity arrow
    x -(units[x])-> x.  Every first table numbers the same sources, and
    targets z are numbered 0 .. nz - 1.  A row's paths toggle keys
    label * nz + z in one small set that is emptied after each row, so
    keys stay small and nothing is sorted beyond a row.
    """
    mul = _MUL
    odd = set()
    add, remove = odd.add, odd.remove
    sums = []
    for x in range(len(terms[0][0])):
        if units is not None:
            add(units[x] * nz + x)
        for first, second in terms:
            for a, y in first[x]:
                after = second[y]
                if not after:  # most of d(F)'s first steps end where F has no arrows
                    continue
                row = mul[a]
                for b, z in after:
                    p = row[b]
                    if p is not None:
                        key = p * nz + z
                        if key in odd:
                            remove(key)
                        else:
                            add(key)
        if odd:
            sums.append((x, [divmod(key, nz) for key in sorted(odd)]))
            odd.clear()
    return sums


def _line(x, label, z):
    """'x -> z', plus ': ' and the label's tokens joined by '*' if any."""
    return f"{x} -> {z}: {'*'.join(label)}" if label else f"{x} -> {z}"


def check_dd(S) -> CheckReport:
    """Verify the structure equation of a DD or D structure (the sum of
    label products over two-step paths vanishes) or of a chain complex
    (the boundary squares to zero): one line per arrow of the two-step
    path sum, sorted by (x, z, label).  ``check_d`` and ``check_complex``
    are this function."""
    names = S.names
    lines = tuple(
        _line(names[x], _LABELS[a], names[z])
        for x, row in _path_sums([(S.steps, S.steps)], len(names))
        for a, z in sorted(row, key=itemgetter(1))  # stable: (z, label) order
    )
    return CheckReport(not lines, lines)


check_d = check_complex = check_dd


def _targets(M: AModule, x, seq):
    """The targets of M's operations spelling (x, seq), from its tree."""
    children = M.tree[x]
    for chord in seq:
        node = children.get(chord)
        if node is None:
            return ()
        children = node[1]
    return node[0]


def check_a(M: AModule) -> CheckReport:
    """Test the A-infinity module relation on every sequence where one of
    its terms can be nonzero.

    For a (generator, sequence) the sum over splits m(m(x, a_1..a_i),
    a_{i+1}..a_k) plus the sum over adjacent contractions m(x, ..,
    mu_2(a_i, a_{i+1}), ..) must vanish mod 2.  These modules have no m_1,
    so a split is nonzero only on a concatenation of two operation
    readings x -> y -> z, and a contraction only on a reading with one
    composite chord factored into its two pieces: those are the sequences
    tested, a starred chord read k = 0 .. K times.

    K = 4D + 3, D the most chords an operation is written with.  A run
    of one chord c leads to ever deeper nodes or to a node that is its
    own child on c, so past D copies no term depends on the run's length
    j.  Once j >= 2D the cuts inside the run add j - 2D + 1 equal terms
    and its contractions vanish (12 12 = 23 23 = 0), so the sum depends
    only on j's parity: up to 2D + 1 copies on either side of a factored
    copy, k <= 4D + 3, cover every refinement, and up to 2D + 1 copies in
    each reading every concatenation.
    """
    occ = {g.name: g.occupancy for g in M.generators}
    bound = 4 * max((len(seq) for _, seq, _ in M.operations), default=0) + 3
    readings = {}  # source -> [(chords as read, target)]
    for op in M.operations:
        chords, star = _read(op, occ)
        unrolled = [chords] if star is None else [
            chords[:star] + chords[star : star + 1] * j + chords[star + 1 :] for j in range(bound + 1)
        ]
        readings.setdefault(op[0], []).extend((read, op[2]) for read in unrolled)
    candidates = set()
    for x, spelled in readings.items():
        for chords, y in spelled:
            for pos, c in enumerate(chords):
                for u, v in chord_factorizations(c):
                    candidates.add((x, chords[:pos] + (u, v) + chords[pos + 1 :]))
            candidates.update((x, chords + more) for more, _ in readings.get(y, ()))
    lines = []
    for x, seq in sorted(candidates):
        parity = set()
        for cut in range(1, len(seq)):
            for mid in _targets(M, x, seq[:cut]):
                parity.symmetric_difference_update(_targets(M, mid, seq[cut:]))
        for pos in range(len(seq) - 1):
            prod = mul_interval(seq[pos], seq[pos + 1])
            if prod is not None:
                contracted = seq[:pos] + (prod,) + seq[pos + 2 :]
                parity.symmetric_difference_update(_targets(M, x, contracted))
        odd = sorted(parity)
        if odd:
            lines.append(f"{x}: ({','.join(seq)}) -> {'+'.join(odd)}")
    return CheckReport(not lines, tuple(lines))


# ---------------------------------------------------------------------------
# morphism calculus


def _require_same_structure(a: DDStructure, b: DDStructure, what: str):
    if a != b:
        raise ValueError(f"structure mismatch: {what}")


def _d_terms(h: DDMorphism):
    """d(h) as terms: h then the target's arrows, the source's then h."""
    return [(h.steps, h.target.steps), (h.source.steps, h.steps)]


def _morphism(source, target, sums):
    """The DDMorphism source -> target with the rows of _path_sums."""
    rows = [[] for _ in source.names]
    for x, row in sums:
        rows[x] = row
    return DDMorphism._from_rows(source, target, rows)


def d_of_morphism(h: DDMorphism) -> DDMorphism:
    """Differential of a morphism: target-structure arrows after h plus h
    after source-structure arrows, labels multiplied on each side.

    The result is empty exactly when h is a chain map.
    """
    return _morphism(h.source, h.target, _path_sums(_d_terms(h), len(h.target.names)))


def compose(g: DDMorphism, f: DDMorphism) -> DDMorphism:
    """Composite g after f; f feeds into g."""
    _require_same_structure(g.source, f.target, "compose(g, f) needs f: M->N, g: N->P")
    return _morphism(f.source, g.target, _path_sums([(f.steps, g.steps)], len(g.target.names)))


def verify_homotopy(F: DDMorphism, G: DDMorphism, H: DDMorphism) -> CheckReport:
    """Check that F, G are inverse chain maps up to the homotopy H.

    Identities verified: d(F) = 0, d(G) = 0, F o G = id on the small
    structure, and G o F + id = d(H) on the big one.  Each identity is
    one _path_sums call, empty exactly when it holds (G o F + id + d(H) is
    one pass over M with three terms and the identity); its surviving
    arrows are reported in (x, label, z) order.
    """
    M, N = F.source, F.target
    _require_same_structure(G.source, N, "G must map the small structure back")
    _require_same_structure(G.target, M, "G must land in the big structure")
    _require_same_structure(H.source, M, "H must be a self-morphism of the big one")
    _require_same_structure(H.target, M, "H must be a self-morphism of the big one")
    nm, nn = len(M.names), len(N.names)
    f_g = _path_sums([(G.steps, F.steps)], nn, N.codes)
    g_f = _path_sums([(F.steps, G.steps), *_d_terms(H)], nm, M.codes)
    # (tag, rows, source, target); F o G is G then F, G o F is F then G
    surviving = (
        ("F not a chain map", _path_sums(_d_terms(F), nn), M, N),
        ("G not a chain map", _path_sums(_d_terms(G), nm), N, M),
        ("F o G differs from identity", f_g, N, N),
        ("G o F + id differs from d(H)", g_f, M, M),
    )
    lines = tuple(
        f"{tag}: {_line(source.names[x], _LABELS[a], target.names[z])}"
        for tag, sums, source, target in surviving
        for x, row in sums
        for a, z in row
    )
    return CheckReport(not lines, lines)


# ---------------------------------------------------------------------------
# cancellation


_KINDS = {DDStructure: "DD", DStructure: "D", ChainComplexF2: "complex"}


def _kind(S, caller):
    """'DD', 'D' or 'complex': the kinds reduce and isomorphic accept;
    anything else is a ValueError naming the caller."""
    if type(S) not in _KINDS:
        raise ValueError(
            f"{caller} needs a DDStructure, DStructure or ChainComplexF2, got {type(S).__name__}"
        )
    return _KINDS[type(S)]


_DIGITS = re.compile(r"(\d+)")


def _index_halves(names):
    """(hi, lo): hi[s] = (rank s * n^2 + s) * n and lo[t] = rank t * n^2 + t,
    so hi[s] + lo[t] orders as (rank s, rank t, s, t), rank being the dense
    rank of the natural key (decimal runs, read as ints, at odd positions)."""
    n = len(names)
    keys = list(map(_DIGITS.split, names))
    for parts in keys:
        parts[1::2] = map(int, parts[1::2])
    lo, rank, prev = [0] * n, -1, None
    for g in sorted(range(n), key=keys.__getitem__):
        if keys[g] != prev:
            rank, prev = rank + 1, keys[g]
        lo[g] = rank * n * n + g
    return [v * n for v in lo], lo


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
    ints ordered as (natural key of x, of y, x, y).  Cancelling x -> y
    unlinks each arrow at x or y from its other end's set and the index,
    then makes in(y) * out(x) fill-in toggles, each a set update and,
    for a unit arrow, an index update; nothing rescans or re-sorts the
    whole arrow set.  In the default order a removed key only joins a
    set of dead keys, and is popped once it is the greatest; a fill-in
    that re-creates its arrow takes it out of the set, and any other is
    inserted.  The seeded order keeps exactly the live keys, which the
    rng indexes.
    """
    _kind(S, "reduce")
    names, steps = S.names, S.steps
    n = len(names)
    hi, lo = _index_halves(names)
    unit, mul = _IS_UNIT, _MUL
    out = [set(row) for row in steps]  # g -> {(label, target)}
    into = [set() for _ in range(n)]  # g -> {(source, label)}
    for s, row in enumerate(steps):
        for a, t in row:
            into[t].add((s, a))
    units = sorted(
        hi[s] + lo[t] for s, row in enumerate(steps) for a, t in row if s != t and unit[a]
    )
    if rng is None:
        dead = set()  # keys in units whose unit arrow was removed since they were filed
        drop = dead.add

        def add(key):
            if key in dead:
                dead.remove(key)
            else:
                bisect.insort(units, key)

        def pick():
            while units and units[-1] in dead:
                dead.remove(units.pop())
            return units[-1] if units else None

    else:

        def drop(key):
            del units[bisect.bisect_left(units, key)]

        def add(key):
            bisect.insort(units, key)

        def pick():
            return units[rng.randrange(len(units))] if units else None

    while (key := pick()) is not None:
        x, y = key // n % n, key % n
        ins = [(w, a) for w, a in into[y] if w != x and w != y]
        outs = [(a, z) for a, z in out[x] if z != x and z != y]
        for g in (x, y):
            for a, t in out[g]:
                if t != x and t != y:
                    into[t].remove((g, a))
                if unit[a] and t != g:
                    drop(hi[g] + lo[t])
            for s, a in into[g]:
                if s != x and s != y:
                    out[s].remove((a, g))
                    if unit[a]:
                        drop(hi[s] + lo[g])
        out[x] = out[y] = into[x] = into[y] = None
        for w, l1 in ins:
            row, ow, hw = mul[l1], out[w], hi[w]
            for l2, z in outs:
                p = row[l2]
                if p is None:
                    continue
                if (p, z) in ow:
                    ow.remove((p, z))
                    into[z].remove((w, p))
                    if unit[p] and w != z:
                        drop(hw + lo[z])
                else:
                    ow.add((p, z))
                    into[z].add((w, p))
                    if unit[p] and w != z:
                        add(hw + lo[z])
    alive = [g for g in range(n) if out[g] is not None]
    number = {g: k for k, g in enumerate(alive)}  # survivors keep their name order
    rows = [sorted([(a, number[t]) for a, t in out[g]]) for g in alive]
    codes = S.codes
    view = tuple(names[g] for g in alive), tuple(codes[g] for g in alive), rows
    return type(S)._from_rows(*view, S.side)


# ---------------------------------------------------------------------------
# isomorphism


def isomorphic(S1, S2):
    """Label- and idempotent-preserving generator bijection, or None.

    Colour refinement plus individualization (McKay and Piperno,
    "Practical graph isomorphism II", arXiv 1301.1493) on the disjoint
    union of both labeled graphs, generators and labels numbered as ints
    and colour ids shared by the two sides.  A generator starts coloured
    by its code (its unit label), in/out label multisets and self-loop labels; each
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
    kind1, kind2 = _kind(S1, "isomorphic"), _kind(S2, "isomorphic")
    if kind1 != kind2:
        raise ValueError(f"cannot compare {kind1} with {kind2}")
    if isinstance(S1, DStructure) and S1.side != S2.side:
        raise ValueError("cannot compare D structures over different algebras")
    k = len(S1.names)
    if k != len(S2.names) or sum(map(len, S1.steps)) != sum(map(len, S2.steps)):
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
        for v, a in enumerate([*S1.codes, *S2.codes])
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
