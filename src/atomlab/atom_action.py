"""Atoms, truncated product-group elements, and the action on HF objects.

An atom is a pair (a, w): a residue tagged by a finitely supported
vector.  A group element assigns a residue to every coordinate below a
finite horizon and acts by (a, w) -> (a + sum_i w_i * g_i, w), so the
vector component never moves and the cells U_w = {(a, w) : a} are
permuted within themselves.  The action extends to hereditarily finite
objects (atoms, finite sets, tuples) leafwise.  A group element is stored
as the sparse vector of its nonzero residues, so it costs those, not the
horizon; only its text form is dense.

HF objects may share subterms: a node can be the child of several
nodes, or of one node twice, so an object is a DAG whose expanded tree
can be exponentially larger (an element of level 9 of a pair tower has
71 distinct nodes and 3,067 tree nodes).  ``act_hf`` and ``atoms_of``
cost the number of distinct nodes: ``act_hf`` acts on each distinct
node once and maps a shared subterm to one shared image, and
``atoms_of`` yields the atom of each distinct leaf once.  ``repr``,
``hf_to_json`` and ``sort_key`` still expand the tree, as their output
does.

Every subgroup is a pointwise stabilizer Ann(S) = {g : <s, g> = 0 for
every s in S}, and a ``GroupSubspace`` stores only the echelon span of
S: sizes and indices are rank arithmetic, and the subgroup's own basis
is built (by ``fp_core.annihilator``) only where it is listed.

An element k of K = Ann(S) pairs with an atom vector of x as with its
residue modulo S, so it moves x only through its footprint functionals
f = (<w_j, k>)_j, w_1..w_r the echelon basis of those residues (r is the
footprint rank modulo S).  ``Transporters`` decides questions of x by
linear algebra over f: the set T(y, z) of f sending a node y to z is
empty or affine, and is found bottom-up over the DAG.  ``stabilizer_in``
is Ann(S + T_x) for the vectors T_x read off T(x, x), enumerating and
acting by no element.  ``_complement`` is the span C of one element of K
per w_j, pairing to 1 with it and to 0 with the others, read off S
without forming a basis of K.  Enumeration of C is kept only where
elements are listed: ``orbit`` (the cap bounds p^r, not |K|).
``fixed_by`` acts by C's basis, r elements at most, and
``support-check --exhaustive`` and the oracles in ``verify`` enumerate
on purpose.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field
from typing import Iterable, Iterator, Sequence

from .errors import UsageError
from .fp_core import (
    DEFAULT_ENUM_CAP,
    Subspace,
    Vector,
    _insert_echelon,
    annihilator,
    check_horizon,
    check_prime,
    span_of,
    unit,
)


@dataclass(frozen=True)
class Atom:
    """An element (a, w) of the atom space F_p x W; ``a`` is kept mod p."""

    a: int
    w: Vector

    def __post_init__(self):
        if not isinstance(self.a, int):
            kind = type(self.a).__name__
            raise UsageError(f"atom residue must be an int, got {kind}")
        object.__setattr__(self, "a", self.a % self.w.p)

    def to_text(self, zero: str = "") -> str:
        return f"({self.a}|{self.w.to_text(zero=zero)})"

    @classmethod
    def from_text(cls, text: str, p: int) -> "Atom":
        text = text.strip()
        if not (text.startswith("(") and text.endswith(")")) or "|" not in text:
            raise UsageError(f"bad atom text {text!r}, expected '(a|w)'")
        a_s, w_s = text[1:-1].split("|", 1)
        try:
            a = int(a_s)
        except ValueError:
            raise UsageError(f"bad atom residue {a_s!r}") from None
        return cls(a, Vector.from_text(w_s, p))

    def __repr__(self):
        return self.to_text(zero="∅")


atom = Atom  # lower-case shorthand


@dataclass(frozen=True)
class GroupElement:
    """A residue at every coordinate below the horizon, stored as the sparse
    vector of its nonzero residues; only ``coords`` and the text are dense."""

    vector: Vector
    horizon: int
    # coordinate -> residue, for act_atom's pairings; derived from vector
    _residues: dict = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        check_horizon((self.vector,), self.horizon)
        object.__setattr__(self, "_residues", dict(self.vector.entries))

    @property
    def p(self) -> int:
        return self.vector.p

    @property
    def is_identity(self) -> bool:
        return self.vector.is_zero

    @property
    def coords(self) -> tuple[int, ...]:
        """The dense residues, built on each read."""
        return tuple(self._residues.get(i, 0) for i in range(self.horizon))

    @classmethod
    def from_coords(cls, p: int, coords: Sequence[int]) -> "GroupElement":
        """The element with the dense residues ``coords``, horizon ``len(coords)``."""
        if coords and (min(coords) < 0 or max(coords) >= p):
            raise UsageError("group element coordinates must be residues mod p")
        entries = tuple((i, c) for i, c in enumerate(coords) if c)
        return cls(Vector(p, entries), len(coords))

    def __add__(self, other: "GroupElement") -> "GroupElement":
        """Coordinatewise sum; acting by g + h equals acting by g then h."""
        total = self.vector + other.vector  # raises on mixed moduli
        if other.horizon != self.horizon:
            raise UsageError(f"mixed horizons {self.horizon} and {other.horizon}")
        return GroupElement(total, self.horizon)

    def to_text(self) -> str:
        return ",".join(map(str, self.coords))

    __repr__ = to_text

    @classmethod
    def from_text(cls, text: str, p: int) -> "GroupElement":
        check_prime(p)
        text = text.strip()
        if not text:
            raise UsageError("empty group element text")
        try:
            coords = [int(c) % p for c in text.split(",")]
        except ValueError:
            raise UsageError(f"bad group element text {text!r}") from None
        return cls.from_coords(p, coords)


def act_atom(x: Atom, g: GroupElement) -> Atom:
    """(a, w) -> (a + sum_i w_i * g_i, w).  Support beyond the horizon is an error."""
    w, entries, residue = x.w, x.w.entries, g._residues
    if g.vector.p != w.p:
        raise UsageError(f"mixed moduli {w.p} and {g.p}")
    # inline, not check_horizon and Vector.dot: those cost 4x per atom
    if entries and entries[-1][0] >= g.horizon:
        top = entries[-1][0]
        raise UsageError(f"vector supported at {top} exceeds horizon {g.horizon}")
    s = 0
    for i, c in entries:
        if i in residue:
            s += c * residue[i]
    return Atom(x.a + s, w) if s % w.p else x


@dataclass(frozen=True)
class GroupSubspace:
    """The subgroup Ann(fixed) of the horizon group: the elements g with
    <s, g> = 0 for every s in ``fixed``."""

    horizon: int
    fixed: Subspace

    def __post_init__(self):
        check_horizon(self.fixed.basis, self.horizon)

    @property
    def p(self) -> int:
        return self.fixed.p

    @property
    def dimension(self) -> int:
        return self.horizon - self.fixed.dimension

    @property
    def size(self) -> int:
        return self.p**self.dimension

    @property
    def space(self) -> Subspace:
        """The subgroup as a coordinate subspace; built on each call."""
        return annihilator(self.fixed, self.horizon)

    @classmethod
    def full(cls, p: int, horizon: int) -> "GroupSubspace":
        return cls(horizon, Subspace(p))

    def basis_elements(self) -> tuple[GroupElement, ...]:
        return tuple(GroupElement(b, self.horizon) for b in self.space.basis)

    def elements(self, cap: int = DEFAULT_ENUM_CAP) -> Iterator[GroupElement]:
        """All members in basis-combination order (identity first)."""
        for v in self.space.enumerate_elements(cap):
            yield GroupElement(v, self.horizon)

    def index_over(self, sub: "GroupSubspace") -> int:
        """[self : sub]; requires sub to actually be contained in self."""
        if sub.horizon != self.horizon or sub.p != self.p:
            raise UsageError("subgroup index across different groups")
        # Ann(S') lies in Ann(S) exactly when S lies in S'
        if not sub.fixed.contains_subspace(self.fixed):
            raise UsageError("index requested over a non-subgroup")
        return self.p ** (self.dimension - sub.dimension)


def pointwise_stabilizer(
    vectors: Iterable[Vector], horizon: int, p: int
) -> GroupSubspace:
    """The subgroup fixing every atom over every given vector: fixing at w
    is the linear condition <w, g> = 0, so this is Ann(span of the vectors).
    """
    return GroupSubspace(horizon, span_of(vectors, p))


# ---------------------------------------------------------------------------
# Hereditarily finite objects over atoms
# ---------------------------------------------------------------------------


class HFObject:
    """Base class: an atom leaf, a canonical finite set, or a tuple.

    A node is immutable; its content (the atom, or the children) sits in
    ``_data``, and equality and hashing compare the kind and the content.
    Each kind implements the action, the sort key and the JSON form
    once, reached through ``act_hf``, ``sort_key`` and ``hf_to_json``.
    """

    __slots__ = ("_data", "_hash")
    _tag = -1

    def __init__(self, data):
        object.__setattr__(self, "_data", data)
        object.__setattr__(self, "_hash", hash((self._tag, data)))

    def __setattr__(self, *_):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __eq__(self, other):
        return other is self or (
            type(other) is type(self)
            and self._hash == other._hash
            and self._data == other._data
        )

    def __hash__(self):
        return self._hash


class AtomLeaf(HFObject):
    __slots__ = ()
    _tag = 0

    def __init__(self, a: Atom):
        if not isinstance(a, Atom):
            raise UsageError(f"AtomLeaf wraps an Atom, got {type(a).__name__}")
        super().__init__(a)

    @property
    def atom(self) -> Atom:
        return self._data

    def _act(self, g: GroupElement, memo: dict) -> "AtomLeaf":
        moved = act_atom(self._data, g)
        return self if moved is self._data else AtomLeaf(moved)

    def _sort_key(self):
        return (0, self._data.a, self._data.w.sort_key())

    def _json(self):
        return {"atom": self._data.to_text()}

    def __repr__(self):
        return repr(self._data)


class _Collection(HFObject):
    """What sets and tuples share; ``_data`` holds the children."""

    __slots__ = ()
    _kind: str  # the JSON key
    _brackets: str
    _sorted = False  # canonical order is sort-key order, not storage order

    def __init__(self, children):
        for m in children:
            if not isinstance(m, HFObject):
                raise UsageError(
                    f"{self._kind} member must be HFObject, got {type(m).__name__}"
                )
        super().__init__(children)

    def __len__(self):
        return len(self._data)

    def __iter__(self):
        return iter(self._data)

    def _ordered(self) -> list[HFObject]:
        return sorted(self._data, key=sort_key) if self._sorted else list(self._data)

    def _act(self, g: GroupElement, memo: dict) -> "_Collection":
        image = memo.get(id(self))
        if image is None:
            moved = [m._act(g, memo) for m in self._data]
            if all(map(operator.is_, moved, self._data)):
                image = self
            else:
                image = type(self)(moved)
            memo[id(self)] = image
        return image

    def _sort_key(self):
        keys = [m._sort_key() for m in self._data]
        if self._sorted:
            keys.sort()
        return (self._tag, len(keys), tuple(keys))

    def _json(self):
        return {self._kind: [m._json() for m in self._ordered()]}

    def __repr__(self):
        inner = ", ".join(repr(m) for m in self._ordered())
        return self._brackets[0] + inner + self._brackets[1]


class FiniteSet(_Collection):
    """Duplicate-free, order-insensitive collection of HF objects."""

    __slots__ = ()
    _tag, _kind, _brackets, _sorted = 1, "set", "{}", True

    def __init__(self, members: Iterable[HFObject] = ()):
        super().__init__(frozenset(members))

    @property
    def members(self) -> frozenset[HFObject]:
        return self._data

    def __contains__(self, item):
        return item in self._data


class HFTuple(_Collection):
    """Ordered tuple of HF objects; equality is positional."""

    __slots__ = ()
    _tag, _kind, _brackets = 2, "tuple", "()"

    def __init__(self, items: Iterable[HFObject]):
        super().__init__(tuple(items))

    @property
    def items(self) -> tuple[HFObject, ...]:
        return self._data


def leaf(a: int, w: Vector) -> AtomLeaf:
    return AtomLeaf(Atom(a, w))


def _node(x) -> HFObject:
    if not isinstance(x, HFObject):
        raise UsageError(f"not an HFObject: {type(x).__name__}")
    return x


def sort_key(x: HFObject):
    """Total-order key used for canonical serialization of sets."""
    return _node(x)._sort_key()


def atoms_of(x: HFObject) -> Iterator[Atom]:
    """The atom of each distinct leaf of x, once: a subterm shared by
    several nodes is visited once (nodes are told apart by identity), so
    this costs the number of distinct nodes, not the size of the tree.
    Equal atoms on distinct leaves are each yielded."""
    seen, stack = set(), [_node(x)]
    while stack:
        node = stack.pop()
        if id(node) not in seen:
            seen.add(id(node))
            if type(node) is AtomLeaf:
                yield node._data
            else:
                stack.extend(node._data)


def act_hf(x: HFObject, g: GroupElement) -> HFObject:
    """Apply the action to every atom leaf, re-canonicalizing sets.  A node
    none of whose atoms moves comes back as the same object.

    Each distinct node is acted on once: images are memoized by node
    identity for this call (x keeps every node alive, so ids are not
    reused), and a shared subterm maps to one shared image."""
    return _node(x)._act(g, {})


def _footprint(x: HFObject, subgroup: GroupSubspace) -> tuple[Vector, ...]:
    """The echelon basis w_1..w_r of x's atom vectors reduced modulo S, for
    the subgroup K = Ann(S).  An element of K pairs with an atom vector as
    with its residue, a combination of the w's, so it moves x only through
    its footprint functionals f = (<w_j, k>)_j, and the kernel of k -> f
    fixes x."""
    vectors = {a.w for a in atoms_of(x)}
    footprint = span_of((subgroup.fixed.reduce(w) for w in vectors), subgroup.p).basis
    check_horizon(vectors, subgroup.horizon)
    return footprint


def _complement(x: HFObject, subgroup: GroupSubspace) -> Subspace:
    """The span C of g_j = e_q - sum_{s in S} s_q e_pivot(s), q the pivot of
    the footprint vector w_j.  Each g_j pairs to 0 with every s, so lies in
    K, and to 1 with w_j and 0 with every other w, since the w's vanish at
    each other's pivots and at those of S: C is a complement of the kernel
    that fixes x, of dimension r, and sum_j f_j g_j has functionals f."""
    p, fixed = subgroup.p, subgroup.fixed
    lifts = []
    for w in _footprint(x, subgroup):
        q = w.lead_index
        tail = tuple((s.lead_index, -c % p) for s in fixed.basis if (c := s.coeff(q)))
        lifts.append(Vector(p, (*tail, (q, 1))))  # S's pivots lie below q
    return span_of(lifts, p)


# conditions <v, g> = b on g, which together say g lies in a transporter
Conditions = tuple[tuple[Vector, int], ...]


def satisfies(conditions: Conditions, g: GroupElement) -> bool:
    """Whether g, an element of K, meets every condition <v, g> = b."""
    return all(v.dot(g.vector) == b for v, b in conditions)


class Transporters:
    """The transporters T(y, z) = {f in F_p^r : y.f = z} between a node y
    of x and any HF object z, where f ranges over the footprint functionals
    of x in K = Ann(S) and y.f is y acted on by any g in K with those
    pairings.  K acts on atoms by translations, so T(y, z) is empty or an
    affine subspace, found bottom-up over the DAG by linear algebra alone.

    T(y, z) is given by the reduced echelon rows (u | b) in F_p^(r+1) of
    the conditions u.f = b; the empty set is ``empty``, the single row
    with pivot r.
    Transporters are memoized by node identity for the life of the
    context, which holds every object it was asked about, so ids are not
    reused."""

    def __init__(self, x: HFObject, subgroup: GroupSubspace):
        self._footprint = _footprint(x, subgroup)
        self._fixed = subgroup.fixed
        self._p, self._r = subgroup.p, len(self._footprint)
        self._slot = {w.lead_index: j for j, w in enumerate(self._footprint)}
        self.empty = (unit(self._p, self._r),)
        self._coords: dict[Vector, tuple] = {}
        self._memo: dict[tuple[int, int], tuple[Vector, ...]] = {}
        self._held = [x]

    def __call__(self, y: HFObject, z: HFObject) -> tuple[Vector, ...]:
        self._held += (y, z)
        return self._transporter(_node(y), _node(z))

    def pullback(self, rows: Sequence[Vector]) -> Conditions:
        """Each row (u | b) as the condition <sum_j u_j w_j, g> = b on g in K."""
        r, zero, w = self._r, Vector(self._p), self._footprint

        def vector(row: Vector) -> Vector:
            return sum((w[j].scale(c) for j, c in row.entries if j < r), zero)

        return tuple((vector(row), _offset_at(row, r)) for row in rows)

    def _echelon(self, gens: Iterable[Vector]) -> tuple[Vector, ...]:
        rows: list[Vector] = []
        for v in gens:
            _insert_echelon(rows, v)
        return self.empty if rows and rows[-1].lead_index == self._r else tuple(rows)

    def _transporter(self, y: HFObject, z: HFObject) -> tuple[Vector, ...]:
        key = (id(y), id(z))
        rows = self._memo.get(key)
        if rows is None:
            kind = type(y)
            if kind is not type(z) or (kind is not AtomLeaf and len(y) != len(z)):
                rows = self.empty
            elif kind is AtomLeaf:
                rows = self._atom(y._data, z._data)
            elif kind is HFTuple:
                rows = self._tuple(y._data, z._data)
            else:
                rows = self._set(y._data, z._data)
            self._memo[key] = rows
        return rows

    def _atom(self, a: Atom, b: Atom) -> tuple[Vector, ...]:
        """c(w).f = b - a, c(w) the coordinates of w modulo S over the w's:
        its residue read at their pivots."""
        if a.w != b.w:
            return self.empty
        c = self._coords.get(a.w)
        if c is None:
            residue = self._fixed.reduce(a.w)
            c = tuple((self._slot[i], v) for i, v in residue.entries if i in self._slot)
            self._coords[a.w] = c
        shift = (b.a - a.a) % self._p
        if not c:
            return self.empty if shift else ()
        row = _with_offset(Vector(self._p, c), shift, self._r)
        return (row.scale(pow(c[0][1], -1, self._p)),)

    def _tuple(self, ys, zs) -> tuple[Vector, ...]:
        parts = []
        for y, z in zip(ys, zs):
            rows = self._transporter(y, z)
            if rows is self.empty:
                return rows
            if rows:
                parts.append(rows)
        if len(parts) == 1:  # already reduced echelon
            return parts[0]
        return self._echelon(row for rows in parts for row in rows)

    def _set(self, ys, zs) -> tuple[Vector, ...]:
        """Sort y's members into orbit classes: m joins rep's class when
        T(rep, m) is nonempty.  The group is abelian, so a class shares
        Stab(rep) = Ann(U), and T(rep, m) has the rows of T(rep, rep) with
        the offsets beta(m) = U.f in their last coordinate.  f maps the
        class onto the members of z in its orbit exactly when the offsets
        D of the class and D' of those members satisfy D + U.f = D'.  The
        valid U.f form a coset v0 + P, so the class adds the rows
        (sum_i q_i u_i | q.v0) for q in Ann(P)."""
        r = self._r
        # (rep, the offsets of its class in y, those of its orbit in z)
        classes: list[tuple[HFObject, set, set]] = []
        for side, members in ((1, ys), (2, zs)):
            for m in members:
                for cls in classes:
                    rows = self._transporter(cls[0], m)
                    if rows is not self.empty:
                        cls[side].add(tuple(_offset_at(row, r) for row in rows))
                        break
                else:
                    if side == 2:  # in no orbit of y's members
                        return self.empty
                    classes.append((m, {(0,) * len(self._transporter(m, m))}, set()))
        gens = []
        for rep, offsets, targets in classes:
            if len(offsets) != len(targets):
                return self.empty
            stab = self._transporter(rep, rep)
            shifts = _valid_shifts(offsets, targets, self._p)
            if not shifts:
                return self.empty
            # the rows R_i = (u_i | v0_i) pin U.f to v0; over the echelon
            # basis of P (pivot = least coordinate), Ann(P) has the basis
            # e_i - sum_t t_i e_pivot(t) for the coordinates i off the pivots
            v0 = shifts[0]
            pinned = [_with_offset(u, b, r) for u, b in zip(stab, v0)]
            diffs = (
                Vector.from_dict(self._p, dict(enumerate(a - b for a, b in zip(v, v0))))
                for v in shifts[1:]
            )
            basis = span_of(diffs, self._p).basis
            pivots = {t.lead_index for t in basis}
            for i, row in enumerate(pinned):
                if i not in pivots:
                    terms = (pinned[t.lead_index].scale(-t.coeff(i)) for t in basis)
                    gens.append(sum(terms, row))
        return self._echelon(gens)


def _with_offset(u: Vector, b: int, r: int) -> Vector:
    """The augmented row (u | b) of a row u with no entry at r."""
    return Vector(u.p, (*u.entries, (r, b))) if b else u


def _offset_at(row: Vector, r: int) -> int:
    """The last coordinate b of an augmented row (u | b)."""
    return row.entries[-1][1] if row.entries[-1][0] == r else 0


def _valid_shifts(offsets: set, targets: set, p: int) -> list[tuple[int, ...]]:
    """The shifts v with offsets + v = targets: each is some target minus
    some offset, so |offsets| candidates are tried against one target."""
    target = next(iter(targets))
    shifts = []
    for d in offsets:
        v = tuple((a - b) % p for a, b in zip(target, d))
        if {tuple((a + b) % p for a, b in zip(e, v)) for e in offsets} == targets:
            shifts.append(v)
    return shifts


def orbit(
    x: HFObject, subgroup: GroupSubspace, cap: int = DEFAULT_ENUM_CAP
) -> frozenset[HFObject]:
    """{x.g : g in the subgroup}, by enumerating the complement of the
    footprint kernel (the cap bounds its size, p^r, not the subgroup's)."""
    complement = _complement(x, subgroup)
    return frozenset(
        act_hf(x, GroupElement(c, subgroup.horizon))
        for c in complement.enumerate_elements(cap)
    )


def stabilizer_in(x: HFObject, subgroup: GroupSubspace) -> GroupSubspace:
    """{g in Ann(S) : x.g = x} = Ann(S + T_x), where T_x holds
    sum_j u_j w_j for the rows u of the transporter T(x, x): linear algebra
    over the footprint, enumerating no element and acting by none."""
    t = Transporters(x, subgroup)
    also_fixed = (v for v, _ in t.pullback(t(x, x)))
    fixed = span_of((*subgroup.fixed.basis, *also_fixed), subgroup.p)
    return GroupSubspace(subgroup.horizon, fixed)


def fixed_by(x: HFObject, subgroup: GroupSubspace) -> bool:
    """True iff every element of the subgroup fixes x.  The footprint
    kernel fixes x and the fixers form a subgroup, so the basis of its
    complement decides it: at most footprint-rank actions, and no cap."""
    complement = _complement(x, subgroup)
    return all(
        act_hf(x, GroupElement(c, subgroup.horizon)) == x for c in complement.basis
    )


# ---------------------------------------------------------------------------
# Kuratowski pair encoding (for equivariance cross-checks)
# ---------------------------------------------------------------------------


def to_kuratowski(t: HFTuple) -> FiniteSet:
    """Encode a 2-tuple (x, y) as the pure set {{x}, {x, y}}."""
    if not isinstance(t, HFTuple) or len(t) != 2:
        raise UsageError("Kuratowski encoding is defined for 2-tuples")
    x, y = t.items
    return FiniteSet((FiniteSet((x,)), FiniteSet((x, y))))


def from_kuratowski(s: FiniteSet) -> HFTuple:
    """Decode {{x}, {x, y}} (or {{x}} when x = y) back to the 2-tuple."""
    if not isinstance(s, FiniteSet):
        raise UsageError("Kuratowski decoding expects a FiniteSet")
    ms = list(s.members)
    if not all(isinstance(m, FiniteSet) for m in ms):
        raise UsageError("not a Kuratowski pair: members are not sets")
    if len(ms) == 1 and len(ms[0]) == 1:
        (x,) = ms[0].members
        return HFTuple((x, x))
    if len(ms) == 2:
        ms.sort(key=len)
        if len(ms[0]) == 1 and len(ms[1]) == 2:
            (x,) = ms[0].members
            rest = [m for m in ms[1].members if m != x]
            if len(rest) == 1 and x in ms[1]:
                return HFTuple((x, rest[0]))
    raise UsageError("not a Kuratowski pair")


# ---------------------------------------------------------------------------
# JSON forms
# ---------------------------------------------------------------------------


def hf_to_json(x: HFObject):
    """JSON-ready form: {"atom": "(a|w)"} | {"set": [...]} | {"tuple": [...]}.

    Sets are listed in canonical sorted order so serialization is stable.
    """
    return _node(x)._json()


# The deepest nesting ``hf_from_json`` reads: the recursive walks over an
# object (the action, ``repr``, the JSON form) fail from about 190 levels.
MAX_HF_DEPTH = 100


def hf_from_json(obj, p: int) -> HFObject:
    """The HF object of a JSON form at most ``MAX_HF_DEPTH`` levels deep."""

    def node(obj, depth: int) -> HFObject:
        if depth > MAX_HF_DEPTH:
            raise UsageError(f"HF JSON nested deeper than {MAX_HF_DEPTH} levels")
        if isinstance(obj, dict) and len(obj) == 1:
            ((kind, value),) = obj.items()
            if kind == "atom" and isinstance(value, str):
                return AtomLeaf(Atom.from_text(value, p))
            if kind in ("set", "tuple") and isinstance(value, list):
                members = (node(m, depth + 1) for m in value)
                return FiniteSet(members) if kind == "set" else HFTuple(members)
        raise UsageError(f"bad HF JSON node: {obj!r}")

    return node(obj, 0)
