"""Atoms, truncated product-group elements, and the action on HF objects.

An atom is a pair (a, w): a residue tagged by a finitely supported
vector.  A group element assigns a residue to every coordinate below a
finite horizon and acts by (a, w) -> (a + sum_i w_i * g_i, w), so the
vector component never moves and the cells U_w = {(a, w) : a} are
permuted within themselves.  The action extends to hereditarily finite
objects (atoms, finite sets, tuples) leafwise.

Every subgroup is a pointwise stabilizer Ann(S) = {g : <s, g> = 0 for
every s in S}, and a ``GroupSubspace`` stores only the echelon span of
S: sizes and indices are rank arithmetic, and the subgroup's own basis
is built (by ``fp_core.annihilator``) only where it is listed.

An element g moves an object x only through the pairings <w, g> over
the atom vectors w of x.  So ``orbit`` and ``stabilizer_in`` split
K = Ann(S) under g -> (<w, g>)_w, w over a basis of the footprint
span(atom vectors of x): the kernel fixes x, and x.g depends only on
g's part in a complement C, dim C at most the footprint rank.  C is
built from S and the footprint alone and is all that is enumerated, so
the cap bounds p^dim C, not |K|, and no basis of K is formed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator

from .errors import InternalConsistencyError, UsageError
from .fp_core import (
    DEFAULT_ENUM_CAP,
    Subspace,
    Vector,
    annihilator,
    check_prime,
    span_of,
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

    @property
    def p(self) -> int:
        return self.w.p

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


def _check_horizon(vectors: Iterable[Vector], horizon: int) -> None:
    top = max((w.max_index for w in vectors), default=-1)
    if top >= horizon:
        raise UsageError(f"vector supported at {top} exceeds horizon {horizon}")


@dataclass(frozen=True)
class GroupElement:
    """A residue assignment to every coordinate below the horizon (dense)."""

    p: int
    coords: tuple[int, ...]

    def __post_init__(self):
        check_prime(self.p)
        if any(not 0 <= c < self.p for c in self.coords):
            raise UsageError("group element coordinates must be residues mod p")

    @property
    def horizon(self) -> int:
        return len(self.coords)

    @property
    def is_identity(self) -> bool:
        return not any(self.coords)

    @classmethod
    def identity(cls, p: int, horizon: int) -> "GroupElement":
        return cls(p, (0,) * horizon)

    @classmethod
    def delta(cls, p: int, horizon: int, i: int, value: int = 1) -> "GroupElement":
        """The element supported at the single coordinate ``i``."""
        if not 0 <= i < horizon:
            raise UsageError(f"coordinate {i} outside horizon {horizon}")
        coords = [0] * horizon
        coords[i] = value % p
        return cls(p, tuple(coords))

    @classmethod
    def from_vector(cls, v: Vector, horizon: int) -> "GroupElement":
        _check_horizon((v,), horizon)
        coords = [0] * horizon
        for i, c in v.entries:
            coords[i] = c
        return cls(v.p, tuple(coords))

    def to_text(self) -> str:
        return ",".join(str(c) for c in self.coords)

    @classmethod
    def from_text(cls, text: str, p: int) -> "GroupElement":
        text = text.strip()
        if not text:
            raise UsageError("empty group element text")
        try:
            coords = tuple(int(c) % p for c in text.split(","))
        except ValueError:
            raise UsageError(f"bad group element text {text!r}") from None
        return cls(p, coords)

    def __repr__(self):
        return self.to_text()


def compose(g: GroupElement, h: GroupElement) -> GroupElement:
    """Coordinatewise sum; the action of the result equals acting by g then h."""
    if g.p != h.p:
        raise UsageError(f"mixed moduli {g.p} and {h.p}")
    if g.horizon != h.horizon:
        raise UsageError(f"mixed horizons {g.horizon} and {h.horizon}")
    return GroupElement(g.p, tuple((a + b) % g.p for a, b in zip(g.coords, h.coords)))


def act_atom(x: Atom, g: GroupElement) -> Atom:
    """(a, w) -> (a + sum_i w_i * g_i, w).  Support beyond the horizon is an error."""
    if g.p != x.p:
        raise UsageError(f"mixed moduli {x.p} and {g.p}")
    s = x.w.dot_dense(g.coords)
    if s == 0:
        return x
    return Atom(x.a + s, x.w)


@dataclass(frozen=True)
class GroupSubspace:
    """The subgroup Ann(fixed) of the horizon group: the elements g with
    <s, g> = 0 for every s in ``fixed``."""

    horizon: int
    fixed: Subspace

    def __post_init__(self):
        _check_horizon(self.fixed.basis, self.horizon)

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
        return tuple(
            GroupElement.from_vector(b, self.horizon) for b in self.space.basis
        )

    def elements(self, cap: int = DEFAULT_ENUM_CAP) -> Iterator[GroupElement]:
        """All members in basis-combination order (identity first)."""
        for v in self.space.enumerate_elements(cap):
            yield GroupElement.from_vector(v, self.horizon)

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
    Each kind implements the action, the atom listing, the sort key and
    the JSON form once, reached through ``act_hf``, ``atoms_of``,
    ``sort_key`` and ``hf_to_json``.
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

    def _act(self, g: GroupElement) -> "AtomLeaf":
        moved = act_atom(self._data, g)
        return self if moved is self._data else AtomLeaf(moved)

    def _atoms(self) -> Iterator[Atom]:
        yield self._data

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

    def _act(self, g: GroupElement) -> "_Collection":
        moved = [m._act(g) for m in self._data]
        if all(a is b for a, b in zip(moved, self._data)):
            return self
        return type(self)(moved)

    def _atoms(self) -> Iterator[Atom]:
        for m in self._data:
            yield from m._atoms()

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

    def sorted_members(self) -> list[HFObject]:
        return self._ordered()


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


def pair(x: HFObject, y: HFObject) -> HFTuple:
    return HFTuple((x, y))


def _node(x) -> HFObject:
    if not isinstance(x, HFObject):
        raise UsageError(f"not an HFObject: {type(x).__name__}")
    return x


def sort_key(x: HFObject):
    """Total-order key used for canonical serialization of sets."""
    return _node(x)._sort_key()


def atoms_of(x: HFObject) -> Iterator[Atom]:
    return _node(x)._atoms()


def hf_max_index(x: HFObject) -> int:
    return max((a.w.max_index for a in atoms_of(x)), default=-1)


def act_hf(x: HFObject, g: GroupElement) -> HFObject:
    """Apply the action to every atom leaf, re-canonicalizing sets.  A node
    none of whose atoms moves comes back as the same object."""
    return _node(x)._act(g)


def _footprint_split(
    x: HFObject, subgroup: GroupSubspace, cap: int
) -> tuple[tuple[Vector, ...], Iterator[tuple[Vector, GroupElement]]]:
    """Split K = Ann(S) under phi: k -> (<w_j, k>)_j, w_1..w_r the echelon
    basis of x's footprint.  Returns that basis and the pairs (f, g_f), f
    over phi(K), listed under the cap; the g_f span a complement of ker phi.

    One echelon pass over the rows (s | 0), s in S, and (w_j | e_j), the
    tag e_j placed past the horizon.  Rows (0 | t) give the relations R,
    sum_j t_j w_j in S, and phi(K) is the orthogonal complement of R.
    Every other row (v | tau) has its pivot below the horizon, and
    g_f = sum (tau . f) e_pivot pairs to tau . f with each row: it lies
    in K and realizes f."""
    p, horizon = subgroup.p, subgroup.horizon
    footprint = span_of((a.w for a in atoms_of(x)), p).basis
    _check_horizon(footprint, horizon)
    tagged = (
        Vector(p, w.entries + ((horizon + j, 1),)) for j, w in enumerate(footprint)
    )
    relations, lifts = [], []
    for row in span_of((*subgroup.fixed.basis, *tagged), p).basis:
        tag = dict((i - horizon, c) for i, c in row.entries if i >= horizon)
        if row.lead_index >= horizon:
            relations.append(Vector(p, tuple(tag.items())))
        else:
            lifts.append((row.lead_index, tag))
    image = annihilator(Subspace(p, tuple(relations)), len(footprint))

    def pairs():
        for f in image.enumerate_elements(cap):
            coords = [0] * horizon
            for pivot, tag in lifts:
                coords[pivot] = sum(c * tag.get(j, 0) for j, c in f.entries) % p
            yield f, GroupElement(p, tuple(coords))

    return footprint, pairs()


def orbit(
    x: HFObject, subgroup: GroupSubspace, cap: int = DEFAULT_ENUM_CAP
) -> frozenset[HFObject]:
    """{x.g : g in the subgroup}, by enumerating a complement of the
    footprint kernel (the cap bounds its size, not the subgroup's)."""
    _, pairs = _footprint_split(x, subgroup, cap)
    return frozenset(act_hf(x, g) for _, g in pairs)


def stabilizer_in(
    x: HFObject, subgroup: GroupSubspace, cap: int = DEFAULT_ENUM_CAP
) -> GroupSubspace:
    """{g in Ann(S) : x.g = x} = Ann(S + T).  x.g depends only on the
    pairings f = phi(g), so the stabilizer is phi^-1(F), F the pairings of
    the fixers in the complement, and T = {sum_j t_j w_j : t orthogonal
    to F}."""
    p = subgroup.p
    footprint, pairs = _footprint_split(x, subgroup, cap)
    fixing = [f for f, g in pairs if act_hf(x, g) == x]
    kept = span_of(fixing, p)
    # fixing is preserved under composition, so the fixers in the
    # complement must form a subspace of it
    if p**kept.dimension != len(fixing):
        raise InternalConsistencyError(
            "stabilizer is not closed under composition; action is inconsistent"
        )
    also_fixed = (
        sum((footprint[j].scale(c) for j, c in t.entries), Vector(p))
        for t in annihilator(kept, len(footprint)).basis
    )
    fixed = span_of((*subgroup.fixed.basis, *also_fixed), p)
    return GroupSubspace(subgroup.horizon, fixed)


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


def hf_from_json(obj, p: int) -> HFObject:
    if isinstance(obj, dict) and len(obj) == 1:
        ((kind, value),) = obj.items()
        if kind == "atom" and isinstance(value, str):
            return AtomLeaf(Atom.from_text(value, p))
        if kind in ("set", "tuple") and isinstance(value, list):
            members = (hf_from_json(m, p) for m in value)
            return FiniteSet(members) if kind == "set" else HFTuple(members)
    raise UsageError(f"bad HF JSON node: {obj!r}")
