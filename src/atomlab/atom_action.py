"""Atoms, truncated product-group elements, and the action on HF objects.

An atom is a pair (a, w): a residue tagged by a finitely supported
vector.  A group element assigns a residue to every coordinate below a
finite horizon and acts by (a, w) -> (a + sum_i w_i * g_i, w), so the
vector component never moves and the cells U_w = {(a, w) : a} are
permuted within themselves.  The action extends to hereditarily finite
objects (atoms, finite sets, tuples) leafwise.

Subgroups of the horizon group are elementary abelian, hence subspaces
of the coordinate space; they are carried around as ``GroupSubspace``
so that index computations are rank computations.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator

from .errors import InternalConsistencyError, ResourceError, UsageError
from .fp_core import (
    DEFAULT_ENUM_CAP,
    Subspace,
    Vector,
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

    def as_vector(self) -> Vector:
        return Vector(self.p, tuple((i, c) for i, c in enumerate(self.coords) if c))

    @classmethod
    def from_vector(cls, v: Vector, horizon: int) -> "GroupElement":
        if v.max_index >= horizon:
            raise UsageError(
                f"vector supported at {v.max_index} exceeds horizon {horizon}"
            )
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


def fixes_at(g: GroupElement, vectors: Iterable[Vector]) -> bool:
    """True iff g fixes every atom of every cell U_w, w in the given set."""
    return all(w.dot_dense(g.coords) == 0 for w in vectors)


@dataclass(frozen=True)
class GroupSubspace:
    """A subgroup of the horizon group, stored as a coordinate subspace."""

    horizon: int
    space: Subspace

    def __post_init__(self):
        if self.space.max_index() >= self.horizon:
            raise UsageError("subgroup basis exceeds its own horizon")

    @property
    def p(self) -> int:
        return self.space.p

    @property
    def dimension(self) -> int:
        return self.space.dimension

    @property
    def size(self) -> int:
        return self.space.size

    @classmethod
    def full(cls, p: int, horizon: int) -> "GroupSubspace":
        return cls(horizon, span_of((unit(p, i) for i in range(horizon)), p))

    @classmethod
    def trivial(cls, p: int, horizon: int) -> "GroupSubspace":
        return cls(horizon, Subspace(p))

    def contains(self, g: GroupElement) -> bool:
        return self.space.contains(g.as_vector())

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
        if not self.space.contains_subspace(sub.space):
            raise UsageError("index requested over a non-subgroup")
        return self.p ** (self.dimension - sub.dimension)


def pointwise_stabilizer(
    vectors: Iterable[Vector], horizon: int, p: int | None = None
) -> GroupSubspace:
    """The subgroup fixing every atom over every given vector.

    Fixing at w is the linear condition sum_i w_i g_i = 0, so this is the
    annihilator of the span of the vectors inside the horizon group.
    """
    vectors = tuple(vectors)
    for w in vectors:
        if p is None:
            p = w.p
        if w.max_index >= horizon:
            raise UsageError(
                f"vector supported at {w.max_index} exceeds horizon {horizon}"
            )
    if p is None:
        raise UsageError("pointwise stabilizer of an empty set needs an explicit p")
    rows = span_of(vectors, p)
    pivots = rows.pivots
    free = [i for i in range(horizon) if i not in pivots]
    kernel = []
    for f in free:
        entries = {f: 1}
        for b in rows.basis:
            c = b.coeff(f)
            if c:
                entries[b.lead_index] = -c % p
        kernel.append(Vector.from_dict(p, entries))
    return GroupSubspace(horizon, span_of(kernel, p))


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


def hf_prime(x: HFObject) -> int | None:
    for a in atoms_of(x):
        return a.p
    return None


def act_hf(x: HFObject, g: GroupElement) -> HFObject:
    """Apply the action to every atom leaf, re-canonicalizing sets.  A node
    none of whose atoms moves comes back as the same object."""
    return _node(x)._act(g)


def orbit(
    x: HFObject, subgroup: GroupSubspace, cap: int = DEFAULT_ENUM_CAP
) -> frozenset[HFObject]:
    """{x.g : g in the subgroup}, by enumerating the subgroup."""
    if subgroup.size > cap:
        raise ResourceError(f"orbit enumeration over {subgroup.size} elements, cap {cap}")
    return frozenset(act_hf(x, g) for g in subgroup.elements(cap))


def stabilizer_in(
    x: HFObject, subgroup: GroupSubspace, cap: int = DEFAULT_ENUM_CAP
) -> GroupSubspace:
    """{g in subgroup : x.g = x}, returned as a coordinate subspace."""
    if subgroup.size > cap:
        raise ResourceError(
            f"stabilizer enumeration over {subgroup.size} elements, cap {cap}"
        )
    fixers = [g for g in subgroup.elements(cap) if act_hf(x, g) == x]
    space = span_of((g.as_vector() for g in fixers), subgroup.p)
    # fixing is preserved under composition, so the fixers must form a subspace
    if subgroup.p**space.dimension != len(fixers):
        raise InternalConsistencyError(
            "stabilizer is not closed under composition; action is inconsistent"
        )
    return GroupSubspace(subgroup.horizon, space)


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
