"""Exact linear algebra over prime fields, on finitely supported vectors.

Vectors are sparse maps from coordinate index to nonzero residue, so
structural equality is mathematical equality.  Subspaces keep a reduced
echelon basis (pivot at the least coordinate of each row, pivots
ascending), which is unique per subspace and makes subspace equality a
plain comparison.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable, Iterator, Mapping, Sequence

from .errors import ResourceError, UsageError

DEFAULT_ENUM_CAP = 10**6

ZERO_TEXT_REPORT = "∅"


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


_checked_primes: set[int] = set()


def check_prime(p) -> int:
    if p not in _checked_primes:
        if not isinstance(p, int) or not is_prime(p):
            raise UsageError(f"modulus must be a prime integer, got {p!r}")
        _checked_primes.add(p)
    return p


def json_int(value) -> int:
    """An integer read from JSON; a float, a string or a bool is a TypeError."""
    if type(value) is not int:
        raise TypeError(f"expected an integer, got {value!r}")
    return value


@dataclass(frozen=True)
class Vector:
    """Finitely supported coordinate sequence over F_p.

    ``entries`` holds (index, residue) pairs, ascending, residues nonzero;
    the zero vector has no entries.
    """

    p: int
    entries: tuple[tuple[int, int], ...] = ()

    def __post_init__(self):
        check_prime(self.p)
        prev = -1
        for i, v in self.entries:
            if i <= prev:
                raise UsageError("vector entries must have strictly ascending indices")
            if i < 0:
                raise UsageError("coordinate indices must be non-negative")
            if not 0 < v < self.p:
                raise UsageError(f"stored residue {v} out of range for p={self.p}")
            prev = i

    @classmethod
    def from_dict(cls, p: int, mapping: Mapping[int, int]) -> "Vector":
        entries = tuple(sorted((i, v % p) for i, v in mapping.items() if v % p))
        return cls(p, entries)

    @property
    def is_zero(self) -> bool:
        return not self.entries

    @property
    def max_index(self) -> int:
        """Largest coordinate with a nonzero entry; -1 for the zero vector."""
        return self.entries[-1][0] if self.entries else -1

    @property
    def lead_index(self) -> int:
        if not self.entries:
            raise UsageError("zero vector has no leading coordinate")
        return self.entries[0][0]

    def coeff(self, i: int) -> int:
        for j, v in self.entries:
            if j == i:
                return v
            if j > i:
                return 0
        return 0

    def _check_same_p(self, other: "Vector") -> None:
        if not isinstance(other, Vector):
            raise UsageError(f"expected Vector, got {type(other).__name__}")
        if other.p != self.p:
            raise UsageError(f"mixed moduli {self.p} and {other.p}")

    def __add__(self, other: "Vector") -> "Vector":
        self._check_same_p(other)
        acc = dict(self.entries)
        for i, v in other.entries:
            s = (acc.get(i, 0) + v) % self.p
            if s:
                acc[i] = s
            elif i in acc:
                del acc[i]
        return Vector(self.p, tuple(sorted(acc.items())))

    def __sub__(self, other: "Vector") -> "Vector":
        return self + other.scale(-1)

    def scale(self, c: int) -> "Vector":
        if not isinstance(c, int):
            raise UsageError(f"scalar must be an int, got {type(c).__name__}")
        c %= self.p
        if c == 0:
            return Vector(self.p)
        if c == 1:
            return self
        return Vector(self.p, tuple((i, (v * c) % self.p) for i, v in self.entries))

    def dot_dense(self, coords: Sequence[int]) -> int:
        """Pairing with a dense coordinate tuple; entries beyond it are rejected."""
        if self.max_index >= len(coords):
            raise UsageError(
                f"vector supported at {self.max_index} exceeds horizon {len(coords)}"
            )
        return sum(v * coords[i] for i, v in self.entries) % self.p

    def to_text(self, zero: str = "") -> str:
        if not self.entries:
            return zero
        return ",".join(f"{i}:{v}" for i, v in self.entries)

    @classmethod
    def from_text(cls, text: str, p: int) -> "Vector":
        text = text.strip()
        if text in ("", ZERO_TEXT_REPORT):
            return cls(p)
        acc: dict[int, int] = {}
        for part in text.split(","):
            try:
                i_s, v_s = part.split(":")
                i, v = int(i_s), int(v_s)
            except ValueError:
                raise UsageError(f"bad vector entry {part!r}") from None
            if i in acc:
                raise UsageError(f"duplicate coordinate {i} in {text!r}")
            acc[i] = v
        return cls.from_dict(p, acc)

    def sort_key(self):
        return self.entries

    def __repr__(self):
        return self.to_text(zero=ZERO_TEXT_REPORT)


def unit(p: int, i: int) -> Vector:
    """The standard basis vector with a 1 at coordinate ``i``."""
    if i < 0:
        raise UsageError("coordinate indices must be non-negative")
    return Vector(p, ((i, 1),))


def project_prefix(v: Vector, k: int) -> Vector:
    """Zero out every coordinate at index >= k."""
    if k < 0:
        raise UsageError("prefix length must be non-negative")
    return Vector(v.p, tuple((i, c) for i, c in v.entries if i < k))


@dataclass(frozen=True)
class Subspace:
    """A subspace given by its reduced echelon basis (unique per subspace).

    Each basis vector's least coordinate is its pivot, pivots strictly
    ascend, pivot coefficients are 1, and no pivot coordinate occurs in
    any other basis vector.
    """

    p: int
    basis: tuple[Vector, ...] = ()

    def __post_init__(self):
        check_prime(self.p)
        prev = -1
        pivots = []
        for b in self.basis:
            if b.p != self.p:
                raise UsageError("basis vector modulus differs from subspace modulus")
            if b.is_zero:
                raise UsageError("zero vector cannot be a basis vector")
            lead = b.lead_index
            if lead <= prev:
                raise UsageError("basis pivots must strictly ascend")
            if b.coeff(lead) != 1:
                raise UsageError("pivot coefficient must be 1")
            pivots.append(lead)
            prev = lead
        pivot_set = set(pivots)
        for b in self.basis:
            for i, _ in b.entries[1:]:
                if i in pivot_set:
                    raise UsageError("pivot coordinate reused in another basis vector")

    @property
    def dimension(self) -> int:
        return len(self.basis)

    @property
    def size(self) -> int:
        return self.p**self.dimension

    def reduce(self, v: Vector) -> Vector:
        """Residual of v after eliminating against the basis."""
        if v.p != self.p:
            raise UsageError(f"mixed moduli {self.p} and {v.p}")
        return _eliminate(self.basis, v)

    def contains(self, v: Vector) -> bool:
        return self.reduce(v).is_zero

    def contains_subspace(self, other: "Subspace") -> bool:
        return all(self.contains(b) for b in other.basis)

    def enumerate_elements(self, cap: int = DEFAULT_ENUM_CAP) -> Iterator[Vector]:
        """All elements, coefficients over the basis in lexicographic order
        (first basis vector most significant); the zero vector comes first.
        The one check of an enumeration against its cap: a subspace larger
        than ``cap`` raises before anything is yielded."""
        if self.size > cap:
            raise ResourceError(
                f"enumeration of {self.size} elements exceeds cap {cap}"
            )
        for coeffs in itertools.product(range(self.p), repeat=self.dimension):
            v = Vector(self.p)
            for c, b in zip(coeffs, self.basis):
                if c:
                    v = v + b.scale(c)
            yield v

    def max_index(self) -> int:
        return max((b.max_index for b in self.basis), default=-1)


def _eliminate(rows: Iterable[Vector], v: Vector) -> Vector:
    """Clear each row's pivot coordinate from v (rows have pivot coefficient 1)."""
    for b in rows:
        c = v.coeff(b.lead_index)
        if c:
            v = v + b.scale(-c)
    return v


def _insert_echelon(rows: list[Vector], v: Vector) -> Vector | None:
    """Insert v into echelon rows; returns the normalized new row or None."""
    v = _eliminate(rows, v)
    if v.is_zero:
        return None
    v = v.scale(pow(v.entries[0][1], -1, v.p))
    lead = v.lead_index
    for idx, b in enumerate(rows):
        c = b.coeff(lead)
        if c:
            rows[idx] = b + v.scale(-c)
    rows.append(v)
    rows.sort(key=lambda b: b.lead_index)
    return v


def span_of(gens: Iterable[Vector], p: int | None = None) -> Subspace:
    """Canonical echelon basis of the span of the generators."""
    rows: list[Vector] = []
    for v in gens:
        if p is None:
            p = v.p
        elif v.p != p:
            raise UsageError(f"mixed moduli {p} and {v.p}")
        _insert_echelon(rows, v)
    if p is None:
        raise UsageError("span of an empty set needs an explicit p")
    return Subspace(p, tuple(rows))


def annihilator(s: Subspace, n: int) -> Subspace:
    """Ann(s) = {v in F_p^n : sum_i v_i t_i = 0 for every t in s}, as its
    reduced echelon basis.  An echelon pass on the reversed coordinates
    gives s rows t whose pivot is their greatest coordinate; then for each
    other coordinate f, e_f - sum_t t_f e_pivot(t) has least coordinate f,
    so these n - dim s vectors are already reduced echelon."""
    p = s.p

    def flip(t: Vector) -> Vector:  # coordinate i moved to n - 1 - i
        return Vector(p, tuple((n - 1 - i, c) for i, c in reversed(t.entries)))

    rows = [flip(t) for t in span_of(map(flip, s.basis), p).basis]
    tails: dict[int, list] = {f: [] for f in range(n)}
    for t in reversed(rows):  # ascending pivots: each tail comes out sorted
        del tails[t.max_index]
        for f, c in t.entries[:-1]:
            tails[f].append((t.max_index, -c % p))
    return Subspace(p, tuple(Vector(p, ((f, 1), *tail)) for f, tail in tails.items()))


def complement_within(s: Subspace, horizon: int) -> Subspace:
    """Deterministic complement inside the full horizon-dimensional space:
    standard vectors at the non-pivot coordinates, ascending."""
    if s.max_index() >= horizon:
        raise UsageError(
            f"subspace supported at {s.max_index()} exceeds horizon {horizon}"
        )
    pivots = {b.lead_index for b in s.basis}
    basis = tuple(unit(s.p, i) for i in range(horizon) if i not in pivots)
    return Subspace(s.p, basis)
