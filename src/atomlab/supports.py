"""Support checking and constructive support reduction.

A set A of vectors supports an object x when the pointwise stabilizer
Ann(A), every group element fixing all atoms over A, fixes x.
``atom_action.fixed_by`` decides that by at most footprint-rank actions;
``exhaustive=True`` enumerates Ann(A) instead, as a cross-check.

``reduce_support_step`` shrinks a finite supplementary support B by one
element at a time: either some maximal proper subset of B already
suffices, or a witness h in the stabilizer of x (modulo the rest of B)
determines residues m, n at the first two vectors of B, and the single
combination m^-1*b1 - n^-1*b2 replaces the pair {b1, b2}.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from .atom_action import (
    FiniteSet,
    GroupElement,
    HFObject,
    act_hf,
    atoms_of,
    fixed_by,
    pointwise_stabilizer,
    stabilizer_in,
)
from .errors import InternalConsistencyError, UsageError
from .fp_core import (
    DEFAULT_ENUM_CAP,
    Vector,
    _insert_echelon,
    check_horizon,
    last_annihilator_vector,
    span_of,
)


def is_support(
    vectors: Iterable[Vector],
    x: HFObject,
    horizon: int,
    p: int,
    exhaustive: bool = False,
    cap: int = DEFAULT_ENUM_CAP,
) -> bool:
    """True iff every group element fixing at the given vectors fixes x.

    ``fixed_by`` decides it on the pointwise stabilizer; ``exhaustive=True``
    enumerates the whole stabilizer instead (debug cross-check).
    """
    stab = pointwise_stabilizer(vectors, horizon, p)
    if not exhaustive:
        return fixed_by(x, stab)  # checks x against the horizon first
    check_horizon((a.w for a in atoms_of(x)), horizon)  # before the cap check
    return all(act_hf(x, g) == x for g in stab.elements(cap))


@dataclass(frozen=True)
class ReductionStep:
    """One shrink of B.  ``shortcut`` marks the proper-subset branch, in
    which no witness h is involved and b is absent."""

    B_before: tuple[Vector, ...]
    h: GroupElement | None
    m: int | None
    n: int | None
    b: Vector | None
    shortcut: bool

    def to_json(self) -> dict:
        return {
            "B_before": [v.to_text() for v in self.B_before],
            "h": self.h.to_text() if self.h is not None else None,
            "m": self.m,
            "n": self.n,
            "b": self.b.to_text() if self.b is not None else None,
            "shortcut": self.shortcut,
        }


@dataclass(frozen=True)
class ReductionTrace:
    steps: tuple[ReductionStep, ...]

    def to_json(self) -> list:
        return [s.to_json() for s in self.steps]


def normalize_supplement(
    base: Iterable[Vector], supplement: Iterable[Vector], p: int
) -> list[Vector]:
    """Echelon-reduce the supplement against Span(base): the result is an
    independent list disjoint from the span, spanning the same total space."""
    rows = list(span_of(base, p).basis)
    out = []
    for v in supplement:
        added = _insert_echelon(rows, v)
        if added is not None:
            out.append(added)
    return out


def _validate_instance(
    x: HFObject,
    orbit_set: FiniteSet,
    base: tuple[Vector, ...],
    supplement: Sequence[Vector],
    horizon: int,
    p: int,
) -> None:
    if not isinstance(orbit_set, FiniteSet):
        raise UsageError("X must be a FiniteSet")
    if len(orbit_set) != p:
        raise UsageError(f"|X| must equal p={p}, got {len(orbit_set)}")
    if x not in orbit_set:
        raise UsageError("x must be an element of X")
    base_span = span_of(base, p)
    total = span_of(tuple(base) + tuple(supplement), p)
    if total.dimension != base_span.dimension + len(supplement):
        raise UsageError("B must be independent and disjoint from Span(A)")
    if not is_support(tuple(base) + tuple(supplement), x, horizon, p):
        raise UsageError("A union B must support x")


def reduce_support_step(
    x: HFObject,
    orbit_set: FiniteSet,
    base: Iterable[Vector],
    supplement: Sequence[Vector],
    horizon: int,
    p: int,
) -> tuple[Vector | None, list[Vector], ReductionStep]:
    """Shrink the supplementary support B by exactly one element.

    Returns (b, B', step) where A union B' still supports x and
    |B'| = |B| - 1.  b is the new combined vector, or None when a proper
    subset of B already sufficed.
    """
    base = tuple(base)
    supplement = list(supplement)
    if len(supplement) < 2:
        raise UsageError("reduction step needs |B| >= 2")
    _validate_instance(x, orbit_set, base, supplement, horizon, p)
    return _reduce_step(x, base, supplement, horizon, p)


def _reduce_step(
    x: HFObject,
    base: tuple[Vector, ...],
    supplement: list[Vector],
    horizon: int,
    p: int,
) -> tuple[Vector | None, list[Vector], ReductionStep]:
    """The body of ``reduce_support_step`` on an instance already
    validated, with |B| >= 2."""
    # (i) drop a single element if what remains already supports x
    for j in range(len(supplement)):
        trimmed = supplement[:j] + supplement[j + 1 :]
        if is_support(base + tuple(trimmed), x, horizon, p):
            step = ReductionStep(tuple(supplement), None, None, None, None, True)
            return None, trimmed, step

    b1, b2, rest = supplement[0], supplement[1], supplement[2:]
    big = pointwise_stabilizer(base + tuple(rest), horizon, p)
    stab_x = stabilizer_in(x, big)
    both_fixed = pointwise_stabilizer(base + tuple(supplement), horizon, p)
    for name, index in (
        ("[G':H]", big.index_over(stab_x)),
        ("[H:G'_(b1,b2)]", stab_x.index_over(both_fixed)),
    ):
        if index != p:
            raise InternalConsistencyError(
                f"{name} = {index} != p; X is not a genuine p-element orbit situation"
            )

    # h is the first element of stab_x = Ann(F), in enumeration order, that
    # does not fix at both b1 and b2.  That is the last basis vector that
    # does not: every element enumerated before it combines only later
    # basis vectors, and those all fix at b1 and b2.  It is built alone,
    # at the cost of F, b1 and b2, not by listing the H - dim F basis.
    v, (m, n) = last_annihilator_vector(stab_x.fixed, (b1, b2))
    h = GroupElement(v, horizon)
    if m == 0:
        b = b1
    elif n == 0:
        b = b2
    else:
        b = b1.scale(pow(m, -1, p)) - b2.scale(pow(n, -1, p))
    # both inclusions, checked outright: the stabilizer Ann(F) of x fixes
    # at b (b lies in F), and everything fixing at the reduced set fixes x
    if not stab_x.fixed.contains(b):
        raise InternalConsistencyError("stabilizer of x does not fix at b")
    new_supplement = [b] + rest
    if not is_support(base + tuple(new_supplement), x, horizon, p):
        raise InternalConsistencyError("reduced set fails to support x")
    step = ReductionStep(tuple(supplement), h, m, n, b, False)
    return b, new_supplement, step


def find_small_support(
    x: HFObject,
    orbit_set: FiniteSet,
    base: Iterable[Vector],
    supplement: Iterable[Vector],
    horizon: int,
    p: int,
) -> tuple[frozenset[Vector], ReductionTrace]:
    """Iterate the reduction until at most one supplementary vector remains.

    Returns (A union B_final, trace); the result is re-checked to support x.
    The instance is validated once: each step's output is again a valid
    instance (X and x are unchanged, the new b is independent modulo
    Span(A union rest), and the step checks that the reduced set
    supports x), so later steps do not validate it again.
    """
    base = tuple(base)
    current = normalize_supplement(base, supplement, p)
    _validate_instance(x, orbit_set, base, current, horizon, p)
    steps = []
    while len(current) >= 2:
        _, current, step = _reduce_step(x, base, current, horizon, p)
        steps.append(step)
    if len(current) == 1 and is_support(base, x, horizon, p):
        steps.append(ReductionStep(tuple(current), None, None, None, None, True))
        current = []
    result = frozenset(base) | set(current)
    if not is_support(result, x, horizon, p):
        raise InternalConsistencyError("reduction produced a non-support")
    return result, ReductionTrace(tuple(steps))
