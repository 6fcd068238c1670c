"""Pair towers and the defeat of small-support partial choice functions.

Level 0 is the two-atom cell over e_0; level i+1 is the two-element set
of bijections from level i to the cell over e_{i+1}, each bijection
encoded as the set of its two (input, output) pairs.  The empty set
supports every level, yet the one-coordinate group element at the least
level outside a proposed support swaps that level and, by propagation,
every level above it, so it moves every pick of every choice selection
touching those levels.

Both facts are decided by transporters (``atom_action.Transporters``),
computed once per tower from its own pairs: the empty set supports a
level when the level's transporter to itself has no rows, and a swap
fixes or exchanges a level's pair when its footprint functionals
satisfy the rows of the matching transporters.  Nothing here acts on a
tower or compares two of its objects; ``verify`` and the tests keep
acting and comparing as the oracle.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterable

from .atom_action import (
    Conditions,
    FiniteSet,
    GroupElement,
    GroupSubspace,
    HFObject,
    HFTuple,
    Transporters,
    hf_to_json,
    leaf,
    satisfies,
)
from .errors import InternalConsistencyError, ResourceError, UsageError
from .fp_core import unit

DEFAULT_TOWER_CAP = 12
TOWER_P = 2


@dataclass(frozen=True)
class LevelTransporters:
    """For one level L = {u, v}, as conditions on g: T(L, L) (g fixes the
    level), T(u, v) meet T(v, u) (g swaps the pair) and T(u, u) meet
    T(v, v) (g fixes both)."""

    level: Conditions
    swaps: Conditions
    fixes: Conditions


@dataclass(frozen=True)
class PairTower:
    """levels[i] is the i-th pair set; pairs[i] its two elements in
    canonical (sort-key) order."""

    levels: tuple[FiniteSet, ...]
    pairs: tuple[tuple[HFObject, HFObject], ...]

    @property
    def height(self) -> int:
        return len(self.levels)

    def level_pair(self, n: int) -> tuple[HFObject, HFObject]:
        return self.pairs[n]

    @cached_property
    def transporters(self) -> tuple[LevelTransporters, ...]:
        """Per level, its transporters in the full group of the tower's
        horizon, from one context shared by every level (level n + 1 is
        built from level n, so its transporters reuse theirs).  Only the
        conditions are kept, not the context.  The group is abelian, so
        T(v, u) = -T(u, v), and v has u's stabilizer when it lies in u's
        orbit."""
        group = GroupSubspace.full(TOWER_P, self.height)
        t = Transporters(HFTuple(self.levels), group)
        records = []
        for level, (u, v) in zip(self.levels, self.pairs):
            there = t.pullback(t(u, v))
            back = tuple((w, -b % TOWER_P) for w, b in there)
            fixes = t.pullback(t(u, u))
            if t(u, v) is t.empty:
                fixes += t.pullback(t(v, v))
            whole = t.pullback(t(level, level))
            records.append(LevelTransporters(whole, there + back, fixes))
        return tuple(records)


def build_tower(height: int, cap: int = DEFAULT_TOWER_CAP) -> PairTower:
    """Construct the tower and check its defining invariants as it grows.

    The pairs come out in canonical order without sorting: the cell is
    ((0, e_i), (1, e_i)), and from a canonical pair (u, v) and cell
    (a0, a1) the straight bijection {(u, a0), (v, a1)} sorts before the
    crossed one {(u, a1), (v, a0)}, since both list (u, _) first.  The
    empty set supports level n when T(L_n, L_n) sets no condition: every
    group element fixes it.
    """
    if height < 1:
        raise UsageError("tower height must be at least 1")
    if height > cap:
        raise ResourceError(f"tower height {height} exceeds cap {cap}")
    p = TOWER_P
    pairs = [(leaf(0, unit(p, 0)), leaf(1, unit(p, 0)))]
    for i in range(1, height):
        u, v = pairs[-1]
        a0, a1 = leaf(0, unit(p, i)), leaf(1, unit(p, i))
        straight = FiniteSet((HFTuple((u, a0)), HFTuple((v, a1))))
        crossed = FiniteSet((HFTuple((u, a1)), HFTuple((v, a0))))
        pairs.append((straight, crossed))
    tower = PairTower(tuple(FiniteSet(pair) for pair in pairs), tuple(pairs))
    for n, (level, record) in enumerate(zip(tower.levels, tower.transporters)):
        if len(level) != 2:
            raise InternalConsistencyError(f"level {n} does not have 2 elements")
        if record.level:
            raise InternalConsistencyError(f"level {n} is not supported by the empty set")
    return tower


def level_swap(tower: PairTower, i: int) -> GroupElement:
    """The group element flipping exactly the cell at level i."""
    if not 0 <= i < tower.height:
        raise UsageError(f"level {i} outside tower of height {tower.height}")
    return GroupElement(unit(TOWER_P, i), tower.height)


def swap_effect(tower: PairTower, i: int) -> list[tuple[int, bool]]:
    """Per level n, whether the level-i swap exchanges the two elements; it
    must exchange them exactly when n >= i and fix them otherwise.  Decided
    by whether the swap lies in the level's transporters: it fixes the pair,
    or it swaps the pair, or it moves the level outside {u, v}."""
    g = level_swap(tower, i)
    effects = []
    for n, record in enumerate(tower.transporters):
        swapped = not satisfies(record.fixes, g)
        if swapped and not satisfies(record.swaps, g):
            raise InternalConsistencyError(f"level {n} is not preserved by {g}")
        if swapped != (n >= i):
            raise InternalConsistencyError(
                f"swap at {i} acted wrongly at level {n}: swapped={swapped}"
            )
        effects.append((n, swapped))
    return effects


@dataclass(frozen=True)
class LevelWitness:
    n: int
    moved: bool
    before: tuple[HFObject, HFObject]
    after: tuple[HFObject, HFObject]


@dataclass(frozen=True)
class RefutationReport:
    proposed_support: tuple[int, ...]
    swap_level: int
    g: GroupElement
    witnesses: tuple[LevelWitness, ...]
    selections_checked: int

    def to_json(self) -> dict:
        return {
            "S": list(self.proposed_support),
            "i": self.swap_level,
            "g": self.g.to_text(),
            "levels": [
                {
                    "n": w.n,
                    "moved": w.moved,
                    "before": [hf_to_json(x) for x in w.before],
                    "after": [hf_to_json(x) for x in w.after],
                }
                for w in self.witnesses
            ],
        }


def refute_pcf(tower: PairTower, proposed: Iterable[int]) -> RefutationReport:
    """Defeat every choice selection whose domain covers the levels from
    the least index i missing from the proposed support upward.

    ``swap_effect`` checks that the swap at i exchanges the two elements
    of every level from i up and fixes those below, so every selection
    is moved at level i, its pick there being sent to the other element.
    A level below i offers no pick, u or v, and a level from i up offers
    u or v: 3^i * 2^(height - i) selections, counted, not listed.
    """
    s = frozenset(proposed)
    all_levels = frozenset(range(tower.height))
    if not s <= all_levels:
        raise UsageError("proposed support contains indices outside the tower")
    if s == all_levels:
        raise UsageError(
            "proposed support covers every level; no refuting level exists "
            "at finite height"
        )
    i = min(all_levels - s)
    swap_effect(tower, i)
    witnesses = tuple(
        LevelWitness(n, True, pair, pair[::-1])
        for n, pair in enumerate(tower.pairs[i:], i)
    )
    g = level_swap(tower, i)
    checked = 3**i * 2 ** (tower.height - i)
    return RefutationReport(tuple(sorted(s)), i, g, witnesses, checked)
