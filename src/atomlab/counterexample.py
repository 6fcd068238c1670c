"""Pair towers and the defeat of small-support partial choice functions.

Level 0 is the two-atom cell over e_0; level i+1 is the two-element set
of bijections from level i to the cell over e_{i+1}, each bijection
encoded as the set of its two (input, output) pairs.  The empty set
supports every level, yet the one-coordinate group element at the least
level outside a proposed support swaps that level and, by propagation,
every level above it, so it moves every pick of every choice selection
touching those levels.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable

from .atom_action import (
    FiniteSet,
    GroupElement,
    HFObject,
    HFTuple,
    act_hf,
    hf_to_json,
    leaf,
    sort_key,
)
from .errors import InternalConsistencyError, ResourceError, UsageError
from .fp_core import unit
from .supports import is_support

DEFAULT_TOWER_CAP = 12
TOWER_P = 2


@dataclass(frozen=True)
class PairTower:
    """cells[i] is the two-atom cell over e_i; levels[i] the i-th pair set."""

    cells: tuple[FiniteSet, ...]
    levels: tuple[FiniteSet, ...]

    @property
    def height(self) -> int:
        return len(self.levels)

    def level_pair(self, n: int) -> tuple[HFObject, HFObject]:
        a, b = self.levels[n].sorted_members()
        return a, b


def build_tower(height: int, cap: int = DEFAULT_TOWER_CAP) -> PairTower:
    """Construct the tower and check its defining invariants as it grows."""
    if height < 1:
        raise UsageError("tower height must be at least 1")
    if height > cap:
        raise ResourceError(f"tower height {height} exceeds cap {cap}")
    p = TOWER_P
    cells = tuple(
        FiniteSet((leaf(0, unit(p, i)), leaf(1, unit(p, i)))) for i in range(height)
    )
    levels = [cells[0]]
    for i in range(1, height):
        u, v = sorted(levels[-1], key=sort_key)
        a0, a1 = sorted(cells[i], key=sort_key)
        straight = FiniteSet((HFTuple((u, a0)), HFTuple((v, a1))))
        crossed = FiniteSet((HFTuple((u, a1)), HFTuple((v, a0))))
        levels.append(FiniteSet((straight, crossed)))
    tower = PairTower(cells, tuple(levels))
    for n, level in enumerate(tower.levels):
        if len(level) != 2:
            raise InternalConsistencyError(f"level {n} does not have 2 elements")
        if not is_support((), level, height, p=p):
            raise InternalConsistencyError(f"level {n} is not supported by the empty set")
    return tower


def level_swap(tower: PairTower, i: int) -> GroupElement:
    """The group element flipping exactly the cell at level i."""
    if not 0 <= i < tower.height:
        raise UsageError(f"level {i} outside tower of height {tower.height}")
    return GroupElement.delta(TOWER_P, tower.height, i)


def swap_effect(tower: PairTower, i: int) -> list[tuple[int, bool]]:
    """Per level n, whether the level-i swap exchanges the two elements; it
    must exchange them exactly when n >= i and fix them otherwise."""
    g = level_swap(tower, i)
    effects = []
    for n in range(tower.height):
        u, v = tower.level_pair(n)
        image = (act_hf(u, g), act_hf(v, g))
        if image not in ((u, v), (v, u)):
            raise InternalConsistencyError(f"level {n} is not preserved by {g}")
        swapped = image == (v, u)
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
    the least index missing from the proposed support upward.

    The swap at that index moves both elements of every level above it,
    hence moves every pick there; all selections with domain between
    {i..height-1} and the full index set are enumerated outright.
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
    g = level_swap(tower, i)

    moved_to: dict[HFObject, HFObject] = {}
    witnesses = []
    for n in range(i, tower.height):
        u, v = tower.level_pair(n)
        gu, gv = act_hf(u, g), act_hf(v, g)
        if (gu, gv) != (v, u):
            raise InternalConsistencyError(f"swap at {i} failed to move level {n}")
        moved_to[u], moved_to[v] = gu, gv
        witnesses.append(LevelWitness(n, True, (u, v), (gu, gv)))
    for n in range(i):
        u, v = tower.level_pair(n)
        moved_to[u], moved_to[v] = u, v

    checked = 0
    lower_options = [(None, *tower.level_pair(n)) for n in range(i)]
    upper_options = [tower.level_pair(n) for n in range(i, tower.height)]
    for lower in itertools.product(*lower_options):
        for upper in itertools.product(*upper_options):
            picks = {n: x for n, x in enumerate(lower) if x is not None}
            picks.update({i + j: x for j, x in enumerate(upper)})
            if not any(moved_to[x] != x for x in picks.values()):
                raise InternalConsistencyError(
                    "a selection survived the swap; refutation failed"
                )
            checked += 1
    return RefutationReport(tuple(sorted(s)), i, g, tuple(witnesses), checked)
