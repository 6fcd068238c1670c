"""Workload ``towers``: pair towers and the refutation of choice supports.

A round is one operation per tower height 2..10.  At height h it builds
the tower, calls ``swap_effect`` for every level, acts on one element of
the top level by every level's swap (``act_hf`` on an object of about
2^h nodes), and runs ``refute_pcf`` for three proposed supports whose
least missing level is 0, h//2 and h-1.  The objects are deep and only
basis elements act, so ``act_hf`` and the selection enumeration of
``refute_pcf`` (3^i * 2^(h-i) selections) do the work, and no large
subgroup is enumerated.

Height 11 is left out so that a run holds enough rounds for ten samples
beyond the tail quantile.  With 9 slots per round, the median (rank 4.5)
and the tail quantile 7.5/9 fall in the middle of one height's samples.
"""

from __future__ import annotations

import random

from atomlab.atom_action import act_hf
from atomlab.counterexample import build_tower, level_swap, refute_pcf, swap_effect

import harness

TAIL_Q = 7.5 / 9  # the middle of the height-9 samples
HEIGHTS = range(2, 11)
PLAN_ROUNDS = 32


def make_plan(seed: int) -> list[list[dict]]:
    """Per round and height, the proposed supports: every level below the
    swap level i, plus a random subset of the levels above it."""
    plan = []
    for r in range(PLAN_ROUNDS):
        rng = random.Random(f"towers:{seed}:{r}")
        plan.append(
            [
                {
                    "h": h,
                    "supports": [
                        list(range(i)) + [n for n in range(i + 1, h) if rng.random() < 0.5]
                        for i in sorted({0, h // 2, h - 1})
                    ],
                }
                for h in HEIGHTS
            ]
        )
    return plan


def describe(plan: list[list[dict]]) -> dict:
    ops = [op for rnd in plan for op in rnd]
    heights = [op["h"] for op in ops]
    return {
        "ops": len(ops),
        "tower_height": {h: heights.count(h) for h in sorted(set(heights))},
        "refute_supports": sum(len(op["supports"]) for op in ops),
        "beyond_cap_frac": 0.0,
    }


class TowerOp:
    kind = "tower"

    def __init__(self, spec: dict):
        self.h = spec["h"]
        self.supports = spec["supports"]

    def run(self, rec: harness.Recorder) -> dict:
        tower = rec.call("counterexample.build_tower", build_tower, self.h)
        effects = [
            rec.call("counterexample.swap_effect", swap_effect, tower, i)
            for i in range(self.h)
        ]
        top = tower.level_pair(self.h - 1)
        moved = [
            rec.call("atom_action.act_hf", act_hf, top[0], level_swap(tower, i))
            for i in range(self.h)
        ]
        reports = []
        for s in self.supports:
            rep = rec.call("counterexample.refute_pcf", refute_pcf, tower, s)
            rec.add("counterexample.refute_pcf.selections", rep.selections_checked)
            reports.append(rep)
        return {"tower": tower, "effects": effects, "top": top, "moved": moved, "reports": reports}

    def check(self, out: dict, exc: BaseException | None) -> str:
        if exc is not None:
            return harness.WRONG
        h = self.h
        tower, top = out["tower"], out["top"]
        ok = (
            tower.height == h
            and all(len(level) == 2 for level in tower.levels)
            and out["effects"] == [[(n, n >= i) for n in range(h)] for i in range(h)]
            # every swap moves the top level, so it sends one element to the other
            and all(m == top[1] for m in out["moved"])
        )
        for s, rep in zip(self.supports, out["reports"]):
            i = min(set(range(h)) - set(s))
            ok = (
                ok
                and rep.swap_level == i
                and rep.selections_checked == 3**i * 2 ** (h - i)
                and [w.n for w in rep.witnesses] == list(range(i, h))
                and all(w.moved for w in rep.witnesses)
            )
        return harness.OK if ok else harness.WRONG


def build(plan: list[list[dict]]) -> list[list]:
    return [[TowerOp(s) for s in rnd] for rnd in plan]
