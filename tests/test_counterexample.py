import itertools

import pytest

from atomlab.atom_action import (
    AtomLeaf,
    FiniteSet,
    GroupElement,
    HFObject,
    _Collection,
    act_hf,
    atoms_of,
    leaf,
    sort_key,
)
from atomlab.counterexample import (
    DEFAULT_TOWER_CAP,
    PairTower,
    build_tower,
    level_swap,
    refute_pcf,
    swap_effect,
)
from atomlab.errors import InternalConsistencyError, ResourceError, UsageError
from atomlab.fp_core import Vector, unit
from atomlab.supports import is_support


def e(i):
    return unit(2, i)


class TestBuildTower:
    def test_level_zero_is_the_first_cell(self):
        tower = build_tower(1)
        assert set(tower.levels[0]) == {leaf(0, e(0)), leaf(1, e(0))}

    def test_level_pairs_are_in_canonical_order(self):
        tower = build_tower(10)
        for n, level in enumerate(tower.levels):
            assert list(tower.level_pair(n)) == sorted(level, key=sort_key)

    def test_level_one_has_two_bijections(self):
        tower = build_tower(2)
        assert len(tower.levels[1]) == 2

    def test_all_levels_pairs(self):
        for height in range(1, 9):
            tower = build_tower(height)
            assert all(len(level) == 2 for level in tower.levels)

    def test_empty_set_supports_every_level(self):
        tower = build_tower(4)
        for level in tower.levels:
            assert is_support([], level, 4, p=2, exhaustive=True)

    def test_atoms_of_yields_each_shared_leaf_once(self):
        # the tree of level 11 has 12,284 leaves, over 24 distinct ones
        atoms = list(atoms_of(build_tower(12).levels[11]))
        assert len(atoms) == 24
        assert {(a.a, a.w.max_index) for a in atoms} == {
            (a, i) for a in (0, 1) for i in range(12)
        }

    def test_height_bounds(self):
        with pytest.raises(UsageError):
            build_tower(0)
        with pytest.raises(ResourceError):
            build_tower(13)


class TestSwapEffect:
    def test_swap_at_bottom_propagates_everywhere(self):
        tower = build_tower(3)
        assert swap_effect(tower, 0) == [(0, True), (1, True), (2, True)]

    def test_swap_at_one_fixes_level_zero(self):
        tower = build_tower(3)
        assert swap_effect(tower, 1) == [(0, False), (1, True), (2, True)]

    def test_identity_swaps_nothing(self):
        tower = build_tower(3)
        ident = GroupElement(Vector(2), 3)
        for n in range(3):
            u, v = tower.level_pair(n)
            assert act_hf(u, ident) is u and act_hf(v, ident) is v

    def test_contract_exhaustive(self):
        # oracle: act on both elements of every level and compare
        for height in range(1, DEFAULT_TOWER_CAP + 1):
            tower = build_tower(height)
            for i in range(height):
                g = level_swap(tower, i)
                acted = []
                for n, (u, v) in enumerate(tower.pairs):
                    image = (act_hf(u, g), act_hf(v, g))
                    assert image in ((u, v), (v, u))
                    acted.append((n, image != (u, v)))
                assert swap_effect(tower, i) == acted
                assert acted == [(n, n >= i) for n in range(height)]

    def test_decisions_neither_act_nor_compare(self, monkeypatch):
        calls = []

        def counted(name, method):
            def wrapper(*args):
                calls.append(name)
                return method(*args)

            return wrapper

        for cls, name in (
            (HFObject, "__eq__"),
            (AtomLeaf, "_act"),
            (_Collection, "_act"),
        ):
            monkeypatch.setattr(cls, name, counted(name, getattr(cls, name)))
        tower = build_tower(10)
        for i in range(10):
            swap_effect(tower, i)
        refute_pcf(tower, {0, 1, 2, 4})
        assert calls == []
        # the counters do count: one action and one comparison of equal DAGs
        assert act_hf(tower.levels[3], level_swap(tower, 0)) == tower.levels[3]
        assert "_act" in calls and "__eq__" in calls

    def test_broken_contract_is_refused(self):
        def tower(*pairs):
            return PairTower(tuple(FiniteSet(pr) for pr in pairs), tuple(pairs))

        # the swap at 0 sends level 0 outside {u, v}
        moved_out = tower((leaf(0, e(0)), leaf(0, e(1))), (leaf(0, e(1)), leaf(1, e(1))))
        with pytest.raises(InternalConsistencyError, match="level 0 is not preserved"):
            swap_effect(moved_out, 0)
        # the swap at 1 exchanges level 0, which lies below it
        early = tower((leaf(0, e(1)), leaf(1, e(1))), (leaf(0, e(1)), leaf(1, e(1))))
        with pytest.raises(InternalConsistencyError, match="acted wrongly at level 0"):
            swap_effect(early, 1)

    def test_shared_subterm_has_one_image(self):
        # both members of level 5 hold u_4; the level-2 swap sends it to
        # one image object, held by both image members
        tower = build_tower(6)
        _, v4 = tower.level_pair(4)
        image = act_hf(tower.levels[5], level_swap(tower, 2))
        firsts = [t.items[0] for m in image for t in m if t.items[0] == v4]
        assert len(firsts) == 2
        assert firsts[0] is firsts[1]

    def test_composition_consistency(self):
        tower = build_tower(5)
        for i in range(5):
            for j in range(5):
                gi, gj = level_swap(tower, i), level_swap(tower, j)
                for level in tower.levels:
                    assert act_hf(act_hf(level, gi), gj) == act_hf(level, gi + gj)


class TestRefutePCF:
    def test_gap_at_one(self):
        tower = build_tower(4)
        report = refute_pcf(tower, {0, 2})
        assert report.swap_level == 1
        assert [w.n for w in report.witnesses] == [1, 2, 3]
        assert all(w.moved for w in report.witnesses)
        # oracle: enumerate all 8 selections on levels 1..3 by hand
        swap = level_swap(tower, 1)
        options = [tower.level_pair(n) for n in (1, 2, 3)]
        for picks in itertools.product(*options):
            assert all(x in tower.levels[n] for n, x in zip((1, 2, 3), picks))
            assert [act_hf(x, swap) for x in picks] != list(picks)

    def test_empty_support_small_tower(self):
        tower = build_tower(2)
        report = refute_pcf(tower, set())
        assert report.swap_level == 0
        swap = level_swap(tower, 0)
        for picks in itertools.product(*(tower.level_pair(n) for n in (0, 1))):
            assert [act_hf(x, swap) for x in picks] != list(picks)

    def test_single_level(self):
        tower = build_tower(1)
        report = refute_pcf(tower, set())
        (witness,) = report.witnesses
        assert witness.moved
        assert set(witness.before) == set(witness.after)
        assert witness.before[0] != witness.after[0]

    def test_full_support_rejected(self):
        tower = build_tower(3)
        with pytest.raises(UsageError):
            refute_pcf(tower, {0, 1, 2})

    def test_out_of_range_support_rejected(self):
        tower = build_tower(2)
        with pytest.raises(UsageError):
            refute_pcf(tower, {5})

    def test_exhaustive_small_heights(self):
        # oracle: list every selection (a level below the swap is optional)
        # and act on each of its picks
        for height in range(1, 6):
            tower = build_tower(height)
            levels = range(height)
            for r in range(height):
                for s in itertools.combinations(levels, r):
                    report = refute_pcf(tower, s)
                    i = min(set(levels) - set(s))
                    assert report.swap_level == i
                    assert report.g == GroupElement(e(i), height)
                    options = [
                        ([None] if n < i else []) + sorted(level, key=sort_key)
                        for n, level in enumerate(tower.levels)
                    ]
                    count = 0
                    for picks in itertools.product(*options):
                        picks = [x for x in picks if x is not None]
                        assert any(act_hf(x, report.g) != x for x in picks)
                        count += 1
                    assert count == report.selections_checked

    def test_report_json_shape(self):
        tower = build_tower(2)
        j = refute_pcf(tower, {0}).to_json()
        assert sorted(j) == ["S", "g", "i", "levels"]
        assert j["S"] == [0]
        assert j["i"] == 1
        assert j["g"] == "0,1"
        assert [lv["n"] for lv in j["levels"]] == [1]
        for lv in j["levels"]:
            assert lv["moved"] is True
            assert len(lv["before"]) == 2 and len(lv["after"]) == 2
