import itertools
import random

import pytest

from atomlab.atom_action import (
    Atom,
    AtomLeaf,
    FiniteSet,
    GroupElement,
    GroupSubspace,
    HFTuple,
    act_atom,
    act_hf,
    atom,
    compose,
    from_kuratowski,
    hf_from_json,
    hf_to_json,
    leaf,
    orbit,
    pair,
    pointwise_stabilizer,
    stabilizer_in,
    to_kuratowski,
)
from atomlab.errors import ResourceError, UsageError
from atomlab.fp_core import Vector, span_of, unit


def e(i, p=2):
    return unit(p, i)


def full_group(p, horizon):
    return list(GroupSubspace.full(p, horizon).elements())


class TestActAtom:
    def test_formula(self):
        g = GroupElement(2, (1, 0))
        assert act_atom(atom(0, e(0)), g) == atom(1, e(0))

    def test_zero_cell_fixed_by_everything(self):
        for coords in itertools.product(range(2), repeat=3):
            g = GroupElement(2, coords)
            a = atom(1, Vector(2))
            assert act_atom(a, g) == a

    def test_formula_mod_three(self):
        g = GroupElement(3, (0, 2))
        assert act_atom(atom(1, e(1, 3).scale(2)), g) == atom(2, e(1, 3).scale(2))

    def test_horizon_exceeded_is_an_error(self):
        g = GroupElement(2, (1,))
        with pytest.raises(UsageError):
            act_atom(atom(0, e(3)), g)


class TestCompose:
    def test_involutions_mod_two(self):
        for g in full_group(2, 3):
            assert compose(g, g).is_identity

    def test_identity_neutral(self):
        g = GroupElement(3, (1, 2, 0))
        assert compose(g, GroupElement.identity(3, 3)) == g

    def test_order_three(self):
        g = GroupElement(3, (1, 0))
        assert compose(compose(g, g), g).is_identity

    def test_order_p_exhaustive(self):
        for p in (2, 3, 5):
            for g in full_group(p, 3):
                acc = GroupElement.identity(p, 3)
                for k in range(1, p + 1):
                    acc = compose(acc, g)
                    if not g.is_identity and k < p:
                        assert not acc.is_identity
                assert acc.is_identity

    def test_mismatches(self):
        with pytest.raises(UsageError):
            compose(GroupElement(2, (1,)), GroupElement(2, (1, 0)))
        with pytest.raises(UsageError):
            compose(GroupElement(2, (1,)), GroupElement(3, (1,)))


class TestPointwiseStabilizer:
    def test_single_condition(self):
        stab = pointwise_stabilizer([e(0)], 2, 2)
        assert stab.dimension == 1
        for g in stab.elements():
            assert g.coords[0] == 0

    def test_empty_set_gives_full_group(self):
        assert pointwise_stabilizer([], 2, 2).dimension == 2

    def test_full_rank_gives_identity_only(self):
        stab = pointwise_stabilizer([e(0), e(1)], 2, 2)
        assert stab.dimension == 0
        assert [g.is_identity for g in stab.elements()] == [True]

    def test_annihilator_characterization(self):
        for p in (2, 3):
            vs = [e(0, p) + e(1, p).scale(p - 1), e(2, p)]
            members = set(pointwise_stabilizer(vs, 3, p).elements())
            for g in full_group(p, 3):
                fixes = all(w.dot_dense(g.coords) == 0 for w in vs)
                assert (g in members) == fixes


class TestActHF:
    def test_cell_is_fixed_setwise(self):
        cell = FiniteSet([leaf(0, e(0)), leaf(1, e(0))])
        for g in full_group(2, 2):
            assert act_hf(cell, g) == cell

    def test_leaf_matches_act_atom(self):
        g = GroupElement(3, (2, 1))
        a = atom(1, e(0, 3))
        assert act_hf(AtomLeaf(a), g) == AtomLeaf(act_atom(a, g))

    def test_tuple_componentwise(self):
        g = GroupElement(2, (1, 0))
        t = pair(leaf(0, e(0)), leaf(0, e(1)))
        assert act_hf(t, g) == pair(leaf(1, e(0)), leaf(0, e(1)))

    def test_partition_supported_by_empty_set(self):
        cells = span_of([e(0), e(1)]).enumerate_elements()
        part = FiniteSet(FiniteSet([leaf(0, w), leaf(1, w)]) for w in cells)
        assert len(part) == 4
        for g in full_group(2, 2):
            assert act_hf(part, g) == part


class TestOrbitStabilizer:
    def test_atom_orbit_is_cell(self):
        for p in (2, 3):
            x = AtomLeaf(atom(0, e(0, p)))
            orb = orbit(x, GroupSubspace.full(p, 2))
            assert orb == {AtomLeaf(atom(j, e(0, p))) for j in range(p)}

    def test_trivial_subgroup_orbit(self):
        x = pair(leaf(0, e(0)), leaf(1, e(1)))
        assert orbit(x, pointwise_stabilizer([e(0), e(1)], 2, 2)) == {x}

    def test_pair_orbit_all_four(self):
        # oracle: apply the displayed formula for each of the 4 group elements
        expected = set()
        for g0, g1 in itertools.product(range(2), repeat=2):
            expected.add(pair(leaf(0 + g0, e(0)), leaf(0 + g1, e(1))))
        assert len(expected) == 4
        x = pair(leaf(0, e(0)), leaf(0, e(1)))
        assert orbit(x, GroupSubspace.full(2, 2)) == expected

    def test_atom_stabilizer(self):
        stab = stabilizer_in(AtomLeaf(atom(0, e(0))), GroupSubspace.full(2, 2))
        assert stab.dimension == 1
        assert all(g.coords[0] == 0 for g in stab.elements())

    def test_empty_set_stabilized_by_everything(self):
        h = GroupSubspace.full(2, 2)
        assert stabilizer_in(FiniteSet([]), h) == h

    def test_matching_stabilizer_index_two(self):
        matching = FiniteSet(
            [pair(leaf(j, e(0)), leaf(j, e(1))) for j in range(2)]
        )
        # oracle: filter all 4 elements by hand
        fixers = [
            coords
            for coords in itertools.product(range(2), repeat=2)
            if act_hf(matching, GroupElement(2, coords)) == matching
        ]
        assert sorted(fixers) == [(0, 0), (1, 1)]
        full = GroupSubspace.full(2, 2)
        stab = stabilizer_in(matching, full)
        assert stab.dimension == 1
        assert full.index_over(stab) == 2

    def test_orbit_cap(self):
        # the cap bounds the complement of the footprint kernel: rank 2 here
        x = pair(leaf(0, e(0)), leaf(0, e(1)))
        with pytest.raises(ResourceError, match="enumeration of 4 elements exceeds cap 3"):
            orbit(x, GroupSubspace.full(2, 3), cap=3)

    def test_stabilizer_cap_names_size_and_cap(self):
        x = pair(leaf(0, e(0)), leaf(0, e(1)))
        with pytest.raises(ResourceError, match="enumeration of 4 elements exceeds cap 3"):
            stabilizer_in(x, GroupSubspace.full(2, 3), cap=3)

    def test_footprint_kernel_is_not_enumerated(self):
        # 2^30 group elements, but x moves only through coordinate 0
        x = AtomLeaf(atom(0, e(0)))
        full = GroupSubspace.full(2, 30)
        assert orbit(x, full, cap=2) == {x, AtomLeaf(atom(1, e(0)))}
        assert stabilizer_in(x, full, cap=2) == pointwise_stabilizer([e(0)], 30, 2)

    def test_rank_two_object_at_horizon_one_hundred_thousand(self):
        # neither query lists or builds a basis of the 10^5-dimensional group
        horizon = 100_000
        x = pair(leaf(0, e(0)), leaf(0, e(horizon - 1)))
        full = GroupSubspace.full(2, horizon)
        assert len(orbit(x, full)) == 4
        assert stabilizer_in(x, full).dimension == horizon - 2

    def test_atom_beyond_horizon_is_an_error(self):
        x = pair(leaf(0, e(0)), leaf(0, e(5)))
        trivial = pointwise_stabilizer([e(0), e(1), e(2)], 3, 2)
        for sub in (GroupSubspace.full(2, 3), trivial):
            for query in (orbit, stabilizer_in):
                with pytest.raises(UsageError, match="exceeds horizon 3"):
                    query(x, sub)


class TestActionLaws:
    def test_identity_and_composition_random(self):
        rng = random.Random(3)
        for p in (2, 3):
            for horizon in (1, 2):
                group = full_group(p, horizon)
                ident = GroupElement.identity(p, horizon)
                for _ in range(20):
                    x = pair(
                        leaf(rng.randrange(p), e(rng.randrange(horizon), p)),
                        FiniteSet(
                            [leaf(rng.randrange(p), e(rng.randrange(horizon), p))]
                        ),
                    )
                    assert act_hf(x, ident) == x
                    for g in group:
                        for h in group:
                            assert act_hf(act_hf(x, g), h) == act_hf(
                                x, compose(g, h)
                            )
                            assert act_hf(act_hf(x, g), h) == act_hf(
                                act_hf(x, h), g
                            )


class TestKuratowski:
    def test_round_trip(self):
        t = pair(leaf(0, e(0)), leaf(1, e(1)))
        assert from_kuratowski(to_kuratowski(t)) == t

    def test_degenerate_pair(self):
        t = pair(leaf(0, e(0)), leaf(0, e(0)))
        enc = to_kuratowski(t)
        assert len(enc) == 1
        assert from_kuratowski(enc) == t

    def test_only_pairs(self):
        with pytest.raises(UsageError):
            to_kuratowski(HFTuple([leaf(0, e(0))]))

    def test_equivariance(self):
        t = pair(leaf(0, e(0)), FiniteSet([leaf(1, e(1))]))
        for coords in itertools.product(range(2), repeat=2):
            g = GroupElement(2, coords)
            assert to_kuratowski(act_hf(t, g)) == act_hf(to_kuratowski(t), g)


class TestSerialization:
    def test_atom_text_round_trip(self):
        a = atom(1, e(0) + e(2))
        assert a.to_text() == "(1|0:1,2:1)"
        assert Atom.from_text("(1|0:1,2:1)", 2) == a
        assert Atom.from_text("(1|)", 2) == atom(1, Vector(2))

    def test_group_element_text(self):
        g = GroupElement(3, (1, 0, 2))
        assert g.to_text() == "1,0,2"
        assert GroupElement.from_text("1,0,2", 3) == g

    def test_hf_json_round_trip(self):
        x = FiniteSet(
            [
                pair(leaf(0, e(0)), leaf(1, e(1))),
                AtomLeaf(atom(1, Vector(2))),
                FiniteSet([]),
            ]
        )
        j = hf_to_json(x)
        assert hf_from_json(j, 2) == x

    def test_set_serialization_is_sorted(self):
        x1 = FiniteSet([leaf(1, e(0)), leaf(0, e(0))])
        x2 = FiniteSet([leaf(0, e(0)), leaf(1, e(0))])
        assert hf_to_json(x1) == hf_to_json(x2)
        assert hf_to_json(x1)["set"][0] == {"atom": "(0|0:1)"}

    def test_scalar_type_on_atom(self):
        a = atom(1, e(0, 3))
        assert type(a.a) is int and a.a == 1
        assert Atom(7, e(0, 3)) == a  # reduced mod the vector's p
        with pytest.raises(UsageError):
            Atom(1.5, e(0, 3))
        with pytest.raises(UsageError):
            Atom("1", e(0, 3))
