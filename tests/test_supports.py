import itertools
import random

import pytest

from atomlab.atom_action import (
    FiniteSet,
    GroupElement,
    act_hf,
    leaf,
    pair,
)
from atomlab.errors import UsageError
from atomlab.fp_core import Vector, span_of, unit
from atomlab.supports import (
    find_small_support,
    is_support,
    normalize_supplement,
    reduce_support_step,
)
from atomlab.verify import random_reduction_instance, support_oracle


def e(i, p=2):
    return unit(p, i)


def matching(p, delta):
    """The bijection pairing (j, e0) with (j+delta, e1)."""
    e0, e1 = unit(p, 0), unit(p, 1)
    return FiniteSet(
        pair(leaf(j, e0), leaf((j + delta) % p, e1)) for j in range(p)
    )


def matching_orbit(p):
    return FiniteSet(matching(p, d) for d in range(p))


class TestIsSupport:
    def test_empty_set_supports_partition(self):
        for p in (2, 3):
            cells = span_of([e(0, p), e(1, p)]).enumerate_elements()
            part = FiniteSet(FiniteSet(leaf(a, w) for a in range(p)) for w in cells)
            assert is_support([], part, 2, p=p, exhaustive=True)

    def test_atom_supported_by_its_vector(self):
        assert is_support([e(0)], leaf(0, e(0)), 2, 2)

    def test_diagonal_supports_parallel_matching(self):
        # oracle: all 4 horizon-2 elements, fixing filtered by raw dot product
        x = matching(2, 0)
        for coords in itertools.product(range(2), repeat=2):
            if (coords[0] + coords[1]) % 2 == 0:  # fixes at e0+e1
                assert act_hf(x, GroupElement(2, coords)) == x
        assert is_support([e(0) + e(1)], x, 2, 2, exhaustive=True)

    def test_atom_not_supported_by_empty_set(self):
        assert not is_support([], leaf(0, e(0)), 2, 2)

    def test_support_claim_bundle(self):
        assert is_support(frozenset([e(0)]), leaf(0, e(0)), 2, 2)
        assert is_support(frozenset([e(0)]), leaf(0, e(0)), 2, 2, exhaustive=True)
        with pytest.raises(UsageError):  # a vector beyond the horizon
            is_support(frozenset([e(5)]), leaf(0, e(0)), 2, 2)
        with pytest.raises(UsageError):  # an object beyond the horizon
            is_support(frozenset(), leaf(0, e(5)), 2, 2)

    def test_monotone_under_enlargement(self):
        rng = random.Random(5)
        for p in (2, 3):
            for _ in range(60):
                vs = [
                    Vector.from_dict(p, {i: rng.randrange(p) for i in range(3)})
                    for _ in range(rng.randrange(3))
                ]
                extra = vs + [
                    Vector.from_dict(p, {i: rng.randrange(p) for i in range(3)})
                ]
                x = FiniteSet(
                    [leaf(rng.randrange(p), vs[0] if vs else unit(p, 0))]
                )
                if is_support(vs, x, 3, p):
                    assert is_support(extra, x, 3, p)

    def test_span_equivalence_random(self):
        rng = random.Random(6)
        for p in (2, 3):
            for _ in range(40):
                vs = [
                    Vector.from_dict(p, {i: rng.randrange(p) for i in range(3)})
                    for _ in range(rng.randrange(3))
                ]
                spanned = list(span_of(vs, p).enumerate_elements())
                basis = list(span_of(vs, p).basis)
                x = pair(leaf(0, unit(p, rng.randrange(3))), leaf(1, unit(p, 0)))
                r = is_support(vs, x, 3, p)
                assert r == is_support(basis, x, 3, p)
                assert r == is_support(spanned, x, 3, p)


class TestReduceStep:
    def test_p2_matching_fixture(self):
        x = matching(2, 0)
        b, b_new, step = reduce_support_step(
            x, matching_orbit(2), (), [e(0), e(1)], 2, 2
        )
        assert b == e(0) + e(1)
        assert b_new == [e(0) + e(1)]
        assert step.h == GroupElement(2, (1, 1))
        assert (step.m, step.n) == (1, 1)
        assert not step.shortcut
        # oracle: the result must survive full stabilizer enumeration
        assert support_oracle((b,), x, 2, 2)

    def test_p3_matching_fixture(self):
        p = 3
        x = matching(p, 0)
        b, b_new, step = reduce_support_step(
            x, matching_orbit(p), (), [e(0, p), e(1, p)], 2, p
        )
        assert b == e(0, p) + e(1, p).scale(2)
        assert step.h == GroupElement(3, (1, 1))
        assert (step.m, step.n) == (1, 1)
        # h fixes at b: 1*1 + 2*1 = 0 mod 3
        assert b.dot_dense(step.h.coords) == 0
        assert support_oracle((b,), x, 2, p)

    def test_proper_subset_shortcut(self):
        x = leaf(0, e(1))
        orbit_set = FiniteSet([leaf(0, e(1)), leaf(1, e(1))])
        b, b_new, step = reduce_support_step(
            x, orbit_set, (), [e(0), e(1)], 2, 2
        )
        assert step.shortcut
        assert b is None
        assert b_new == [e(1)]

    def test_rejects_wrong_orbit_size(self):
        x = matching(2, 0)
        with pytest.raises(UsageError):
            reduce_support_step(x, FiniteSet([x]), (), [e(0), e(1)], 2, 2)

    def test_rejects_x_outside_orbit(self):
        with pytest.raises(UsageError):
            reduce_support_step(
                leaf(0, e(0)), matching_orbit(2), (), [e(0), e(1)], 2, 2
            )

    def test_rejects_dependent_supplement(self):
        x = matching(2, 0)
        with pytest.raises(UsageError):
            reduce_support_step(
                x, matching_orbit(2), (), [e(0), e(0)], 2, 2
            )

    def test_rejects_non_support(self):
        # the stabilizer of {e2, e1+e2} moves e0 freely, so it moves the matching
        x = matching(2, 0)
        with pytest.raises(UsageError):
            reduce_support_step(
                x, matching_orbit(2), (), [e(2), e(1) + e(2)], 3, 2
            )


class TestFindSmallSupport:
    def test_singleton_kept(self):
        x = leaf(0, e(0))
        orbit_set = FiniteSet([leaf(0, e(0)), leaf(1, e(0))])
        result, trace = find_small_support(x, orbit_set, (), [e(0)], 2, 2)
        assert result == {e(0)}
        assert trace.steps == ()

    def test_matching_reduces_in_one_step(self):
        x = matching(2, 0)
        result, trace = find_small_support(
            x, matching_orbit(2), (), [e(0), e(1)], 2, 2
        )
        assert result == {e(0) + e(1)}
        assert len(trace.steps) == 1

    def test_everything_fixed_reduces_to_base(self):
        x = FiniteSet([])
        orbit_set = FiniteSet([x, leaf(0, e(0))])
        result, trace = find_small_support(x, orbit_set, (), [e(0), e(1)], 2, 2)
        assert result == frozenset()
        assert all(s.shortcut for s in trace.steps)

    def test_supplement_normalized_against_base(self):
        # a supplement overlapping Span(A) is cleaned up, not rejected
        p = 2
        base = [e(2)]
        supp = [e(0) + e(2), e(1)]
        assert normalize_supplement(base, supp, p) == [e(0), e(1)]
        x = matching(2, 0)
        result, _ = find_small_support(
            x, matching_orbit(2), base, supp, 3, p
        )
        assert is_support(result, x, 3, p, exhaustive=True)

    def test_trace_json_shape(self):
        x = matching(2, 0)
        _, trace = find_small_support(x, matching_orbit(2), (), [e(0), e(1)], 2, 2)
        j = trace.to_json()
        assert j == [
            {
                "B_before": ["0:1", "1:1"],
                "h": "1,1",
                "m": 1,
                "n": 1,
                "b": "0:1,1:1",
                "shortcut": False,
            }
        ]


class TestRandomizedSoundness:
    def test_reduction_sound_small_sample(self):
        rng = random.Random(9)
        horizon = 4
        for p in (2, 3, 5):
            for _ in range(12):
                base, supp, x, x_orbit = random_reduction_instance(rng, p, horizon)
                result, _ = find_small_support(x, x_orbit, base, supp, horizon, p)
                assert len(result) <= len(base) + 1
                assert is_support(result, x, horizon, p)
                assert support_oracle(tuple(result), x, horizon, p)

    def test_orbit_dichotomy(self):
        from atomlab.atom_action import orbit, pointwise_stabilizer

        rng = random.Random(10)
        for p in (2, 3):
            for _ in range(15):
                base, _, x, x_orbit = random_reduction_instance(rng, p, 3)
                stab = pointwise_stabilizer(base, 3, p)
                for member in x_orbit:
                    assert len(orbit(member, stab)) in (1, p)
