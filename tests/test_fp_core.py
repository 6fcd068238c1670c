import itertools
import random

import pytest

from atomlab.errors import UsageError
from atomlab.fp_core import (
    MR_EXACT_BELOW,
    Subspace,
    Vector,
    check_prime,
    complement_within,
    is_prime,
    project_prefix,
    span_of,
    unit,
)


def e(i, p=2):
    return unit(p, i)


def all_vectors(p, horizon):
    return list(span_of((unit(p, i) for i in range(horizon)), p).enumerate_elements())


class TestScalars:
    """Scalars are plain ints, reduced mod p where a vector uses them."""

    def test_normalization_and_arithmetic(self):
        v = e(0, 3)
        assert v.scale(5) == v.scale(2) == Vector(3, ((0, 2),))
        assert v.scale(-1) == v.scale(2)
        assert v.scale(2).scale(2) == v  # 2*2 = 4 = 1 mod 3
        assert v.scale(3).is_zero

    def test_non_prime_rejected(self):
        with pytest.raises(UsageError):
            unit(4, 0)

    def test_mixed_moduli_rejected(self):
        with pytest.raises(UsageError):
            span_of([e(0, 3)]).reduce(e(0, 2))

    def test_non_int_rejected(self):
        with pytest.raises(UsageError):
            e(0).scale(1.5)


class TestPrimality:
    @staticmethod
    def trial_division(n):
        return n >= 2 and all(n % d for d in range(2, int(n**0.5) + 1))

    def test_matches_trial_division_below_twenty_thousand(self):
        assert [n for n in range(20000) if is_prime(n)] == [
            n for n in range(20000) if self.trial_division(n)
        ]

    def test_strong_pseudoprimes_are_composite(self):
        # 2047 fools base 2 alone; 3215031751 fools the bases 2, 3, 5 and 7
        for n in (2047, 3215031751):
            assert not self.trial_division(n)
            assert not is_prime(n)

    def test_large_primes(self):
        assert is_prime(2**61 - 1) and is_prime(2**89 - 1)
        assert not is_prime((2**61 - 1) * (2**31 - 1))

    def test_moduli_from_the_exactness_bound_up_are_refused(self):
        # the bound is itself a strong pseudoprime to every base used
        assert MR_EXACT_BELOW == 1287836182261 * 2575672364521
        assert is_prime(MR_EXACT_BELOW)
        for p in (MR_EXACT_BELOW, 2**89 - 1):
            with pytest.raises(UsageError, match=f"not below {MR_EXACT_BELOW}"):
                check_prime(p)
        assert check_prime(2**61 - 1) == 2**61 - 1


class TestVectorCombine:
    """Linear combinations built from ``scale`` and ``+``."""

    def test_characteristic_two_cancellation(self):
        assert e(0).scale(1) + e(0).scale(1) == Vector(2)

    def test_disjoint_supports(self):
        v = e(0).scale(1) + e(1).scale(1)
        assert v == Vector.from_dict(2, {0: 1, 1: 1})

    def test_mod_three_wraparound(self):
        v = e(0, 3).scale(2) + e(0, 3).scale(2)
        assert v == Vector.from_dict(3, {0: 1})

    def test_prime_mismatch(self):
        with pytest.raises(UsageError):
            e(0, 2) + e(0, 3)


class TestVector:
    def test_canonical_sparse_form(self):
        assert Vector.from_dict(2, {3: 2, 0: 1}) == Vector(2, ((0, 1),))
        assert Vector.from_dict(3, {1: 5}).entries == ((1, 2),)

    def test_text_round_trip(self):
        v = Vector.from_dict(2, {0: 1, 2: 1})
        assert v.to_text() == "0:1,2:1"
        assert Vector.from_text("0:1,2:1", 2) == v
        assert Vector(2).to_text() == ""
        assert Vector.from_text("", 2) == Vector(2)
        assert Vector.from_text("∅", 2) == Vector(2)

    def test_bad_text(self):
        with pytest.raises(UsageError):
            Vector.from_text("0:1,0:1", 2)
        with pytest.raises(UsageError):
            Vector.from_text("nope", 2)


class TestSpan:
    def test_dependent_generator_dropped(self):
        s = span_of([e(0), e(1), e(0) + e(1)])
        assert s.dimension == 2
        assert s.basis == (e(0), e(1))

    def test_empty_span(self):
        assert span_of([], 2).dimension == 0

    def test_scalar_multiples(self):
        s = span_of([e(0, 3), e(0, 3).scale(2)])
        assert s.dimension == 1
        assert s.basis == (e(0, 3),)

    def test_canonicity_under_shuffle(self):
        rng = random.Random(7)
        for p in (2, 3, 5):
            for _ in range(100):
                gens = [
                    Vector.from_dict(p, {i: rng.randrange(p) for i in range(5)})
                    for _ in range(rng.randint(0, 4))
                ]
                shuffled = gens[:]
                rng.shuffle(shuffled)
                assert span_of(gens, p) == span_of(shuffled, p)


class TestInSpan:
    def test_examples(self):
        s = span_of([e(0), e(1)])
        assert s.contains(e(0) + e(1))
        assert not s.contains(e(2))
        assert span_of([], 2).contains(Vector(2))

    def test_against_brute_force(self):
        rng = random.Random(11)
        for p in (2, 3):
            for _ in range(20):
                gens = [
                    Vector.from_dict(p, {i: rng.randrange(p) for i in range(4)})
                    for _ in range(rng.randint(0, 3))
                ]
                s = span_of(gens, p)
                reachable = set()
                for coeffs in itertools.product(range(p), repeat=len(gens)):
                    acc = Vector(p)
                    for c, g in zip(coeffs, gens):
                        acc = acc + g.scale(c)
                    reachable.add(acc)
                for v in all_vectors(p, 4):
                    assert s.contains(v) == (v in reachable)


class TestComplement:
    def test_complement_of_zero_is_everything(self):
        t = complement_within(span_of([], 2), 2)
        assert t == span_of([e(0), e(1)])

    def test_complement_of_full_is_zero(self):
        t = complement_within(span_of([e(0), e(1)]), 2)
        assert t.dimension == 0

    def test_diagonal_line(self):
        # postconditions checked by enumerating all 4 vectors of the plane
        s = span_of([e(0) + e(1)])
        t = complement_within(s, 2)
        assert t.dimension == 1
        both = span_of(s.basis + t.basis, 2)
        for v in all_vectors(2, 2):
            assert both.contains(v)
            if s.contains(v) and t.contains(v):
                assert v.is_zero

    def test_horizon_exceeded(self):
        with pytest.raises(UsageError):
            complement_within(span_of([e(5)]), 2)

    def test_exhaustive_over_f2_4(self):
        vecs = all_vectors(2, 4)
        subspaces = set()
        for r in range(5):
            for combo in itertools.combinations(vecs, r):
                subspaces.add(span_of(combo, 2))
        assert len(subspaces) == 67  # Gaussian binomial count for F_2^4
        for s in subspaces:
            t = complement_within(s, 4)
            assert s.dimension + t.dimension == 4
            assert span_of(s.basis + t.basis, 2).dimension == 4
            for v in t.enumerate_elements():
                assert v.is_zero or not s.contains(v)


class TestProjectPrefix:
    def test_examples(self):
        assert project_prefix(e(0), 1) == e(0)
        assert project_prefix(e(1), 1) == Vector(2)
        assert project_prefix(e(0) + e(3), 2) == e(0)

    def test_linearity_exhaustive(self):
        for p in (2, 3):
            vecs = all_vectors(p, 4)
            for u in vecs:
                for v in vecs:
                    for k in range(5):
                        assert project_prefix(u + v, k) == project_prefix(
                            u, k
                        ) + project_prefix(v, k)


class TestSubspaceInvariants:
    def test_rejects_non_echelon_basis(self):
        with pytest.raises(UsageError):
            Subspace(2, (e(1), e(0)))  # pivots must ascend
        with pytest.raises(UsageError):
            Subspace(3, (e(0, 3).scale(2),))  # pivot coefficient must be 1

    def test_mixed_prime_generators(self):
        with pytest.raises(UsageError):
            span_of([e(0, 2), e(1, 3)])
