"""Property tests for the F_p core, the action on HF objects, supports,
log* and thinness certificates.

Hypothesis draws random objects at p in {2, 3} (span densities also at
p = 5); the examples are derandomized so that every run checks the same
cases.
"""

import itertools
import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from atomlab.atom_action import (
    Atom,
    AtomLeaf,
    FiniteSet,
    GroupElement,
    HFTuple,
    act_hf,
    atoms_of,
    hf_from_json,
    hf_to_json,
    orbit,
    pointwise_stabilizer,
    stabilizer_in,
)
from atomlab.errors import CertificateError, UsageError
from atomlab.fp_core import (
    Vector,
    annihilator,
    last_annihilator_vector,
    project_prefix,
    span_of,
)
from atomlab.supports import find_small_support, is_support, reduce_support_step
from atomlab.thin_ideal import certificate_violations, density_d_k, log_star_p
from atomlab.verify import (
    group_oracle,
    iterated_log_star,
    orbit_built_instance,
    random_dag,
    random_hf,
    random_reduction_instance,
    random_vector,
    support_oracle,
    transporters_match_the_lifts,
    tree_act,
    tree_atoms,
)

HORIZON = 3
PROPERTY = settings(max_examples=100, deadline=None, database=None, derandomize=True)


def vectors(p):
    coords = st.dictionaries(st.integers(0, HORIZON - 1), st.integers(0, p - 1))
    return coords.map(lambda d: Vector.from_dict(p, d))


def atoms(p):
    return st.builds(Atom, st.integers(-10, 10), vectors(p))


def hf_objects(p):
    children = lambda inner: st.lists(inner, max_size=3)  # noqa: E731
    return st.recursive(
        atoms(p).map(AtomLeaf),
        lambda inner: children(inner).map(FiniteSet) | children(inner).map(HFTuple),
        max_leaves=10,
    )


def group_elements(p):
    coords = st.tuples(*[st.integers(0, p - 1)] * HORIZON)
    return coords.map(lambda c: GroupElement.from_coords(p, c))


primes = st.sampled_from([2, 3])


@PROPERTY
@given(st.data())
def test_identity_returns_the_object_itself(data):
    p = data.draw(primes)
    x = data.draw(hf_objects(p))
    assert act_hf(x, GroupElement(Vector(p), HORIZON)) is x


@PROPERTY
@given(st.data())
def test_acting_twice_is_acting_by_the_composite(data):
    p = data.draw(primes)
    x = data.draw(hf_objects(p))
    g, h = data.draw(group_elements(p)), data.draw(group_elements(p))
    assert act_hf(act_hf(x, g), h) == act_hf(x, g + h)


def distinct_leaves(x):
    if isinstance(x, AtomLeaf):
        return {id(x)}
    return set().union(*map(distinct_leaves, x))


@PROPERTY
@given(primes, st.integers(1, 5), st.integers(0, 2**32), st.data())
def test_shared_subterms_act_and_list_as_the_expanded_tree(p, depth, seed, data):
    x = random_dag(random.Random(seed), p, HORIZON, depth)
    g = data.draw(group_elements(p))
    assert hf_to_json(act_hf(x, g)) == hf_to_json(tree_act(x, g))
    listed = list(atoms_of(x))
    assert set(listed) == set(tree_atoms(x))
    assert len(listed) == len(distinct_leaves(x))


@PROPERTY
@given(st.data())
def test_json_round_trip(data):
    p = data.draw(primes)
    x = data.draw(hf_objects(p))
    assert hf_from_json(hf_to_json(x), p) == x


@PROPERTY
@given(st.data())
def test_atom_text_round_trip(data):
    p = data.draw(primes)
    a = data.draw(atoms(p))
    assert Atom.from_text(a.to_text(), p) == a


@PROPERTY
@given(st.data(), st.integers())
def test_atom_residue_is_reduced_int(data, a):
    w = data.draw(vectors(data.draw(primes)))
    assert Atom(a, w).a == a % w.p


@PROPERTY
@given(
    st.data(),
    st.one_of(st.floats(allow_nan=False), st.text(max_size=3), st.none(), st.tuples()),
)
def test_atom_rejects_non_int_residue(data, a):
    w = data.draw(vectors(data.draw(primes)))
    with pytest.raises(UsageError):
        Atom(a, w)


@PROPERTY
@given(st.data())
def test_span_ignores_generator_order(data):
    p = data.draw(primes)
    gens = data.draw(st.lists(vectors(p), max_size=5))
    shuffled = data.draw(st.permutations(gens))
    assert span_of(gens, p) == span_of(shuffled, p)


@PROPERTY
@given(st.data())
def test_span_membership_matches_brute_force_combinations(data):
    p = data.draw(primes)
    gens = data.draw(st.lists(vectors(p), max_size=4))
    combinations = set()
    for coeffs in itertools.product(range(p), repeat=len(gens)):
        v = Vector(p)
        for c, g in zip(coeffs, gens):
            v = v + g.scale(c)
        combinations.add(v)
    span = span_of(gens, p)
    for coords in itertools.product(range(p), repeat=HORIZON):
        v = Vector.from_dict(p, dict(enumerate(coords)))
        assert span.contains(v) == (v in combinations)


@PROPERTY
@given(st.data())
def test_support_stays_a_support_when_a_vector_is_added(data):
    p = data.draw(primes)
    x = data.draw(hf_objects(p))
    a = data.draw(st.lists(vectors(p), max_size=3))
    v = data.draw(vectors(p))
    assert not is_support(a, x, HORIZON, p) or is_support(a + [v], x, HORIZON, p)


@PROPERTY
@given(
    st.sampled_from([2, 3, 5]),
    st.integers(1, 4),
    st.sampled_from([random_hf, random_dag]),
    st.integers(0, 2**32),
)
def test_both_support_routes_match_the_brute_force_oracle(p, horizon, draw, seed):
    rng = random.Random(seed)
    a = [random_vector(rng, p, horizon) for _ in range(rng.randint(0, horizon))]
    x = draw(rng, p, horizon, 3)
    want = support_oracle(tuple(a), x, horizon, p)
    assert is_support(a, x, horizon, p) == want
    assert is_support(a, x, horizon, p, exhaustive=True) == want


@PROPERTY
@given(primes, st.integers(2, 4), st.integers(0, 2**32))
def test_reduced_support_is_a_support_by_brute_force(p, horizon, seed):
    base, supp, x, x_orbit = random_reduction_instance(random.Random(seed), p, horizon)
    result, _ = find_small_support(x, x_orbit, base, supp, horizon, p)
    assert len(result) <= len(base) + 1
    assert support_oracle(tuple(result), x, horizon, p)


@PROPERTY
@given(primes, st.integers(2, 4), st.integers(0, 2**32))
def test_reduction_witness_is_the_first_stabilizer_element_off_b1_b2(p, horizon, seed):
    base, supp, x, x_orbit = random_reduction_instance(random.Random(seed), p, horizon)
    _, _, step = reduce_support_step(x, x_orbit, base, supp, horizon, p)
    if not step.shortcut:
        b1, b2 = supp
        stab_x = stabilizer_in(x, pointwise_stabilizer(base, horizon, p))
        first = next(
            g
            for g in stab_x.elements()
            if (b1.dot_dense(g.coords), b2.dot_dense(g.coords)) != (0, 0)
        )
        assert step.h == first


@PROPERTY
@given(st.sampled_from([2, 3, 5]), st.integers(1, 4), st.integers(0, 2**32))
def test_orbit_and_stabilizer_over_ann_s_match_the_listed_group(p, horizon, seed):
    rng = random.Random(seed)
    s = [random_vector(rng, p, horizon) for _ in range(rng.randint(0, horizon))]
    x = random_hf(rng, p, horizon, 3)
    sub = pointwise_stabilizer(s, horizon, p)
    want_orbit, want_fixers = group_oracle(x, span_of(s, p), horizon, p)
    assert orbit(x, sub) == want_orbit
    assert {g.coords for g in stabilizer_in(x, sub).elements()} == want_fixers


@PROPERTY
@given(st.sampled_from([2, 3, 5]), st.integers(1, 4), st.integers(0, 2**32))
def test_queries_on_orbit_built_sets_match_the_oracles(p, horizon, seed):
    x, s = orbit_built_instance(random.Random(seed), p, horizon)
    sub = pointwise_stabilizer(s, horizon, p)
    want_orbit, want_fixers = group_oracle(x, span_of(s, p), horizon, p)
    assert orbit(x, sub) == want_orbit
    assert {g.coords for g in stabilizer_in(x, sub).elements()} == want_fixers
    assert is_support(s, x, horizon, p) == support_oracle(tuple(s), x, horizon, p)


@PROPERTY
@given(st.sampled_from([2, 3, 5]), st.integers(1, 4), st.integers(0, 2**32))
def test_transporters_match_acting_by_the_lifts(p, horizon, seed):
    rng = random.Random(seed)
    x, s = orbit_built_instance(rng, p, horizon)
    assert transporters_match_the_lifts(rng, x, s, horizon, p)


@PROPERTY
@given(st.sampled_from([2, 3, 5, 7]), st.integers(1, 9), st.data())
def test_last_annihilator_vector_is_the_reversed_scan(p, n, data):
    dense = st.lists(st.integers(0, p - 1), min_size=n, max_size=n)
    vector = dense.map(lambda c: Vector.from_dict(p, dict(enumerate(c))))
    s = span_of(data.draw(st.lists(vector, max_size=n)), p)
    b1, b2 = data.draw(vector), data.draw(vector)
    want = next(
        ((v, (b1.dot(v), b2.dot(v)))
         for v in reversed(annihilator(s, n).basis)
         if (b1.dot(v), b2.dot(v)) != (0, 0)),
        None,
    )  # fmt: skip
    assert last_annihilator_vector(s, (b1, b2)) == want


def pairing(u, v):
    return sum(c * v.coeff(i) for i, c in u.entries) % u.p


@PROPERTY
@given(st.sampled_from([2, 3, 5]), st.integers(0, 6), st.data())
def test_annihilator_laws(p, n, data):
    dense = st.lists(st.integers(0, p - 1), min_size=n, max_size=n)
    gens = data.draw(st.lists(dense, max_size=4))
    s = span_of((Vector.from_dict(p, dict(enumerate(g))) for g in gens), p)
    ann = annihilator(s, n)
    assert s.dimension + ann.dimension == n
    assert all(pairing(a, t) == 0 for a in ann.basis for t in s.basis)
    assert annihilator(ann, n) == s


@PROPERTY
@given(st.sampled_from([2, 3, 5]), st.data())
def test_span_density_counts_the_prefixes_of_the_listed_span(p, data):
    coords = st.dictionaries(st.integers(0, 5), st.integers(0, p - 1))
    gens = data.draw(st.lists(coords.map(lambda d: Vector.from_dict(p, d)), max_size=4))
    k = data.draw(st.integers(0, 7))
    span = span_of(gens, p)
    listed = {project_prefix(v, k) for v in span.enumerate_elements()}
    assert density_d_k(span, k) == len(listed)


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_logstar_matches_iterated_log_around_every_tower_below_2_to_70000(p):
    t = 1
    while t.bit_length() <= 70000:
        for n in (t - 1, t, t + 1):
            if n >= 1:
                assert log_star_p(n, p) == iterated_log_star(n, p), (p, n)
        if t >= 70000:
            break  # the next tower, p ** t >= 2 ** 70000, is never built
        t = p**t


def certificates():
    """Certificate JSON objects, valid and not (p = 4 is not prime), with
    tuples where JSON has lists, so that a dump and load changes their
    Python types."""
    moduli = st.sampled_from([2, 3, 4])
    texts = st.lists(vectors(3).map(Vector.to_text), max_size=3).map(tuple)
    checkpoints = st.lists(st.tuples(st.integers(0, 40), st.integers(0, 5)), max_size=4)
    leaves = (
        st.fixed_dictionaries({"kind": st.just("finite-set"), "p": moduli,
                               "elements": texts})
        | st.fixed_dictionaries({"kind": st.just("span-of-finite"), "p": moduli,
                                 "generators": texts})
        | st.fixed_dictionaries({"kind": st.just("extracted-stream"), "p": moduli,
                                 "window": st.integers(0, 64),
                                 "checkpoints": checkpoints.map(tuple)})
    )  # fmt: skip
    children = lambda inner: st.lists(inner, max_size=3).map(tuple)  # noqa: E731
    return st.recursive(
        leaves,
        lambda inner: st.fixed_dictionaries(
            {"kind": st.just("finite-union"), "children": children(inner)}
        ),
        max_leaves=6,
    )


def verdict(cert):
    try:
        return certificate_violations(cert)
    except CertificateError as exc:
        return f"error: {exc}"


@PROPERTY
@given(st.data())
def test_certificate_verdict_survives_json_round_trip(data):
    cert = data.draw(certificates())
    assert verdict(json.loads(json.dumps(cert))) == verdict(cert)
