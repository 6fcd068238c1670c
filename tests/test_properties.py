"""Property tests for the F_p core and the action on HF objects.

Hypothesis draws random objects at p in {2, 3}; the examples are
derandomized so that every run checks the same cases.
"""

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
    compose,
    hf_from_json,
    hf_to_json,
)
from atomlab.errors import UsageError
from atomlab.fp_core import Vector, span_of

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
    return coords.map(lambda c: GroupElement(p, c))


primes = st.sampled_from([2, 3])


@PROPERTY
@given(st.data())
def test_identity_returns_the_object_itself(data):
    p = data.draw(primes)
    x = data.draw(hf_objects(p))
    assert act_hf(x, GroupElement.identity(p, HORIZON)) is x


@PROPERTY
@given(st.data())
def test_acting_twice_is_acting_by_the_composite(data):
    p = data.draw(primes)
    x = data.draw(hf_objects(p))
    g, h = data.draw(group_elements(p)), data.draw(group_elements(p))
    assert act_hf(act_hf(x, g), h) == act_hf(x, compose(g, h))


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
