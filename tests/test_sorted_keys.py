"""The builders hand the constructor their keys already sorted.

``from_maximal_faces`` (the closure of sorted keys), ``product`` (monotone
staircase chains) and ``barycentric_subdivision`` (each chain sorted once)
store their keys as they are, without the per-simplex normalization of
the general constructor (``complexes._keys_by_dim``).  They must store
exactly what the general constructor stores when it is given the same
simplices scrambled and repeated: the same keys per degree, in the same
order, with the degrees in the same order.
"""

import importlib
import random

import pytest
from hypothesis import given, settings

from cohodist.complexes import (
    SimplicialComplex,
    barycentric_subdivision,
    from_maximal_faces,
    product,
)
from cohodist.fixtures import fixture_complex, fixture_names

from .test_complex_constructor import scrambled
from .test_properties import complexes

complexes_module = importlib.import_module("cohodist.complexes")

SMALL = ("point", "edge", "c3", "s2", "rp2")


def assert_general_agrees(K, seed):
    """K's keys are those of the general constructor on K's simplices,
    each listed in a random vertex order, shuffled and some repeated."""
    keys = [k for d in range(K.dim + 1) for k in K.keys_of_dim(d)]
    general = SimplicialComplex(K.vertices, scrambled(random.Random(seed), keys))
    assert list(K._keys) == list(general._keys) == list(range(K.dim + 1))
    for d in range(-1, K.dim + 2):
        assert K.keys_of_dim(d) == general.keys_of_dim(d)
    assert K == general and hash(K) == hash(general)


@pytest.fixture
def memo(monkeypatch):
    """An empty subdivision memo, so that every subdivision is built."""
    monkeypatch.setattr(complexes_module, "_sd_cache", {})


@pytest.mark.parametrize("name", fixture_names())
def test_fixtures_and_their_subdivisions(name, memo):
    K = fixture_complex(name)
    assert_general_agrees(K, name)
    again = from_maximal_faces(K.maximal_faces[::-1], order=K.vertices)
    assert again == K
    assert_general_agrees(again, f"again {name}")
    sd, _ = barycentric_subdivision(K)
    assert_general_agrees(sd, f"sd {name}")


@pytest.mark.parametrize("left", SMALL)
@pytest.mark.parametrize("right", SMALL)
def test_products_of_small_fixtures(left, right):
    P, _, _ = product(fixture_complex(left), fixture_complex(right))
    assert_general_agrees(P, f"{left}x{right}")


def test_second_subdivision(memo):
    sd, _ = barycentric_subdivision(fixture_complex("figure1"))
    sd2, _ = barycentric_subdivision(sd)
    assert_general_agrees(sd2, "sd2 figure1")


@settings(derandomize=True, deadline=None, max_examples=100)
@given(K=complexes())
def test_hypothesis_complexes(K):
    assert_general_agrees(K, "K")
    assert_general_agrees(barycentric_subdivision(K)[0], "sd K")
    assert_general_agrees(product(K, K)[0], "K x K")


def test_builders_do_not_normalize(memo, monkeypatch):
    calls = []
    normalize = complexes_module._keys_by_dim

    def counting(simplices):
        calls.append(1)
        return normalize(simplices)

    monkeypatch.setattr(complexes_module, "_keys_by_dim", counting)
    K = from_maximal_faces(fixture_complex("rp2").maximal_faces)
    P, _, _ = product(K, fixture_complex("c3"))
    barycentric_subdivision(P)
    assert not calls
    SimplicialComplex(K.vertices, [(0,), (1,), (1, 0)])  # the counter counts
    assert len(calls) == 1
