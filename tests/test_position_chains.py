"""Subdivision, boundary columns and chain maps on vertex positions against
the label-based references of :mod:`reference_chains`.

Every fixture is checked in shuffled vertex orders, so that faces,
boundary signs and chain-map signs are read off orders other than the
labels' own, and so are sd(sd(figure1)) and s2 x s2 with its projections.
"""

import random

import pytest

from cohodist.complexes import (
    SimplicialMap,
    barycentric_subdivision,
    from_maximal_faces,
    product,
)
from cohodist.fixtures import fixture_complex, fixture_names
from cohodist.homology import ChainComplexData, chain_map

from .reference_chains import (
    decoded,
    reference_chain_map,
    reference_columns,
    reference_product,
    reference_subdivision,
)
from .test_complex_constructor import assert_same


def shuffled(K, seed):
    """K with its vertices in a seeded random order."""
    order = random.Random(seed).sample(K.vertices, len(K.vertices))
    return from_maximal_faces(K.maximal_faces, order=order, require_connected=False)


def assert_same_columns(K):
    data = ChainComplexData(K)
    for d in range(1, K.dim + 1):
        cols = [[decoded(r) for r in col] for col in data.sparse_boundary(d)]
        assert cols == reference_columns(K, d)


def assert_same_chain_map(phi):
    for d in range(phi.source.dim + 1):
        assert [decoded(e) for e in chain_map(phi, d)] == reference_chain_map(phi, d)


def check_subdivision(K):
    """sd K, its carrier, their chain data and the carrier's chain map match
    the references."""
    sd, carrier = barycentric_subdivision(K)
    ref, ref_carrier = reference_subdivision(K)
    assert_same(sd, ref)
    assert carrier.assignment == ref_carrier.assignment
    assert carrier.image_positions() == [K.position(carrier(v)) for v in sd.vertices]
    assert_same_columns(K)
    assert_same_columns(sd)
    assert_same_chain_map(carrier)
    return sd


@pytest.mark.parametrize("name", fixture_names())
def test_every_fixture_in_shuffled_orders(name):
    K = fixture_complex(name)
    for seed in range(2):
        L = shuffled(K, f"{name}:{seed}")
        check_subdivision(L)
        # the identity between two vertex orders carries every sign there is
        assert_same_chain_map(SimplicialMap(L, K, {v: v for v in L.vertices}))
        assert_same_chain_map(SimplicialMap(K, L, {v: v for v in K.vertices}))


def test_second_subdivision():
    sd = check_subdivision(fixture_complex("figure1"))
    check_subdivision(sd)


def check_product(K, L):
    P, pi1, pi2 = product(K, L)
    ref, ref1, ref2 = reference_product(K, L)
    assert_same(P, ref)
    assert pi1.assignment == ref1.assignment and pi2.assignment == ref2.assignment
    assert_same_columns(P)
    assert_same_chain_map(pi1)
    assert_same_chain_map(pi2)


def test_product_and_projections():
    s2 = fixture_complex("s2")
    check_product(s2, s2)
    # with the factors in shuffled orders the staircase signs change
    check_product(shuffled(s2, "a"), shuffled(s2, "b"))
    check_product(fixture_complex("edge"), shuffled(fixture_complex("rp2"), "c"))
