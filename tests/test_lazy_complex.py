"""Label tuples of a complex are built only when they are read.

A :class:`SimplicialComplex` is built as vertex-position keys; its label
views (``simplices``, ``simplices_of_dim``, ``simplices_of_dim_all`` and
``maximal_faces``) are built from the keys on first read, all through
``SimplicialComplex._labels``.  The GF(2) path on a subdivision (chain
complex, (co)homology, and the carrier's induced map) must read none of
them, and equality and hash must not depend on whether they were read.
"""

import importlib
import random

import pytest

from cohodist.complexes import SimplicialComplex, barycentric_subdivision, product
from cohodist.exactalg import GF2
from cohodist.fixtures import fixture_complex, fixture_names
from cohodist.homology import chain_complex, cohomology, homology, induced_map

from .reference_complex import label_complex, reference_complex
from .test_complex_constructor import scrambled

complexes_module = importlib.import_module("cohodist.complexes")
homology_module = importlib.import_module("cohodist.homology")


@pytest.fixture
def label_reads(monkeypatch):
    """The complexes whose label tuples are built, one entry per build;
    the subdivision memo and the homology caches start empty so that every
    result is computed, on a subdivision no earlier test has read."""
    reads = []
    build = SimplicialComplex._labels

    def counting(self, keys):
        reads.append(self)
        return build(self, keys)

    monkeypatch.setattr(SimplicialComplex, "_labels", counting)
    monkeypatch.setattr(complexes_module, "_sd_cache", {})
    for cache in ("_chain_cache", "_graded_cache", "_chain_map_cache"):
        monkeypatch.setattr(homology_module, cache, {})
    return reads


@pytest.mark.parametrize("name", fixture_names())
def test_gf2_path_on_a_subdivision_builds_no_label(name, label_reads):
    K = fixture_complex(name)
    sd, carrier = barycentric_subdivision(K)
    chain_complex(sd)
    cohomology(sd, GF2)
    homology(sd, GF2)
    for variance in ("cohomology", "homology"):
        assert induced_map(carrier, GF2, variance).is_iso()
    assert not [L for L in label_reads if L == sd]
    # the counter sees the builds it should: reading a view builds it once
    sd.simplices_of_dim(0)
    sd.simplices_of_dim(0)
    assert sum(1 for L in label_reads if L is sd) == 1


def test_labels_are_built_once_and_kept(label_reads):
    sd, _ = barycentric_subdivision(fixture_complex("s2"))
    assert sd.simplices is sd.simplices
    assert sd.maximal_faces is sd.maximal_faces
    for d in range(sd.dim + 1):
        assert sd.simplices_of_dim(d) is sd.simplices_of_dim(d)
    sd.simplices_of_dim_all()
    # one build per degree and one for the maximal faces
    assert sum(1 for L in label_reads if L is sd) == sd.dim + 2


def fresh(K):
    """A new complex equal to K, built on positions, no label read."""
    keys = [k for d in range(K.dim + 1) for k in K.keys_of_dim(d)]
    return SimplicialComplex(K.vertices, keys)


@pytest.mark.parametrize("name", ["s2", "rp2", "c3xs2"])
def test_hash_does_not_depend_on_reading_labels(name):
    K = fixture_complex(name)
    unread = fresh(K)
    before = hash(unread)
    read = fresh(K)
    read.simplices_of_dim_all()
    _ = read.maximal_faces, read.simplices
    assert read._hash is None  # the hash is first taken after the reads
    assert hash(read) == before
    assert hash(unread) == before
    assert unread == read


@pytest.mark.parametrize("name", ["s2", "figure1", "torus"])
def test_labels_positions_and_scrambled_input_agree(name):
    K = fixture_complex(name)
    labels = K.simplices_of_dim_all()
    keys = [k for d in range(K.dim + 1) for k in K.keys_of_dim(d)]
    rng = random.Random(f"lazy:{name}")
    built = [
        label_complex(K.vertices, labels),
        SimplicialComplex(K.vertices, keys),
        label_complex(K.vertices, scrambled(rng, labels)),
        SimplicialComplex(K.vertices, scrambled(rng, keys)),
        reference_complex(K.vertices, scrambled(rng, labels)),
    ]
    for L in built:
        assert L == K and hash(L) == hash(K)
        assert L.simplices_of_dim_all() == labels
        assert L.maximal_faces == K.maximal_faces


def test_one_simplex_apart_is_unequal():
    s2 = fixture_complex("s2")
    P, _, _ = product(s2, s2)
    for K in (s2, P):
        keys = [k for d in range(K.dim + 1) for k in K.keys_of_dim(d)]
        for dropped in (K.maximal_keys()[0], K.maximal_keys()[-1]):
            smaller = SimplicialComplex(K.vertices, [k for k in keys if k != dropped])
            assert smaller != K and K != smaller
            assert smaller.f_vector() != K.f_vector()
        reordered = label_complex(K.vertices[::-1], K.simplices_of_dim_all())
        assert reordered != K
