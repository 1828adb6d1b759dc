"""The boundary of a boundary is zero on every chain complex the package builds.

The (co)homology passes reduce one (co)boundary matrix after another with
clearing, which is sound only when every composite of two of them is zero;
no run checks that, since the simplicial identity guarantees it.  Here the
composites are summed term by term over Z, straight from the columns that
``chain_complex(K)`` and ``_PieceChains`` hand out, with no package check
code: on every fixture, on the subdivision of every fixture, on products of
fixture pairs, on pieces, and on the random complexes of the property
tests.  A negative control flips one sign and reads a nonzero composite.
"""

import random
from itertools import combinations_with_replacement

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cohodist.complexes import Subcomplex, barycentric_subdivision, product
from cohodist.fixtures import fixture_complex, fixture_names
from cohodist.homology import ChainComplexData, _PieceChains, chain_complex

from .test_properties import complexes


def composite(outgoing, incoming) -> list:
    """The nonzero columns of outgoing o incoming over Z, both given as
    columns of signed rows (``r`` for +1, ``~r`` for -1), each as a dict
    row -> nonzero entry, with its column index."""
    out = []
    for j, col in enumerate(incoming):
        image = {}
        for i in col:
            sign, i = (1, i) if i >= 0 else (-1, ~i)
            for r in outgoing[i]:
                s, r = (sign, r) if r >= 0 else (-sign, ~r)
                image[r] = image.get(r, 0) + s
        image = {r: x for r, x in image.items() if x}
        if image:
            out.append((j, image))
    return out


def assert_chain_complex(data):
    """Both composites of every degree are zero: boundaries and coboundaries."""
    for d in range(1, data.dim):
        assert composite(data.sparse_boundary(d), data.sparse_boundary(d + 1)) == [], d
        assert composite(data.sparse_coboundary(d), data.sparse_coboundary(d - 1)) == [], d


def pieces(K, data, rng, count=2):
    for _ in range(count):
        faces = rng.sample(K.maximal_faces, max(1, len(K.maximal_faces) // 2))
        yield _PieceChains(data, Subcomplex.spanned_by(K, faces).mask)


@pytest.mark.parametrize("name", fixture_names())
def test_fixtures_and_their_pieces(name):
    K = fixture_complex(name)
    data = chain_complex(K)
    assert_chain_complex(data)
    for piece in pieces(K, data, random.Random(name)):
        assert_chain_complex(piece)


@pytest.mark.parametrize("name", fixture_names())
def test_subdivisions_and_their_pieces(name):
    # sd(cp2) and sd(s2xs2) included: the subdivisions the passes run on,
    # built as chain_complex builds them but not kept in its cache
    K = barycentric_subdivision(fixture_complex(name))[0]
    data = ChainComplexData(K)
    assert_chain_complex(data)
    for piece in pieces(K, data, random.Random(name), count=1):
        assert_chain_complex(piece)


SMALL = ("point", "edge", "c3", "k5", "s2", "rp2", "torus")


@pytest.mark.parametrize("pair", list(combinations_with_replacement(SMALL, 2)),
                         ids="x".join)
def test_products(pair):
    P = product(*map(fixture_complex, pair))[0]
    assert_chain_complex(ChainComplexData(P))


@settings(derandomize=True, deadline=None, max_examples=100)
@given(K=complexes(), data=st.data())
def test_random_complexes_and_pieces(K, data):
    chains = ChainComplexData(K)
    assert_chain_complex(chains)
    faces = data.draw(st.lists(st.sampled_from(K.maximal_faces), min_size=1, unique=True))
    assert_chain_complex(_PieceChains(chains, Subcomplex.spanned_by(K, faces).mask))


def unsigned(r):
    return r if r >= 0 else ~r


@pytest.mark.parametrize("name", ["rp2", "cp2"])
def test_one_flipped_sign_reads_nonzero(name):
    # flip the sign of one face of one triangle of sd(K): the composite
    # with the edges' boundary reads 2 times that face's boundary there
    data = ChainComplexData(barycentric_subdivision(fixture_complex(name))[0])
    triangles = list(data.sparse_boundary(2))
    rng = random.Random(name)
    j, i = rng.randrange(len(triangles)), rng.randrange(3)
    col = list(triangles[j])
    col[i] = ~col[i]
    triangles[j] = tuple(col)
    edges = data.sparse_boundary(1)
    sign = 2 if col[i] >= 0 else -2
    want = {unsigned(r): sign if r >= 0 else -sign for r in edges[unsigned(col[i])]}
    assert composite(edges, triangles) == [(j, want)]
    if data.dim >= 3:
        # and the composite with the tetrahedra reads nonzero in the
        # column of each tetrahedron that has the triangle as a face
        tetrahedra = data.sparse_boundary(3)
        hit = [t for t, _ in composite(triangles, tetrahedra)]
        assert hit and hit == [t for t, col in enumerate(tetrahedra)
                               if j in map(unsigned, col)]
    assert_chain_complex(data)  # its own columns are as they were
