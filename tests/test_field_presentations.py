"""The one-pass field (co)homology against the degree-by-degree reference.

``homology._presentations`` builds every degree over a field from one
reduction per (co)boundary matrix, with clearing.  Here it is compared,
degree by degree, with :func:`presentation_path.field_presentation_by_degree`
and with the oracles' Betti numbers, and its generators and coordinates
are checked directly.
"""

import gc
import random
import tracemalloc

import pytest

from cohodist.complexes import Subcomplex, barycentric_subdivision
from cohodist.errors import BoundaryNotInCyclesError
from cohodist.exactalg import GF, GF2, QQ, Matrix, _z_presentations, rank
from cohodist.fixtures import fixture_complex, fixture_names
from cohodist.homology import (
    COHOMOLOGY,
    HOMOLOGY,
    ChainComplexData,
    _PieceChains,
    _presentations,
    _transpose,
    chain_complex,
)

from .oracles import betti_mod, boundary_rows, closure_of, rank_fraction, simplices_by_dim
from .presentation_path import field_presentation_by_degree, z_presentation_by_degree
from .test_complexes import rand_complex

RINGS = (GF2, GF(3), QQ)
VARIANCES = (COHOMOLOGY, HOMOLOGY)


def betti_q(faces):
    """Betti numbers over Q straight from the face list."""
    by_dim = simplices_by_dim(closure_of(faces))
    top = max(by_dim)
    ranks = [0] + [rank_fraction(boundary_rows(by_dim, d)) for d in range(1, top + 1)] + [0]
    return tuple(len(by_dim[d]) - ranks[d] - ranks[d + 1] for d in range(top + 1))


def oracle_betti(faces, ring):
    return betti_q(faces) if ring == QQ else betti_mod(faces, ring.p)


def apply(ring, cols, nrows, vec):
    """The image of a dense vector under the map with columns of signed
    rows (r for +1, ~r for -1)."""
    out = [ring.zero] * nrows
    for x, col in zip(vec, cols):
        if x:
            for r in col:
                if r >= 0:
                    out[r] = ring.normalize(out[r] + x)
                else:
                    out[~r] = ring.normalize(out[~r] - x)
    return out


def maps_of(data, variance, d):
    """(incoming columns, outgoing columns, rows of the outgoing map) at degree d."""
    if variance == COHOMOLOGY:
        incoming = data.sparse_coboundary(d - 1) if d >= 1 else []
        return incoming, data.sparse_coboundary(d), data.rank_of(d + 1)
    return data.sparse_boundary(d + 1), data.sparse_boundary(d), data.rank_of(d - 1)


def check_against_reference(data, ring, variance, betti, rng):
    modules = _presentations(data, ring, variance)
    assert sorted(modules) == list(range(data.dim + 1))
    for d, pres in modules.items():
        ref = field_presentation_by_degree(data, ring, variance, d)
        n = data.rank_of(d)
        assert pres.group_str() == ref.group_str() and pres.orders == ref.orders
        assert pres.ambient_dim == n
        k = pres.ngens
        unit = [[ring.one if i == j else ring.zero for i in range(k)] for j in range(k)]
        incoming, outgoing, nrows = maps_of(data, variance, d)
        for j, gen in enumerate(pres.gens):
            assert not any(apply(ring, outgoing, nrows, gen)), "generator is no cycle"
            assert list(pres.coordinates(gen)) == unit[j]
        # the generators are independent modulo the boundaries, read through
        # the reference's own coordinates
        if k:
            cols = [ref.coordinates(gen) for gen in pres.gens]
            assert rank(Matrix.from_columns(ring, cols, k)) == k
        # a boundary has zero coordinates, also with a generator added to it
        for col in incoming:
            dense = apply(ring, [col], n, [ring.one])
            assert not any(pres.coordinates(dense))
        if incoming and k:
            mix = [ring.zero] * n
            for col in rng.sample(incoming, min(4, len(incoming))):
                c = ring.normalize(rng.randint(1, 5))
                mix = [ring.normalize(a + b) for a, b in zip(mix, apply(ring, [col], n, [c]))]
            j = rng.randrange(k)
            mix = [ring.normalize(a + b) for a, b in zip(mix, pres.gens[j])]
            assert list(pres.coordinates(mix)) == unit[j]
    assert tuple(modules[d].free_rank for d in range(data.dim + 1)) == betti


def cases():
    rng = random.Random(2011)
    for i in range(12):
        yield f"random{i}", rand_complex(rng, max_vertices=7)
    for name in fixture_names():
        yield name, fixture_complex(name)
    yield "sd(figure1)", barycentric_subdivision(fixture_complex("figure1"))[0]


CASES = list(cases())


@pytest.mark.parametrize("ring", RINGS, ids=str)
@pytest.mark.parametrize("name,K", CASES, ids=[name for name, _ in CASES])
def test_one_pass_matches_reference(name, K, ring):
    betti = oracle_betti(K.maximal_faces, ring)
    rng = random.Random(name)
    for variance in VARIANCES:
        check_against_reference(chain_complex(K), ring, variance, betti, rng)


@pytest.mark.parametrize("name", ["rp2", "torus", "cp2"])
def test_pieces_match_reference(name):
    # a piece is a mask over its parent's chain complex, reduced on the
    # same path as a whole complex
    K = fixture_complex(name)
    data = chain_complex(K)
    rng = random.Random(name)
    for _ in range(3):
        faces = rng.sample(K.maximal_faces, max(1, len(K.maximal_faces) // 2))
        piece = _PieceChains(data, Subcomplex.spanned_by(K, faces).mask)
        for ring in RINGS:
            betti = oracle_betti(faces, ring)
            for variance in VARIANCES:
                check_against_reference(piece, ring, variance, betti, rng)


class HandMade:
    """A chain complex given by its boundary columns."""

    def __init__(self, ranks, boundaries):
        self.ranks = ranks
        self.boundaries = boundaries  # degree -> columns of signed rows
        self.dim = len(ranks) - 1

    def rank_of(self, d):
        return self.ranks[d] if 0 <= d <= self.dim else 0

    def sparse_boundary(self, d):
        return self.boundaries.get(d, [[] for _ in range(self.rank_of(d))])

    def sparse_coboundary(self, d):
        return _transpose(self.sparse_boundary(d + 1), self.rank_of(d))


def check_groups(data, ring):
    """The presentations of both variances, each group checked against
    the degree-by-degree reference."""
    out = []
    for variance in VARIANCES:
        modules = _presentations(data, ring, variance)
        for d, pres in modules.items():
            ref = field_presentation_by_degree(data, ring, variance, d)
            assert pres.group_str() == ref.group_str()
        out.append(modules)
    return out


def test_boundary_of_boundary_not_zero_raises():
    # one vertex, one edge, one triangle, each boundary the generator below:
    # d o d is 1 in every ring.  The one-pass reduction assumes a chain
    # complex, over Z as over a field (tests/test_boundary_invariant.py
    # checks that the package's chain data is one); the degree-by-degree
    # references and the Smith normal form walk over Z refuse it
    data = HandMade([1, 1, 1], {1: [(0,)], 2: [(0,)]})
    for variance in VARIANCES:
        for ring in RINGS:
            with pytest.raises(BoundaryNotInCyclesError):
                field_presentation_by_degree(data, ring, variance, 1)
        with pytest.raises(BoundaryNotInCyclesError):
            z_presentation_by_degree(data, variance, 1)
        if variance == COHOMOLOGY:
            steps = [(data.rank_of(d), data.sparse_coboundary(d)) for d in range(3)]
        else:
            steps = [(data.rank_of(d), data.sparse_boundary(d)) for d in range(2, -1, -1)]
        with pytest.raises(BoundaryNotInCyclesError):
            _z_presentations(steps)


def test_boundary_of_boundary_checked_in_the_ring():
    # d o d is 2: zero over Z_2, where this is a chain complex, not over Z_3 or Q
    data = HandMade([1, 2, 1], {1: [(0,), (0,)], 2: [(0, 1)]})
    check_groups(data, GF2)
    for ring in (GF(3), QQ):
        for variance in VARIANCES:
            with pytest.raises(BoundaryNotInCyclesError):
                field_presentation_by_degree(data, ring, variance, 1)


def test_boundary_of_boundary_content_three():
    # d o d is 3: zero over Z_3 only
    data = HandMade([1, 3, 1], {1: [(0,)] * 3, 2: [(0, 1, 2)]})
    check_groups(data, GF(3))
    for ring in (GF2, QQ):
        for variance in VARIANCES:
            with pytest.raises(BoundaryNotInCyclesError):
                field_presentation_by_degree(data, ring, variance, 1)


class TestContentFallback:
    """Chain complexes whose columns are no simplicial boundary's."""

    def check(self, data, betti):
        for ring in RINGS:
            for modules in check_groups(data, ring):
                assert tuple(modules[d].free_rank for d in range(3)) == betti

    def test_zero_composite_with_other_signs(self):
        # a triangle 012 with its edge 02 oriented 2 -> 0: the triangle
        # takes that edge with sign +1, so no position has the sign
        # (-1)^i throughout, and the composite is still zero
        edges = [(1, ~0), (~2, 0), (2, ~1)]  # 01, 20, 12
        self.check(HandMade([3, 3, 1], {1: edges, 2: [(2, 1, 0)]}), (1, 0, 0))

    def test_zero_composite_with_uneven_columns(self):
        # two edges from vertex 0 to vertex 1 bound a disk with two sides:
        # its column has two entries where a triangle's would have three
        edges = [(1, ~0), (1, ~0)]
        self.check(HandMade([2, 2, 1], {1: edges, 2: [(0, ~1)]}), (1, 0, 0))


def test_one_flipped_sign_in_a_subdivision():
    # flipping the sign of one face of one triangle of sd(cp2) makes both
    # composites that meet it 2 times a nonzero chain, so the chain
    # complex is one over Z_2 only, where its groups are those of sd(cp2)
    good = ChainComplexData(barycentric_subdivision(fixture_complex("cp2"))[0])
    data = ChainComplexData(good.complex)
    col = list(data._sparse[2][7])
    col[1] = ~col[1]
    data._sparse[2][7] = tuple(col)
    for variance in VARIANCES:
        flipped = _presentations(data, GF2, variance)
        want = _presentations(good, GF2, variance)
        assert [p.group_str() for p in flipped.values()] == [p.group_str() for p in want.values()]


def test_gf2_cohomology_of_a_subdivision_stays_small():
    # GF(2) vectors are stored from their lowest row: the pivots of sd(cp2)
    # hold a few set bits each, not ints as long as their highest row.  The
    # traced peak was 14.3 MiB with full-length ints and is about 7.3 MiB
    data = ChainComplexData(barycentric_subdivision(fixture_complex("cp2"))[0])
    tracemalloc.start()
    try:
        modules = _presentations(data, GF2, COHOMOLOGY)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert [modules[d].group_str() for d in range(5)] == ["Z_2", "0", "Z_2", "0", "Z_2"]
    assert peak < 10 * 2**20


def test_gf2_homology_of_a_subdivision_keeps_no_converted_lazy_pivots():
    # a lazy pivot is converted for each reduction that reads it and never
    # kept, so the homology module of sd(cp2) holds its image pivots and
    # its lazy columns' signed rows only: about 2.6 MiB traced, where
    # keeping a bitset per lazy pivot read held about 3.9 MiB
    data = ChainComplexData(barycentric_subdivision(fixture_complex("cp2"))[0])
    tracemalloc.start()
    try:
        modules = _presentations(data, GF2, HOMOLOGY)
        gc.collect()
        kept = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert [modules[d].group_str() for d in range(5)] == ["Z_2", "0", "Z_2", "0", "Z_2"]
    assert kept < 3.2 * 2**20


def test_signed_rows_share_their_ints():
    # every ~r of a boundary is read from one list of negative rows, and
    # every ~j of a transposed column j is computed once
    data = chain_complex(barycentric_subdivision(fixture_complex("cp2"))[0])
    for d in range(1, data.dim + 1):
        negative = {id(r) for col in data.sparse_boundary(d) for r in col if r < 0}
        assert len(negative) <= data.rank_of(d - 1)
        negative = {id(j) for col in data.sparse_coboundary(d - 1) for j in col if j < 0}
        assert len(negative) <= data.rank_of(d)
