"""Lazy pivots in the one-pass field reduction against the eager pass.

:func:`exactalg.field_presentations` keeps a column that meets no pivot
as its signed rows, and converts it each time a later column or a
``coordinates`` call reduces through it, without keeping the converted
copy.  :func:`presentation_path.eager_field_presentations`
converts and absorbs every kept column as it comes.  On random columns
of signed rows, many of which share their top row so that reductions do
meet lazy pivots, and on the subdivisions of cp2 and rp3 in both
variances, both must give the same generators, groups and coordinates.
The module is seeded and bounded.
"""

import random

import pytest

from cohodist import exactalg
from cohodist.complexes import barycentric_subdivision
from cohodist.exactalg import GF, GF2, QQ, field_presentations
from cohodist.fixtures import fixture_complex
from cohodist.homology import COHOMOLOGY, HOMOLOGY, _presentations, chain_complex

from .presentation_path import eager_field_presentations

RINGS = (GF2, GF(3), QQ)


def random_columns(rng, nrows, ncols):
    """Columns of signed rows (``r`` or ``~r``, distinct rows) below
    ``nrows``; about half of the nonempty ones take the top row of an
    earlier column."""
    cols, tops = [], []
    for _ in range(ncols):
        k = rng.randint(0, min(4, nrows))
        if k and tops and rng.random() < 0.5:
            top = rng.choice(tops)
            rows = [top] + rng.sample(range(top), min(k - 1, top))
        else:
            rows = rng.sample(range(nrows), k)
        if rows:
            tops.append(max(rows))
        rng.shuffle(rows)
        cols.append(tuple(r if rng.random() < 0.5 else ~r for r in rows))
    return cols


def image(ring, cols, nrows, vec):
    """The image of a dense vector under the map with these columns."""
    out = [0] * nrows
    for x, col in zip(vec, cols):
        for r in col:
            if r >= 0:
                out[r] += x
            else:
                out[~r] -= x
    return list(map(ring.normalize, out))


def coordinates_or_none(pres, vector):
    try:
        return pres.coordinates(vector)
    except ValueError:  # not a class of the group
        return None


def random_vector(rng, ring, n):
    return [ring.normalize(rng.randint(-2, 2)) for _ in range(n)]


def compare(rng, ring, steps):
    """Assert that the lazy and the eager pass agree on ``steps``.

    The vectors read in degree k are the generators, random combinations
    of them plus the image of a random vector under d^{k-1} (cocycles
    when the steps are a cochain complex), and random vectors."""
    lazy = field_presentations(ring, steps)
    eager = eager_field_presentations(ring, steps)
    assert len(lazy) == len(eager) == len(steps)
    for k, (a, b) in enumerate(zip(lazy, eager)):
        assert a.gens == b.gens
        assert a.group_str() == b.group_str() and a.orders == b.orders
        n = steps[k][0]
        vectors = list(a.gens)
        for _ in range(4):
            vec = [0] * n
            for gen in a.gens:
                c = rng.randint(-2, 2)
                vec = [x + c * y for x, y in zip(vec, gen)]
            if k:
                m, incoming = steps[k - 1]
                vec = [x + y for x, y in zip(vec, image(ring, incoming, n,
                                                         random_vector(rng, ring, m)))]
            vectors.append(list(map(ring.normalize, vec)))
            vectors.append(random_vector(rng, ring, n))
        for vec in vectors:
            assert coordinates_or_none(a, vec) == coordinates_or_none(b, vec)


@pytest.fixture
def woken(monkeypatch):
    """The lazy pivots read after their pass, when a ``coordinates`` call
    met them: ``_lazy_hit`` answering a span whose combinations are
    dropped, recorded as (span, top row)."""
    calls = []
    lazy_hit = exactalg._Span._lazy_hit

    def recording(self, top):
        hit = lazy_hit(self, top)
        if hit is not None and not self.combos:
            calls.append((self, top))
        return hit

    monkeypatch.setattr(exactalg._Span, "_lazy_hit", recording)
    return calls


@pytest.mark.parametrize("ring", RINGS, ids=str)
def test_one_matrix_with_shared_tops(ring, woken):
    # C^0 -> C^1 and nothing after: every vector of C^1 is a cocycle, and
    # its coordinates reduce through the lazy pivots of d^0
    rng = random.Random(f"lazy one matrix {ring}")
    for _ in range(40):
        n0, n1 = rng.randint(1, 14), rng.randint(1, 14)
        compare(rng, ring, [(n0, random_columns(rng, n1, n0)), (n1, [()] * n1)])
    assert woken  # some coordinates call met a still-lazy pivot


@pytest.mark.parametrize("ring", RINGS, ids=str)
def test_three_matrices_with_shared_tops(ring):
    # clearing reads the lazy pivots of the matrix before; the steps need
    # not compose to zero for both passes to run the same reduction
    rng = random.Random(f"lazy three matrices {ring}")
    for _ in range(30):
        ranks = [rng.randint(1, 10) for _ in range(4)]
        steps = [(ranks[k], random_columns(rng, ranks[k + 1], ranks[k])) for k in range(3)]
        compare(rng, ring, steps + [(ranks[3], [()] * ranks[3])])


@pytest.mark.parametrize("ring", RINGS, ids=str)
def test_coordinates_meet_a_lazy_pivot(ring, woken):
    # d^0 has two columns that meet no pivot: both stay lazy through the
    # pass.  H^1 = C^1 / im d^0 is generated by row 0, and the coordinates
    # of row 1 reduce through the lazy column with top row 1
    steps = [(2, [(0, ~1), (~2,)]), (3, [(), (), ()])]
    lazy = field_presentations(ring, steps)
    eager = eager_field_presentations(ring, steps)
    assert [p.group_str() for p in lazy] == ["0", str(ring)]
    assert not woken
    e1 = [ring.zero, ring.one, ring.zero]
    for calls in (1, 2):
        assert lazy[1].coordinates(e1) == eager[1].coordinates(e1)
        assert len(woken) == calls  # converted for each read
        table, top = woken[-1]
        assert top == 1 and top in table.lazy and top not in table.pivots


@pytest.mark.parametrize("ring", RINGS, ids=str)
@pytest.mark.parametrize("variance", (COHOMOLOGY, HOMOLOGY))
@pytest.mark.parametrize("name", ["cp2", "rp3"])
def test_subdivisions_match_the_eager_pass(name, variance, ring):
    # the (co)homology walk on real chain data, where almost every kept
    # column stays lazy and coordinates reduce through many of them
    data = chain_complex(barycentric_subdivision(fixture_complex(name))[0])
    if variance == COHOMOLOGY:
        degrees, outgoing = range(data.dim + 1), data.sparse_coboundary
    else:
        degrees, outgoing = range(data.dim, -1, -1), data.sparse_boundary
    steps = [(data.rank_of(d), outgoing(d)) for d in degrees]
    modules = _presentations(data, ring, variance)
    eager = eager_field_presentations(ring, steps)
    rng = random.Random(f"lazy sd {name} {variance} {ring}")
    for k, d in enumerate(degrees):
        a, b = modules[d], eager[k]
        assert a.gens == b.gens and a.orders == b.orders
        n = steps[k][0]
        # the generators, and random combinations of them plus the image of
        # a random vector with a few nonzero entries under the incoming map
        cocycles = list(a.gens)
        for _ in range(4):
            vec = [0] * n
            for gen in a.gens:
                c = rng.randint(-2, 2)
                vec = [x + c * y for x, y in zip(vec, gen)]
            if k:
                m, incoming = steps[k - 1]
                few = [0] * m
                for j in rng.sample(range(m), min(6, m)):
                    few[j] = ring.normalize(rng.randint(1, 4))
                vec = [x + y for x, y in zip(vec, image(ring, incoming, n, few))]
            cocycles.append(list(map(ring.normalize, vec)))
        for vec in cocycles:
            assert a.coordinates(vec) == b.coordinates(vec)
