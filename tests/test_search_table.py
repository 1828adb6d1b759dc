"""Exhaustive cover search from one table of face-set verdicts.

``search(..., "exhaustive")`` tries the first ``2^n`` assignments in
turn, then evaluates every nonempty face set once and walks the
assignments depth first, pruning on failing partial pieces.  These tests compare it with the
product enumeration it replaced (``reference_search.search_by_product``) on
fixtures and random complexes in shuffled vertex orders, over GF(2), GF(3)
and Q in both variances and over Z on the small fixtures, count the piece
evaluations it makes, and check the property the pruning rests on.  The
last tests pin greedy search's cover, evaluations and column reductions.
"""

import random

import pytest

from cohodist import distance, exactalg
from cohodist.complexes import from_maximal_faces
from cohodist.distance import (
    DEFAULT_BUDGET,
    exhaustive_count,
    hscat,
    hstc,
    scat_query,
    search,
    stc_query,
)
from cohodist.errors import BudgetExceededError
from cohodist.exactalg import GF, GF2, QQ, ZZ
from cohodist.fixtures import fixture_complex

from .reference_search import search_by_product

RINGS = (GF2, GF(3), QQ)
VARIANCES = ("cohomology", "homology")


def shuffled(rng, faces, vertices):
    order = list(vertices)
    rng.shuffle(order)
    return from_maximal_faces(faces, order=order)


def random_complex(rng):
    """A connected complex of edges and triangles with at most 8 facets."""
    while True:
        nv = rng.randint(3, 7)
        faces = [rng.sample(range(nv), rng.choice((2, 3, 3)))
                 for _ in range(rng.randint(1, 8))]
        used = sorted({v for f in faces for v in f})
        K = from_maximal_faces(faces, require_connected=False)
        if K.is_connected():
            return shuffled(rng, faces, used)


@pytest.fixture
def evaluations(monkeypatch):
    """Counts the piece evaluations cover search makes."""
    calls = []
    inner = distance.equality_obstruction

    def counted(*args, **kwargs):
        calls.append(kwargs.get("piece"))
        return inner(*args, **kwargs)

    monkeypatch.setattr(distance, "equality_obstruction", counted)
    return calls


@pytest.fixture
def tables(monkeypatch):
    """Counts the verdict tables cover search fills."""
    built = []
    inner = distance._PieceChecker.verdict_table

    def counted(self):
        built.append(len(self.faces))
        return inner(self)

    monkeypatch.setattr(distance._PieceChecker, "verdict_table", counted)
    return built


def signature(cover):
    if cover is None:
        return None
    return [(p.name, p.simplices) for p in cover.pieces]


def compare(query, size, evaluations, tables):
    """The outcome: "none", "early" (found without a table) or "table"."""
    n = len(query.source.maximal_faces)
    want = search_by_product(query, size)
    evaluations.clear()
    tables.clear()
    got = search(query, size, "exhaustive")
    assert signature(got) == signature(want)
    if got is None:
        assert len(evaluations) == (1 if size == 1 else 2 ** n - 1)
        return "none"
    return "table" if tables else "early"


def lollipop(tail):
    """A triangle's edges, faces 0-2, with a path of `tail` edges attached.

    Every cover by two (tail 6) or three (tail 5) pieces splits the
    triangle, which the first ``2^n`` assignments keep in one piece, so the
    search finds its cover on the walk through the table.
    """
    return from_maximal_faces([[0, 1], [0, 2], [1, 2]]
                              + [[v, v + 1] for v in range(2, 2 + tail)])


def cases(rng):
    for name in ("point", "edge", "c3", "s2", "k5", "rp2"):
        base = fixture_complex(name)
        yield name, shuffled(rng, base.maximal_faces, base.vertices)
    for k in range(10):
        yield f"random {k}", random_complex(rng)
    for tail in (5, 6):
        yield f"lollipop {tail}", lollipop(tail)


def test_same_cover_as_product_enumeration(evaluations, tables):
    rng = random.Random(9)
    outcomes = {}
    for label, K in cases(rng):
        n = len(K.maximal_faces)
        for ring in RINGS:
            for variance in VARIANCES:
                q = scat_query(K, ring, variance)
                for size in (1, 2, 3):
                    if exhaustive_count(n, size) > DEFAULT_BUDGET:
                        continue
                    key = (size, compare(q, size, evaluations, tables))
                    outcomes[key] = outcomes.get(key, 0) + 1
    # every outcome is exercised at every size the fixtures reach
    assert outcomes[1, "none"] >= 20 and outcomes[2, "none"] >= 8
    assert all(outcomes[size, "early"] > 50 for size in (1, 2, 3))
    # the lollipops, over every ring and variance
    assert outcomes[2, "table"] >= 6 and outcomes[3, "table"] >= 6


def test_same_cover_over_integers(evaluations, tables):
    # over Z the verdicts see torsion: rp2 has a two-piece cover in
    # cohomology and none in homology, where H_1 is Z/2
    rng = random.Random(4)
    outcomes = set()
    for name in ("point", "edge", "c3", "s2", "rp2"):
        base = fixture_complex(name)
        K = shuffled(rng, base.maximal_faces, base.vertices)
        for variance in VARIANCES:
            for size in (1, 2):
                outcomes.add((name, variance, size,
                              compare(scat_query(K, ZZ, variance), size,
                                      evaluations, tables)))
    assert ("rp2", "cohomology", 2, "early") in outcomes
    assert ("rp2", "homology", 2, "none") in outcomes


@pytest.mark.parametrize("ring", [ZZ, GF2], ids=["z", "z2"])
@pytest.mark.parametrize("variance", VARIANCES)
def test_sub_pieces_of_passing_pieces_pass(ring, variance):
    # the walk prunes a branch on its first failing partial piece
    checker = distance._PieceChecker(scat_query(fixture_complex("rp2"), ring, variance))
    table = checker.verdict_table()
    assert 0 in table
    for m in range(1, len(table)):
        if table[m]:
            assert all(table[m & ~(1 << i)] for i in range(10) if m >> i & 1)


def test_no_two_cover_evaluates_every_face_set_once(evaluations, tables):
    for name, ring in (("k5", GF(3)), ("rp2", GF2)):
        q = scat_query(fixture_complex(name), ring)
        assert compare(q, 2, evaluations, tables) == "none"
        assert len(evaluations) == 1023
        assert len(set(evaluations)) == 1023


def test_early_cover_fills_no_table(evaluations, tables):
    # a 14-edge cycle has a two-piece cover among the first assignments;
    # filling the table first would take 2^14 - 1 evaluations
    K = from_maximal_faces([[i, (i + 1) % 14] for i in range(14)])
    q = scat_query(K, GF2)
    assert compare(q, 2, evaluations, tables) == "early"
    assert len(evaluations) <= 4


def test_one_piece_is_one_evaluation(evaluations):
    # the one-piece cover is the source itself; no table of 2^n face sets
    s2 = fixture_complex("s2")
    for q in (scat_query(fixture_complex("k5"), GF2), stc_query(s2, GF2)):
        evaluations.clear()
        search(q, 1, "exhaustive")
        assert len(evaluations) == 1
    assert len(q.source.maximal_faces) == 96


def test_budget_still_counts_assignments():
    q = scat_query(fixture_complex("rp2"), GF2)
    # 3^10 assignments at two pieces; the table has only 2^10 entries
    with pytest.raises(BudgetExceededError):
        search(q, 2, "exhaustive", budget=3 ** 10 - 1)
    assert search(q, 2, "exhaustive", budget=3 ** 10) is None


def test_bounds_make_pinned_evaluations(evaluations):
    # the work of a greedy and of an exhaustive bound search, at fixture order
    report = hstc(fixture_complex("s2"), GF(3))
    assert len(evaluations) == 652
    faces = report.query.source.maximal_faces
    pieces = [(p.name, sum(1 << faces.index(f) for f in p.complex.maximal_faces))
              for p in report.certificate.cover.pieces]
    assert pieces == [("S0", 0x19e40d40019e3a9a8b7fdef),
                      ("S1", 0x2e61ba0b9ee61c5641480210),
                      ("S2", 0xd00005206100000016000000)]
    assert (report.lower, report.exact) == (2, 2)
    evaluations.clear()
    # the size-2 table holds every face set greedy reads at size 3
    report = hscat(fixture_complex("k5"), GF2, exhaustive_upto=2)
    assert len(evaluations) == 1023
    assert report.notes == ["no cover with 2 pieces (exhaustive)"]
    assert report.exact == 2


def test_integer_and_homology_searches_make_pinned_evaluations(evaluations):
    # Z and homology searches hold and grow pieces as field cohomology does
    report = hscat(fixture_complex("k5"), ZZ, exhaustive_upto=2)
    assert len(evaluations) == 1023
    assert (report.lower, report.exact) == (2, 2)
    evaluations.clear()
    report = hscat(fixture_complex("torus"), ZZ)
    assert len(evaluations) == 150
    assert (report.lower, report.exact) == (2, 2)
    evaluations.clear()
    rp2 = fixture_complex("rp2")
    assert search(scat_query(rp2, GF2, "homology"), 3, "greedy") is not None
    assert len(evaluations) == 23
    evaluations.clear()
    assert search(scat_query(rp2, ZZ, "homology"), 2, "exhaustive") is None
    assert len(evaluations) == 1023


def test_greedy_gap_makes_pinned_evaluations(evaluations):
    # greedy at two pieces repairs every restart and finds no cover over Z_2
    report = hstc(fixture_complex("s2"), GF2)
    assert len(evaluations) == 7346
    assert [report.lower, report.upper] == [1, 2]
    assert report.exact is None


def test_greedy_returns_pinned_cover():
    q = stc_query(fixture_complex("s2"), GF(3))
    cover = search(q, 3, "greedy", seed=0)
    faces = q.source.maximal_faces
    pieces = [(p.name, sum(1 << faces.index(f) for f in p.complex.maximal_faces))
              for p in cover.pieces]
    assert pieces == [("S0", 0x19e40d40019e3a9a8b7fdef),
                      ("S1", 0x2e61ba0b9ee61c5641480210),
                      ("S2", 0xd00005206100000016000000)]


def test_greedy_repair_reduces_few_columns(monkeypatch):
    # the repair's pieces without one face grow from one another, not from
    # the empty piece: 13 418 column reductions before, about 4 600 now
    reduced = []
    for span in (exactalg.FieldSpan, exactalg.Gf2Span):
        def counted(self, *args, _inner=span._absorb, **kwargs):
            reduced.append(1)
            return _inner(self, *args, **kwargs)
        monkeypatch.setattr(span, "_absorb", counted)
    report = hstc(fixture_complex("s2"), GF(3))
    assert report.exact == 2
    assert len(reduced) <= 6000
