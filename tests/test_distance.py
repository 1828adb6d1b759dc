import random

import pytest

from cohodist import distance
from cohodist.complexes import (
    Cover,
    SimplicialMap,
    Subcomplex,
    barycentric_subdivision,
    from_maximal_faces,
    product,
    restrict,
)
from cohodist.distance import (
    DistanceQuery,
    _PieceChecker,
    bounds_for,
    hscat,
    hstc,
    lower_bound,
    scat_query,
    search,
    search_exhaustive,
    search_greedy,
    stc_query,
    subdivision_monotonicity_check,
    verify,
)
from cohodist.errors import BudgetExceededError
from cohodist.exactalg import GF, GF2, QQ, ZZ
from cohodist.fixtures import fixture_complex, fixture_cover, rp2_loop
from cohodist.homology import equality_obstruction, maps_equal

from . import oracles
from .presentation_path import maps_equal_by_presentation


def whole_cover(K, name="K"):
    return Cover(K, [Subcomplex.spanned_by(K, K.maximal_faces, name=name)])


class TestVerify:
    def test_table1(self):
        q = scat_query(fixture_complex("cp2"), GF2)
        cert = verify(q, fixture_cover("table1"))
        assert cert.verified and cert.n == 2
        assert all(r.equal for r in cert.piece_reports)

    def test_equal_maps_single_piece(self):
        K = fixture_complex("rp3")
        phi = SimplicialMap.identity(K)
        q = DistanceQuery(phi, phi, GF2)
        cert = verify(q, whole_cover(K))
        assert cert.verified and cert.n == 0

    def test_single_piece_fails_for_sphere(self):
        K = fixture_complex("s2")
        cert = verify(scat_query(K, GF2), whole_cover(K))
        assert not cert.verified
        assert cert.piece_reports[0].first_failing_degree == 2

    def test_verdicts_match_presentation_path(self):
        q = scat_query(fixture_complex("cp2"), GF2)
        cov = fixture_cover("table1")
        for piece in cov.pieces:
            fast = maps_equal(restrict(q.phi, piece), restrict(q.psi, piece),
                              q.ring, q.variance)
            slow = maps_equal_by_presentation(restrict(q.phi, piece),
                                              restrict(q.psi, piece),
                                              q.ring, q.variance)
            assert fast.by_degree == slow.by_degree

    def test_verified_stays_verified_with_extra_piece(self):
        q = scat_query(fixture_complex("cp2"), GF2)
        cov = fixture_cover("table1")
        extra = Subcomplex.spanned_by(cov.parent, [cov.parent.maximal_faces[0]])
        bigger = Cover(cov.parent, list(cov.pieces) + [extra])
        assert verify(q, bigger).verified

    def test_table4_pieces_pass_but_cover_fails(self):
        q = stc_query(fixture_complex("s2"), GF2)
        cert = verify(q, fixture_cover("table4"))
        assert all(r.equal for r in cert.piece_reports)
        assert not cert.cover_ok and not cert.verified
        assert cert.missing_simplex is not None


class TestLowerBound:
    def test_equal_maps(self):
        K = fixture_complex("s2")
        phi = SimplicialMap.identity(K)
        n, wit = lower_bound(DistanceQuery(phi, phi, GF2))
        assert n == 0 and wit is None

    def test_rp3(self):
        n, wit = lower_bound(scat_query(fixture_complex("rp3"), GF2))
        assert n == 3 and wit.degrees == (1, 1, 1)

    def test_sphere_projections(self):
        s2 = fixture_complex("s2")
        assert lower_bound(stc_query(s2, GF(3)))[0] == 2
        assert lower_bound(stc_query(s2, QQ))[0] == 2
        # mod 2 the square of the difference class vanishes
        assert lower_bound(stc_query(s2, GF2))[0] == 1

    def test_homology_bounds(self):
        # over a field both variances give one verdict per piece, so one bound
        K = fixture_complex("s2")
        for variance in ("cohomology", "homology"):
            n, wit = lower_bound(scat_query(K, GF2, variance))
            assert n == 1 and wit.degrees == (2,)
        # over Z homology is bounded by the cup-length over Q; H_1(rp2; Z)
        # is torsion, so the loop's bound is 0, though one piece fails
        loop = rp2_loop()
        q = DistanceQuery(loop, SimplicialMap.constant(loop.source, loop.target),
                          ZZ, "homology")
        assert lower_bound(q) == (0, None)
        report = bounds_for(q)
        assert report.lower == 1 and report.exact == 1


class TestSearch:
    def test_k5_no_two_cover(self):
        q = scat_query(fixture_complex("k5"), GF2)
        assert search_exhaustive(q, 2) is None
        # independent enumeration: two covering forests would be needed
        assert not oracles.k5_two_cover_exists()

    def test_k5_three_cover_found(self):
        q = scat_query(fixture_complex("k5"), GF2)
        cov = search_greedy(q, 3, seed=0)
        assert cov is not None and verify(q, cov).verified

    def test_k5_printed_cover_verifies(self):
        q = scat_query(fixture_complex("k5"), GF2)
        assert verify(q, fixture_cover("k5")).verified

    def test_sd_k5_two_cover_found(self):
        sd, _ = barycentric_subdivision(fixture_complex("k5"))
        q = scat_query(sd, GF2)
        cov = search(q, 2)
        assert cov is not None and verify(q, cov).verified

    def test_budget_guard(self):
        q = scat_query(fixture_complex("k5"), GF2)
        with pytest.raises(BudgetExceededError):
            search_exhaustive(q, 3)  # 7^10 assignments

    def test_budget_messages(self):
        # a search counts candidate covers; a bound report names the size
        q = scat_query(fixture_complex("k5"), GF2)
        with pytest.raises(BudgetExceededError,
                           match="^282475249 candidate covers exceed the budget of 16777216$"):
            search(q, 3, strategy="exhaustive")
        with pytest.raises(BudgetExceededError,
                           match="^exhaustive search at 3 pieces exceeds the budget$"):
            bounds_for(q, strategy="exhaustive")

    def test_size_below_one_raises(self):
        # search_exhaustive(q, 0) used to return None, a proof that no
        # cover exists; -1 failed in islice and greedy in min()
        q = scat_query(fixture_complex("k5"), GF2)
        for size in (0, -1):
            for fn in (search, search_exhaustive, search_greedy):
                with pytest.raises(ValueError, match="size must be at least 1"):
                    fn(q, size)

    def test_exhaustive_finds_sphere_two_cover(self):
        # facet versus complementary star: both pieces have trivial
        # positive-degree cohomology
        q = scat_query(fixture_complex("s2"), GF2)
        cov = search_exhaustive(q, 2)
        assert cov is not None and verify(q, cov).verified


class TestBounds:
    def test_point(self):
        pt = fixture_complex("point")
        for fn in (hscat, hstc):
            rep = fn(pt, GF2)
            assert (rep.lower, rep.upper, rep.exact) == (0, 0, 0)

    def test_k5_exact_two(self):
        rep = hscat(fixture_complex("k5"), GF2)
        assert (rep.lower, rep.upper, rep.exact) == (2, 2, 2)
        assert any("exhaustive" in n for n in rep.notes)

    def test_supplied_cover(self):
        rep = hscat(fixture_complex("c3xs2"), GF2, cover=fixture_cover("table3"))
        assert rep.exact == 2

    def test_sphere_category(self):
        rep = hscat(fixture_complex("s2"), GF2)
        assert (rep.lower, rep.upper, rep.exact) == (1, 1, 1)

    def test_max_size_falls_back_to_one_piece_per_face(self):
        # the cup-length bound is 2 and no search may run at 3 pieces
        rep = hscat(fixture_complex("rp2"), GF2, max_size=1)
        assert (rep.lower, rep.upper, rep.exact) == (2, 9, None)
        assert rep.notes == ["fell back to the one-piece-per-face cover"]
        cert = rep.certificate
        assert cert.verified and len(cert.piece_reports) == 10

    def test_greedy_gap_without_cover(self):
        rep = hstc(fixture_complex("s2"), GF2)
        assert (rep.lower, rep.upper, rep.exact) == (1, 2, None)
        assert "greedy found no cover with 2 pieces" in rep.notes
        assert rep.certificate.verified

    def test_failing_supplied_cover_falls_back_to_search(self):
        K = fixture_complex("k5")
        rep = hscat(K, GF2, cover=whole_cover(K))
        assert rep.notes[0] == "supplied cover failed verification"
        assert rep.exact == 2 and rep.certificate.verified

    def test_max_size_below_one_raises(self):
        pt = fixture_complex("point")
        for max_size in (0, -1):
            for fn in (hscat, hstc):
                with pytest.raises(ValueError):
                    fn(pt, GF2, max_size=max_size)
            with pytest.raises(ValueError):
                bounds_for(scat_query(pt, GF2), max_size=max_size)
        assert hscat(pt, GF2, max_size=1).exact == 0

    def test_exhaustive_below_one_raises(self):
        pt = fixture_complex("point")
        for upto in (0, -3):
            for fn in (hscat, hstc):
                with pytest.raises(ValueError, match="exhaustive_upto"):
                    fn(pt, GF2, exhaustive_upto=upto)
            with pytest.raises(ValueError, match="exhaustive_upto"):
                bounds_for(scat_query(pt, GF2), strategy="greedy", exhaustive_upto=upto)
        assert hscat(pt, GF2, exhaustive_upto=1).exact == 0

    def test_one_checker_and_one_verification_per_query(self, monkeypatch):
        checkers, verified = [], []

        class Counted(_PieceChecker):
            def __init__(self, query):
                checkers.append(query)
                super().__init__(query)

        def counted_verify(query, cover):
            verified.append(cover)
            return verify(query, cover)

        monkeypatch.setattr(distance, "_PieceChecker", Counted)
        monkeypatch.setattr(distance, "verify", counted_verify)
        k5, rp2 = fixture_complex("k5"), fixture_complex("rp2")
        cases = [
            # an exhaustive proof at 2 pieces, then greedy at 3
            (dict(K=k5, ring=GF2, exhaustive_upto=2), 2, 2),
            (dict(K=k5, ring=GF(3)), 2, 2),
            # no search: the one-piece-per-face fallback
            (dict(K=rp2, ring=GF2, max_size=1), 2, 9),
        ]
        for kwargs, lower, upper in cases:
            checkers.clear()
            verified.clear()
            rep = hscat(**kwargs)
            assert (rep.lower, rep.upper) == (lower, upper)
            assert len(checkers) == 1
            assert sum(c is rep.certificate.cover for c in verified) == 1
        checkers.clear()
        assert search(scat_query(k5, GF2), 3) is not None
        assert len(checkers) == 1

    def test_unknown_strategy_raises(self, monkeypatch):
        # a misspelt strategy used to search greedily and report a gap
        calls = []
        for walk in ("_greedy", "_exhaustive"):
            monkeypatch.setattr(distance, walk, lambda *a, **k: calls.append(a))
        k5 = fixture_complex("k5")
        for fn in (hscat, hstc):
            with pytest.raises(ValueError, match="unknown strategy 'exhaustiv'"):
                fn(k5, GF2, strategy="exhaustiv")
        with pytest.raises(ValueError, match="unknown strategy 'exhaustiv'"):
            bounds_for(scat_query(k5, GF2), strategy="exhaustiv")
        assert calls == []


class TestHomologicalDistance:
    def test_loop_distance_exactly_one(self):
        iota = rp2_loop()
        c3 = iota.source
        c = SimplicialMap.constant(c3, iota.target)
        hq = DistanceQuery(iota, c, ZZ, variance="homology")
        # one piece is not enough
        assert not verify(hq, whole_cover(c3)).verified
        # two arcs do it: a path and the remaining edge
        arcs = Cover(c3, [Subcomplex.spanned_by(c3, [[0, 1], [0, 2]], name="A"),
                          Subcomplex.spanned_by(c3, [[1, 2]], name="B")])
        assert verify(hq, arcs).verified
        # while the cohomological distance is zero
        cq = DistanceQuery(iota, c, ZZ, variance="cohomology")
        assert verify(cq, whole_cover(c3)).verified


class TestSubdivisionMonotonicity:
    def test_trivial_pair(self):
        K = fixture_complex("s2")
        phi = SimplicialMap.identity(K)
        q = DistanceQuery(phi, phi, GF2)
        assert subdivision_monotonicity_check(q, whole_cover(K))

    def test_k5_cover(self):
        q = scat_query(fixture_complex("k5"), GF2)
        assert subdivision_monotonicity_check(q, fixture_cover("k5"))

    def test_table1_cover(self):
        q = scat_query(fixture_complex("cp2"), GF2)
        assert subdivision_monotonicity_check(q, fixture_cover("table1"))


class TestFieldVarianceOnCertificates:
    def test_same_verdicts_both_variances(self):
        # each piece's verdict in each variance is that of the induced maps
        # of the restricted maps on presentations, a path that pairs nothing
        cases = [
            (scat_query(fixture_complex("k5"), GF2), fixture_cover("k5")),
            (scat_query(fixture_complex("rp3"), GF2), fixture_cover("table2")),
        ]
        K = fixture_complex("s2")
        cases.append((scat_query(K, GF2), whole_cover(K)))
        for q, cov in cases:
            hq = DistanceQuery(q.phi, q.psi, q.ring, variance="homology")
            vc = verify(q, cov)
            vh = verify(hq, cov)
            assert vc.verified == vh.verified
            for piece, rc, rh in zip(cov.pieces, vc.piece_reports, vh.piece_reports):
                phi, psi = restrict(q.phi, piece), restrict(q.psi, piece)
                for variance, report in (("cohomology", rc), ("homology", rh)):
                    induced = maps_equal_by_presentation(phi, psi, q.ring, variance)
                    assert report.equal == induced.equal, (piece.name, variance)


class TestPieceMasks:
    """A piece evaluated as a mask over its parent's chain complex gives the
    verdicts of the same piece built as a complex."""

    def _query(self, rng, name, ring, variance):
        base = fixture_complex("s2" if name == "s2xs2" else name)
        order = list(base.vertices)
        rng.shuffle(order)
        K = from_maximal_faces(base.maximal_faces, order=order)
        if name == "s2xs2":
            return stc_query(K, ring, variance)
        return scat_query(K, ring, variance)

    def test_mask_matches_materialized_piece(self):
        rng = random.Random(20)
        nonzero = 0
        for name in ("s2xs2", "rp2", "torus", "figure1"):
            for ring in (GF2, GF(3), QQ, ZZ):
                for variance in ("cohomology", "homology"):
                    q = self._query(rng, name, ring, variance)
                    checker = _PieceChecker(q)
                    n = len(checker.faces)
                    for _ in range(5):
                        face_set = sum(1 << i for i in
                                       rng.sample(range(n), rng.randint(1, n)))
                        piece = checker.subcomplex(face_set)
                        phi, psi = restrict(q.phi, piece), restrict(q.psi, piece)
                        ob = checker.obstruction(face_set)
                        assert ob == equality_obstruction(phi, psi, ring, variance)
                        nonzero += ob > 0
        assert nonzero > 40
