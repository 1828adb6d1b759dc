import random

import pytest

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
from cohodist.errors import BudgetExceededError, VarianceUnsupportedError
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

    def test_homology_unsupported(self):
        K = fixture_complex("s2")
        with pytest.raises(VarianceUnsupportedError):
            lower_bound(scat_query(K, GF2, variance="homology"))


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

    def test_max_size_below_one_raises(self):
        pt = fixture_complex("point")
        for max_size in (0, -1):
            for fn in (hscat, hstc):
                with pytest.raises(ValueError):
                    fn(pt, GF2, max_size=max_size)
            with pytest.raises(ValueError):
                bounds_for(scat_query(pt, GF2), max_size=max_size)
        assert hscat(pt, GF2, max_size=1).exact == 0


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
            for rc, rh in zip(vc.piece_reports, vh.piece_reports):
                assert rc.equal == rh.equal


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
                    # large pieces of s2 x s2 make Smith normal forms slow
                    cap = 12 if name == "s2xs2" and ring == ZZ else n
                    for _ in range(5):
                        face_set = rng.sample(range(n), rng.randint(1, cap))
                        piece = checker.subcomplex(face_set)
                        phi, psi = restrict(q.phi, piece), restrict(q.psi, piece)
                        ob = checker.obstruction(face_set)
                        assert ob == equality_obstruction(phi, psi, ring, variance)
                        nonzero += ob > 0
        assert nonzero > 40
