import random

from cohodist.complexes import SimplicialMap, barycentric_subdivision
from cohodist.exactalg import GF, GF2, QQ, ZZ, rank
from cohodist.fixtures import fixture_complex, rp2_loop
from cohodist.homology import (
    chain_complex,
    cohomology,
    equality_obstruction,
    homology,
    induced_map,
    maps_equal,
    pushforward_chain,
)

from .oracles import betti_mod, rank_fraction
from .presentation_path import maps_equal_by_presentation
from .test_complexes import rand_complex

FIXTURES = ("point", "c3", "s2", "k5", "rp2", "rp3", "cp2", "torus", "c3xs2", "figure1")


class TestChainComplex:
    def test_sphere_boundary_ranks(self):
        data = chain_complex(fixture_complex("s2"))
        for d, expected in ((1, 3), (2, 3)):
            M = data.boundary_matrix(d)
            assert rank(M) == expected == rank_fraction(M.rows)

    def test_point(self):
        data = chain_complex(fixture_complex("point"))
        assert data.boundary_matrix(0).shape == (0, 1)
        assert data.boundary_matrix(1).shape == (1, 0)

    def test_sphere_edge_kernel_dimension(self):
        from cohodist.exactalg import kernel_basis

        data = chain_complex(fixture_complex("s2"))
        assert kernel_basis(data.boundary_matrix(1).change_ring(QQ)).ncols == 3

    def test_boundary_squares_to_zero(self):
        for name in FIXTURES:
            data = chain_complex(fixture_complex(name))
            for d in range(1, data.complex.dim + 1):
                prod = data.boundary_matrix(d) * data.boundary_matrix(d + 1)
                assert prod.is_zero()


def torsion_divisible(orders, p):
    """Number of torsion summands Z_d with p | d."""
    return sum(1 for d in orders if d and d % p == 0)


class TestGroups:
    def test_integer_groups_match_mod_p_betti(self):
        # universal coefficients: dim H_d(K; Z_p) = b_d + t_p(d) + t_p(d-1),
        # with b_d and t_p(d) read from H_d(K; Z); over Z cohomology holds
        # the same free ranks and shifts the torsion up one degree
        sd_figure1 = barycentric_subdivision(fixture_complex("figure1"))[0]
        cases = [(name, fixture_complex(name)) for name in ("rp3", "c3xs2", "torus", "k5")]
        cases.append(("sd(figure1)", sd_figure1))
        torsion_seen = False
        for name, K in cases:
            hom, coh = homology(K, ZZ), cohomology(K, ZZ)
            h = [hom.presentation(d).orders for d in hom.degrees]
            c = [coh.presentation(d).orders for d in coh.degrees]
            torsion_seen |= any(d for orders in h for d in orders)
            for p in (2, 3):
                expected = betti_mod(K.maximal_faces, p)
                for d in hom.degrees:
                    below = torsion_divisible(h[d - 1], p) if d else 0
                    assert (hom.presentation(d).free_rank + torsion_divisible(h[d], p)
                            + below == expected[d]), (name, p, d)
            for d in coh.degrees:
                assert coh.presentation(d).free_rank == hom.presentation(d).free_rank
                below = sorted(x for x in h[d - 1] if x) if d else []
                assert sorted(x for x in c[d] if x) == below, (name, d)
        assert torsion_seen

    def test_rp2_over_z(self):
        gm = cohomology(fixture_complex("rp2"), ZZ)
        assert gm.group_strs() == ("Z", "0", "Z_2")
        hm = homology(fixture_complex("rp2"), ZZ)
        assert hm.group_strs() == ("Z", "Z_2", "0")

    def test_cp2_mod2_ranks(self):
        gm = cohomology(fixture_complex("cp2"), GF2)
        assert gm.betti() == (1, 0, 1, 0, 1)
        assert gm.betti() == betti_mod(fixture_complex("cp2").maximal_faces, 2)

    def test_rp3_values(self):
        rp3 = fixture_complex("rp3")
        assert homology(rp3, ZZ).group_strs() == ("Z", "Z_2", "0", "Z")
        assert cohomology(rp3, GF2).betti() == (1, 1, 1, 1)
        assert cohomology(rp3, GF2).betti() == betti_mod(rp3.maximal_faces, 2)

    def test_point_all_rings(self):
        pt = fixture_complex("point")
        for R in (ZZ, QQ, GF2, GF(7)):
            gm = homology(pt, R)
            assert gm.presentation(0).ngens == 1
            assert gm.presentation(0).torsion == ()

    def test_dunce_hat_is_acyclic(self):
        # contractible realization: reduced homology vanishes
        fig = fixture_complex("figure1")
        assert homology(fig, ZZ).group_strs() == ("Z", "0", "0")
        assert fig.euler_characteristic() == 1

    def test_degree_zero_connected(self):
        for name in FIXTURES:
            gm = homology(fixture_complex(name), ZZ)
            assert gm.presentation(0).free_rank == 1
            assert gm.presentation(0).torsion == ()

    def test_mod_p_betti_against_oracle(self):
        rng = random.Random(17)
        for _ in range(40):
            K = rand_complex(rng, 5)
            for p in (2, 3):
                assert cohomology(K, GF(p)).betti() == betti_mod(K.maximal_faces, p)
                assert homology(K, GF(p)).betti() == betti_mod(K.maximal_faces, p)


class TestInducedMaps:
    def test_identity(self):
        K = fixture_complex("s2")
        gh = induced_map(SimplicialMap.identity(K), ZZ, "cohomology")
        for d in gh.degrees:
            h = gh.hom(d)
            assert h.matrix == type(h.matrix).identity(ZZ, h.source.ngens)

    def test_constant_zero_in_positive_degrees(self):
        K = fixture_complex("rp3")
        gh = induced_map(SimplicialMap.constant(K, K), GF2, "cohomology")
        assert gh.hom(0).matrix.rows == [[1]]
        for d in range(1, 4):
            assert gh.hom(d).matrix.is_zero()

    def test_loop_pushforward_is_onto_torsion(self):
        iota = rp2_loop()
        rp2 = fixture_complex("rp2")
        c3 = fixture_complex("c3")
        z = homology(c3, ZZ).presentation(1).gens[0]
        img = pushforward_chain(iota, ZZ, 1, z)
        assert homology(rp2, ZZ).presentation(1).coordinates(img) == (1,)
        gh = induced_map(iota, ZZ, "homology")
        assert gh.hom(1).matrix.rows == [[1]]
        # pullback side: zero in all positive degrees
        ghc = induced_map(iota, ZZ, "cohomology")
        for d in (1, 2):
            assert ghc.hom(d).matrix.is_zero()


class TestMapsEqual:
    def test_reflexive(self):
        K = fixture_complex("s2")
        phi = SimplicialMap(K, K, {0: 0, 1: 1, 2: 2, 3: 0})
        assert maps_equal(phi, phi, GF2, "cohomology").equal

    def test_id_vs_constant_fails_at_top(self):
        K = fixture_complex("s2")
        rep = maps_equal(SimplicialMap.identity(K), SimplicialMap.constant(K, K),
                         GF2, "cohomology")
        assert not rep.equal
        assert rep.first_failing_degree == 2

    def test_loop_asymmetry(self):
        iota = rp2_loop()
        c = SimplicialMap.constant(iota.source, iota.target)
        assert maps_equal(iota, c, ZZ, "cohomology").equal
        rep = maps_equal(iota, c, ZZ, "homology")
        assert not rep.equal and rep.first_failing_degree == 1

    def test_membership_agrees_with_presentations(self):
        cases = []
        s2 = fixture_complex("s2")
        cases.append((SimplicialMap.identity(s2), SimplicialMap.constant(s2, s2), GF2))
        iota = rp2_loop()
        c = SimplicialMap.constant(iota.source, iota.target)
        cases.append((iota, c, ZZ))
        fold = SimplicialMap(s2, s2, {0: 0, 1: 1, 2: 2, 3: 0})
        cases.append((fold, SimplicialMap.identity(s2), QQ))
        for phi, psi, R in cases:
            for variance in ("cohomology", "homology"):
                fast = maps_equal(phi, psi, R, variance)
                slow = maps_equal_by_presentation(phi, psi, R, variance)
                assert fast.by_degree == slow.by_degree

    def test_obstruction_counts(self):
        K = fixture_complex("s2")
        ident = SimplicialMap.identity(K)
        const = SimplicialMap.constant(K, K)
        assert equality_obstruction(ident, ident, GF2, "cohomology") == 0
        assert equality_obstruction(ident, const, GF2, "cohomology") == 1


class TestSubdivisionCarrier:
    def test_lambda_induces_isos(self):
        for name in ("c3", "s2", "k5", "rp2"):
            K = fixture_complex(name)
            sd, lam = barycentric_subdivision(K)
            assert induced_map(lam, ZZ, "cohomology").is_iso()
            assert induced_map(lam, GF2, "homology").is_iso()


class TestFieldDuality:
    def test_fixture_pairs(self):
        s2 = fixture_complex("s2")
        pairs = [
            (SimplicialMap.identity(s2), SimplicialMap.constant(s2, s2)),
            (SimplicialMap(s2, s2, {0: 0, 1: 1, 2: 2, 3: 0}),
             SimplicialMap.constant(s2, s2)),
        ]
        iota = rp2_loop()
        pairs.append((iota, SimplicialMap.constant(iota.source, iota.target)))
        for phi, psi in pairs:
            for F in (GF2, GF(3), QQ):
                hc = maps_equal(phi, psi, F, "cohomology").equal
                hh = maps_equal(phi, psi, F, "homology").equal
                assert hc == hh

    def test_uct_field_dimensions(self):
        for name in ("c3", "s2", "rp2", "rp3", "torus"):
            K = fixture_complex(name)
            for F in (GF2, GF(3), QQ):
                assert cohomology(K, F).betti() == homology(K, F).betti()
