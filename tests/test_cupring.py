import random

import pytest

from cohodist.complexes import SimplicialMap, diagonal_map, from_maximal_faces, product
from cohodist.cupring import (
    CohomologyClass,
    GradedClassSet,
    J_generators,
    cup,
    cup_length,
    lcp_ideal,
    lcp_of_set,
    lcp_with_witness,
    positive_generators,
    unit_class,
    zero_divisor_cup_length,
)
from cohodist.errors import ComplexMismatchError, NotAFieldError, RingMismatchError
from cohodist.exactalg import FieldSpan, GF, GF2, QQ, ZZ
from cohodist.fixtures import fixture_complex, rp2_loop
from cohodist.homology import chain_complex, cohomology, induced_map

from . import oracles
from .test_complexes import rand_complex


def rand_class(rng, K, ring, degree):
    """Random class: a combination of generators plus a random coboundary."""
    data = chain_complex(K)
    n = data.rank_of(degree)
    pres = cohomology(K, ring).presentation(degree)
    vec = [ring.zero] * n
    for gen in pres.gens:
        c = ring.normalize(rng.randint(-2, 2))
        vec = [ring.normalize(v + c * g) for v, g in zip(vec, gen)]
    below = data.rank_of(degree - 1)
    if degree >= 1 and below:
        noise = [ring.normalize(rng.randint(-2, 2)) for _ in range(below)]
        for i, col in enumerate(data.sparse_coboundary(degree - 1)):
            for j in col:
                if j >= 0:
                    vec[j] = ring.normalize(vec[j] + noise[i])
                else:
                    vec[~j] = ring.normalize(vec[~j] - noise[i])
    return CohomologyClass(K, ring, degree, vec)


class TestCupBasics:
    def test_unit_law(self):
        for name in ("s2", "rp2", "torus"):
            K = fixture_complex(name)
            for R in (ZZ, GF2):
                one = unit_class(K, R)
                for alpha in positive_generators(K, R):
                    assert cup(one, alpha).vector == alpha.vector
                    assert cup(alpha, one).coordinates() == alpha.coordinates()

    def test_mismatch_errors(self):
        a = unit_class(fixture_complex("s2"), GF2)
        b = unit_class(fixture_complex("c3"), GF2)
        with pytest.raises(ComplexMismatchError):
            cup(a, b)
        c = unit_class(fixture_complex("s2"), ZZ)
        with pytest.raises(RingMismatchError):
            cup(a, c)

    def test_cocycle_validation(self):
        K = fixture_complex("s2")
        data = chain_complex(K)
        bad = [1] + [0] * (data.rank_of(1) - 1)
        with pytest.raises(ValueError):
            CohomologyClass(K, GF2, 1, bad)

    def test_torus_product_of_circle_factors(self):
        torus = fixture_complex("torus")
        gens1 = [c for c in positive_generators(torus, GF2) if c.degree == 1]
        assert len(gens1) == 2
        products = [cup(a, b) for a in gens1 for b in gens1]
        nonzero = [p for p in products if not p.is_zero()]
        assert nonzero
        # oracle: the same products computed from scratch on the raw faces
        # (the product's vertex order is lexicographic on pair labels, so
        # the oracle's sorted tuples are literally the package's simplices)
        by_dim = oracles.simplices_by_dim(oracles.closure_of(torus.maximal_faces))
        def to_oracle(vec, d):
            lookup = dict(zip(chain_complex(torus).complex.simplices_of_dim(d), vec))
            return [lookup[s] for s in by_dim[d]]
        for a in gens1:
            for b in gens1:
                got = cup(a, b)
                oracle_vec = oracles.cup_cochain(
                    by_dim, to_oracle(list(a.vector), 1), to_oracle(list(b.vector), 1),
                    1, 1, 2)
                assert to_oracle(list(got.vector), 2) == oracle_vec
                assert got.is_zero() == oracles.is_coboundary_mod(by_dim, 2, oracle_vec, 2)

    def test_cp2_square_nonzero(self):
        cp2 = fixture_complex("cp2")
        (x,) = [c for c in positive_generators(cp2, GF2) if c.degree == 2]
        assert not cup(x, x).is_zero()


class TestCocycleCheck:
    """The cocycle check of a class's representative against δ computed
    from scratch by the oracle, over GF(2) and GF(3), in every degree."""

    def test_matches_oracle_coboundary(self):
        rng = random.Random(33)
        seen = set()
        for name in ("rp2", "torus", "rp3", "cp2"):
            K = fixture_complex(name)
            # the oracle orients simplices by sorted labels, the package by
            # vertex order: over GF(3) the two must agree
            assert list(K.vertices) == sorted(K.vertices)
            by_dim = oracles.simplices_by_dim(oracles.closure_of(K.maximal_faces))
            for p, ring in ((2, GF2), (3, GF(3))):
                for d in range(K.dim + 1):
                    basis = oracles.cocycles_mod(by_dim, d, p)
                    n = len(by_dim[d])
                    draws = [[rng.randrange(p) for _ in range(n)] for _ in range(3)]
                    for _ in range(3):
                        combo = [0] * n
                        for z in basis:
                            c = rng.randrange(p)
                            combo = [(a + c * b) % p for a, b in zip(combo, z)]
                        draws.append(combo)
                    for vec in draws:
                        want = not any(oracles.coboundary_mod(by_dim, d, vec, p))
                        lookup = dict(zip(by_dim[d], vec))
                        ours = [lookup[s] for s in K.simplices_of_dim(d)]
                        try:
                            CohomologyClass(K, ring, d, ours)
                            got = True
                        except ValueError:
                            got = False
                        assert got == want, (name, p, d, vec)
                        seen.add((d == K.dim, want))
        assert seen == {(False, False), (False, True), (True, True)}


class TestCupLength:
    def test_point(self):
        assert cup_length(fixture_complex("point"), GF2) == 0

    def test_values(self):
        assert cup_length(fixture_complex("cp2"), GF2) == 2
        assert cup_length(fixture_complex("c3xs2"), GF2) == 2
        assert cup_length(fixture_complex("k5"), GF2) == 1
        assert cup_length(fixture_complex("rp2"), ZZ) == 1
        assert cup_length(fixture_complex("rp2"), GF2) == 2

    def test_rp3_cube_nonzero_fourth_power_zero(self):
        rp3 = fixture_complex("rp3")
        (a,) = [c for c in positive_generators(rp3, GF2) if c.degree == 1]
        a2 = cup(a, a)
        a3 = cup(a2, a)
        assert not a2.is_zero() and not a3.is_zero()
        n, wit = lcp_with_witness(positive_generators(rp3, GF2))
        assert n == 3 and wit.degrees == (1, 1, 1)
        # a^4 lands above the dimension, hence vanishes
        assert cup_length(rp3, GF2) == 3

    def test_empty_and_zero_sets(self):
        assert lcp_of_set(GradedClassSet([])) == 0
        K = fixture_complex("s2")
        from cohodist.cupring import zero_class
        assert lcp_of_set([zero_class(K, GF2, 1)]) == 0


class TestJGenerators:
    def test_equal_maps_give_zero_classes(self):
        K = fixture_complex("s2")
        phi = SimplicialMap.identity(K)
        J = J_generators(phi, phi, GF2)
        assert all(c.is_zero() for c in J)
        assert lcp_of_set(J) == 0

    def test_identity_vs_constant_spans_positive_part(self):
        for name in ("s2", "rp3", "torus"):
            K = fixture_complex(name)
            J = J_generators(SimplicialMap.identity(K),
                             SimplicialMap.constant(K, K), GF2)
            gens = positive_generators(K, GF2)
            assert sorted(c.key() for c in J.nonzero()) == sorted(g.key() for g in gens)
            assert lcp_of_set(J) == cup_length(K, GF2)

    def test_projection_differences_on_square(self):
        s2 = fixture_complex("s2")
        P, pi1, pi2 = product(s2, s2)
        J = J_generators(pi1, pi2, GF2)
        nz = J.nonzero()
        assert {c.degree for c in nz} == {2}

    def test_loop_difference_is_zero(self):
        iota = rp2_loop()
        c = SimplicialMap.constant(iota.source, iota.target)
        assert lcp_of_set(J_generators(iota, c, ZZ)) == 0


class TestIdealLength:
    def test_matches_set_length_on_fixture_pairs(self):
        s2 = fixture_complex("s2")
        P, pi1, pi2 = product(s2, s2)
        for R in (GF2, GF(3), QQ):
            J = J_generators(pi1, pi2, R)
            assert lcp_of_set(J) == lcp_ideal(J, P, R)
        for name in ("s2", "rp2", "torus"):
            K = fixture_complex(name)
            J = J_generators(SimplicialMap.identity(K),
                             SimplicialMap.constant(K, K), GF2)
            assert lcp_of_set(J) == lcp_ideal(J, K, GF2)


class TestZeroDivisors:
    def test_point(self):
        assert zero_divisor_cup_length(fixture_complex("point"), GF2) == 0

    def test_circle(self):
        assert zero_divisor_cup_length(fixture_complex("c3"), GF2) == 1

    def test_sphere(self):
        # (x(x)1 - 1(x)x)^2 = -2 x(x)x: nonzero away from characteristic 2,
        # zero mod 2, so the invariant is field-sensitive here
        s2 = fixture_complex("s2")
        assert zero_divisor_cup_length(s2, GF(3)) == 2
        assert zero_divisor_cup_length(s2, GF2) == 1

    def test_rejects_integers(self):
        with pytest.raises(NotAFieldError):
            zero_divisor_cup_length(fixture_complex("s2"), ZZ)


class TestRingAxioms:
    def test_graded_commutativity_randomized(self):
        rng = random.Random(23)
        cases = 0
        while cases < 200:
            K = rand_complex(rng, 5)
            R = rng.choice([GF2, GF(3), QQ])
            degs = [d for d in range(0, K.dim + 1)]
            p, q = rng.choice(degs), rng.choice(degs)
            if p + q > K.dim:
                continue
            a = rand_class(rng, K, R, p)
            b = rand_class(rng, K, R, q)
            ab = cup(a, b)
            ba = cup(b, a)
            sign = -1 if (p % 2 and q % 2) else 1
            want = ba.coordinates() if sign == 1 else tuple(
                R.normalize(-c) for c in ba.coordinates())
            pres = cohomology(K, R).presentation(p + q)
            assert ab.coordinates() == pres.coordinates(
                [R.normalize(sign * x) for x in ba.vector])
            cases += 1

    def test_associativity_randomized(self):
        rng = random.Random(29)
        cases = 0
        while cases < 200:
            K = rand_complex(rng, 5)
            R = rng.choice([GF2, GF(3)])
            degs = list(range(0, K.dim + 1))
            p, q, r = (rng.choice(degs) for _ in range(3))
            if p + q + r > K.dim:
                continue
            a, b, c = (rand_class(rng, K, R, d) for d in (p, q, r))
            left = cup(cup(a, b), c)
            right = cup(a, cup(b, c))
            assert left.coordinates() == right.coordinates()
            cases += 1

    def test_naturality_randomized(self):
        rng = random.Random(31)
        cases = 0
        while cases < 200:
            L = rand_complex(rng, 5)
            R = rng.choice([GF2, GF(3)])
            # map in from a fold of L along a random vertex identification
            verts = list(L.vertices)
            img = {v: v for v in verts}
            if len(verts) >= 2:
                a, b = rng.sample(verts, 2)
                candidate = dict(img)
                candidate[a] = b
                try:
                    phi = SimplicialMap(L, L, candidate)
                except Exception:
                    phi = SimplicialMap.identity(L)
            else:
                phi = SimplicialMap.identity(L)
            degs = list(range(0, L.dim + 1))
            p, q = rng.choice(degs), rng.choice(degs)
            if p + q > L.dim:
                continue
            alpha = rand_class(rng, L, R, p)
            beta = rand_class(rng, L, R, q)
            from cohodist.homology import pullback_cochain
            pa = CohomologyClass(L, R, p, pullback_cochain(phi, R, p, list(alpha.vector)),
                                 check=False)
            pb = CohomologyClass(L, R, q, pullback_cochain(phi, R, q, list(beta.vector)),
                                 check=False)
            lhs = CohomologyClass(
                L, R, p + q,
                pullback_cochain(phi, R, p + q, list(cup(alpha, beta).vector)),
                check=False)
            assert lhs.coordinates() == cup(pa, pb).coordinates()
            cases += 1

    def test_cup_length_order_invariant(self):
        rng = random.Random(37)
        for name in ("s2", "rp2", "torus", "k5"):
            K = fixture_complex(name)
            want = cup_length(K, GF2)
            for _ in range(5):
                order = list(K.vertices)
                rng.shuffle(order)
                K2 = from_maximal_faces(K.maximal_faces, order=order)
                assert cup_length(K2, GF2) == want


class TestKernelOfProductMap:
    def test_ideal_equals_kernel_of_diagonal_pullback(self):
        # over a field the ideal generated by the projection differences is
        # exactly the kernel of the multiplication map H*(KxK) -> H*(K)
        for name in ("s2", "c3"):
            K = fixture_complex(name)
            P, pi1, pi2 = product(K, K)
            delta = diagonal_map(K, P)
            gh = induced_map(delta, GF2, "cohomology")
            J = J_generators(pi1, pi2, GF2)
            ideal = list(J) + [cup(g, s) for g in positive_generators(P, GF2)
                               for s in J if g.degree + s.degree <= P.dim]
            for d in range(1, P.dim + 1):
                pres = cohomology(P, GF2).presentation(d)
                span = FieldSpan(GF2)
                ideal_rank = 0
                for c in ideal:
                    if c.degree == d and span.add(list(c.coordinates())):
                        ideal_rank += 1
                h = gh.hom(d)
                kernel_dim = h.source.ngens - (0 if h.matrix.ncols == 0 else
                                               _rank_gf2(h.matrix))
                assert ideal_rank == kernel_dim
                # membership: every ideal element dies on the diagonal
                for c in ideal:
                    if c.degree == d:
                        img = _apply_hom(h, c.coordinates())
                        assert all(x == 0 for x in img)


def _rank_gf2(M):
    span = FieldSpan(GF2)
    return sum(1 for c in M.columns() if span.add(c))


def _apply_hom(h, coords):
    out = [0] * h.target.ngens
    for i in range(h.target.ngens):
        out[i] = sum(h.matrix.rows[i][j] * coords[j]
                     for j in range(h.source.ngens)) % 2
    return out
