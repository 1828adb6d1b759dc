"""Equality verdicts on the one piece path.

``maps_equal`` and ``equality_obstruction`` run the whole source as its
full piece.  These tests compare that path with the reference path
(induced homomorphisms on presentations) on seeded maps and pieces, check
that field homology never presents a piece, and check that homology
verdicts over Z are taken on classes, not on chains.
"""

import importlib
import random

import pytest

from cohodist.complexes import (
    SimplicialMap,
    Subcomplex,
    barycentric_subdivision,
    from_maximal_faces,
    product,
    restrict,
)
from cohodist.distance import DistanceQuery, _PieceChecker
from cohodist.exactalg import GF, GF2, QQ, ZZ
from cohodist.fixtures import fixture_complex, rp2_loop
from cohodist.homology import (
    _generator_verdicts,
    chain_complex,
    equality_obstruction,
    homology,
    induced_map,
    maps_equal,
    pairing_state,
    pushforward_chain,
)

from .oracles import boundary_rows
from .presentation_path import maps_equal_by_presentation
from .reference_membership import obstruction_by_membership

RINGS = (ZZ, QQ, GF2, GF(3))
VARIANCES = ("cohomology", "homology")


def shuffled(rng, name):
    base = fixture_complex(name)
    order = list(base.vertices)
    rng.shuffle(order)
    return from_maximal_faces(base.maximal_faces, order=order)


def fold(K):
    """K -> K sending its last vertex onto the one before (s2 onto a disk)."""
    v = K.vertices
    return SimplicialMap(K, K, {**{x: x for x in v}, v[-1]: v[-2]})


def map_pairs(rng):
    """(label, phi, psi) on fixtures in shuffled vertex orders."""
    pairs = []
    for name in ("s2", "rp2", "torus", "figure1"):
        K = shuffled(rng, name)
        ident = SimplicialMap.identity(K)
        pairs.append((f"{name} id/const", ident, SimplicialMap.constant(K, K)))
    s2 = shuffled(rng, "s2")
    pairs.append(("s2 fold/id", fold(s2), SimplicialMap.identity(s2)))
    pairs.append(("s2 fold/const", fold(s2), SimplicialMap.constant(s2, s2)))
    for name in ("c3", "rp2"):
        K = shuffled(rng, name)
        sd, carrier = barycentric_subdivision(K)
        # the other simplicial approximation of the identity: first vertices
        first = SimplicialMap(sd, K, {s: s[0] for s in sd.vertices})
        pairs.append((f"sd {name} carrier/const", carrier,
                      SimplicialMap.constant(sd, K)))
        pairs.append((f"sd {name} carrier/first", carrier, first))
    for name in ("c3", "s2"):
        K = shuffled(rng, name)
        _, pi1, pi2 = product(K, K)
        pairs.append((f"{name} x {name} projections", pi1, pi2))
    return pairs


class TestDifferentialAgainstPresentations:
    def test_seeded_maps_and_pieces(self):
        rng = random.Random(8)
        unequal = 0
        for label, phi, psi in map_pairs(rng):
            for ring in RINGS:
                for variance in VARIANCES:
                    q = DistanceQuery(phi, psi, ring, variance)
                    checker = _PieceChecker(q)
                    n = len(checker.faces)
                    face_sets = [sum(1 << i for i in
                                     rng.sample(range(n), rng.randint(1, n)))
                                 for _ in range(3)]
                    for face_set in face_sets:
                        piece = checker.subcomplex(face_set)
                        a, b = restrict(phi, piece), restrict(psi, piece)
                        fast = maps_equal(a, b, ring, variance)
                        slow = maps_equal_by_presentation(a, b, ring, variance)
                        assert fast.by_degree == slow.by_degree, (label, ring, variance)
                        assert (checker.obstruction(face_set)
                                == equality_obstruction(a, b, ring, variance))
                    fast = maps_equal(phi, psi, ring, variance)
                    slow = maps_equal_by_presentation(phi, psi, ring, variance)
                    assert fast.by_degree == slow.by_degree, (label, ring, variance)
                    assert (checker.obstruction((1 << n) - 1)
                            == equality_obstruction(phi, psi, ring, variance))
                    unequal += not fast.equal
        assert unequal > 20


def failing_by_presentation(phi, psi, ring, variance):
    """Per degree, the generators whose two images differ, counted on the
    induced homomorphisms: a Hom's matrix is canonical, so two images of
    one generator are equal exactly when their columns are."""
    f, g = induced_map(phi, ring, variance), induced_map(psi, ring, variance)
    return {d: sum(f.hom(d).matrix.column(j) != g.hom(d).matrix.column(j)
                   for j in range(f.hom(d).source.ngens))
            for d in f.degrees}


class TestBitsetVerdicts:
    """Every path yields per degree the bitset of the failing generators."""

    def test_bitsets_against_references(self):
        rng = random.Random(21)
        checked = failing = 0
        pairs = map_pairs(rng)
        for label, phi, psi in pairs:
            for ring in RINGS:
                for variance in VARIANCES:
                    checker = _PieceChecker(DistanceQuery(phi, psi, ring, variance))
                    n = len(checker.faces)
                    for _ in range(3):
                        face_set = sum(1 << i for i in
                                       rng.sample(range(n), rng.randint(1, n)))
                        mask = checker.mask(face_set)
                        bits = dict(_generator_verdicts(phi, psi, ring, variance, mask))
                        report = maps_equal(phi, psi, ring, variance, piece=mask)
                        assert report.by_degree == {d: b == 0 for d, b in bits.items()}
                        total = sum(b.bit_count() for b in bits.values())
                        assert total == equality_obstruction(phi, psi, ring, variance,
                                                             piece=mask)
                        if ring.is_field:
                            # both variances count the generators of H^d(target)
                            want = obstruction_by_membership(phi, psi, ring, mask)
                            state = pairing_state(phi, psi, ring).extended(mask)
                            assert dict(_generator_verdicts(
                                phi, psi, ring, variance, state)) == bits
                        else:
                            piece = checker.subcomplex(face_set)
                            a, b = restrict(phi, piece), restrict(psi, piece)
                            by_degree = failing_by_presentation(a, b, ring, variance)
                            assert by_degree == {d: b.bit_count() for d, b in bits.items()}
                            want = sum(by_degree.values())
                        assert total == want, (label, ring, variance)
                        checked += 1
                        failing += total > 0
        assert checked == 3 * len(RINGS) * len(VARIANCES) * len(pairs) and failing > 50


class TestNoFieldPiecePresented:
    def test_field_homology_reads_pairing_states(self, monkeypatch):
        hom = importlib.import_module("cohodist.homology")
        presented = []
        presentations = hom._presentations

        def recorded(data, ring, variance):
            presented.append((type(data), ring))
            return presentations(data, ring, variance)

        monkeypatch.setattr(hom, "_presentations", recorded)
        rng = random.Random(4)
        pairs = map_pairs(rng)
        for label, phi, psi in pairs:
            faces = phi.source.maximal_faces
            for ring in (GF2, GF(3), QQ):
                for _ in range(3):
                    picked = rng.sample(faces, rng.randint(1, len(faces)))
                    mask = Subcomplex.spanned_by(phi.source, picked).mask
                    equality_obstruction(phi, psi, ring, "homology", piece=mask)
                    maps_equal(phi, psi, ring, "homology", piece=mask)
                maps_equal(phi, psi, ring, "homology")
        assert all(kind is not hom._PieceChains for kind, _ in presented)
        # a Z piece is presented, so the patch sees pieces where they are
        _, phi, psi = pairs[0]
        piece = Subcomplex.spanned_by(phi.source, phi.source.maximal_faces[:3]).mask
        equality_obstruction(phi, psi, ZZ, "homology", piece=piece)
        assert (hom._PieceChains, ZZ) in presented


class TestTorsionVerdicts:
    def test_twice_around_rp2_is_zero_over_z(self):
        # a 6-cycle running twice around the loop of rp2: 2[gamma] = 0 in
        # H_1(rp2; Z) = Z_2, though the pushed cycle is not zero
        loop = rp2_loop()
        c6 = from_maximal_faces([[i, (i + 1) % 6] for i in range(6)])
        twice = SimplicialMap(c6, loop.target,
                              {i: loop.assignment[i % 3] for i in range(6)})
        const = SimplicialMap.constant(c6, loop.target)
        rep = maps_equal(twice, const, ZZ, "homology")
        assert rep.by_degree == {0: True, 1: True, 2: True}
        assert rep.by_degree == maps_equal_by_presentation(
            twice, const, ZZ, "homology").by_degree
        # once around is not zero
        assert not maps_equal(loop, SimplicialMap.constant(loop.source, loop.target),
                              ZZ, "homology").equal

        gen = homology(c6, ZZ).presentation(1).gens[0]
        a = pushforward_chain(twice, ZZ, 1, gen)
        b = pushforward_chain(const, ZZ, 1, gen)
        chain = [x - y for x, y in zip(a, b)]
        assert any(chain)
        # an integral 2-chain bounding it, found and checked without exactalg
        sympy = pytest.importorskip("sympy")
        from sympy.matrices.normalforms import smith_normal_decomp

        data = chain_complex(loop.target)
        basis = {d: data.complex.simplices_of_dim(d) for d in (1, 2)}
        B = sympy.Matrix(boundary_rows(basis, 2))
        S, U, V = smith_normal_decomp(B)  # S == U * B * V
        rhs = U * sympy.Matrix(chain)
        r = sum(1 for i in range(min(S.shape)) if S[i, i])
        y = [rhs[i] // S[i, i] for i in range(r)] + [0] * (B.cols - r)
        x = V * sympy.Matrix(y)
        assert B * x == sympy.Matrix(chain)
