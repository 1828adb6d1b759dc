import random
from itertools import permutations

import pytest

from cohodist.complexes import (
    Cover,
    SimplicialComplex,
    SimplicialMap,
    Subcomplex,
    barycentric_subdivision,
    from_maximal_faces,
    is_cover,
    product,
    restrict,
    sd_map,
    subdivide_cover,
)
from cohodist.errors import (
    DisconnectedComplexError,
    DuplicateVertexInFaceError,
    EmptyInputError,
    InvalidCoverError,
    NotASubcomplexError,
    NotSimplicialError,
)
from cohodist.fixtures import (
    S2_FACES,
    TABLE3,
    TABLE4,
    fixture_complex,
    fixture_cover,
)

from .oracles import closure_of, count_chains


def rand_complex(rng, max_vertices=6):
    n = rng.randint(1, max_vertices)
    verts = list(range(n))
    faces = [[v] for v in verts]
    # a spanning path keeps it connected
    faces += [[i, i + 1] for i in range(n - 1)]
    if n >= 2:
        for _ in range(rng.randint(0, 6)):
            k = rng.randint(2, min(3, n))
            faces.append(sorted(rng.sample(verts, k)))
    return from_maximal_faces(faces)


class TestConstruction:
    def test_sphere(self):
        K = from_maximal_faces(S2_FACES)
        assert K.f_vector() == (4, 6, 4)
        assert K.euler_characteristic() == 2

    def test_point(self):
        K = from_maximal_faces([[0]])
        assert K.f_vector() == (1,)

    def test_k5(self):
        K = fixture_complex("k5")
        assert K.f_vector() == (5, 10)
        assert K.euler_characteristic() == -5

    def test_empty_input(self):
        with pytest.raises(EmptyInputError):
            from_maximal_faces([])
        with pytest.raises(EmptyInputError):
            from_maximal_faces([[]])

    def test_duplicate_vertex(self):
        with pytest.raises(DuplicateVertexInFaceError):
            from_maximal_faces([[0, 0, 1]])

    def test_disconnected(self):
        with pytest.raises(DisconnectedComplexError):
            from_maximal_faces([[0, 1], [2, 3]])
        K = from_maximal_faces([[0, 1], [2, 3]], require_connected=False)
        assert not K.is_connected()

    def test_explicit_order(self):
        K = from_maximal_faces([[0, 1, 2]], order=[2, 0, 1])
        assert K.vertices == (2, 0, 1)
        assert (2, 0) in K.simplices

    def test_downward_closure_randomized(self):
        rng = random.Random(0)
        for _ in range(200):
            K = rand_complex(rng)
            for s in K.simplices:
                for i in range(len(s)):
                    face = s[:i] + s[i + 1:]
                    if face:
                        assert face in K.simplices
            for v in K.vertices:
                assert (v,) in K.simplices


class TestSubcomplexesAndCovers:
    def test_restrict_identity_is_inclusion(self):
        K = fixture_complex("s2")
        A = Subcomplex.spanned_by(K, [[1, 2, 3]])
        r = restrict(SimplicialMap.identity(K), A)
        assert r.source == A.complex
        assert all(r(v) == v for v in A.complex.vertices)

    def test_restrict_constant(self):
        K = fixture_complex("s2")
        A = Subcomplex.spanned_by(K, [[0, 1, 2]])
        r = restrict(SimplicialMap.constant(K, K), A)
        assert set(r.assignment.values()) == {0}

    def test_restrict_projection_onto_target(self):
        # the first printed piece of the complexity cover projects onto S2
        s2 = fixture_complex("s2")
        P, pi1, pi2 = product(s2, s2)
        piece = Subcomplex.spanned_by(P, TABLE4[0])
        r = restrict(pi1, piece)
        assert set(r.assignment.values()) == set(s2.vertices)

    def test_restrict_wrong_parent(self):
        K = fixture_complex("s2")
        L = fixture_complex("c3")
        A = Subcomplex.spanned_by(L, [[0, 1]])
        with pytest.raises(NotASubcomplexError):
            restrict(SimplicialMap.identity(K), A)

    def test_not_a_subcomplex(self):
        K = fixture_complex("c3")
        with pytest.raises(NotASubcomplexError):
            Subcomplex.spanned_by(K, [[0, 1, 2]])  # the filled triangle is absent

    def test_cover_true_cases(self):
        cov = fixture_cover("table1")
        ok, witness = is_cover(cov.parent, cov.pieces)
        assert ok and witness is None
        K = fixture_complex("s2")
        whole = Subcomplex.spanned_by(K, K.maximal_faces)
        assert is_cover(K, [whole]) == (True, None)

    def test_cover_with_deleted_faces(self):
        # each table piece owns its printed faces exclusively, so removing
        # one from each piece punches holes that the union no longer covers
        cov = fixture_cover("table1")
        parent = cov.parent
        face_lists = [list(p.complex.maximal_faces) for p in cov.pieces]
        removed = [fl.pop(0) for fl in face_lists]
        union = set()
        for fl in face_lists:
            union |= closure_of(fl)
        for f in removed:
            assert tuple(sorted(f)) not in union  # confirmed by direct union
        pieces = [Subcomplex.spanned_by(parent, fl) for fl in face_lists]
        ok, witness = is_cover(parent, pieces)
        assert not ok and witness is not None

    def test_cover_monotone(self):
        rng = random.Random(1)
        for _ in range(200):
            K = rand_complex(rng)
            n = len(K.maximal_faces)
            picks = [rng.sample(range(n), rng.randint(1, n))
                     for _ in range(rng.randint(1, 3))]
            pieces = [Subcomplex.spanned_by(K, [K.maximal_faces[i] for i in p])
                      for p in picks]
            ok, _ = is_cover(K, pieces)
            extra = Subcomplex.spanned_by(K, [K.maximal_faces[rng.randrange(n)]])
            ok2, _ = is_cover(K, pieces + [extra])
            if ok:
                assert ok2

    def test_empty_piece_rejected(self):
        K = fixture_complex("s2")
        with pytest.raises(EmptyInputError):
            Subcomplex(K, [])

    def test_face_lists_and_names_must_match(self):
        # extra face lists used to be dropped without a word
        K = fixture_complex("s2")
        faces = [[f] for f in S2_FACES]
        with pytest.raises(InvalidCoverError, match="4 face lists but 1 piece names"):
            Cover.from_face_lists(K, faces, names=["A"])
        with pytest.raises(InvalidCoverError):
            Cover.from_face_lists(K, faces[:1], names=["A", "B"])
        assert len(Cover.from_face_lists(K, faces, names=list("ABCD"))) == 4

    def test_repeated_piece_names_rejected(self):
        # a cover file could not name these pieces apart, so no cover may
        K = fixture_complex("s2")
        faces = [[f] for f in S2_FACES]
        with pytest.raises(InvalidCoverError, match="piece name 'A' given twice"):
            Cover.from_face_lists(K, faces, names=["A", "A", "B", "B"])
        # an unnamed piece i is K<i>, as a cover file names it
        named_k1 = Subcomplex.spanned_by(K, faces[0], name="K1")
        unnamed = Subcomplex.spanned_by(K, faces[1])
        with pytest.raises(InvalidCoverError, match="'K1' given twice"):
            Cover(K, [named_k1, unnamed])
        assert len(Cover(K, [unnamed, named_k1])) == 2

    def test_fixture_and_search_covers_name_pieces_apart(self):
        from cohodist.distance import scat_query, search
        from cohodist.exactalg import GF2
        from cohodist.fixtures import cover_names
        covers = [fixture_cover(name) for name in cover_names()]
        covers.append(search(scat_query(fixture_complex("k5"), GF2), 3))
        for cov in covers:
            names = [p.name or f"K{i}" for i, p in enumerate(cov.pieces)]
            assert len(set(names)) == len(names)


class TestBarycentricSubdivision:
    def test_edge(self):
        K = from_maximal_faces([[0, 1]])
        sd, lam = barycentric_subdivision(K)
        assert sd.f_vector() == (3, 2)
        assert lam((0, 1)) == 1

    def test_sphere_f_vector_matches_chain_count(self):
        K = fixture_complex("s2")
        sd, _ = barycentric_subdivision(K)
        assert sd.f_vector() == (14, 36, 24)
        assert sd.f_vector() == count_chains(K.simplices)

    def test_k5(self):
        sd, _ = barycentric_subdivision(fixture_complex("k5"))
        assert sd.f_vector() == (15, 20)

    def test_euler_characteristic_preserved(self):
        for name in ("c3", "s2", "k5", "rp2", "rp3", "cp2", "torus", "figure1"):
            K = fixture_complex(name)
            sd, _ = barycentric_subdivision(K)
            assert sd.euler_characteristic() == K.euler_characteristic()
            assert sd.f_vector() == count_chains(K.simplices)

    def test_carrier_is_last_vertex(self):
        K = fixture_complex("s2")
        sd, lam = barycentric_subdivision(K)
        for s in K.simplices:
            assert lam(s) == s[-1]

    def test_maximal_faces_are_full_flags(self):
        # the subdivision sets its maximal faces as it builds them: the full
        # flags of the maximal simplices of K, in the order that reading
        # them off the faces of a complex with the same simplices gives
        rng = random.Random(23)
        complexes = [fixture_complex(n) for n in ("s2", "k5", "figure1")]
        complexes += [rand_complex(rng) for _ in range(30)]
        for K in complexes:
            for sd in (barycentric_subdivision(K)[0],
                       barycentric_subdivision(barycentric_subdivision(K)[0])[0]):
                top = [frozenset(s) for s in sd.vertices]
                maximal = [s for s in top if not any(s < t for t in top)]
                flags = {frozenset(frozenset(perm[:k]) for k in range(1, len(perm) + 1))
                         for s in maximal for perm in permutations(s)}
                assert {frozenset(map(frozenset, f)) for f in sd.maximal_faces} == flags
                again = SimplicialComplex(sd.vertices, [k for d in range(sd.dim + 1)
                                                       for k in sd.keys_of_dim(d)])
                assert sd.maximal_keys() == again.maximal_keys()


class TestSdMap:
    def test_identity(self):
        K = fixture_complex("s2")
        sd, _ = barycentric_subdivision(K)
        m = sd_map(SimplicialMap.identity(K), sd, sd)
        assert m.assignment == {s: s for s in K.simplices}

    def test_constant(self):
        K = fixture_complex("s2")
        m = sd_map(SimplicialMap.constant(K, K, 1))
        assert set(m.assignment.values()) == {(1,)}

    def test_edge_collapse(self):
        K = from_maximal_faces([[0, 1]])
        P = from_maximal_faces([[0]])
        m = sd_map(SimplicialMap(K, P, {0: 0, 1: 0}))
        assert m.assignment[(0, 1)] == (0,)

    def test_functorial_on_vertices(self):
        K = fixture_complex("s2")
        fold = SimplicialMap(K, K, {0: 0, 1: 1, 2: 2, 3: 0})
        const = SimplicialMap.constant(K, K)
        for phi, psi in ((fold, fold), (const, fold), (fold, const)):
            lhs = sd_map(psi.compose(phi))
            rhs = sd_map(psi).compose(sd_map(phi))
            assert lhs.assignment == rhs.assignment

    def test_subdivided_cover_still_covers(self):
        cov = fixture_cover("k5")
        sd_cov = subdivide_cover(cov)
        ok, _ = is_cover(sd_cov.parent, sd_cov.pieces)
        assert ok

    def test_subdivided_pieces_keep_distinct_names(self):
        # unnamed pieces are subdivided under their file names K<i>
        K = fixture_complex("c3")
        cov = Cover(K, [Subcomplex.spanned_by(K, [[0, 1], [0, 2]]),
                        Subcomplex.spanned_by(K, [[1, 2]], name="B")])
        assert [p.name for p in subdivide_cover(cov).pieces] == ["sd K0", "sd B"]


class TestProduct:
    def test_point_times_k(self):
        P = fixture_complex("point")
        K = fixture_complex("s2")
        PK, pi1, pi2 = product(P, K)
        assert PK.f_vector() == K.f_vector()
        assert {tuple(v for _, v in s) for s in PK.simplices} == K.simplices

    def test_c3_x_s2_top_count_and_table_membership(self):
        K = fixture_complex("c3xs2")
        assert K.f_vector()[-1] == 36
        for piece in TABLE3:
            for face in piece:
                assert face in K

    def test_s2_x_s2_top_count_and_table_membership(self):
        K = fixture_complex("s2xs2")
        assert K.f_vector()[-1] == 96
        for piece in TABLE4:
            for face in piece:
                assert face in K

    def test_projections_are_simplicial_and_cover_simplices(self):
        rng = random.Random(2)
        for _ in range(20):
            A = rand_complex(rng, 4)
            B = rand_complex(rng, 4)
            P, pi1, pi2 = product(A, B)
            for s in P.simplices:
                assert pi1.image_simplex(s) in A.simplices
                assert pi2.image_simplex(s) in B.simplices

    def test_monotone_chains(self):
        A = fixture_complex("c3")
        B = fixture_complex("s2")
        P, _, _ = product(A, B)
        for s in P.simplices:
            for (u1, v1), (u2, v2) in zip(s, s[1:]):
                assert A.position(u1) <= A.position(u2)
                assert B.position(v1) <= B.position(v2)


class TestMapValidation:
    def test_non_simplicial_rejected(self):
        s2 = fixture_complex("s2")
        c3 = fixture_complex("c3")
        with pytest.raises(NotSimplicialError):
            SimplicialMap(s2, c3, {0: 0, 1: 1, 2: 2, 3: 0})

    def test_missing_vertex(self):
        c3 = fixture_complex("c3")
        with pytest.raises(NotSimplicialError):
            SimplicialMap(c3, c3, {0: 0, 1: 1})
