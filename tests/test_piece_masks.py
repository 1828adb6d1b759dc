"""Cover pieces are bit masks over their parent, verified without being built.

``Subcomplex.mask`` holds a piece as one bitset per degree over the
parent's keys; ``verify`` passes it to the verdict path that cover search
uses, and ``is_cover`` ORs the masks.  The route through built pieces,
restricted maps and label sets is kept in ``reference_cover.py``; the
tests below compare whole certificates of both on seeded random covers.
"""

import random

import pytest

from cohodist.complexes import (
    Cover,
    SimplicialComplex,
    SimplicialMap,
    Subcomplex,
    barycentric_subdivision,
    from_maximal_faces,
    is_cover,
)
from cohodist.distance import (
    DistanceQuery,
    _PieceChecker,
    scat_query,
    search,
    stc_query,
    verify,
)
from cohodist.errors import NotASubcomplexError
from cohodist.exactalg import GF, GF2, QQ, ZZ
from cohodist.fixtures import TABLE1, fixture_complex, fixture_names

from .reference_complex import label_complex
from .reference_cover import is_cover_by_labels, verify_by_restriction

RINGS = (ZZ, QQ, GF2, GF(3))
VARIANCES = ("cohomology", "homology")


def shuffled(rng, name):
    base = fixture_complex(name)
    order = list(base.vertices)
    rng.shuffle(order)
    return from_maximal_faces(base.maximal_faces, order=order)


def map_pairs(rng):
    """(label, phi, psi) on fixtures in shuffled vertex orders."""
    pairs = []
    for name in ("s2", "rp2", "torus", "figure1", "c3"):
        K = shuffled(rng, name)
        pairs.append((f"{name} const/id", SimplicialMap.constant(K, K),
                      SimplicialMap.identity(K)))
    s2 = shuffled(rng, "s2")
    v = s2.vertices
    fold = SimplicialMap(s2, s2, {**{x: x for x in v}, v[-1]: v[-2]})
    pairs.append(("s2 fold/id", fold, SimplicialMap.identity(s2)))
    sd, carrier = barycentric_subdivision(shuffled(rng, "rp2"))
    pairs.append(("sd rp2 carrier/const", carrier,
                  SimplicialMap.constant(sd, carrier.target)))
    q = stc_query(shuffled(rng, "c3"), GF2)
    pairs.append(("c3 x c3 projections", q.phi, q.psi))
    return pairs


def closure(simplex):
    n = len(simplex)
    return {tuple(simplex[i] for i in range(n) if m >> i & 1) for m in range(1, 1 << n)}


def random_cover(rng, K):
    """A cover of K by 1 to 4 pieces, each spanned by random maximal faces
    plus a few extra vertices and edges; it covers K only some of the time.
    The simplices are handed over shuffled, each in a random vertex order."""
    faces = list(K.maximal_faces)
    picks = [set(rng.sample(range(len(faces)), rng.randint(1, min(6, len(faces)))))
             for _ in range(rng.randint(1, 4))]
    if rng.random() < 0.4:  # hand every face to some piece
        for f in range(len(faces)):
            rng.choice(picks).add(f)
    pieces = []
    for i, picked in enumerate(picks):
        simplices = set()
        for f in picked:
            simplices |= closure(faces[f])
        for _ in range(rng.randint(0, 3)):
            simplices |= closure(rng.choice(K.simplices_of_dim(rng.randint(0, min(1, K.dim)))))
        given = [tuple(rng.sample(s, len(s))) for s in simplices]
        rng.shuffle(given)
        pieces.append(Subcomplex(K, given, name=rng.choice(("", f"P{i}"))))
    return Cover(K, pieces)


def test_verify_matches_the_built_piece_route():
    rng = random.Random(14)
    seen = {"covers": 0, "gaps": 0, "verified": 0, "unequal": 0}
    for label, phi, psi in map_pairs(rng):
        for ring in RINGS:
            for variance in VARIANCES:
                q = DistanceQuery(phi, psi, ring, variance)
                for _ in range(3):
                    cover = random_cover(rng, q.source)
                    got = verify(q, cover).to_dict()
                    assert got == verify_by_restriction(q, cover).to_dict(), (
                        label, ring, variance)
                    seen["covers" if got["cover_ok"] else "gaps"] += 1
                    seen["verified"] += got["verified"]
                    seen["unequal"] += not all(r["equal"] for r in got["piece_reports"])
    assert min(seen.values()) >= 10, seen


def test_pieces_match_their_built_complexes():
    rng = random.Random(15)
    for label, phi, _ in map_pairs(rng):
        K = phi.source
        cover = random_cover(rng, K)
        assert is_cover(K, cover.pieces) == is_cover_by_labels(K, cover.pieces)
        for p in cover.pieces:
            simplices = p.complex.simplices
            assert p.simplices == simplices
            verts = [v for v in K.vertices if (v,) in simplices]
            assert p.complex == label_complex(verts, simplices), label
            for d, bits in enumerate(p.mask):
                keys = K.keys_of_dim(d)
                assert bits >> len(keys) == 0
                assert {K.simplices_of_dim(d)[i] for i in range(len(keys)) if bits >> i & 1} \
                    == {s for s in simplices if len(s) == d + 1}


def test_empty_and_partial_covers():
    K = fixture_complex("s2")
    piece = Subcomplex.spanned_by(K, [K.maximal_faces[0]])
    assert is_cover(K, []) == (False, K.simplices_of_dim(0)[0])
    assert is_cover(K, [piece]) == is_cover_by_labels(K, [piece])
    assert is_cover(K, [piece])[0] is False


@pytest.fixture
def complexes_built(monkeypatch):
    """One entry per :class:`SimplicialComplex` constructed."""
    built = []
    init = SimplicialComplex.__init__

    def counting(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(SimplicialComplex, "__init__", counting)
    return built


def test_verify_builds_no_complex(complexes_built):
    K, rp2 = fixture_complex("cp2"), fixture_complex("rp2")
    complexes_built.clear()  # a fixture is built on its first fetch
    for ring in RINGS:
        for variance in VARIANCES:
            cover = Cover.from_face_lists(K, TABLE1)
            assert verify(scat_query(K, ring, variance), cover).verified
            assert is_cover(K, cover.pieces) == (True, None)
    assert search(scat_query(rp2, GF2), 3) is not None
    assert complexes_built == []
    # reading a piece as a complex builds it, once
    assert cover.pieces[0].complex is cover.pieces[0].complex
    assert len(complexes_built) == 1


def test_unknown_vertex_is_not_a_subcomplex():
    c3 = fixture_complex("c3")
    for build in (lambda: Subcomplex(c3, [(9,)]),
                  lambda: Subcomplex(c3, [(0,), (0, "x"), ("x",)]),
                  lambda: Subcomplex.spanned_by(c3, [[0, 9]]),
                  lambda: Cover.from_face_lists(c3, [[[0, "x"]]])):
        with pytest.raises(NotASubcomplexError):
            build()


def test_missing_face_is_named():
    c3 = fixture_complex("c3")
    with pytest.raises(NotASubcomplexError, match=r"missing face \(1,\)"):
        Subcomplex(c3, [(0,), (0, 1)])


def test_search_closures_match_spanned_subcomplexes():
    # cover search reads each maximal face's closure off the parent's keys
    # and index, without building a Subcomplex per face
    rng = random.Random(12)
    for name in fixture_names():
        for K in (fixture_complex(name), shuffled(rng, name)):
            checker = _PieceChecker(scat_query(K, GF2))
            assert checker._closures == [Subcomplex.spanned_by(K, [f]).mask
                                         for f in K.maximal_faces], name
