"""Field pieces decided by pairing difference cochains with cycles.

Over a field a generator y of H^d(target) passes on a piece exactly when
(phi^# - psi^#)y vanishes on every d-cycle of the piece, and
``homology.PairingState`` grows those cycles face by face; homology reads
the same states, by duality.  These tests
compare its failing-generator counts with the membership path it replaced
(``reference_membership``) on seeded random pieces, for states made from
scratch, by chains of one-face extensions and by the walk that fills the
verdict table, and against states built from scratch for the pieces
greedy's repair grows by divide and conquer; check the verdicts of both
variances, which the duality makes one, against the induced maps of the
restricted maps on presentations; and count the states alive while search
runs.
"""

import gc
import importlib
import random

import pytest

from cohodist import distance
from cohodist.complexes import (
    SimplicialMap,
    Subcomplex,
    barycentric_subdivision,
    from_maximal_faces,
    restrict,
)
from cohodist.distance import (
    DistanceQuery,
    _PieceChecker,
    hscat,
    hstc,
    scat_query,
    stc_query,
)
from cohodist.exactalg import GF, GF2, QQ, ZZ
from cohodist.fixtures import fixture_complex
from cohodist.homology import (
    PairingState,
    _pairings,
    chain_complex,
    equality_obstruction,
    maps_equal,
    pairing_state,
)

from .presentation_path import maps_equal_by_presentation
from .reference_membership import obstruction_by_membership

FIELDS = (GF2, GF(3), QQ)

complexes_module = importlib.import_module("cohodist.complexes")


def shuffled(rng, name):
    base = fixture_complex(name)
    order = list(base.vertices)
    rng.shuffle(order)
    return from_maximal_faces(base.maximal_faces, order=order)


def fold(K):
    """K -> K sending its last vertex onto the one before."""
    v = K.vertices
    return SimplicialMap(K, K, {**{x: x for x in v}, v[-1]: v[-2]})


def map_pairs(rng):
    """(label, phi, psi) on fixtures and on s2 x s2, in shuffled vertex orders."""
    pairs = []
    for name in ("c3", "s2", "rp2", "torus", "figure1", "k5", "rp3", "c3xs2", "cp2"):
        q = scat_query(shuffled(rng, name), GF2)
        pairs.append((f"{name} const/id", q.phi, q.psi))
    s2 = shuffled(rng, "s2")
    pairs.append(("s2 fold/id", fold(s2), SimplicialMap.identity(s2)))
    q = stc_query(shuffled(rng, "s2"), GF2)
    pairs.append(("s2 x s2 projections", q.phi, q.psi))
    return pairs


def random_face_set(rng, n):
    return sum(1 << i for i in rng.sample(range(n), rng.randint(1, n)))


@pytest.fixture
def live_states(monkeypatch):
    """The ids of the :class:`PairingState` objects created during the test
    and not yet finalized; its length counts the states alive."""
    live = set()
    init = PairingState.__init__

    def created(self, *args):
        init(self, *args)
        live.add(id(self))

    monkeypatch.setattr(PairingState, "__init__", created)
    monkeypatch.setattr(PairingState, "__del__", lambda self: live.discard(id(self)),
                        raising=False)
    return live


class TestAgainstMembership:
    def test_from_scratch(self):
        rng = random.Random(31)
        checked = nonzero = 0
        for label, phi, psi in map_pairs(rng):
            data = chain_complex(phi.source)
            faces = phi.source.maximal_faces
            for ring in FIELDS:
                for _ in range(4):
                    picked = [faces[i] for i in rng.sample(range(len(faces)),
                                                           rng.randint(1, len(faces)))]
                    mask = Subcomplex.spanned_by(phi.source, picked).mask
                    want = obstruction_by_membership(phi, psi, ring, mask)
                    got = equality_obstruction(phi, psi, ring, "cohomology", piece=mask)
                    assert got == want, (label, ring)
                    checked += 1
                    nonzero += want > 0
                whole = data.full_mask()
                assert (equality_obstruction(phi, psi, ring, "cohomology")
                        == obstruction_by_membership(phi, psi, ring, whole)), (label, ring)
        assert checked == 11 * 3 * 4 and nonzero > 40

    def test_chains_of_one_face_extensions(self):
        rng = random.Random(32)
        nonzero = 0
        for label, phi, psi in map_pairs(rng):
            faces = list(phi.source.maximal_faces)
            for ring in FIELDS:
                rng.shuffle(faces)
                state = pairing_state(phi, psi, ring)
                mask = state.mask
                # stop early on the big sources; the membership reference is slow there
                for k, face in enumerate(faces[:24]):
                    closure = Subcomplex.spanned_by(phi.source, [face]).mask
                    # a sibling grown and read first must leave its parent as it was
                    if k % 3 == 1:
                        sibling = state.extended(
                            Subcomplex.spanned_by(phi.source, [faces[-1]]).mask)
                        assert (equality_obstruction(phi, psi, ring, "cohomology", piece=sibling)
                                == obstruction_by_membership(phi, psi, ring, sibling.mask))
                    state = state.extended(closure)
                    mask = tuple(a | b for a, b in zip(mask, closure))
                    assert state.mask == mask
                    want = obstruction_by_membership(phi, psi, ring, mask)
                    got = equality_obstruction(phi, psi, ring, "cohomology", piece=state)
                    assert got == want, (label, ring, k)
                    nonzero += want > 0
        assert nonzero > 200

    def test_verdict_table_walk(self, monkeypatch):
        rng = random.Random(33)
        seen = []

        def record(self, face_set, piece):
            seen.append((self.query, face_set, piece))
            return evaluate(self, face_set, piece)

        evaluate = _PieceChecker._evaluate
        monkeypatch.setattr(_PieceChecker, "_evaluate", record)
        cases = [shuffled(rng, "k5"), shuffled(rng, "rp2")]
        for _ in range(4):
            nv = rng.randint(4, 6)
            faces = [rng.sample(range(nv), rng.choice((2, 3))) for _ in range(7)]
            K = from_maximal_faces(faces, require_connected=False)
            if K.is_connected():
                cases.append(K)
        nonzero = 0
        for K in cases:
            for ring in FIELDS:
                checker = _PieceChecker(scat_query(K, ring))
                # a few verdicts memoized first, as the first pass of search leaves them
                for _ in range(3):
                    checker.obstruction(random_face_set(rng, len(checker.faces)))
                memoized = len(checker._cache) - 1
                seen.clear()
                table = checker.verdict_table()
                n = len(checker.faces)
                assert len(seen) == (1 << n) - 1 - memoized
                for _, face_set, piece in seen:
                    assert piece.mask == checker.mask(face_set)
                # every face set of the small complexes, a sample of the rest
                q = checker.query
                face_sets = range(1, 1 << n) if n <= 7 else rng.sample(range(1, 1 << n), 120)
                for face_set in face_sets:
                    want = obstruction_by_membership(q.phi, q.psi, ring,
                                                     checker.mask(face_set))
                    assert checker.obstruction(face_set) == want
                    assert table[face_set] == (want == 0)
                    nonzero += want > 0
        assert nonzero > 300


class TestStatesThatPairNothing:
    """Over Z a state pairs nothing: search holds and grows it as it does a
    paired one, and the query reads it as its mask.  Field homology, which
    once paired nothing too, reads the paired states of field cohomology."""

    QUERIES = ((ZZ, "cohomology"), (GF2, "homology"), (ZZ, "homology"))

    def test_read_as_their_masks(self):
        rng = random.Random(36)
        nonzero = 0
        for label, phi, psi in map_pairs(rng)[:7]:
            faces = phi.source.maximal_faces
            for ring, variance in self.QUERIES:
                empty = pairing_state(phi, psi, ring)
                if ring.is_field:
                    assert empty.pairings is _pairings(phi, psi, ring)
                else:
                    assert empty.pairings == () and empty.failing == []
                for _ in range(3):
                    picked = rng.sample(faces, rng.randint(1, len(faces)))
                    mask = Subcomplex.spanned_by(phi.source, picked).mask
                    state = empty
                    for face in picked:
                        state = state.extended(Subcomplex.spanned_by(phi.source, [face]).mask)
                    assert state.mask == mask
                    want = equality_obstruction(phi, psi, ring, variance, piece=mask)
                    got = equality_obstruction(phi, psi, ring, variance, piece=state)
                    assert got == want, (label, ring, variance)
                    nonzero += want > 0
        assert nonzero > 10

    def test_verdict_table_walk(self, monkeypatch, live_states):
        rng = random.Random(37)
        seen = []  # (face set, states alive) per evaluation

        def record(self, face_set, piece):
            assert isinstance(piece, PairingState)
            q = self.query
            assert piece.pairings == (_pairings(q.phi, q.psi, q.ring)
                                      if q.ring.is_field else ())
            assert piece.mask == self.mask(face_set)
            seen.append((face_set, len(live_states)))
            return evaluate(self, face_set, piece)

        evaluate = _PieceChecker._evaluate
        monkeypatch.setattr(_PieceChecker, "_evaluate", record)
        cases = [shuffled(rng, "k5"), shuffled(rng, "rp2")]
        for _ in range(4):
            nv = rng.randint(4, 6)
            faces = [rng.sample(range(nv), rng.choice((2, 3))) for _ in range(7)]
            K = from_maximal_faces(faces, require_connected=False)
            if K.is_connected():
                cases.append(K)
        nonzero = 0
        for K in cases:
            for ring, variance in self.QUERIES:
                checker = _PieceChecker(scat_query(K, ring, variance))
                n = len(checker.faces)
                gc.collect()
                before = len(live_states)  # the checker's empty state
                seen.clear()
                table = checker.verdict_table()
                assert len(seen) == (1 << n) - 1
                # the states of a set's n - 1 parents and its own: a set's
                # state lives while its subtree is walked
                assert max(alive for _, alive in seen) == before + n
                q = checker.query
                for face_set in range(1, 1 << n):
                    want = equality_obstruction(q.phi, q.psi, ring, variance,
                                                piece=checker.mask(face_set))
                    assert table[face_set] == (want == 0), (ring, variance)
                    nonzero += want > 0
                assert len(live_states) == before  # no state outlives the walk
        assert nonzero > 300


class TestDuality:
    def pieces(self, rng, K, count):
        faces = K.maximal_faces
        for _ in range(count):
            yield Subcomplex.spanned_by(K, rng.sample(faces, rng.randint(1, len(faces))))

    def test_fields_agree_with_homology(self):
        # both variances read the same pairing states over a field, so each
        # is checked against the induced maps of the restricted maps on
        # presentations, a path that pairs nothing
        rng = random.Random(34)
        passed = failed = 0
        for name in ("s2", "rp2", "torus", "rp3", "figure1", "c3xs2"):
            q = scat_query(shuffled(rng, name), GF2)
            for ring in FIELDS:
                for piece in self.pieces(rng, q.source, 8):
                    phi, psi = restrict(q.phi, piece), restrict(q.psi, piece)
                    for variance in ("cohomology", "homology"):
                        report = maps_equal(q.phi, q.psi, ring, variance, piece=piece.mask)
                        induced = maps_equal_by_presentation(phi, psi, ring, variance)
                        assert report.by_degree == induced.by_degree, (name, ring, variance)
                    passed += report.equal
                    failed += not report.equal
        assert passed > 20 and failed > 20

    def test_integers_disagree_on_rp3(self):
        # over Z, H^d sees the torsion of H_{d-1} (Ext), so a piece of rp3
        # can pass in one variance and fail in the other; the Z path is
        # relation-aware membership, not pairing with cycles
        rng = random.Random(35)
        q = scat_query(fixture_complex("rp3"), ZZ)
        disagree = 0
        for piece in self.pieces(rng, q.source, 40):
            co = equality_obstruction(q.phi, q.psi, ZZ, "cohomology", piece=piece.mask)
            ho = equality_obstruction(q.phi, q.psi, ZZ, "homology", piece=piece.mask)
            disagree += (co == 0) != (ho == 0)
        assert disagree >= 1

    def test_states_answer_their_own_field_only(self):
        K = fixture_complex("s2")
        phi, psi = SimplicialMap.identity(K), SimplicialMap.constant(K, K)
        whole = chain_complex(K).full_mask()
        # a Z state pairs nothing, so it is sound, and it is read as its mask
        state = pairing_state(phi, psi, ZZ).extended(whole)
        assert state.pairings == () and state.mask == whole
        assert (equality_obstruction(phi, psi, ZZ, "cohomology", piece=state)
                == equality_obstruction(phi, psi, ZZ, "cohomology", piece=whole) == 1)
        # a GF2 state answers GF2 in both variances, and no other ring
        state = pairing_state(phi, psi, GF2).extended(whole)
        assert state.pairings
        for variance in ("cohomology", "homology"):
            assert equality_obstruction(phi, psi, GF2, variance, piece=state) == 1
            for ring in (GF(3), ZZ):
                with pytest.raises(ValueError):
                    equality_obstruction(phi, psi, ring, variance, piece=state)
            with pytest.raises(ValueError):  # nor other maps
                equality_obstruction(psi, phi, GF2, variance, piece=state)

    def test_states_outlive_the_release_of_their_pairings(self, monkeypatch):
        # a state knows its maps and ring by value, so it still answers them
        # after the memo replaces sd(k5) and its cached pairings are released
        monkeypatch.setattr(complexes_module, "_sd_cache", {})
        sd, _ = barycentric_subdivision(fixture_complex("k5"))
        q = scat_query(sd, GF2)
        piece = Subcomplex.spanned_by(sd, sd.maximal_faces[3:]).mask
        state = pairing_state(q.phi, q.psi, GF2).extended(piece)
        barycentric_subdivision(fixture_complex("s2"))
        fresh = pairing_state(q.phi, q.psi, GF2).extended(piece)
        assert fresh.pairings is not state.pairings
        for variance in ("cohomology", "homology"):
            count = equality_obstruction(q.phi, q.psi, GF2, variance, piece=state)
            assert count == equality_obstruction(q.phi, q.psi, GF2, variance, piece=fresh)
            assert count == obstruction_by_membership(q.phi, q.psi, GF2, piece) > 0


class TestDisconnectedTarget:
    """Degree 0 is paired only when the target is disconnected: there a
    vertex fails the generators of H^0(target) on which its two images
    differ, through the same column reduction as every other degree."""

    def maps(self):
        # source: a hollow square with a pendant edge, and a separate edge;
        # target: a point and a hollow triangle
        K = from_maximal_faces([["w", "x"], ["x", "y"], ["y", "z"], ["z", "w"],
                                ["w", "u"], ["e", "f"]], require_connected=False)
        L = from_maximal_faces([["p"], ["a", "b"], ["b", "c"], ["c", "a"]],
                               require_connected=False)
        # phi winds the square once around the triangle and sends the
        # separate edge to the point; psi sends everything to a
        phi = SimplicialMap(K, L, {"w": "a", "x": "b", "y": "c", "z": "a", "u": "a",
                                   "e": "p", "f": "p"})
        psi = SimplicialMap(K, L, {v: "a" for v in K.vertices})
        return phi, psi

    def test_grown_states_match_masks_and_membership(self):
        phi, psi = self.maps()
        K = phi.source
        faces = K.maximal_faces
        counts = set()
        for ring in FIELDS:
            assert [d for d, *_ in _pairings(phi, psi, ring)] == [0, 1]
            for face_set in range(1, 1 << len(faces)):
                picked = [f for i, f in enumerate(faces) if face_set >> i & 1]
                state = pairing_state(phi, psi, ring)
                for face in picked:
                    state = state.extended(Subcomplex.spanned_by(K, [face]).mask)
                mask = Subcomplex.spanned_by(K, picked).mask
                assert state.mask == mask
                want = obstruction_by_membership(phi, psi, ring, mask)
                assert equality_obstruction(phi, psi, ring, "cohomology", piece=mask) == want
                assert equality_obstruction(phi, psi, ring, "cohomology", piece=state) == want
                counts.add(want)
        # from passing pieces to pieces failing all three generators
        assert counts == {0, 1, 2, 3}

    def test_connected_target_skips_degree_zero(self):
        q = scat_query(fixture_complex("s2"), GF2)
        assert [d for d, *_ in _pairings(q.phi, q.psi, GF2)] == [2]


class TestLeaveOneOut:
    """Greedy's repair reads the pieces without one face off
    ``_PieceChecker.removals``, which grows them from one another by divide
    and conquer; each must be the state grown from the empty piece."""

    QUERIES = tuple((ring, "cohomology") for ring in FIELDS) + (
        (ZZ, "cohomology"), (GF2, "homology"))

    def test_states_match_states_built_from_scratch(self, monkeypatch, live_states):
        rng = random.Random(38)
        extended = []  # faces each built state adds to the one above it
        union = _PieceChecker._union

        def counted(self, faces):
            extended.append(len(faces))
            return union(self, faces)

        monkeypatch.setattr(_PieceChecker, "_union", counted)
        pairs = map_pairs(rng)
        nonzero = walks = paired = 0
        for ring, variance in self.QUERIES:
            pairing = ring is not ZZ
            # the Z path presents each piece, which is slow on big sources
            for label, phi, psi in pairs if pairing else pairs[:7]:
                checker = _PieceChecker(DistanceQuery(phi, psi, ring, variance))
                n = len(checker.faces)
                face_set = random_face_set(rng, n)
                k = face_set.bit_count()
                depth = (k - 1).bit_length()  # ceil(log2 k)
                empty = pairing_state(phi, psi, ring)
                # a field state skips degrees that cannot fail
                assert pairing or not empty.pairings
                paired += bool(empty.pairings)
                faces, grown = [], 0
                before = len(live_states)
                for f, grow in checker.removals(face_set):
                    faces.append(f)
                    extended.clear()
                    state = grow()
                    assert grow() is state
                    grown += sum(extended)
                    # the walk's states below the empty one, and the last
                    # removal's scratch state
                    assert len(live_states) - before <= depth + 1, (label, k)
                    mask = checker.mask(face_set ^ 1 << f)
                    assert state.mask == mask
                    scratch = empty.extended(mask)
                    assert state.failing == scratch.failing, (label, ring, variance)
                    want = equality_obstruction(phi, psi, ring, variance, piece=scratch)
                    got = equality_obstruction(phi, psi, ring, variance, piece=state)
                    assert got == want, (label, ring, variance)
                    nonzero += want > 0
                assert faces == [i for i in range(n) if face_set >> i & 1]
                # each level of the halving adds each face at most once
                assert grown <= k * depth, (label, k)
                walks += k > 2
        assert walks > 30 and nonzero > 50 and paired > 20

    def test_memoized_removals_build_nothing(self, monkeypatch):
        built = []
        extended = PairingState.extended

        def counted(self, mask):
            built.append(mask)
            return extended(self, mask)

        checker = _PieceChecker(stc_query(fixture_complex("s2"), GF(3)))
        face_set = (1 << 40) - 1
        monkeypatch.setattr(PairingState, "extended", counted)
        faces = [f for f, _ in checker.removals(face_set)]
        assert faces == list(range(40)) and built == []
        # one removal alone builds only the states on its path
        for f, grow in checker.removals(face_set):
            if f == 17:
                assert grow().mask == checker.mask(face_set ^ 1 << 17)
        assert 1 <= len(built) <= 6  # ceil(log2 40) levels below the empty piece


class TestBoundedStates:
    def test_table_and_greedy_bounds(self, monkeypatch, live_states):
        phase = []  # (kind, pieces) of the search running
        peaks = {}

        evaluate = _PieceChecker._evaluate
        table = _PieceChecker.verdict_table
        greedy = distance._greedy
        greedy_sizes = []

        def counted(self, face_set, piece):
            kind, size = phase[-1] if phase else ("other", None)
            count = len(live_states)
            if kind == "greedy":
                # the empty state, the pieces, a removal walk's path of
                # ceil(log2 n) levels and the candidate, with two to spare
                n = len(self.faces)
                assert count <= size + (n - 1).bit_length() + 4, (count, size, n)
            peaks[kind] = max(peaks.get(kind, 0), count)
            return evaluate(self, face_set, piece)

        def in_table(self):
            phase.append(("table", None))
            try:
                return table(self)
            finally:
                phase.pop()

        def in_greedy(checker, size, *args, **kwargs):
            phase.append(("greedy", size))
            greedy_sizes.append(size)
            try:
                return greedy(checker, size, *args, **kwargs)
            finally:
                phase.pop()

        monkeypatch.setattr(_PieceChecker, "_evaluate", counted)
        monkeypatch.setattr(_PieceChecker, "verdict_table", in_table)
        monkeypatch.setattr(distance, "_greedy", in_greedy)

        report = hscat(fixture_complex("k5"), GF2, exhaustive_upto=2)
        assert report.exact == 2
        # k5 has 10 faces: a 9-face set's state, the states of its 8
        # parents and the empty state (the 10-face set was memoized by the
        # first pass)
        assert peaks["table"] == 10
        # greedy at 3 pieces reads only face sets the size-2 table holds
        assert greedy_sizes == [3] and "greedy" not in peaks
        peaks.clear()
        report = hstc(fixture_complex("s2"), GF(3))
        assert report.exact == 2
        assert set(peaks) == {"greedy"}
        # the repair walks pieces of up to 96 faces, 7 levels deep
        assert 3 + 7 < peaks["greedy"] <= 3 + 7 + 4

    def test_states_die_with_the_search(self, live_states):
        # reference counting alone frees every state a search grows
        enabled = gc.isenabled()
        gc.disable()
        try:
            assert hscat(fixture_complex("k5"), GF2, exhaustive_upto=2).exact == 2
            assert hstc(fixture_complex("s2"), GF(3)).exact == 2
            assert len(live_states) == 0
        finally:
            if enabled:
                gc.enable()
