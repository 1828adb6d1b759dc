"""Seeded property tests on random small complexes and map pairs.

Hypothesis draws connected complexes of at most 8 facets, of dimension at
most 3, in random vertex orders, and on each either the category pair
(constant versus identity) or a fold (one vertex sent onto a neighbour,
where that is simplicial) against the identity.  The properties:

- a ``homology.PairingState`` grown over random groups of faces in random
  order ends with the failing generators of one built from the whole
  source at once and of the membership reference, and growing a sibling
  leaves its parent as it was;
- on a random piece over Z_2, Z_3 and Q, the homology verdicts, which
  read the cohomology pairing states, match the induced maps of the
  restricted maps on presentations, a path that shares no pairing code;
- on a random piece, a degree where the maps agree in Z homology agrees
  in Q homology, the implication the Z homology lower bound rests on;
- Betti numbers over Z_2, Z_3 and Q in both variances match the
  raw-face oracles, and so do the free ranks over Z;
- every cover that exhaustive or greedy search returns verifies and still
  verifies after subdivision, and greedy finds no cover at a size where
  exhaustive search proves that none exists;
- universal coefficients: on a complex with torsion (rp2 or a Moore space
  of Z_3, wedged with a random complex), the Z_p Betti numbers are the
  free ranks over Z plus the p-torsion of H_d and H_{d-1}, both variances,
  and the package's groups over Z are the oracle's.
- maps between different complexes: on seeded random complexes
  (``rand_complex``) the carrier sd K -> K induces isomorphisms over Z_2,
  Z_3, Q and Z in both variances, and the Betti numbers of sd K are the
  raw-face oracles' for K, checked while the subdivision memo holds sd K
  and again after another complex has replaced it.

The examples are derandomized, so every run tests the same ones.
"""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from cohodist.complexes import (
    SimplicialMap,
    Subcomplex,
    barycentric_subdivision,
    from_maximal_faces,
    restrict,
)
from cohodist.distance import (
    DistanceQuery,
    scat_query,
    search_exhaustive,
    search_greedy,
    subdivision_monotonicity_check,
    verify,
)
from cohodist.errors import NotSimplicialError
from cohodist.exactalg import GF, GF2, QQ, ZZ
from cohodist.homology import (
    COHOMOLOGY,
    HOMOLOGY,
    chain_complex,
    cohomology,
    equality_obstruction,
    homology,
    induced_map,
    maps_equal,
    pairing_state,
)

from .oracles import betti_mod, integral_homology
from .presentation_path import maps_equal_by_presentation
from .reference_membership import obstruction_by_membership
from .test_complexes import rand_complex
from .test_field_presentations import betti_q

FIELDS = (GF2, GF(3), QQ)
VARIANCES = (COHOMOLOGY, HOMOLOGY)


@st.composite
def complexes(draw):
    """A connected complex on at most 7 vertices with at most 8 facets of
    2 to 4 vertices, each facet after the first meeting an earlier one."""
    vertex = st.integers(0, 6)
    faces = [draw(st.sets(vertex, min_size=2, max_size=4))]
    for pick, rest in draw(st.lists(st.tuples(st.integers(0, 6),
                                              st.sets(vertex, min_size=1, max_size=3)),
                                    max_size=7)):
        seen = sorted(set().union(*faces))
        faces.append({seen[pick % len(seen)]} | rest)
    order = draw(st.permutations(sorted(set().union(*faces))))
    return from_maximal_faces([sorted(f) for f in faces], order=order)


def folds(K):
    """The maps K -> K sending one vertex onto a neighbour, where simplicial."""
    out = []
    for u, v in K.simplices_of_dim(1):
        for a, b in ((u, v), (v, u)):
            try:
                out.append(SimplicialMap(K, K, {**{x: x for x in K.vertices}, a: b}))
            except NotSimplicialError:
                pass
    return out


@st.composite
def map_pairs(draw):
    """(phi, psi): constant versus identity, or a fold versus identity."""
    K = draw(complexes())
    identity = SimplicialMap.identity(K)
    candidates = folds(K)
    if candidates and draw(st.booleans()):
        return draw(st.sampled_from(candidates)), identity
    q = scat_query(K, GF2)
    return q.phi, q.psi


@settings(derandomize=True, deadline=None, max_examples=150)
@given(pair=map_pairs(), ring=st.sampled_from(FIELDS), data=st.data())
def test_grown_state_matches_whole_state(pair, ring, data):
    phi, psi = pair
    K = phi.source
    faces = K.maximal_faces
    order = data.draw(st.permutations(range(len(faces))))
    cuts = data.draw(st.sets(st.integers(1, len(faces) - 1))) if len(faces) > 1 else set()
    bounds = [0, *sorted(cuts), len(faces)]
    state = pairing_state(phi, psi, ring)
    for lo, hi in zip(bounds, bounds[1:]):
        before = list(state.failing)
        other = data.draw(st.sampled_from(faces))
        sibling = state.extended(Subcomplex.spanned_by(K, [other]).mask)
        assert (equality_obstruction(phi, psi, ring, COHOMOLOGY, piece=sibling)
                == obstruction_by_membership(phi, psi, ring, sibling.mask))
        assert state.failing == before
        group = [faces[i] for i in order[lo:hi]]
        state = state.extended(Subcomplex.spanned_by(K, group).mask)
    whole = pairing_state(phi, psi, ring).extended(chain_complex(K).full_mask())
    assert state.mask == whole.mask
    assert state.failing == whole.failing
    assert (equality_obstruction(phi, psi, ring, COHOMOLOGY, piece=state)
            == obstruction_by_membership(phi, psi, ring, state.mask))


def pieces(K):
    """A subcomplex of K spanned by a nonempty set of its maximal faces."""
    faces = K.maximal_faces
    picked = st.sets(st.sampled_from(faces), min_size=1, max_size=len(faces))
    return picked.map(lambda chosen: Subcomplex.spanned_by(K, sorted(chosen, key=faces.index)))


@settings(derandomize=True, deadline=None, max_examples=120)
@given(pair=map_pairs(), ring=st.sampled_from(FIELDS), data=st.data())
def test_field_homology_matches_induced_maps(pair, ring, data):
    phi, psi = pair
    piece = data.draw(pieces(phi.source))
    report = maps_equal(phi, psi, ring, HOMOLOGY, piece=piece.mask)
    induced = maps_equal_by_presentation(restrict(phi, piece), restrict(psi, piece),
                                         ring, HOMOLOGY)
    assert report.by_degree == induced.by_degree


@settings(derandomize=True, deadline=None, max_examples=80)
@given(pair=map_pairs(), data=st.data())
def test_integral_homology_agreement_holds_rationally(pair, data):
    phi, psi = pair
    mask = data.draw(pieces(phi.source)).mask
    integral = maps_equal(phi, psi, ZZ, HOMOLOGY, piece=mask).by_degree
    rational = maps_equal(phi, psi, QQ, HOMOLOGY, piece=mask).by_degree
    assert integral.keys() == rational.keys()
    assert all(rational[d] for d, equal in integral.items() if equal)


@settings(derandomize=True, deadline=None, max_examples=100)
@given(K=complexes())
def test_betti_numbers(K):
    for p in (2, 3):
        want = betti_mod(K.maximal_faces, p)
        assert cohomology(K, GF(p)).betti() == want
        assert homology(K, GF(p)).betti() == want
    want = betti_q(K.maximal_faces)
    assert cohomology(K, ZZ).betti() == cohomology(K, QQ).betti() == want
    assert homology(K, ZZ).betti() == homology(K, QQ).betti() == want


@settings(derandomize=True, deadline=None, max_examples=80)
@given(pair=map_pairs(), ring=st.sampled_from((ZZ, *FIELDS)),
       variance=st.sampled_from(VARIANCES), size=st.integers(1, 3))
def test_search_returns_verified_covers(pair, ring, variance, size):
    query = DistanceQuery(*pair, ring, variance)
    exhaustive = search_exhaustive(query, size)
    greedy = search_greedy(query, size, restarts=4)
    if exhaustive is None:
        assert greedy is None
    for cover in (exhaustive, greedy):
        if cover is not None:
            assert len(cover.pieces) <= size
            assert verify(query, cover).verified
            assert subdivision_monotonicity_check(query, cover)


# two complexes with torsion in H_1, as raw faces: rp2 (Z_2) and a Moore
# space of Z_3, a disk whose 9-gon boundary winds three times round the
# triangle 0 1 2 (ring 10..18 inside it, centre 19)
RP2_FACES = [(0, 1, 4), (0, 1, 5), (0, 2, 3), (0, 2, 4), (0, 3, 5), (1, 2, 3), (1, 2, 5),
             (1, 3, 4), (2, 4, 5), (3, 4, 5)]
MOORE3_FACES = [face for i in range(9)
                for face in ((i % 3, (i + 1) % 3, 10 + i),
                             ((i + 1) % 3, 10 + i, 10 + (i + 1) % 9),
                             (10 + i, 10 + (i + 1) % 9, 19))]


@st.composite
def torsion_complexes(draw):
    """rp2 or the Moore space of Z_3, wedged at vertex 0 with a random
    complex of :func:`complexes` (labels moved past the base's), in a
    random vertex order: a list of faces."""
    faces = list(draw(st.sampled_from((RP2_FACES, MOORE3_FACES))))
    if draw(st.booleans()):
        extra = draw(complexes())
        first = extra.vertices[0]
        faces += [tuple(0 if v == first else 100 + v for v in f) for f in extra.maximal_faces]
    return faces


@settings(derandomize=True, deadline=None, max_examples=40)
@given(faces=torsion_complexes(), p=st.sampled_from((2, 3, 5)), data=st.data())
def test_universal_coefficients_with_torsion(faces, p, data):
    order = data.draw(st.permutations(sorted({v for f in faces for v in f})))
    K = from_maximal_faces(faces, order=order)
    groups = integral_homology(faces)
    integral = homology(K, ZZ)
    assert [(pres.free_rank, list(pres.torsion))
            for pres in map(integral.presentation, integral.degrees)] == groups

    def p_torsion(d):
        return sum(1 for t in groups[d][1] if t % p == 0) if d >= 0 else 0

    want = tuple(free + p_torsion(d) + p_torsion(d - 1) for d, (free, _) in enumerate(groups))
    assert homology(K, GF(p)).betti() == cohomology(K, GF(p)).betti() == want


def test_carriers_of_subdivisions_induce_isomorphisms():
    rng = random.Random(26)
    other = from_maximal_faces([[0, 1, 2], [2, 3]])
    for _ in range(40):
        K = rand_complex(rng)
        faces = K.maximal_faces
        sd, carrier = barycentric_subdivision(K)
        for phase in ("the memo holds sd", "sd was released"):
            for ring in (*FIELDS, ZZ):
                for variance in VARIANCES:
                    assert induced_map(carrier, ring, variance).is_iso(), (faces, ring)
            for p in (2, 3):
                assert cohomology(sd, GF(p)).betti() == homology(sd, GF(p)).betti() \
                    == betti_mod(faces, p)
            free = tuple(rank for rank, _ in integral_homology(faces))
            for ring in (QQ, ZZ):
                assert cohomology(sd, ring).betti() == homology(sd, ring).betti() == free
            barycentric_subdivision(other)  # the memo lets sd go
