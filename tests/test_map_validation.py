"""A simplicial map is checked on vertex positions, with the same errors.

:class:`SimplicialMap` checks each maximal face of its source through the
image positions of its vertices, so no label tuple of the source is built
unless a face fails.  The three ways a vertex assignment can fail keep
their messages word for word, a key that is no source vertex is refused
too, and a failing face is still named by its labels, listed in the
source's vertex order.  Two maps compared or pulled
back together must be parallel, and every public entry point that takes
such a pair refuses one that is not with the same error.
"""

import pytest

from cohodist.complexes import SimplicialMap, barycentric_subdivision, from_maximal_faces
from cohodist.cupring import J_generators
from cohodist.distance import DistanceQuery
from cohodist.errors import ComplexMismatchError, NotSimplicialError
from cohodist.exactalg import GF2, ZZ
from cohodist.fixtures import fixture_complex
from cohodist.homology import equality_obstruction, maps_equal, pairing_state

# a path z - a - m, its vertices listed out of label order
PATH = from_maximal_faces([["a", "z"], ["m", "a"]], order=["z", "a", "m"])
# a triangle's boundary 0 - 1 - 2 - 0, and a path 0 - 1 - 2
CIRCLE = from_maximal_faces([[0, 1], [1, 2], [0, 2]])
ARC = from_maximal_faces([[0, 1], [1, 2]])


def message(source, target, assignment):
    with pytest.raises(NotSimplicialError) as info:
        SimplicialMap(source, target, assignment)
    return str(info.value)


def test_a_vertex_with_no_image():
    assert message(PATH, ARC, {"z": 0, "a": 1}) == "vertex 'm' has no image"
    assert message(ARC, PATH, {}) == "vertex 0 has no image"


def test_a_key_that_is_not_a_source_vertex():
    # such a map used to be built, and its hash raised KeyError
    assert (message(CIRCLE, CIRCLE, {0: 0, 1: 1, 2: 2, "x": 0})
            == "'x' is not a vertex of the source")
    assert message(PATH, ARC, {"z": 0, "a": 1, "m": 1, 7: 0}) == "7 is not a vertex of the source"
    # a missing vertex is named first
    assert message(PATH, ARC, {"z": 0, "a": 1, "x": 0}) == "vertex 'm' has no image"


def test_an_image_that_is_not_a_vertex():
    assert message(PATH, ARC, {"z": 0, "a": 1, "m": 3}) == "image 3 is not a vertex"
    assert message(ARC, PATH, {0: "z", 1: "b", 2: "m"}) == "image 'b' is not a vertex"


def test_a_face_whose_image_is_not_a_simplex():
    # the first failing maximal face, in the source's order, is named
    assert (message(PATH, ARC, {"z": 0, "a": 2, "m": 0})
            == "image of ('z', 'a') is not a simplex")
    assert (message(PATH, ARC, {"z": 1, "a": 0, "m": 2})
            == "image of ('a', 'm') is not a simplex")
    assert message(CIRCLE, ARC, {0: 0, 1: 1, 2: 2}) == "image of (0, 2) is not a simplex"
    # a face whose image collapses to a vertex passes; the next one fails
    assert SimplicialMap(ARC, CIRCLE, {0: 0, 1: 0, 2: 0}).image_positions() == [0, 0, 0]
    assert (message(CIRCLE, PATH, {0: "z", 1: "z", 2: "m"})
            == "image of (0, 2) is not a simplex")


def test_a_subdivision_face_is_named_by_its_labels():
    K = fixture_complex("figure1")
    sd, carrier = barycentric_subdivision(K)
    # send the barycenter of a vertex u to a vertex w with no edge to u
    u, w = next((u, w) for u in K.vertices for w in K.vertices
                if u != w and (u, w) not in K.simplices and (w, u) not in K.simplices)
    bad = dict(carrier.assignment)
    bad[(u,)] = w
    # the first maximal face, in sd's order, whose image set is no simplex
    failing = [f for f in sd.maximal_faces
               if K.sort_simplex({bad[v] for v in f}) not in K.simplices]
    assert failing
    assert message(sd, K, bad) == f"image of {failing[0]!r} is not a simplex"


def test_maps_that_are_not_parallel():
    s2, c3 = fixture_complex("s2"), fixture_complex("c3")
    identity = SimplicialMap.identity(s2)
    other_source = SimplicialMap.constant(c3, s2)
    other_target = SimplicialMap(s2, CIRCLE, {v: 0 for v in s2.vertices})
    for psi in (other_source, other_target):
        for ring in (GF2, ZZ):
            for call in (lambda: DistanceQuery(identity, psi, ring),
                         lambda: DistanceQuery(identity, psi, ring, "homology"),
                         lambda: maps_equal(identity, psi, ring, "cohomology"),
                         lambda: equality_obstruction(identity, psi, ring, "homology"),
                         lambda: pairing_state(identity, psi, ring),
                         lambda: J_generators(identity, psi, ring)):
                with pytest.raises(ComplexMismatchError, match="maps must share source and target"):
                    call()
    # a bad variance is refused in the words of every other entry point
    with pytest.raises(ValueError, match="variance must be"):
        DistanceQuery(identity, identity, GF2, "homolgy")
