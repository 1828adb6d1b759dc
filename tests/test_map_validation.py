"""A simplicial map is checked on vertex positions, with the same errors.

:class:`SimplicialMap` checks each maximal face of its source through the
image positions of its vertices, so no label tuple of the source is built
unless a face fails.  The three ways a vertex assignment can fail keep
their messages word for word, and a failing face is still named by its
labels, listed in the source's vertex order.
"""

import pytest

from cohodist.complexes import SimplicialMap, barycentric_subdivision, from_maximal_faces
from cohodist.errors import NotSimplicialError
from cohodist.fixtures import fixture_complex

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
