"""Barycentric subdivision memoizes its last pair by the value of the complex.

An equal complex (the same vertex order and simplices) subdivided next
gets back the identical ``(sd, carrier)`` pair, so a subdivision is built
once however often an equal complex is read and subdivided in a row, and
the caches downstream match it by identity.  Another vertex order is
another complex, with another subdivision.  The memo keeps one pair.
"""

import importlib

import pytest

from cohodist import fileio
from cohodist.complexes import (
    SimplicialComplex,
    SimplicialMap,
    barycentric_subdivision,
    from_maximal_faces,
    sd_map,
)
from cohodist.distance import scat_query, subdivision_monotonicity_check
from cohodist.exactalg import GF2
from cohodist.fixtures import fixture_complex, fixture_cover

complexes_module = importlib.import_module("cohodist.complexes")


@pytest.fixture
def built(monkeypatch):
    """The complexes constructed from here on, one entry per construction;
    the memo starts empty."""
    out = []
    init = SimplicialComplex.__init__

    def recording(self, vertices, simplices):
        init(self, vertices, simplices)
        out.append(self)

    monkeypatch.setattr(complexes_module, "_sd_cache", {})
    monkeypatch.setattr(SimplicialComplex, "__init__", recording)
    return out


def test_equal_complex_read_twice_gets_the_identical_pair(tmp_path, built):
    path = str(tmp_path / "torus.cx")
    fileio.write_complex(fixture_complex("torus"), path)
    first, second = fileio.read_complex(path), fileio.read_complex(path)
    assert first is not second and first == second
    sd, carrier = barycentric_subdivision(first)
    again = barycentric_subdivision(second)
    assert again[0] is sd and again[1] is carrier
    assert sum(1 for L in built if L == sd) == 1


def test_another_vertex_order_gets_another_subdivision(built):
    K = fixture_complex("torus")
    reordered = from_maximal_faces(K.maximal_faces, order=K.vertices[::-1])
    assert reordered != K
    sd, carrier = barycentric_subdivision(K)
    sd2, carrier2 = barycentric_subdivision(reordered)
    assert sd2 is not sd and sd2 != sd
    assert sd2.f_vector() == sd.f_vector()
    assert carrier2.target == reordered
    # the carrier takes the last vertex in the complex's order, so each
    # edge's barycenter goes to the other end
    for a, b in K.simplices_of_dim(1):
        assert carrier((a, b)) == b and carrier2((b, a)) == a
    assert sum(1 for L in built if L == sd or L == sd2) == 2


def test_monotonicity_check_subdivides_once(built):
    # a scat query has one complex as source and target, so sd(K) is
    # built once for both, and once for sd_map of a self-map
    K = fixture_complex("k5")
    assert subdivision_monotonicity_check(scat_query(K, GF2), fixture_cover("k5"))
    sd, _ = barycentric_subdivision(K)
    assert sum(1 for L in built if L == sd) == 1
    m = sd_map(SimplicialMap.identity(K))
    assert m.source is sd and m.target is sd
    assert sum(1 for L in built if L == sd) == 1


def test_the_memo_keeps_the_last_pair_only(built):
    # a process that subdivides many complexes holds one subdivision
    K, L = fixture_complex("rp2"), fixture_complex("torus")
    sd, _ = barycentric_subdivision(K)
    barycentric_subdivision(L)
    assert len(complexes_module._sd_cache) == 1
    again, _ = barycentric_subdivision(K)
    assert again is not sd and again == sd
    assert sum(1 for M in built if M == sd) == 2
