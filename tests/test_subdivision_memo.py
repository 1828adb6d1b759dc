"""Barycentric subdivision memoizes its last pair by the value of the complex.

An equal complex (the same vertex order and simplices) subdivided next
gets back the identical ``(sd, carrier)`` pair, so a subdivision is built
once however often an equal complex is read and subdivided in a row, and
the caches downstream match it by identity.  Another vertex order is
another complex, with another subdivision.  The memo keeps one pair.

When the memo replaces its pair, ``homology`` releases what it derived
from the replaced subdivision: no key of its five caches refers to that
object afterwards, the memory comes back, and what is computed again is
what was computed before.  An equal complex subdivided next releases
nothing.
"""

import gc
import importlib
import importlib.util
import tracemalloc
from pathlib import Path

import pytest

from cohodist import fileio
from cohodist.complexes import (
    SimplicialComplex,
    SimplicialMap,
    barycentric_subdivision,
    from_maximal_faces,
    sd_map,
)
from cohodist.distance import (
    scat_query,
    search_greedy,
    stc_query,
    subdivision_monotonicity_check,
)
from cohodist.exactalg import GF2, ZZ
from cohodist.fixtures import fixture_complex, fixture_cover
from cohodist.homology import (
    COHOMOLOGY,
    HOMOLOGY,
    chain_complex,
    chain_map,
    cohomology,
    equality_obstruction,
    homology,
    induced_map,
)

complexes_module = importlib.import_module("cohodist.complexes")
homology_module = importlib.import_module("cohodist.homology")

CACHES = ("_chain_cache", "_graded_cache", "_chain_map_cache", "_difference_cache",
          "_pairing_cache")
BENCH = Path(__file__).resolve().parent.parent / "bench"


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


# ---------------------------------------------------------------------------
# release of a replaced subdivision


def refers_to(key, K) -> bool:
    """Does a cache key hold K itself, or a map from or to it?"""
    parts = key if isinstance(key, tuple) else (key,)
    return any(part is K or getattr(part, "source", None) is K
               or getattr(part, "target", None) is K for part in parts)


def held(K):
    """Per cache, the number of its keys that refer to K."""
    return {name: sum(refers_to(key, K) for key in getattr(homology_module, name))
            for name in CACHES}


@pytest.fixture
def memo(monkeypatch):
    """An empty memo for the test."""
    monkeypatch.setattr(complexes_module, "_sd_cache", {})


def traced_now() -> int:
    gc.collect()
    return tracemalloc.get_traced_memory()[0]


def test_a_replaced_subdivision_is_released(memo):
    cp2 = fixture_complex("cp2")
    tracemalloc.start()
    try:
        base = traced_now()
        sd, carrier = barycentric_subdivision(cp2)
        for variance in (COHOMOLOGY, HOMOLOGY):
            assert induced_map(carrier, GF2, variance).is_iso()
        q = scat_query(sd, GF2)
        assert equality_obstruction(q.phi, q.psi, GF2, COHOMOLOGY) == 2
        assert all(held(sd).values())  # every cache holds something of sd
        del carrier, q
        grown = traced_now() - base
        barycentric_subdivision(fixture_complex("rp3"))
        assert not any(held(sd).values())
        del sd
        left = traced_now() - base
    finally:
        tracemalloc.stop()
    assert left < grown / 4, (left, grown)


def test_an_equal_complex_releases_nothing(memo):
    K = fixture_complex("torus")
    sd, carrier = barycentric_subdivision(K)
    data = chain_complex(sd)
    modules = {(ring, variance): homology_module._graded_module(sd, ring, variance)
               for ring in (GF2, ZZ) for variance in (COHOMOLOGY, HOMOLOGY)}
    maps = [chain_map(carrier, d) for d in range(3)]
    again = from_maximal_faces(K.maximal_faces, order=K.vertices)
    assert again == K and again is not K
    pair = barycentric_subdivision(again)
    assert pair[0] is sd and pair[1] is carrier
    assert chain_complex(sd) is data
    for (ring, variance), gm in modules.items():
        assert homology_module._graded_cache[sd, ring, variance] is gm
    assert all(chain_map(carrier, d) is m for d, m in enumerate(maps))


def test_a_subdivision_cached_again_is_released_again(memo):
    # the check subdivides the source, then the target, which replaces the
    # source in the memo before verify reads the source's chain data
    q = stc_query(fixture_complex("c3"), GF2)
    cover = search_greedy(q, 2)
    assert cover is not None and subdivision_monotonicity_check(q, cover)
    sd_source, = [K for K in homology_module._chain_cache
                  if K.f_vector() == (54, 162, 108)]
    sd_target, _ = barycentric_subdivision(q.target)  # the memo's entry
    before = held(sd_source)
    assert before["_chain_cache"] == 1 and held(sd_target)["_chain_cache"] == 1
    # an equal complex subdivided next is a memo hit, and releases nothing
    again = from_maximal_faces(q.target.maximal_faces, order=q.target.vertices)
    assert again is not q.target and barycentric_subdivision(again)[0] is sd_target
    assert held(sd_source) == before and held(sd_target)["_chain_cache"] == 1
    # the next replacement releases both
    barycentric_subdivision(fixture_complex("rp2"))
    assert not any(held(sd_source).values())
    assert not any(held(sd_target).values())


def presented(K, ring):
    """Groups and generators of H^* and H_* of K over ring."""
    return [(gm.group_strs(), [gm.presentation(d).gens for d in gm.degrees])
            for gm in (cohomology(K, ring), homology(K, ring))]


@pytest.mark.parametrize("name, ring", [("cp2", GF2), ("rp2", GF2), ("rp2", ZZ)])
def test_what_is_released_is_computed_again_the_same(memo, name, ring):
    sd, _ = barycentric_subdivision(fixture_complex(name))
    gm = cohomology(sd, ring)
    before = presented(sd, ring)
    barycentric_subdivision(fixture_complex("s2"))
    assert not any(held(sd).values())
    assert presented(sd, ring) == before
    assert cohomology(sd, ring) is not gm  # computed anew


def load(name):
    spec = importlib.util.spec_from_file_location(f"bench_{name}", BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_a_sweep_pass_ends_holding_one_subdivision(memo, monkeypatch, tmp_path):
    # one pass of the benchmark's sweep queries in this process, each
    # checked against its verdict; the caches then hold no subdivision
    # but the memo's
    monkeypatch.syspath_prepend(str(BENCH))
    workloads, child = load("workloads"), load("child")
    made = []
    subdivide = complexes_module._subdivide

    def recording(K):
        made.append(subdivide(K))
        return made[-1]

    monkeypatch.setattr(complexes_module, "_subdivide", recording)
    queries = workloads.build_queries("sweep", str(tmp_path), seed=0)
    for query in queries:
        assert workloads.check(query, child.run_query(query)) is None, query["name"]
    (current, _), = complexes_module._sd_cache.values()
    assert len(made) == len(workloads.FIXTURES) and made[-1][0] is current
    for sd, _ in made[:-1]:
        assert not any(held(sd).values())
    assert held(current)["_chain_cache"] == 1
