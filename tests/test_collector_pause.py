"""Bulk builds run with the cyclic garbage collector paused, and no caller
can tell.

Subdivisions, closures, chain data, (co)homology walks, chain maps and
induced maps allocate their keys, columns and rows by the ten thousand
and keep them, so a collection inside them frees nothing.  They pause the
collector (``complexes._collector_paused``) and resume it before control
returns, also on an exception.  Every public call returns with the
collector as it found it: enabled or disabled, with the same thresholds,
and cyclic garbage made before the call is collected as before.
"""

import gc
import importlib
import weakref

import pytest

from cohodist import cli
from cohodist.complexes import barycentric_subdivision, from_maximal_faces, product
from cohodist.exactalg import GF2, ZZ
from cohodist.fixtures import fixture_complex
from cohodist.homology import (
    COHOMOLOGY,
    chain_complex,
    cohomology,
    homology,
    induced_map,
)

complexes_module = importlib.import_module("cohodist.complexes")
homology_module = importlib.import_module("cohodist.homology")

CACHES = ("_chain_cache", "_graded_cache", "_chain_map_cache", "_difference_cache",
          "_pairing_cache")


@pytest.fixture
def cold(monkeypatch):
    """Empty memo and caches, so every call below builds; the collector is
    on at the start and back on at the end, whatever the test did."""
    monkeypatch.setattr(complexes_module, "_sd_cache", {})
    for cache in CACHES:
        monkeypatch.setattr(homology_module, cache, {})
    was = gc.isenabled()
    gc.enable()
    yield
    (gc.enable if was else gc.disable)()


def sd_carrier():
    return barycentric_subdivision(fixture_complex("torus"))[1]


CALLS = {
    "barycentric_subdivision": lambda: barycentric_subdivision(fixture_complex("cp2")),
    "from_maximal_faces": lambda: from_maximal_faces(fixture_complex("cp2").maximal_faces),
    "chain_complex": lambda: chain_complex(sd_carrier().source),
    "cohomology": lambda: cohomology(sd_carrier().source, GF2),
    "homology": lambda: homology(sd_carrier().source, ZZ),
    "induced_map": lambda: induced_map(sd_carrier(), GF2, COHOMOLOGY),
    "cli.main": lambda: cli.main(["--json", "cohomology", "s2xs2", "--ring", "z2"]),
}


@pytest.mark.parametrize("name", sorted(CALLS))
def test_state_is_restored(name, cold, capsys):
    threshold = gc.get_threshold()
    CALLS[name]()
    assert gc.isenabled()
    assert gc.get_threshold() == threshold


@pytest.mark.parametrize("name", sorted(CALLS))
def test_a_disabled_collector_stays_disabled(name, cold, capsys):
    threshold = gc.get_threshold()
    gc.disable()
    CALLS[name]()
    assert not gc.isenabled()
    assert gc.get_threshold() == threshold


class Boom(Exception):
    pass


# (module, inner step, the call that runs it inside a paused build)
RAISING = [
    (complexes_module, "_subdivide", "barycentric_subdivision"),
    (complexes_module, "_sorted_by_dim", "from_maximal_faces"),
    (homology_module, "_face_rows", "chain_complex"),
    (homology_module, "_presentations", "cohomology"),
    (homology_module, "_transpose", "cohomology"),
    (homology_module, "pullback_cochain", "induced_map"),
]


@pytest.mark.parametrize("module, inner, name", RAISING,
                         ids=[f"{inner}-{name}" for _, inner, name in RAISING])
def test_state_is_restored_when_a_step_raises(module, inner, name, cold, monkeypatch):
    def boom(*args):
        raise Boom(inner)

    monkeypatch.setattr(module, inner, boom)
    with pytest.raises(Boom):
        CALLS[name]()
    assert gc.isenabled()


# (module, inner step, the call that runs it inside a bulk build)
INNER = [
    (complexes_module, "_subdivide", "barycentric_subdivision"),
    (complexes_module.SimplicialComplex, "is_connected", "from_maximal_faces"),
    (homology_module, "_face_rows", "chain_complex"),
    (homology_module, "field_presentations", "cohomology"),
    (homology_module, "_transpose", "cohomology"),
    (homology_module, "_presentations", "homology"),
    (homology_module, "pullback_cochain", "induced_map"),
]


@pytest.mark.parametrize("module, inner, name", INNER,
                         ids=[f"{inner}-{name}" for _, inner, name in INNER])
def test_the_collector_is_off_inside_a_build(module, inner, name, cold, monkeypatch):
    seen = []
    step = getattr(module, inner)

    def recording(*args, **kwargs):
        seen.append(gc.isenabled())
        return step(*args, **kwargs)

    monkeypatch.setattr(module, inner, recording)
    CALLS[name]()
    assert seen and not any(seen)
    assert gc.isenabled()


def test_chain_maps_are_built_with_the_collector_off(cold, monkeypatch):
    carrier = sd_carrier()
    chain_complex(carrier.source)
    chain_complex(carrier.target)
    seen = []
    index = homology_module.chain_complex

    def recording(K):
        seen.append(gc.isenabled())
        return index(K)

    monkeypatch.setattr(homology_module, "chain_complex", recording)
    homology_module.chain_map(carrier, 2)
    assert seen and not any(seen)
    assert gc.isenabled()


class Node:
    pass


def cycles(n):
    """Weak references to n unreachable cycles."""
    refs = []
    for _ in range(n):
        node = Node()
        node.self = node
        refs.append(weakref.ref(node))
    return refs


@pytest.mark.parametrize("name", sorted(CALLS))
def test_earlier_cyclic_garbage_is_still_collected(name, cold, capsys):
    refs = cycles(200)
    CALLS[name]()
    gc.collect()
    assert not [r for r in refs if r() is not None]


def test_nested_builds_leave_it_to_the_outer_one(cold):
    paused = complexes_module._collector_paused
    with paused():
        assert not gc.isenabled()
        with paused():
            assert not gc.isenabled()
        assert not gc.isenabled()  # the inner one did not resume it
    assert gc.isenabled()


def test_product_leaves_no_cyclic_garbage(cold):
    # the staircase paths are walked on a stack of their own, not by a
    # recursive closure that refers to itself, so a product leaves nothing
    # for the collector, and it finds the collector as it left it
    s2 = fixture_complex("s2")
    threshold = gc.get_threshold()
    gc.collect()
    gc.disable()
    product(s2, s2)
    assert gc.collect() == 0
    assert not gc.isenabled()
    gc.enable()
    product(s2, s2)
    assert gc.isenabled()
    assert gc.get_threshold() == threshold
