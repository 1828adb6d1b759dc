"""Z (co)homology on the unit-pivot walk, and the Smith normal form only
where it is needed.

Over Z ``homology._presentations`` first runs the field walk on integer
columns, with every pivot 1 or -1.  A column that reduces to another top
entry signals it, and the steps go to :func:`exactalg._z_presentations`
instead.  Torsion-free complexes must never reach the Smith normal form;
complexes with torsion must reach it exactly once per variance and still
show their torsion.  The signal is private: no public call lets it out,
also on pieces with torsion.
"""

import importlib
import random

import pytest

from cohodist import exactalg
from cohodist.complexes import Subcomplex, SimplicialMap, barycentric_subdivision
from cohodist.distance import scat_query, search
from cohodist.exactalg import ZZ
from cohodist.fixtures import fixture_complex
from cohodist.homology import (
    COHOMOLOGY,
    HOMOLOGY,
    _presentations,
    chain_complex,
    cohomology,
    equality_obstruction,
    homology,
    maps_equal,
)

homology_module = importlib.import_module("cohodist.homology")

VARIANCES = (COHOMOLOGY, HOMOLOGY)


def complex_named(name):
    if name.startswith("sd("):
        return barycentric_subdivision(fixture_complex(name[3:-1]))[0]
    return fixture_complex(name)


@pytest.fixture
def smith_calls(monkeypatch):
    """One entry per call of ``_z_presentations``, and empty module caches
    so that every call below presents afresh."""
    for cache in ("_graded_cache", "_difference_cache"):
        monkeypatch.setattr(homology_module, cache, {})
    calls = []
    smith = exactalg._z_presentations

    def spy(steps):
        calls.append(steps)
        return smith(steps)

    monkeypatch.setattr(exactalg, "_z_presentations", spy)
    return calls


@pytest.mark.parametrize("name", ["c3xs2", "cp2", "s2xs2", "sd(figure1)", "sd(torus)"])
def test_torsion_free_complexes_never_take_a_smith_form(name, smith_calls):
    data = chain_complex(complex_named(name))
    for variance in VARIANCES:
        modules = _presentations(data, ZZ, variance)
        assert not any(p.torsion for p in modules.values())
    assert smith_calls == []


@pytest.mark.parametrize("name", ["rp2", "rp3", "sd(rp2)"])
def test_torsion_takes_one_smith_form_per_variance(name, smith_calls):
    data = chain_complex(complex_named(name))
    for count, variance in enumerate(VARIANCES, 1):
        modules = _presentations(data, ZZ, variance)
        assert len(smith_calls) == count
        assert "Z_2" in [p.group_str() for p in modules.values()]


def test_subdivided_cp2_over_z():
    K = complex_named("sd(cp2)")
    assert cohomology(K, ZZ).group_strs() == ("Z", "0", "Z", "0", "Z")
    assert homology(K, ZZ).group_strs() == ("Z", "0", "Z", "0", "Z")


def test_the_signal_never_escapes(smith_calls):
    # whole complexes with torsion, and pieces of them: Z homology pieces
    # are presented on the same walk, and Z cohomology pieces reduce their
    # coboundaries on the same span, with Euclid's step past a non-unit
    # pivot
    for name in ("rp2", "rp3", "sd(rp2)"):
        K = complex_named(name)
        assert "Z_2" in cohomology(K, ZZ).group_strs()
        assert "Z_2" in homology(K, ZZ).group_strs()
    fallbacks = len(smith_calls)
    rng = random.Random(28)
    for name in ("rp2", "rp3"):
        K = fixture_complex(name)
        phi, psi = SimplicialMap.constant(K, K), SimplicialMap.identity(K)
        pieces = [None, Subcomplex.spanned_by(K, K.maximal_faces).mask]
        for _ in range(6):
            faces = rng.sample(K.maximal_faces, rng.randint(1, len(K.maximal_faces)))
            pieces.append(Subcomplex.spanned_by(K, faces).mask)
        for piece in pieces:
            for variance in VARIANCES:
                report = maps_equal(phi, psi, ZZ, variance, piece=piece)
                obstruction = equality_obstruction(phi, psi, ZZ, variance, piece=piece)
                assert report.equal == (obstruction == 0)
    # the whole source is a piece with torsion, presented by the fallback
    assert len(smith_calls) > fallbacks
    # and through distance: exhaustive searches over rp2, whose pieces
    # meet non-unit pivots in both variances (1023 evaluations in homology)
    rp2 = fixture_complex("rp2")
    assert search(scat_query(rp2, ZZ), 1, strategy="exhaustive") is None
    assert search(scat_query(rp2, ZZ), 2, strategy="exhaustive") is not None
    assert search(scat_query(rp2, ZZ, HOMOLOGY), 2, strategy="exhaustive") is None
