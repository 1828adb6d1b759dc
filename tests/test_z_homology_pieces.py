"""Z homology on pieces: the steps a piece is presented from, and its
verdicts against an independent oracle.

Over Z, homology compares the pushforwards of the generators of
H_d(piece) in H_d(target).  The piece is not built: the walk's steps are
the source's boundary columns of the piece's simplices, their rows
renumbered within the piece (``homology._piece_steps``).  Here those
steps are checked against the chain complex of the piece built as a
complex, and every degree's verdict against an oracle that shares no
code with the package but the target's vertex map: an integer basis of
the piece's d-cycles by the oracle's own unimodular elimination, each
cycle pushed through both maps with the oracle's signs, and the
difference tested with ``oracles.in_integer_span`` against the target's
boundary columns.  The maps agree in degree d exactly when every such
difference is a boundary, as boundaries of the piece push to boundaries.
"""

import importlib
import random
from collections import Counter

import pytest

from cohodist import exactalg
from cohodist.complexes import SimplicialMap, Subcomplex, barycentric_subdivision
from cohodist.distance import scat_query, stc_query
from cohodist.exactalg import ZZ
from cohodist.fixtures import fixture_complex, fixture_names
from cohodist.homology import HOMOLOGY, ChainComplexData, homology, maps_equal

from .oracles import (
    boundary_rows,
    closure_of,
    in_integer_span,
    integer_kernel,
    pushforward,
    simplices_by_dim,
)

hom = importlib.import_module("cohodist.homology")  # the package exports a homology function


def drawn_pieces(K, rng, count):
    """``count`` seeded random pieces of K, each a random set of its
    maximal faces with the subcomplex they span."""
    faces = K.maximal_faces
    for _ in range(count):
        picked = rng.sample(faces, rng.randint(1, len(faces)))
        yield picked, Subcomplex.spanned_by(K, picked)


@pytest.fixture
def recorded_steps(monkeypatch):
    """The steps of every piece the package presents, each time it asks."""
    out = []
    piece_steps = hom._piece_steps

    def recorder(data, indices):
        steps = list(piece_steps(data, indices))
        out.append(steps)
        return iter(steps)

    monkeypatch.setattr(hom, "_piece_steps", recorder)
    return out


STEP_CASES = list(fixture_names()) + ["sd(rp2)"]


@pytest.mark.parametrize("name", STEP_CASES)
def test_piece_steps_are_the_piece_chain_complex(name, recorded_steps):
    # the steps of a piece, read off its mask, against the boundary
    # columns of the piece built as a complex, from its top degree down
    K = (barycentric_subdivision(fixture_complex("rp2"))[0] if name == "sd(rp2)"
         else fixture_complex(name))
    identity = SimplicialMap.identity(K)
    rng = random.Random(name)
    for _, piece in drawn_pieces(K, rng, 4):
        maps_equal(identity, identity, ZZ, HOMOLOGY, piece=piece.mask)
        data = ChainComplexData(piece.complex)
        want = [(data.rank_of(d), list(data.sparse_boundary(d)))
                for d in range(data.dim, -1, -1)]
        # twice where the walk meets a pivot other than 1 or -1 and the
        # Smith normal form fallback asks for the steps again
        assert recorded_steps in ([want], [want, want]), name
        recorded_steps.clear()


# (query kind, fixture, pieces drawn); each query also checks its whole source
QUERIES = [
    ("scat", "rp2", 12),
    ("scat", "rp3", 6),
    ("scat", "torus", 10),
    ("scat", "k5", 10),
    ("stc", "c3", 10),
]


def oracle_by_degree(q, faces, target):
    """Per degree of the piece spanned by ``faces``, do the two maps
    induce the same map on its integral homology?  ``target`` is the
    target's simplices by degree, as ``simplices_by_dim`` gives them."""
    by_dim = simplices_by_dim(closure_of(faces))
    out = {}
    for d in sorted(by_dim):
        boundaries = list(zip(*boundary_rows(target, d + 1)))
        equal = True
        rows = boundary_rows(by_dim, d) if d else []
        for cycle in integer_kernel(rows, len(by_dim[d])):
            a = pushforward(by_dim, d, q.phi, cycle)
            b = pushforward(by_dim, d, q.psi, cycle)
            difference = [a.get(s, 0) - b.get(s, 0) for s in target.get(d, [])]
            if any(difference) and not in_integer_span(boundaries, difference):
                equal = False
                break
        out[d] = equal
    return out


def test_piece_verdicts_match_the_homology_oracle(monkeypatch):
    calls = Counter()
    z_presentations = exactalg._z_presentations

    def smith_spy(steps):
        calls["smith"] += 1
        return z_presentations(steps)

    monkeypatch.setattr(exactalg, "_z_presentations", smith_spy)
    rng = random.Random(34)
    verdicts, fallbacks = Counter(), Counter()
    for kind, name, count in QUERIES:
        K = fixture_complex(name)
        q = scat_query(K, ZZ) if kind == "scat" else stc_query(K, ZZ)
        homology(q.target, ZZ)  # the target's own Smith forms, not counted
        target = simplices_by_dim(closure_of(q.target.maximal_faces))
        whole = q.source.maximal_faces
        pieces = [(whole, Subcomplex.spanned_by(q.source, whole))]
        pieces += drawn_pieces(q.source, rng, count)
        for faces, piece in pieces:
            before = calls["smith"]
            report = maps_equal(q.phi, q.psi, ZZ, HOMOLOGY, piece=piece.mask)
            fallbacks[kind, name] += calls["smith"] - before
            oracle = oracle_by_degree(q, faces, target)
            top = max(oracle)
            assert list(report.by_degree) == list(range(max(top, q.target.dim) + 1))
            for d, equal in report.by_degree.items():
                assert equal == oracle.get(d, True), (kind, name, faces, d)
                if d <= top:
                    verdicts[equal] += 1
    assert verdicts[True] > 20 and verdicts[False] > 20, verdicts
    # pieces with torsion take the Smith normal form fallback, and only they
    assert fallbacks["scat", "rp2"] and fallbacks["scat", "rp3"], fallbacks
    assert not fallbacks["scat", "torus"] and not fallbacks["scat", "k5"], fallbacks
