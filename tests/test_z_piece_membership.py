"""Z cohomology verdicts on pieces against an independent lattice oracle.

Over Z a generator y of H^d(target) fails on a piece P exactly when its
difference cochain (phi^# - psi^#)y, restricted to P, lies outside the
lattice im delta^{d-1}|P.  ``homology._cochain_verdicts`` decides that on
the unit-pivot span and takes a Smith normal form only where a piece's
coboundary reduces to a pivot other than 1 or -1.  Here every verdict
bit is checked against ``oracles.in_integer_span``, built from the raw
face lists with the oracle's own boundary matrices and pullbacks, and a
spy on the Smith fallback checks where it is and is not reached.
"""

import importlib
import random

import pytest

from cohodist.distance import _PieceChecker, scat_query, stc_query
from cohodist.exactalg import ZZ
from cohodist.fixtures import fixture_complex
from cohodist.homology import COHOMOLOGY, _generator_verdicts, cohomology

from .oracles import (
    boundary_rows,
    closure_of,
    in_integer_span,
    pullback_mod,
    simplices_by_dim,
)

homology_module = importlib.import_module("cohodist.homology")

# (query, fixture, most faces in a drawn piece); a scat query draws from
# all its faces and also checks its whole source, an stc query's pieces
# stay small enough for the dense oracle
QUERIES = [
    ("scat", "s2", None),
    ("scat", "torus", None),
    ("scat", "cp2", None),
    ("scat", "c3xs2", None),
    ("scat", "rp2", None),
    ("scat", "rp3", None),
    ("stc", "s2", 6),
    ("stc", "rp2", 4),
]
DRAWN = 10
TORSION_FREE = ("s2", "torus", "cp2", "c3xs2")


@pytest.fixture
def smith_forms(monkeypatch):
    """One entry per Smith normal form ``_cochain_verdicts`` falls back to."""
    calls = []
    smith = homology_module.smith_normal_form

    def spy(matrix):
        calls.append(matrix)
        return smith(matrix)

    monkeypatch.setattr(homology_module, "smith_normal_form", spy)
    return calls


def query_for(kind, name):
    K = fixture_complex(name)
    return scat_query(K, ZZ) if kind == "scat" else stc_query(K, ZZ)


def pieces(checker, rng, most):
    n = len(checker.faces)
    out = [(1 << n) - 1] if most is None else []
    for _ in range(DRAWN):
        size = rng.randint(1, most or n)
        out.append(sum(1 << i for i in rng.sample(range(n), size)))
    return out


def oracle_bits(q, faces, d):
    """The verdict bitset of degree d on the piece with maximal ``faces``,
    from the oracle alone but for the target's generators."""
    by_dim = simplices_by_dim(closure_of(faces))
    if d not in by_dim:
        return 0
    # row i of the boundary into degree d is column i of delta^{d-1}
    columns = boundary_rows(by_dim, d) if d else []
    target = q.target
    bits = 0
    for y, gen in enumerate(cohomology(target, ZZ).presentation(d).gens):
        cochain = dict(zip(target.simplices_of_dim(d), gen))
        diff = [a - b for a, b in zip(pullback_mod(by_dim, d, q.phi, cochain),
                                      pullback_mod(by_dim, d, q.psi, cochain))]
        if not in_integer_span(columns, diff):
            bits |= 1 << y
    return bits


def test_piece_verdicts_match_the_lattice_oracle(smith_forms):
    rng = random.Random(29)
    reached = set()
    checked = failing = 0
    for kind, name, most in QUERIES:
        q = query_for(kind, name)
        # the oracle orients simplices by sorted labels, the package by
        # vertex order: the two must agree
        for K in (q.source, q.target):
            assert list(K.vertices) == sorted(K.vertices)
        checker = _PieceChecker(q)
        for face_set in pieces(checker, rng, most):
            faces = [checker.faces[i] for i in range(len(checker.faces))
                     if face_set >> i & 1]
            verdicts = _generator_verdicts(q.phi, q.psi, ZZ, COHOMOLOGY,
                                           checker.mask(face_set))
            before = len(smith_forms)
            for d, bits in verdicts:
                assert bits == oracle_bits(q, faces, d), (kind, name, face_set, d)
                if len(smith_forms) > before:
                    reached.add((kind, name))
                before = len(smith_forms)
                checked += 1
                failing += bits != 0
    assert checked > 300 and failing > 40
    # only fixtures with torsion meet a pivot other than 1 or -1
    assert not [name for _, name in reached if name in TORSION_FREE]
    assert ("scat", "rp3") in reached


def test_whole_rp2_falls_back_in_degree_two(smith_forms):
    # H^2(rp2; Z) = Z_2, so im delta^1 is not saturated, and a reduction
    # on pivots 1 and -1 alone would prove that it is
    q = query_for("scat", "rp2")
    checker = _PieceChecker(q)
    whole = checker.mask((1 << len(checker.faces)) - 1)
    reached = []
    for d, bits in _generator_verdicts(q.phi, q.psi, ZZ, COHOMOLOGY, whole):
        if smith_forms:
            reached.append(d)
            smith_forms.clear()
        assert bits == (1 if d == 2 else 0)
    assert reached == [2]
