"""Z cohomology verdicts on pieces against an independent lattice oracle.

Over Z a generator y of H^d(target) fails on a piece P exactly when its
difference cochain (phi^# - psi^#)y, restricted to P, lies outside the
lattice im delta^{d-1}|P.  ``homology._cochain_verdicts`` decides that on
the Z span alone (``exactalg._z_lattice``): its reduction divides by each
pivot's top entry, and a column left with a remainder takes Euclid's
step.  Here every verdict bit is checked against
``oracles.in_integer_span``, built from the raw face lists with the
oracle's own boundary matrices and pullbacks, a spy on the Euclid step
checks where it is and is not reached, and a spy on
``exactalg.smith_normal_form`` checks that no piece verdict takes a Smith
normal form.  A seeded property checks the lattice itself on random
signed-row columns.
"""

import random
from collections import Counter

import pytest

from cohodist import exactalg
from cohodist.distance import _PieceChecker, scat_query, stc_query
from cohodist.exactalg import ZZ, _z_lattice
from cohodist.fixtures import fixture_complex
from cohodist.homology import COHOMOLOGY, _generator_verdicts, cohomology

from .oracles import (
    boundary_rows,
    closure_of,
    in_integer_span,
    pullback_mod,
    simplices_by_dim,
)

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
def spies(monkeypatch):
    """Counts of the Euclid steps of the Z span, of the lattices built
    with a pivot other than 1 or -1, and of the Smith normal forms
    exactalg takes."""
    calls = Counter()
    step, lattice_of = exactalg._ZSpan._euclid_step, exactalg._z_lattice
    smith = exactalg.smith_normal_form

    def euclid_spy(span, col, top):
        calls["euclid"] += 1
        return step(span, col, top)

    def lattice_spy(cols):
        lattice = lattice_of(cols)
        tops = [vec[top] for top, (vec, _) in lattice.pivots.items()]
        calls["non-unit"] += any(abs(x) != 1 for x in tops)
        return lattice

    def smith_spy(matrix):
        calls["smith"] += 1
        return smith(matrix)

    monkeypatch.setattr(exactalg._ZSpan, "_euclid_step", euclid_spy)
    monkeypatch.setattr(exactalg, "_z_lattice", lattice_spy)
    monkeypatch.setattr(exactalg, "smith_normal_form", smith_spy)
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


def faces_of(checker, face_set):
    return [face for i, face in enumerate(checker.faces) if face_set >> i & 1]


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


def test_piece_verdicts_match_the_lattice_oracle(spies):
    rng = random.Random(29)
    reached = set()
    checked = failing = 0
    for kind, name, most in QUERIES:
        q = query_for(kind, name)
        # the oracle orients simplices by sorted labels, the package by
        # vertex order: the two must agree
        for K in (q.source, q.target):
            assert list(K.vertices) == sorted(K.vertices)
        # the target's groups take a Smith normal form where it has
        # torsion; the pieces below take none
        cohomology(q.target, ZZ)
        checker = _PieceChecker(q)
        smith_forms = spies["smith"]
        for face_set in pieces(checker, rng, most):
            faces = faces_of(checker, face_set)
            verdicts = _generator_verdicts(q.phi, q.psi, ZZ, COHOMOLOGY,
                                           checker.mask(face_set))
            before = spies["non-unit"] + spies["euclid"]
            for d, bits in verdicts:
                assert bits == oracle_bits(q, faces, d), (kind, name, face_set, d)
                if spies["non-unit"] + spies["euclid"] > before:
                    reached.add((kind, name))
                before = spies["non-unit"] + spies["euclid"]
                checked += 1
                failing += bits != 0
        assert spies["smith"] == smith_forms, (kind, name)
    assert checked > 300 and failing > 40
    # only fixtures with torsion meet a pivot other than 1 or -1
    assert not [name for _, name in reached if name in TORSION_FREE]
    assert ("scat", "rp3") in reached


def test_rp2_takes_euclid_steps_in_degree_two(spies):
    # H^2(rp2; Z) = Z_2, so im delta^1 is not saturated, and a reduction
    # on pivots 1 and -1 alone would prove that it is: the whole source
    # keeps a pivot 2 in degree 2 and fails there, and the pieces that
    # meet a remainder take Euclid's step in degree 2 alone, each verdict
    # the oracle's
    q = query_for("scat", "rp2")
    cohomology(q.target, ZZ)  # takes Smith normal forms, as above
    checker = _PieceChecker(q)
    smith_forms = spies["smith"]
    whole = (1 << len(checker.faces)) - 1
    stepped = Counter()
    for face_set in range(1, whole + 1):
        verdicts = _generator_verdicts(q.phi, q.psi, ZZ, COHOMOLOGY,
                                       checker.mask(face_set))
        before = spies["euclid"]
        for d, bits in verdicts:
            if spies["euclid"] > before:
                stepped[d] += 1
                assert bits == oracle_bits(q, faces_of(checker, face_set), d)
            before = spies["euclid"]
            if face_set == whole:
                assert bits == (1 if d == 2 else 0)
    assert list(stepped) == [2]
    assert spies["smith"] == smith_forms


def dense(rows, n):
    col = [0] * n
    for r in rows:
        col[r if r >= 0 else ~r] = 1 if r >= 0 else -1
    return col


def test_lattice_membership_matches_the_oracle(spies):
    # random columns of signed rows, as boundary columns are, and integer
    # vectors: half of them integer combinations of the columns, nudged
    # at one row half of those times, the rest drawn at random
    rng = random.Random(32)
    verdicts = Counter()
    for _ in range(400):
        n = rng.randint(1, 5)
        cols = []
        for _ in range(rng.randint(1, 6)):
            rows = rng.sample(range(n), rng.randint(1, n))
            cols.append(tuple(r if rng.random() < 0.5 else ~r for r in rows))
        columns = [dense(rows, n) for rows in cols]
        lattice = _z_lattice(cols)
        for _ in range(4):
            if rng.random() < 0.5:
                v = [0] * n
                for col in columns:
                    k = rng.randint(-2, 2)
                    v = [a + k * b for a, b in zip(v, col)]
                if rng.random() < 0.5:
                    v[rng.randrange(n)] += rng.choice((-1, 1))
            else:
                v = [rng.randint(-3, 3) for _ in range(n)]
            inside = in_integer_span(columns, v)
            assert lattice.contains({i: x for i, x in enumerate(v) if x}) == inside, (cols, v)
            verdicts[inside] += 1
    assert verdicts[True] > 100 and verdicts[False] > 100
    assert spies["euclid"] > 20
    assert spies["smith"] == 0
