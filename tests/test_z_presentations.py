"""The one walk over Z against the degree-by-degree reference.

``homology._presentations`` hands every ring the same steps, and over Z
:func:`exactalg._z_presentations` presents them: each degree's cycles are
the kernel of its outgoing matrix, presented modulo the incoming one.
Over Z it first runs the unit-pivot field walk, which picks other
representatives than the Smith normal form does, and falls back to
:func:`exactalg._z_presentations` when a pivot is not 1 or -1.  Here
that walk is compared with
:func:`presentation_path.z_presentation_by_degree`, which builds one
degree at a time.  The orders must be equal, every generator must be a
cycle, and each presentation's generators must have coordinates under
the other that form mutually inverse matrices modulo the orders: the two
generate the same classes.  Seeded random integer combinations of the
generators, with a random boundary added, must read back their
coefficients, and the reference's coordinates of them must be the
translated ones.  The cases are the fixtures, four subdivisions and
seeded random pieces of each, in both variances.
"""

import random

import pytest

from cohodist.complexes import Subcomplex, barycentric_subdivision
from cohodist.exactalg import ZZ
from cohodist.fixtures import fixture_complex, fixture_names
from cohodist.homology import COHOMOLOGY, HOMOLOGY, _PieceChains, _presentations, chain_complex

from .presentation_path import z_presentation_by_degree

VARIANCES = (COHOMOLOGY, HOMOLOGY)


def apply(cols, n, coeffs):
    """sum_k coeffs[k] * cols[k] over Z, dense of length n, from columns of
    signed rows (r for +1, ~r for -1)."""
    out = [0] * n
    for c, col in zip(coeffs, cols):
        for r in col:
            if r >= 0:
                out[r] += c
            else:
                out[~r] -= c
    return out


def incoming(data, variance, d):
    """The columns whose span is the boundaries of degree d."""
    if variance == COHOMOLOGY:
        return data.sparse_coboundary(d - 1) if d >= 1 else []
    return data.sparse_boundary(d + 1)


def outgoing(data, variance, d):
    """The columns of the map whose kernel is the cycles of degree d, and
    its row count."""
    if variance == COHOMOLOGY:
        return data.sparse_coboundary(d), data.rank_of(d + 1)
    return data.sparse_boundary(d), data.rank_of(d - 1)


def reduced(coords, orders):
    return tuple(c % k if k else c for c, k in zip(coords, orders))


def translate(matrix, coords, orders):
    """``matrix`` (a list of columns) applied to ``coords``, mod ``orders``."""
    return reduced([sum(col[i] * c for col, c in zip(matrix, coords))
                    for i in range(len(orders))], orders)


def check_same_classes(pres, ref):
    """The coordinates of each presentation's generators under the other
    are mutually inverse matrices modulo the orders, so each is invertible
    over Z modulo the orders."""
    orders = pres.orders
    to_pres = [pres.coordinates(gen) for gen in ref.gens]
    to_ref = [ref.coordinates(gen) for gen in pres.gens]
    for j in range(len(orders)):
        unit = reduced([int(i == j) for i in range(len(orders))], orders)
        assert translate(to_pres, to_ref[j], orders) == unit
        assert translate(to_ref, to_pres[j], orders) == unit
    return to_ref


def check_against_reference(data, variance, rng):
    modules = _presentations(data, ZZ, variance)
    assert sorted(modules) == list(range(data.dim + 1))
    for d, pres in modules.items():
        ref = z_presentation_by_degree(data, variance, d)
        assert pres.orders == ref.orders
        cols, nrows = outgoing(data, variance, d)
        for gen in pres.gens:
            assert not any(apply(cols, nrows, gen)), "generator is no cycle"
        to_ref = check_same_classes(pres, ref)
        n = data.rank_of(d)
        bnd = incoming(data, variance, d)
        for _ in range(4):
            coeffs = [rng.randint(-5, 5) for _ in pres.gens]
            vec = [sum(c * g[i] for c, g in zip(coeffs, pres.gens)) for i in range(n)]
            if bnd:
                extra = apply(bnd, n, [rng.randint(-3, 3) for _ in bnd])
                vec = [a + b for a, b in zip(vec, extra)]
            coords = pres.coordinates(vec)
            assert ref.coordinates(vec) == translate(to_ref, coords, pres.orders)
            assert coords == reduced(coeffs, pres.orders)


SUBDIVIDED = ("figure1", "rp2", "rp3", "torus")
CASES = [(name, False) for name in fixture_names()] + [(name, True) for name in SUBDIVIDED]


@pytest.mark.parametrize("name,subdivided", CASES,
                         ids=[f"sd({name})" if sd else name for name, sd in CASES])
def test_z_walk_matches_reference(name, subdivided):
    K = fixture_complex(name)
    if subdivided:
        K = barycentric_subdivision(K)[0]
    data = chain_complex(K)
    rng = random.Random(name)
    pieces = [data]
    for _ in range(1 if subdivided else 2):
        faces = rng.sample(K.maximal_faces, max(1, len(K.maximal_faces) // 2))
        pieces.append(_PieceChains(data, Subcomplex.spanned_by(K, faces).mask))
    for piece in pieces:
        for variance in VARIANCES:
            check_against_reference(piece, variance, rng)
