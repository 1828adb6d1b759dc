import random
from fractions import Fraction

import pytest

from cohodist.exactalg import (
    GF,
    GF2,
    Hom,
    Matrix,
    QQ,
    ZZ,
    homs_equal,
    image_basis,
    kernel_basis,
    quotient_presentation,
    rank,
    ring_from_code,
    smith_normal_form,
    solve,
)
from cohodist.errors import (
    BoundaryNotInCyclesError,
    PresentationMismatchError,
    UnsupportedRingError,
)

from .oracles import rank_fraction


def rand_int_matrix(rng, m, n, lo=-9, hi=9):
    return Matrix(ZZ, [[rng.randint(lo, hi) for _ in range(n)] for _ in range(m)],
                  ncols=n)


def det_fraction(M):
    rows = [[Fraction(x) for x in r] for r in M.rows]
    n = len(rows)
    det = Fraction(1)
    for col in range(n):
        pivot = next((i for i in range(col, n) if rows[i][col] != 0), None)
        if pivot is None:
            return Fraction(0)
        if pivot != col:
            rows[col], rows[pivot] = rows[pivot], rows[col]
            det = -det
        det *= rows[col][col]
        inv = 1 / rows[col][col]
        rows[col] = [x * inv for x in rows[col]]
        for i in range(col + 1, n):
            c = rows[i][col]
            if c:
                rows[i] = [a - c * b for a, b in zip(rows[i], rows[col])]
    return det


class TestRings:
    def test_codes(self):
        assert ring_from_code("z") == ZZ
        assert ring_from_code("q") == QQ
        assert ring_from_code("z2") == GF2
        assert ring_from_code("zp:7") == GF(7)

    def test_bad_ring(self):
        with pytest.raises(UnsupportedRingError):
            GF(6)
        with pytest.raises(UnsupportedRingError):
            ring_from_code("octonions")
        for code in ("zp:x", "zp:", "zp:3.5", "zp:-3", "z\u00b2"):
            with pytest.raises(UnsupportedRingError):
                ring_from_code(code)

    def test_integer_normalize_rejects_non_integers(self):
        assert ZZ.normalize(-7) == -7
        assert ZZ.normalize(Fraction(4, 2)) == 2 and type(ZZ.normalize(Fraction(4, 2))) is int
        assert ZZ.normalize(3.0) == 3
        for bad in (Fraction(1, 2), 2.7, Fraction(-5, 3)):
            with pytest.raises(ValueError):
                ZZ.normalize(bad)


class TestSmithNormalForm:
    def test_diag_2_3(self):
        snf = smith_normal_form(Matrix(ZZ, [[2, 0], [0, 3]]))
        assert snf.diagonal == [1, 6]

    def test_zero_matrix(self):
        snf = smith_normal_form(Matrix.zeros(ZZ, 3, 2))
        assert snf.diagonal == []
        assert snf.U == Matrix.identity(ZZ, 3)
        assert snf.V == Matrix.identity(ZZ, 2)

    def test_identity(self):
        I = Matrix.identity(ZZ, 4)
        snf = smith_normal_form(I)
        assert snf.S == I

    def test_randomized_decomposition(self):
        rng = random.Random(7)
        for _ in range(200):
            m, n = rng.randint(0, 5), rng.randint(0, 5)
            M = rand_int_matrix(rng, m, n)
            snf = smith_normal_form(M)
            assert snf.U * M * snf.V == snf.S
            assert snf.U * snf.Uinv == Matrix.identity(ZZ, m)
            assert snf.V * snf.Vinv == Matrix.identity(ZZ, n)
            if m:
                assert det_fraction(snf.U) in (1, -1)
            if n:
                assert det_fraction(snf.V) in (1, -1)
            for a, b in zip(snf.diagonal, snf.diagonal[1:]):
                assert b % a == 0
            for i in range(m):
                for j in range(n):
                    if i != j:
                        assert snf.S.rows[i][j] == 0

    def test_invariant_factors_match_sympy(self):
        sympy = pytest.importorskip("sympy")
        from sympy.matrices.normalforms import invariant_factors

        rng = random.Random(11)
        for _ in range(40):
            m, n = rng.randint(1, 4), rng.randint(1, 4)
            M = rand_int_matrix(rng, m, n)
            ours = [d for d in smith_normal_form(M).diagonal]
            theirs = [int(f) for f in invariant_factors(sympy.Matrix(M.rows)) if f != 0]
            assert ours == theirs


class TestKernelImage:
    def test_one_relation_mod2(self):
        K = kernel_basis(Matrix(GF2, [[1, 1]]))
        assert K.columns() == [[1, 1]]

    def test_identity_trivial_kernel(self):
        for R in (ZZ, QQ, GF2):
            assert kernel_basis(Matrix.identity(R, 3)).ncols == 0

    def test_randomized(self):
        rng = random.Random(3)
        for _ in range(200):
            m, n = rng.randint(1, 5), rng.randint(1, 5)
            M = rand_int_matrix(rng, m, n, -4, 4)
            for R in (ZZ, QQ, GF2, GF(5)):
                MR = M.change_ring(R)
                K = kernel_basis(MR)
                assert (MR * K).is_zero()
                I = image_basis(MR)
                for j in range(I.ncols):
                    col = Matrix.from_columns(R, [I.column(j)], m)
                    assert solve(MR, col) is not None
            # rank-nullity over Q against the independent elimination
            assert rank(M) == rank_fraction(M.rows)
            assert kernel_basis(M.change_ring(QQ)).ncols == n - rank_fraction(M.rows)

    def test_integer_kernel_saturated(self):
        # kernel of [[2, -2]] over Z is spanned by (1, 1), not (2, 2)
        K = kernel_basis(Matrix(ZZ, [[2, -2]]))
        assert sorted(map(abs, K.column(0))) == [1, 1]


class TestQuotientPresentation:
    def test_z_plus_z2(self):
        P = quotient_presentation(Matrix.identity(ZZ, 2), Matrix(ZZ, [[2], [0]]))
        assert P.free_rank == 1
        assert P.torsion == (2,)
        assert P.group_str() == "Z x Z_2"

    def test_boundaries_equal_cycles(self):
        P = quotient_presentation(Matrix.identity(ZZ, 2), Matrix.identity(ZZ, 2))
        assert P.is_trivial

    def test_field_quotient_has_no_torsion(self):
        rng = random.Random(5)
        for _ in range(100):
            n = rng.randint(1, 5)
            k = rng.randint(0, n)
            cycles = Matrix.identity(QQ, n)
            bcols = [[Fraction(rng.randint(-3, 3)) for _ in range(n)] for _ in range(k)]
            boundaries = Matrix.from_columns(QQ, bcols, n)
            P = quotient_presentation(cycles, boundaries)
            assert P.torsion == ()
            assert P.free_rank == n - rank(boundaries)

    def test_boundary_outside_cycles(self):
        cycles = Matrix.from_columns(ZZ, [[1, 0]], 2)
        boundaries = Matrix.from_columns(ZZ, [[0, 1]], 2)
        with pytest.raises(BoundaryNotInCyclesError):
            quotient_presentation(cycles, boundaries)

    def test_coordinates_canonical(self):
        P = quotient_presentation(Matrix.identity(ZZ, 1), Matrix(ZZ, [[4]]))
        assert P.torsion == (4,)
        assert P.coordinates([6]) == (2,)
        assert P.class_is_zero([8])
        assert not P.class_is_zero([2])


class TestHoms:
    def _z_to_z2(self):
        src = quotient_presentation(Matrix.identity(ZZ, 1), Matrix.zeros(ZZ, 1, 0))
        tgt = quotient_presentation(Matrix.identity(ZZ, 1), Matrix(ZZ, [[2]]))
        return src, tgt

    def test_syntactic_equality(self):
        src, tgt = self._z_to_z2()
        f = Hom(src, tgt, Matrix(ZZ, [[1]]))
        assert homs_equal(f, f)

    def test_torsion_absorption(self):
        src, tgt = self._z_to_z2()
        f = Hom(src, tgt, Matrix(ZZ, [[1]]))
        g = Hom(src, tgt, Matrix(ZZ, [[3]]))
        h = Hom(src, tgt, Matrix(ZZ, [[0]]))
        assert homs_equal(f, g)
        assert not homs_equal(f, h)

    def test_mismatch(self):
        src, tgt = self._z_to_z2()
        f = Hom(src, tgt, Matrix(ZZ, [[1]]))
        g = Hom(src, src, Matrix(ZZ, [[1]]))
        with pytest.raises(PresentationMismatchError):
            homs_equal(f, g)

    def test_equality_is_transitive(self):
        rng = random.Random(13)
        src = quotient_presentation(Matrix.identity(ZZ, 2), Matrix.zeros(ZZ, 2, 0))
        tgt = quotient_presentation(Matrix.identity(ZZ, 2),
                                    Matrix(ZZ, [[2, 0], [0, 6]]))
        for _ in range(200):
            base = [[rng.randint(-5, 5) for _ in range(2)] for _ in range(2)]
            offs = []
            for _ in range(3):
                offs.append([[base[i][j] + rng.choice([0, 2, 6, -2]) * (i == 0)
                              + rng.choice([0, 6, -6]) * (i == 1)
                              for j in range(2)] for i in range(2)])
            f, g, h = (Hom(src, tgt, Matrix(ZZ, o)) for o in offs)
            if homs_equal(f, g) and homs_equal(g, h):
                assert homs_equal(f, h)

    def test_is_iso(self):
        src, tgt = self._z_to_z2()
        assert Hom.identity(tgt).is_iso()
        assert not Hom.zero(tgt, tgt).is_iso()
        # Z_2 -> Z_2 sending the generator to the generator
        f = Hom(tgt, tgt, Matrix(ZZ, [[1]]))
        assert f.is_iso()
        # Z -> Z times 2 is injective but not surjective
        g = Hom(src, src, Matrix(ZZ, [[2]]))
        assert not g.is_iso()
