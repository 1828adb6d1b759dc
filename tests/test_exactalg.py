import math
import random
from fractions import Fraction

import pytest

from cohodist.exactalg import (
    GF,
    GF2,
    FieldSpan,
    Gf2Span,
    Hom,
    Matrix,
    QQ,
    ZZ,
    _is_prime,
    _span,
    _take_columns,
    _ZSpan,
    _z_lattice,
    field_span,
    homs_equal,
    image_basis,
    kernel_basis,
    quotient_presentation,
    rank,
    ring_from_code,
    signed_columns,
    smith_normal_form,
    solve,
)
from cohodist.complexes import barycentric_subdivision
from cohodist.fixtures import fixture_complex, fixture_names
from cohodist.homology import chain_complex
from cohodist.errors import (
    BoundaryNotInCyclesError,
    PresentationMismatchError,
    UnsupportedRingError,
)

from .oracles import rank_fraction, rank_mod


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
        # leading zeros are read past int()'s digit limit too
        for zeros in (27, 5000):
            assert ring_from_code("zp:" + "0" * zeros + "3") == GF(3)
            assert ring_from_code("z" + "0" * zeros + "3") == GF(3)

    def test_moduli_past_the_digit_limit(self):
        # int() refuses more than 4300 digits; such a modulus is far past
        # PRIME_LIMIT and is refused as every modulus past it is
        for code in ("zp:" + "9" * 5000, "z" + "9" * 5000, "zp:1" + "0" * 4300):
            with pytest.raises(UnsupportedRingError, match="prime moduli must be below"):
                ring_from_code(code)

    def test_primality_against_trial_division(self):
        def trial(n):
            return n > 1 and all(n % d for d in range(2, math.isqrt(n) + 1))

        assert all(_is_prime(n) == trial(n) for n in range(5000))
        # strong pseudoprimes to the bases up to 7, 23 and 37
        for n in (3215031751, 3825123056546413051, 318665857834031151167461):
            assert not _is_prime(n)
        assert _is_prime(2 ** 31 - 1) and _is_prime(2 ** 61 - 1)

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

    def test_prime_field_normalize_rejects_non_integers(self):
        assert GF(3).normalize(-7) == 2 and GF2.normalize(5) == 1
        assert GF(3).normalize(Fraction(8, 2)) == 1 and type(GF(3).normalize(Fraction(8, 2))) is int
        assert GF2.normalize(3.0) == 1
        for R in (GF2, GF(3)):
            for bad in (Fraction(1, 2), 2.7, Fraction(-5, 3)):
                with pytest.raises(ValueError):
                    R.normalize(bad)


def rand_sparse_int_matrix(rng, m, n):
    """Mostly +-1 entries at a few percent density, with a few larger ones."""
    density = rng.uniform(0.02, 0.15)
    rows = [[0] * n for _ in range(m)]
    for i in range(m):
        for j in range(n):
            if rng.random() < density:
                rows[i][j] = rng.choice((1, -1) * 6 + (2, -2, 3, 4, -6))
    return Matrix(ZZ, rows, ncols=n)


def transposed(M):
    return Matrix(ZZ, [list(col) for col in zip(*M.rows)], ncols=M.nrows)


def check_snf(M):
    """U M V == S, U Uinv == I, V unimodular, S diagonal, and the
    divisibility chain."""
    snf = smith_normal_form(M)
    m, n = M.shape
    S = snf.S
    assert snf.U * M * snf.V == S
    assert snf.U * snf.Uinv == Matrix.identity(ZZ, m)
    assert det_fraction(snf.V) in (1, -1)
    for i, row in enumerate(S.rows):
        for j, x in enumerate(row):
            if i != j:
                assert x == 0
    assert [S.rows[i][i] for i in range(snf.rank)] == snf.diagonal
    assert all(d > 0 for d in snf.diagonal)
    for a, b in zip(snf.diagonal, snf.diagonal[1:]):
        assert b % a == 0
    return snf


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
            snf = check_snf(M)
            if m:
                assert det_fraction(snf.U) in (1, -1)
            if n:
                assert det_fraction(snf.V) in (1, -1)

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

    def test_sparse_random(self):
        sympy = pytest.importorskip("sympy")
        from sympy.matrices.normalforms import invariant_factors

        rng = random.Random(23)
        for _ in range(40):
            M = rand_sparse_int_matrix(rng, rng.randint(1, 40), rng.randint(1, 60))
            snf = check_snf(M)
            theirs = [int(f) for f in invariant_factors(sympy.Matrix(M.rows)) if f != 0]
            assert snf.diagonal == theirs

    def test_boundary_matrices(self):
        # the boundaries and their transposes, the coboundaries, are what
        # the integer (co)homology path eliminates
        sympy = pytest.importorskip("sympy")
        from sympy.matrices.normalforms import invariant_factors

        complexes = [(name, fixture_complex(name)) for name in fixture_names()]
        complexes.append(("sd(figure1)",
                          barycentric_subdivision(fixture_complex("figure1"))[0]))
        for name, K in complexes:
            data = chain_complex(K)
            for d in range(1, K.dim + 1):
                B = data.boundary_matrix(d)
                for M in (B, transposed(B)):
                    snf = check_snf(M)
                    theirs = [int(f) for f in invariant_factors(sympy.Matrix(M.rows))
                              if f != 0]
                    assert snf.diagonal == theirs, (name, d)

    def test_product_with_empty_inner_dimension(self):
        assert Matrix.zeros(ZZ, 2, 0) * Matrix.zeros(ZZ, 0, 3) == Matrix.zeros(ZZ, 2, 3)


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
            # rank-nullity against the independent eliminations
            assert rank(M) == rank_fraction(M.rows)
            assert kernel_basis(M.change_ring(QQ)).ncols == n - rank_fraction(M.rows)
            for R in (GF2, GF(5)):
                r = rank_mod(M.rows, R.p)
                MR = M.change_ring(R)
                assert rank(MR) == r
                assert kernel_basis(MR).ncols == n - r
                assert image_basis(MR).ncols == r

    def test_integer_kernel_saturated(self):
        # kernel of [[2, -2]] over Z is spanned by (1, 1), not (2, 2)
        K = kernel_basis(Matrix(ZZ, [[2, -2]]))
        assert sorted(map(abs, K.column(0))) == [1, 1]


class TestSpans:
    def test_span_choice(self):
        assert type(field_span(GF2)) is Gf2Span
        for R in (GF(3), GF(5), QQ):
            assert type(field_span(R)) is FieldSpan
        with pytest.raises(UnsupportedRingError):
            field_span(ZZ)
        # _span: the unit-pivot span over Z, field_span's over a field;
        # each fresh span holds no lazy pivot and keeps combinations
        assert type(_span(ZZ)) is _ZSpan
        for R in (GF2, GF(3), GF(5), QQ):
            assert type(_span(R)) is type(field_span(R))
        for R in (ZZ, GF2, GF(3), QQ):
            span = _span(R)
            assert span.lazy == {} and span.combos is True

    def test_copy_grows_on_its_own(self):
        # every backend copies to its own class, with the pivots made and
        # lazy; over Z that is a lattice with a pivot 2, which a copy grows
        # by Euclid's step, and what the copy takes stays its own
        for R in (GF2, GF(3), QQ):
            span = _span(R)
            span.add(span.signed((0, 2)))
            twin = span.copy()
            assert type(twin) is type(span) and twin.pivots == span.pivots
            assert twin.add(span.signed((1,)))
            assert twin.contains(span.signed((1,)))
            assert not span.contains(span.signed((1,)))
            assert span.rank == 1 and twin.rank == 2
        lattice = _z_lattice([(0, 2), (~0, 2)])  # e0 + e2 lazy, -2 e0 made
        twin = lattice.copy()
        assert type(twin) is _ZSpan
        assert (twin.pivots, twin.lazy, twin.combos) == (lattice.pivots, lattice.lazy, False)
        _take_columns(twin, [(0,), (1,)], range(2))  # e0 meets -2 e0: Euclid
        assert twin.contains({0: 1}) and twin.contains({1: 1})
        assert not lattice.contains({0: 1}) and not lattice.contains({1: 1})
        assert lattice.pivots == {0: ({0: -2}, {})} and list(lattice.lazy) == [2]
        assert twin.pivots[0][0] == {0: -1} and sorted(twin.lazy) == [1, 2]

    def test_signed_columns(self):
        cols = [(0, ~2), (), (~1,)]  # r for +1 at row r, ~r for -1
        for R in (GF2, GF(3), QQ, ZZ):
            span = _span(R)
            dense = [span.dense(v, 3) for v in signed_columns(R, cols)]
            assert dense == [[R.one, R.zero, R.normalize(-1)], [R.zero] * 3,
                             [R.zero, R.normalize(-1), R.zero]]

    def test_gf2_bitsets_agree_with_reference_span(self):
        # Gf2Span against FieldSpan over GF(2), fed the same random columns as
        # dense lists or tuples, dicts, signed rows or Gf2Vectors; both key
        # pivots by their highest row, so verdicts and combinations must
        # agree exactly.  Local row i of a case is ambient row rows[i]: the
        # rows start at 0, at a random offset of 10^4-10^5, or mix low and
        # high rows, so vectors start and end at any row
        rng = random.Random(21)
        for case in range(600):
            m, n = rng.randint(1, 8), rng.randint(1, 10)
            layout = case % 3
            if layout == 0:
                rows = list(range(m))
            elif layout == 1:
                offset = rng.randint(10**4, 10**5)
                rows = sorted(rng.sample(range(offset, offset + 3 * m), m))
            else:
                low = rng.randint(0, m)
                rows = sorted(rng.sample(range(20), low)
                              + rng.sample(range(10**4, 10**5), m - low))

            def sparse(col):
                return {rows[i]: x for i, x in enumerate(col) if x}

            def given(col):
                d = sparse(col)
                signed = [rng.choice((r, ~r)) for r in d]
                rng.shuffle(signed)
                forms = [d, Gf2Span.vector(d), signed_columns(GF2, [signed])[0]]
                if layout == 0:
                    forms += [col, tuple(col)]
                vec = rng.choice(forms)
                assert Gf2Span.support(Gf2Span.vector(vec)) == FieldSpan.support(d)
                return vec

            cols = [[rng.randint(0, 1) if rng.random() < 0.6 else 0 for _ in range(m)]
                    for _ in range(n)]
            fast, ref = Gf2Span(), FieldSpan(GF2)
            for col in cols:
                if rng.random() < 0.5:
                    grew, combo = fast._absorb(given(col))
                    ref_grew, ref_combo = ref._absorb(sparse(col))
                    assert grew == ref_grew
                    if not grew:  # a kernel vector: its columns sum to zero
                        assert fast.dense(combo, n) == ref.dense(ref_combo, n)
                        total = [0] * m
                        for k in range(n):
                            if fast.coefficient(combo, k):
                                total = [(a + b) % 2 for a, b in zip(total, cols[k])]
                        assert not any(total)
                else:
                    assert fast.add(given(col)) == ref.add(sparse(col))
                assert fast.rank == ref.rank
            for _ in range(6):
                t = [rng.randint(0, 1) for _ in range(m)]
                assert fast.contains(given(t)) == ref.contains(sparse(t))
                coeffs, ref_coeffs = fast.express(given(t)), ref.express(sparse(t))
                assert (coeffs is None) == (ref_coeffs is None)
                if coeffs is not None:
                    assert fast.dense(coeffs, n) == ref.dense(ref_coeffs, n)
                    assert ([fast.coefficient(coeffs, k) for k in range(n)]
                            == [ref.coefficient(ref_coeffs, k) for k in range(n)])
            M = Matrix.from_columns(GF2, cols, m)
            ref_kernel = []
            ref = FieldSpan(GF2)
            for col in cols:
                grew, combo = ref._absorb(col)
                if not grew:
                    ref_kernel.append(ref.dense(combo, n))
            assert kernel_basis(M).columns() == ref_kernel


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

    def test_is_iso_torsion_differs(self):
        # Z_4 -> Z_2 onto and Z_2 -> Z_4 into: the orders differ, so neither
        # is an isomorphism
        z2 = quotient_presentation(Matrix.identity(ZZ, 1), Matrix(ZZ, [[2]]))
        z4 = quotient_presentation(Matrix.identity(ZZ, 1), Matrix(ZZ, [[4]]))
        assert not Hom(z4, z2, Matrix(ZZ, [[1]])).is_iso()
        assert not Hom(z2, z4, Matrix(ZZ, [[2]])).is_iso()

    def test_field_homs_differ(self):
        for ring in (GF(3), QQ):
            P = quotient_presentation(Matrix.identity(ring, 2), Matrix.zeros(ring, 2, 0))
            f = Hom(P, P, Matrix(ring, [[1, 2], [0, 1]]))
            g = Hom(P, P, Matrix(ring, [[1, -1], [0, 1]]))
            # 2 and -1 are one scalar of GF(3), two of Q
            assert homs_equal(f, g) == (ring == GF(3))
            assert not homs_equal(f, Hom.identity(P))
            assert not homs_equal(Hom.zero(P, P), g)
            assert not f.is_zero() and Hom.zero(P, P).is_zero()
