"""Exact linear algebra over Z, Q and Z_p.

Everything here is computed with arbitrary-precision scalars: Python ints
for Z and Z_p, :class:`fractions.Fraction` for Q.  Integer matrices get a
Smith normal form with full unimodular transforms, which is what turns
kernel/image pairs into presentations of finitely generated abelian groups
(free rank, torsion coefficients, and lifts of the chosen generators back
to representative vectors).

Elimination over a field is sparse.  The mod-2 routines use bitsets (one
Python int per column) because the cohomology pipeline spends most of its
time row-reducing over Z_2; :class:`FieldSpan` does the same column
reduction over Z_p and Q with dict columns.  Both key a pivot by its
highest row.
"""

from fractions import Fraction

from .errors import (
    BoundaryNotInCyclesError,
    PresentationMismatchError,
    RingMismatchError,
    UnsupportedRingError,
)


# ---------------------------------------------------------------------------
# coefficient rings


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    d = 3
    while d * d <= n:
        if n % d == 0:
            return False
        d += 2
    return True


class Ring:
    """A supported coefficient ring: Z, Q or the prime field Z_p.

    >>> ZZ.is_field, QQ.is_field, GF(5).is_field
    (False, True, True)
    """

    __slots__ = ("kind", "p")

    def __init__(self, kind: str, p: int | None = None):
        if kind not in ("Z", "Q", "GF"):
            raise UnsupportedRingError(f"unknown ring kind {kind!r}")
        if kind == "GF":
            if p is None or not _is_prime(p):
                raise UnsupportedRingError(f"{p!r} is not prime")
        self.kind = kind
        self.p = p

    @property
    def is_field(self) -> bool:
        return self.kind != "Z"

    def normalize(self, x):
        if self.kind == "Z":
            if type(x) is int:
                return x
            n = int(x)
            if n != x:
                raise ValueError(f"{x!r} is not an integer")
            return n
        if self.kind == "GF":
            return int(x) % self.p
        return Fraction(x)

    @property
    def zero(self):
        return Fraction(0) if self.kind == "Q" else 0

    @property
    def one(self):
        return Fraction(1) if self.kind == "Q" else 1

    def add(self, a, b):
        return (a + b) % self.p if self.kind == "GF" else a + b

    def sub(self, a, b):
        return (a - b) % self.p if self.kind == "GF" else a - b

    def mul(self, a, b):
        return (a * b) % self.p if self.kind == "GF" else a * b

    def neg(self, a):
        return (-a) % self.p if self.kind == "GF" else -a

    def inv(self, a):
        if self.kind == "GF":
            return pow(a, self.p - 2, self.p)
        if self.kind == "Q":
            return 1 / Fraction(a)
        raise UnsupportedRingError("Z is not a field")

    def __eq__(self, other):
        return isinstance(other, Ring) and (self.kind, self.p) == (other.kind, other.p)

    def __hash__(self):
        return hash((self.kind, self.p))

    def __repr__(self):
        if self.kind == "GF":
            return f"GF({self.p})"
        return {"Z": "ZZ", "Q": "QQ"}[self.kind]

    def __str__(self):
        if self.kind == "GF":
            return f"Z_{self.p}"
        return {"Z": "Z", "Q": "Q"}[self.kind]


ZZ = Ring("Z")
QQ = Ring("Q")


def GF(p: int) -> Ring:
    return Ring("GF", p)


GF2 = GF(2)


def ring_from_code(code: str) -> Ring:
    """Parse a CLI ring code: ``z``, ``q``, ``z2`` or ``zp:<p>``."""
    code = code.strip().lower()
    if code == "z":
        return ZZ
    if code == "q":
        return QQ
    if code == "z2":
        return GF2
    if code.startswith("zp:") and code[3:].isdecimal():
        return GF(int(code[3:]))
    if code.startswith("z") and code[1:].isdecimal():
        return GF(int(code[1:]))
    raise UnsupportedRingError(f"unknown ring code {code!r}")


# ---------------------------------------------------------------------------
# dense exact matrices


class Matrix:
    """Dense exact matrix over a :class:`Ring`.

    Rows are lists of normalized scalars.  Instances are treated as
    immutable by every public operation.
    """

    __slots__ = ("ring", "nrows", "ncols", "rows")

    def __init__(self, ring: Ring, rows, ncols: int | None = None):
        self.ring = ring
        rows = [[ring.normalize(x) for x in row] for row in rows]
        self.nrows = len(rows)
        if rows:
            self.ncols = len(rows[0])
            if any(len(r) != self.ncols for r in rows):
                raise ValueError("ragged rows")
        else:
            self.ncols = 0 if ncols is None else ncols
        self.rows = rows

    # -- constructors

    @classmethod
    def zeros(cls, ring, m, n):
        z = ring.zero
        return cls(ring, [[z] * n for _ in range(m)], ncols=n)

    @classmethod
    def identity(cls, ring, n):
        z, o = ring.zero, ring.one
        return cls(ring, [[o if i == j else z for j in range(n)] for i in range(n)], ncols=n)

    @classmethod
    def from_columns(cls, ring, cols, nrows):
        z = ring.zero
        rows = [[z] * len(cols) for _ in range(nrows)]
        for j, col in enumerate(cols):
            for i, x in (col.items() if isinstance(col, dict) else enumerate(col)):
                rows[i][j] = ring.normalize(x)
        return cls(ring, rows, ncols=len(cols))

    # -- basic structure

    @property
    def shape(self):
        return (self.nrows, self.ncols)

    def column(self, j):
        return [row[j] for row in self.rows]

    def columns(self):
        return [self.column(j) for j in range(self.ncols)]

    def sparse_columns(self, ring: "Ring | None" = None):
        """Columns as sparse dicts, with entries taken into ``ring`` if given."""
        cols = [{} for _ in range(self.ncols)]
        for i, row in enumerate(self.rows):
            for j, x in enumerate(row):
                if ring is not None:
                    x = ring.normalize(x)
                if x:
                    cols[j][i] = x
        return cols

    def transpose(self):
        return Matrix(self.ring, [list(col) for col in zip(*self.rows)] if self.rows else [],
                      ncols=self.nrows)

    def change_ring(self, ring: Ring) -> "Matrix":
        return Matrix(ring, self.rows, ncols=self.ncols)

    def copy_rows(self):
        return [list(r) for r in self.rows]

    # -- arithmetic

    def __add__(self, other):
        R = self.ring
        return Matrix(R, [[R.add(a, b) for a, b in zip(r1, r2)]
                          for r1, r2 in zip(self.rows, other.rows)], ncols=self.ncols)

    def __sub__(self, other):
        R = self.ring
        return Matrix(R, [[R.sub(a, b) for a, b in zip(r1, r2)]
                          for r1, r2 in zip(self.rows, other.rows)], ncols=self.ncols)

    def __neg__(self):
        R = self.ring
        return Matrix(R, [[R.neg(a) for a in r] for r in self.rows], ncols=self.ncols)

    def __mul__(self, other):
        if not isinstance(other, Matrix):
            return NotImplemented
        if self.ncols != other.nrows:
            raise ValueError(f"shape mismatch {self.shape} * {other.shape}")
        R = self.ring
        ocols = list(zip(*other.rows)) if other.rows else []
        out = []
        for row in self.rows:
            if ocols:
                out.append([R.normalize(sum(a * b for a, b in zip(row, col))) for col in ocols])
            else:
                out.append([])
        return Matrix(R, out, ncols=other.ncols)

    def __eq__(self, other):
        return (isinstance(other, Matrix) and self.ring == other.ring
                and self.shape == other.shape and self.rows == other.rows)

    def __repr__(self):
        return f"Matrix({self.ring!r}, {self.nrows}x{self.ncols})"

    def is_zero(self):
        z = self.ring.zero
        return all(x == z for row in self.rows for x in row)


# ---------------------------------------------------------------------------
# GF(2) bitset kernels.  Columns are ints: bit i of cols[j] is entry (i, j).


def gf2_columns_from_sparse(sparse_cols, nrows):
    """sparse_cols: list of iterables of (row, coeff).  Returns bitset columns."""
    out = []
    for col in sparse_cols:
        c = 0
        for i, v in col:
            if v % 2:
                c ^= 1 << i
        out.append(c)
    return out


def gf2_columns_from_matrix(M: Matrix):
    cols = []
    for j in range(M.ncols):
        c = 0
        for i in range(M.nrows):
            if M.rows[i][j] % 2:
                c |= 1 << i
        cols.append(c)
    return cols


def gf2_vector_from_list(vec):
    v = 0
    for i, x in enumerate(vec):
        if x % 2:
            v |= 1 << i
    return v


def gf2_list_from_vector(v, n):
    return [(v >> i) & 1 for i in range(n)]


class Gf2Span:
    """Incremental column span over GF(2) with expression tracking.

    Tracked combinations are over the columns in insertion order, so
    ``express`` answers membership *and* returns the coefficient bitmask.
    """

    __slots__ = ("pivots", "n_added")

    def __init__(self):
        self.pivots = {}  # pivot row -> (column, combo over added columns)
        self.n_added = 0

    def add(self, col: int) -> bool:
        """Add a column; returns True when it enlarged the span."""
        combo = 1 << self.n_added
        self.n_added += 1
        col, combo = self._reduce(col, combo)
        if col == 0:
            return False
        self.pivots[col.bit_length() - 1] = (col, combo)
        return True

    def _reduce(self, col, combo):
        pivots = self.pivots
        while col:
            p = col.bit_length() - 1
            hit = pivots.get(p)
            if hit is None:
                break
            col ^= hit[0]
            combo ^= hit[1]
        return col, combo

    def contains(self, col: int) -> bool:
        col, _ = self._reduce(col, 0)
        return col == 0

    def express(self, col: int):
        """Coefficient bitmask over the added columns, or None if outside."""
        col, combo = self._reduce(col, 0)
        return combo if col == 0 else None

    @property
    def rank(self):
        return len(self.pivots)


def gf2_kernel(cols, ncols):
    """Kernel basis of the matrix with the given bitset columns.

    Returns kernel vectors as bitmasks over the column indices.
    """
    span = Gf2Span()
    kernel = []
    for j, c in enumerate(cols):
        reduced, combo = span._reduce(c, 1 << j)
        if reduced == 0:
            kernel.append(combo)
        else:
            span.pivots[reduced.bit_length() - 1] = (reduced, combo)
            span.n_added = j + 1
    return kernel


def gf2_rank(cols):
    span = Gf2Span()
    return sum(1 for c in cols if span.add(c))


# ---------------------------------------------------------------------------
# sparse field elimination (Z_p and Q).  A column is a dict row -> nonzero
# scalar: a plain int in [0, p) over Z_p, a Fraction over Q.


def _sparse_column(ring: Ring, col) -> dict:
    """``col`` as a sparse column; a dict is taken to be one already."""
    if isinstance(col, dict):
        return col
    out = {}
    for i, x in enumerate(col):
        x = ring.normalize(x)
        if x:
            out[i] = x
    return out


def _dense_column(col: dict, n: int, zero=0) -> list:
    out = [zero] * n
    for i, x in col.items():
        out[i] = x
    return out


def _axpy(y: dict, a, x: dict, p):
    """y += a * x in place, dropping the entries that cancel (mod p unless None)."""
    for k, v in x.items():
        v = y.get(k, 0) + a * v
        if p is not None:
            v %= p
        if v:
            y[k] = v
        else:
            y.pop(k, None)


class FieldSpan:
    """Incremental column span over Z_p or Q with expression tracking.

    Columns are sparse (see :func:`_sparse_column`); dense sequences are
    converted on the way in.  As in :class:`Gf2Span`, a pivot is keyed by
    its highest row and a column is reduced only until its highest row is
    no pivot's.  Pivots are stored monic together with their combination
    over the added columns, unless ``track`` is False: such a span answers
    membership only, and ``express`` is not available.
    """

    __slots__ = ("ring", "p", "pivots", "n_added", "track")

    def __init__(self, ring: Ring, track: bool = True):
        if not ring.is_field:
            raise UnsupportedRingError(f"{ring} is not a field")
        self.ring = ring
        self.p = ring.p
        self.pivots = {}  # pivot row -> (monic column, combo over added columns)
        self.n_added = 0
        self.track = track

    def _reduce(self, col: dict, combo):
        """Reduce ``col`` (mutated) and, unless None, its ``combo`` alongside."""
        pivots, p = self.pivots, self.p
        while col:
            top = max(col)
            hit = pivots.get(top)
            if hit is None:
                break
            c = -col[top]
            _axpy(col, c, hit[0], p)
            if combo is not None:
                _axpy(combo, c, hit[1], p)
        return col, combo

    def _scaled(self, vec: dict, a) -> dict:
        p = self.p
        if p is None:
            return {i: a * x for i, x in vec.items()}
        return {i: a * x % p for i, x in vec.items()}

    def _absorb(self, col):
        """Add a column.  Returns (enlarged, combo), where combo is the
        reduced column's combination over the added columns (None when
        not tracked): a kernel vector when the span did not grow."""
        idx = self.n_added
        self.n_added += 1
        combo = {idx: self.ring.one} if self.track else None
        col, combo = self._reduce(dict(_sparse_column(self.ring, col)), combo)
        if not col:
            return False, combo
        top = max(col)
        inv = self.ring.inv(col[top])
        self.pivots[top] = (self._scaled(col, inv),
                            None if combo is None else self._scaled(combo, inv))
        return True, None

    def add(self, col) -> bool:
        """Add a column; returns True when it enlarged the span."""
        return self._absorb(col)[0]

    def express(self, col):
        """Coefficients over the added columns (dict index -> scalar), or None."""
        if not self.track:
            raise ValueError("this span keeps no combinations")
        col, combo = self._reduce(dict(_sparse_column(self.ring, col)), {})
        if col:
            return None
        neg = self.ring.neg
        return {k: neg(v) for k, v in combo.items()}

    def contains(self, col) -> bool:
        return not self._reduce(dict(_sparse_column(self.ring, col)), None)[0]

    @property
    def rank(self):
        return len(self.pivots)


def _field_rank(ring: Ring, cols) -> int:
    span = FieldSpan(ring, track=False)
    return sum(1 for col in cols if span.add(col))


def _field_kernel(ring: Ring, cols) -> list:
    """Kernel basis of the matrix with the given sparse columns, as sparse
    vectors over the column indices: one per column dependent on earlier ones."""
    span = FieldSpan(ring)
    kernel = []
    for col in cols:
        grew, combo = span._absorb(col)
        if not grew:
            kernel.append(combo)
    return kernel


def _field_solve(ring: Ring, cols, targets):
    """Sparse x with sum x_k cols[k] == t for each target t, or None."""
    span = FieldSpan(ring)
    for col in cols:
        span.add(col)
    out = []
    for t in targets:
        coeffs = span.express(t)
        if coeffs is None:
            return None
        out.append(coeffs)
    return out


def _field_image(ring: Ring, cols) -> list:
    span = FieldSpan(ring, track=False)
    return [col for col in cols if span.add(col)]


# ---------------------------------------------------------------------------
# Smith normal form over Z, with transforms


class SNF:
    """U * M * V == S with U, V unimodular; Uinv, Vinv their exact inverses."""

    __slots__ = ("S", "U", "V", "Uinv", "Vinv", "diagonal", "rank")

    def __init__(self, S, U, V, Uinv, Vinv):
        self.S = S
        self.U = U
        self.V = V
        self.Uinv = Uinv
        self.Vinv = Vinv
        diag = [S.rows[i][i] for i in range(min(S.nrows, S.ncols))]
        self.diagonal = [d for d in diag if d != 0]
        self.rank = len(self.diagonal)


def smith_normal_form(M: Matrix) -> SNF:
    """Smith normal form of an integer matrix.

    Pivoting picks the smallest nonzero entry in the working submatrix,
    which keeps coefficient growth tame at desk scale.

    >>> snf = smith_normal_form(Matrix(ZZ, [[2, 0], [0, 3]]))
    >>> snf.diagonal
    [1, 6]
    """
    if M.ring != ZZ:
        raise UnsupportedRingError("smith_normal_form needs integer entries")
    m, n = M.nrows, M.ncols
    A = M.copy_rows()
    U = Matrix.identity(ZZ, m).copy_rows()
    Uinv = Matrix.identity(ZZ, m).copy_rows()
    V = Matrix.identity(ZZ, n).copy_rows()
    Vinv = Matrix.identity(ZZ, n).copy_rows()

    def row_add(i, j, c):  # row_i += c * row_j
        A[i] = [a + c * b for a, b in zip(A[i], A[j])]
        U[i] = [a + c * b for a, b in zip(U[i], U[j])]
        for r in Uinv:
            r[j] -= c * r[i]

    def row_swap(i, j):
        A[i], A[j] = A[j], A[i]
        U[i], U[j] = U[j], U[i]
        for r in Uinv:
            r[i], r[j] = r[j], r[i]

    def row_negate(i):
        A[i] = [-a for a in A[i]]
        U[i] = [-a for a in U[i]]
        for r in Uinv:
            r[i] = -r[i]

    def col_add(i, j, c):  # col_i += c * col_j
        for r in A:
            r[i] += c * r[j]
        for r in V:
            r[i] += c * r[j]
        Vinv[j] = [a - c * b for a, b in zip(Vinv[j], Vinv[i])]

    def col_swap(i, j):
        for r in A:
            r[i], r[j] = r[j], r[i]
        for r in V:
            r[i], r[j] = r[j], r[i]
        Vinv[i], Vinv[j] = Vinv[j], Vinv[i]

    def find_pivot(t):
        best = None
        for i in range(t, m):
            row = A[i]
            for j in range(t, n):
                v = row[j]
                if v:
                    a = abs(v)
                    if best is None or a < best[0]:
                        best = (a, i, j)
                        if a == 1:
                            return best
        return best

    t = 0
    while True:
        best = find_pivot(t)
        if best is None:
            break
        _, bi, bj = best
        if bi != t:
            row_swap(t, bi)
        if bj != t:
            col_swap(t, bj)
        while True:
            # clear below the pivot
            redo = False
            for i in range(t + 1, m):
                if A[i][t]:
                    q = A[i][t] // A[t][t]
                    row_add(i, t, -q)
                    if A[i][t]:
                        redo = True
            if redo:
                best = find_pivot(t)
                _, bi, bj = best
                if bi != t:
                    row_swap(t, bi)
                if bj != t:
                    col_swap(t, bj)
                continue
            # clear to the right of the pivot
            for j in range(t + 1, n):
                if A[t][j]:
                    q = A[t][j] // A[t][t]
                    col_add(j, t, -q)
                    if A[t][j]:
                        redo = True
            if not redo and all(A[i][t] == 0 for i in range(t + 1, m)):
                break
            best = find_pivot(t)
            _, bi, bj = best
            if bi != t:
                row_swap(t, bi)
            if bj != t:
                col_swap(t, bj)
        if A[t][t] < 0:
            row_negate(t)
        t += 1
        if t >= min(m, n):
            break

    # enforce the divisibility chain d_i | d_{i+1}
    r = 0
    while r < min(m, n) and A[r][r] != 0:
        r += 1
    changed = True
    while changed:
        changed = False
        for i in range(r - 1):
            a, b = A[i][i], A[i + 1][i + 1]
            if b % a != 0:
                changed = True
                col_add(i, i + 1, 1)  # puts b into position (i+1, i)
                # local 2x2 elimination via gcd
                while A[i + 1][i]:
                    if abs(A[i + 1][i]) <= abs(A[i][i]):
                        q = A[i][i] // A[i + 1][i]
                        row_add(i, i + 1, -q)
                        row_swap(i, i + 1)
                    else:
                        q = A[i + 1][i] // A[i][i]
                        row_add(i + 1, i, -q)
                # clear fill-in to the right
                if A[i][i + 1]:
                    q = A[i][i + 1] // A[i][i]
                    col_add(i + 1, i, -q)
                if A[i][i] < 0:
                    row_negate(i)
                if A[i + 1][i + 1] < 0:
                    row_negate(i + 1)
    return SNF(Matrix(ZZ, A, ncols=n), Matrix(ZZ, U), Matrix(ZZ, V),
               Matrix(ZZ, Uinv), Matrix(ZZ, Vinv))


def _z_kernel(M: Matrix) -> Matrix:
    snf = smith_normal_form(M)
    cols = [snf.V.column(j) for j in range(snf.rank, M.ncols)]
    return Matrix.from_columns(ZZ, cols, M.ncols)


def _z_image(M: Matrix) -> Matrix:
    snf = smith_normal_form(M)
    cols = []
    for i, d in enumerate(snf.diagonal):
        col = snf.Uinv.column(i)
        cols.append([d * x for x in col])
    return Matrix.from_columns(ZZ, cols, M.nrows)


def _z_solve(M: Matrix, B: Matrix):
    return _z_solve_with_snf(smith_normal_form(M), M.ncols, B)


# ---------------------------------------------------------------------------
# ring-dispatched public operations


def rank(M: Matrix) -> int:
    """Rank over the ring's field of fractions."""
    if M.ring.is_field:
        return _field_rank(M.ring, M.sparse_columns())
    return _field_rank(QQ, M.sparse_columns(QQ))


def kernel_basis(M: Matrix) -> Matrix:
    """Columns form a basis of ker(M); over Z this is the saturated lattice."""
    if M.ring.is_field:
        return Matrix.from_columns(M.ring, _field_kernel(M.ring, M.sparse_columns()),
                                   M.ncols)
    return _z_kernel(M)


def image_basis(M: Matrix) -> Matrix:
    """Columns form a basis of the column space (a lattice basis over Z)."""
    if M.ring.is_field:
        return Matrix.from_columns(M.ring, _field_image(M.ring, M.sparse_columns()),
                                   M.nrows)
    return _z_image(M)


def solve(M: Matrix, B: Matrix):
    """Solve M @ X == B exactly; None when there is no solution in the ring."""
    if M.ring != B.ring:
        raise RingMismatchError("matrices over different rings")
    if M.ring.is_field:
        sol = _field_solve(M.ring, M.sparse_columns(), B.sparse_columns())
        return None if sol is None else Matrix.from_columns(M.ring, sol, M.ncols)
    return _z_solve(M, B)


# ---------------------------------------------------------------------------
# finitely generated module presentations


class Presentation:
    """A presented (co)homology group in one degree.

    ``gens`` holds representative vectors (one column per generator) in a
    fixed ambient basis; ``orders`` holds 0 for a free generator and d >= 2
    for a Z_d one (torsion first, divisibility chain).  ``coordinates``
    rewrites any vector of the subquotient in terms of the generators,
    canonically (torsion coordinates reduced mod d).
    """

    __slots__ = ("ring", "ambient_dim", "gens", "orders", "_express")

    def __init__(self, ring, ambient_dim, gens, orders, express):
        self.ring = ring
        self.ambient_dim = ambient_dim
        self.gens = gens          # list of columns (lists of scalars)
        self.orders = tuple(orders)
        self._express = express

    @property
    def ngens(self) -> int:
        return len(self.orders)

    @property
    def free_rank(self) -> int:
        return sum(1 for d in self.orders if d == 0)

    @property
    def torsion(self) -> tuple:
        return tuple(d for d in self.orders if d)

    @property
    def is_trivial(self) -> bool:
        return self.ngens == 0

    def coordinates(self, vector):
        """Canonical coordinates of a representative vector.

        Raises ValueError when the vector is not in the cycle span.
        """
        coords = self._express(vector)
        if coords is None:
            raise ValueError("vector does not represent a class of this group")
        out = []
        for c, d in zip(coords, self.orders):
            if d and self.ring.kind == "Z":
                c %= d
            out.append(c)
        return tuple(out)

    def class_is_zero(self, vector) -> bool:
        z = self.ring.zero
        return all(c == z for c in self.coordinates(vector))

    def group_str(self) -> str:
        """Human form, e.g. ``Z^2 x Z_2`` or ``0``."""
        if self.ngens == 0:
            return "0"
        parts = []
        r = self.free_rank
        if r == 1:
            parts.append(str(self.ring))
        elif r > 1:
            parts.append(f"{self.ring}^{r}")
        parts.extend(f"Z_{d}" for d in self.torsion)
        return " x ".join(parts)

    def same_shape(self, other: "Presentation") -> bool:
        return (self.ring == other.ring and self.ambient_dim == other.ambient_dim
                and self.orders == other.orders and self.gens == other.gens)

    def __repr__(self):
        return f"Presentation({self.group_str()}, ambient={self.ambient_dim})"


def trivial_presentation(ring: Ring, ambient_dim: int = 0) -> Presentation:
    return Presentation(ring, ambient_dim, [], (), lambda v: ())


def quotient_presentation(cycles: Matrix, boundaries: Matrix) -> Presentation:
    """Presentation of span(cycles)/span(boundaries).

    ``cycles`` must have independent columns; every boundary column must lie
    in their span (else :class:`BoundaryNotInCyclesError`).
    """
    ring = cycles.ring
    if boundaries.ring != ring:
        raise PresentationMismatchError("cycles and boundaries over different rings")
    ambient = cycles.nrows
    if ring.is_field:
        if ring == GF2:
            cyc = gf2_columns_from_matrix(cycles)
            bnd = gf2_columns_from_matrix(boundaries)
            return _gf2_quotient(ambient, cyc, bnd)
        return _field_quotient(ring, ambient, cycles.sparse_columns(),
                               boundaries.sparse_columns())
    return _z_quotient(ambient, cycles, boundaries)


def _field_quotient(ring, ambient, cycle_cols, boundary_cols) -> Presentation:
    """span(cycles)/span(boundaries) over Z_p or Q, from sparse columns."""
    cycle_span = FieldSpan(ring, track=False)
    for col in cycle_cols:
        cycle_span.add(col)
    for col in boundary_cols:
        if not cycle_span.contains(col):
            raise BoundaryNotInCyclesError("a boundary lies outside the cycle space")
    span = FieldSpan(ring)
    for col in boundary_cols:
        span.add(col)
    gens = []
    slot = {}  # "added column index" in span -> generator number
    for col in cycle_cols:
        idx = span.n_added
        if span.add(col):
            slot[idx] = len(gens)
            gens.append(_dense_column(col, ambient, ring.zero))
    k = len(gens)

    def express(vector):
        coeffs = span.express(vector)
        if coeffs is None:
            return None
        out = [ring.zero] * k
        for idx, v in coeffs.items():
            s = slot.get(idx)
            if s is not None:
                out[s] = v
        return out

    return Presentation(ring, ambient, gens, (0,) * k, express)


def _gf2_quotient(ambient, cycle_cols, boundary_cols) -> Presentation:
    cycle_span = Gf2Span()
    for c in cycle_cols:
        cycle_span.add(c)
    for c in boundary_cols:
        if not cycle_span.contains(c):
            raise BoundaryNotInCyclesError("a boundary lies outside the cycle space")
    span = Gf2Span()
    for c in boundary_cols:
        span.add(c)
    gens_bits = []
    slot = {}  # "added column index" in span -> generator number
    for c in cycle_cols:
        idx = span.n_added
        if span.add(c):
            slot[idx] = len(gens_bits)
            gens_bits.append(c)
    k = len(gens_bits)

    def express(vector):
        if not isinstance(vector, int):
            vector = gf2_vector_from_list(vector)
        combo = span.express(vector)
        if combo is None:
            return None
        out = [0] * k
        while combo:
            idx = combo.bit_length() - 1
            combo ^= 1 << idx
            s = slot.get(idx)
            if s is not None:
                out[s] = 1
        return out

    gens = [gf2_list_from_vector(c, ambient) for c in gens_bits]
    return Presentation(GF2, ambient, gens, (0,) * k, express)


def _z_quotient(ambient, cycles: Matrix, boundaries: Matrix) -> Presentation:
    if rank(cycles) != cycles.ncols:
        raise ValueError("cycle columns must be independent")
    A = solve(cycles, boundaries)
    if A is None:
        raise BoundaryNotInCyclesError("a boundary lies outside the cycle lattice")
    snf_a = smith_normal_form(A)
    k = cycles.ncols
    new_gens = cycles * snf_a.Uinv
    orders_all = []
    for i in range(k):
        d = snf_a.S.rows[i][i] if i < min(snf_a.S.nrows, snf_a.S.ncols) else 0
        orders_all.append(d)
    kept = [i for i, d in enumerate(orders_all) if d != 1]
    gens = [new_gens.column(i) for i in kept]
    orders = [orders_all[i] for i in kept]
    snf_k = smith_normal_form(cycles)
    U_a = snf_a.U

    def express(vector):
        B = Matrix.from_columns(ZZ, [list(vector)], ambient)
        w = _z_solve_with_snf(snf_k, cycles.ncols, B)
        if w is None:
            return None
        wprime = U_a * w
        return [wprime.rows[i][0] for i in kept]

    return Presentation(ZZ, ambient, gens, orders, express)


def _z_solve_with_snf(snf: SNF, ncols, B: Matrix):
    Y = snf.U * B
    r = snf.rank
    sol_cols = []
    for j in range(B.ncols):
        y = Y.column(j)
        x = [0] * ncols
        for i in range(len(y)):
            if i < r:
                d = snf.S.rows[i][i]
                if y[i] % d != 0:
                    return None
                x[i] = y[i] // d
            elif y[i] != 0:
                return None
        sol_cols.append(x)
    return snf.V * Matrix.from_columns(ZZ, sol_cols, ncols)


# ---------------------------------------------------------------------------
# homomorphisms between presentations


class Hom:
    """Module homomorphism between two presentations, on chosen generators."""

    __slots__ = ("source", "target", "matrix")

    def __init__(self, source: Presentation, target: Presentation, matrix: Matrix,
                 check: bool = True):
        if matrix.shape != (target.ngens, source.ngens):
            raise ValueError(f"hom matrix must be {target.ngens}x{source.ngens}")
        self.source = source
        self.target = target
        self.matrix = _canonicalize_hom_matrix(target, matrix)
        if check:
            self._check_well_defined()

    def _check_well_defined(self):
        # column j scaled by the source relation must die in the target
        ring = self.matrix.ring
        if ring.kind != "Z":
            return
        for j, dj in enumerate(self.source.orders):
            if dj == 0:
                continue
            for i, di in enumerate(self.target.orders):
                e = dj * self.matrix.rows[i][j]
                if (e % di != 0) if di else (e != 0):
                    raise ValueError("matrix does not respect torsion relations")

    @classmethod
    def identity(cls, P: Presentation) -> "Hom":
        return cls(P, P, Matrix.identity(P.ring, P.ngens), check=False)

    @classmethod
    def zero(cls, source: Presentation, target: Presentation) -> "Hom":
        return cls(source, target, Matrix.zeros(source.ring, target.ngens, source.ngens),
                   check=False)

    def compose(self, other: "Hom") -> "Hom":
        """self o other."""
        if not other.target.same_shape(self.source):
            raise PresentationMismatchError("homs are not composable")
        return Hom(other.source, self.target, self.matrix * other.matrix, check=False)

    def is_zero(self) -> bool:
        return homs_equal(self, Hom.zero(self.source, self.target))

    def is_iso(self) -> bool:
        """Same invariants plus surjectivity; enough for f.g. abelian groups."""
        if self.source.orders != self.target.orders:
            s = sorted(self.source.orders)
            t = sorted(self.target.orders)
            if s != t:
                return False
        ring = self.matrix.ring
        k = self.target.ngens
        if ring.is_field:
            return rank(self.matrix) == k
        rel_cols = []
        for i, d in enumerate(self.target.orders):
            if d:
                col = [0] * k
                col[i] = d
                rel_cols.append(col)
        stacked = Matrix.from_columns(ZZ, self.matrix.columns() + rel_cols, k)
        snf = smith_normal_form(stacked)
        return snf.rank == k and all(d == 1 for d in snf.diagonal)

    def __repr__(self):
        return f"Hom({self.source.group_str()} -> {self.target.group_str()})"


def _canonicalize_hom_matrix(target: Presentation, matrix: Matrix) -> Matrix:
    if matrix.ring.kind != "Z":
        return matrix
    rows = matrix.copy_rows()
    for i, d in enumerate(target.orders):
        if d:
            rows[i] = [x % d for x in rows[i]]
    return Matrix(ZZ, rows, ncols=matrix.ncols)


def homs_equal(f: Hom, g: Hom) -> bool:
    """True iff f - g is the zero homomorphism (relation-aware over Z)."""
    if not (f.source.same_shape(g.source) and f.target.same_shape(g.target)):
        raise PresentationMismatchError("homs compare only on equal presentations")
    ring = f.matrix.ring
    for i in range(f.matrix.nrows):
        d = f.target.orders[i]
        for a, b in zip(f.matrix.rows[i], g.matrix.rows[i]):
            e = a - b if ring.kind != "GF" else (a - b) % ring.p
            if ring.kind == "Z" and d:
                if e % d != 0:
                    return False
            elif e != ring.zero:
                return False
    return True
