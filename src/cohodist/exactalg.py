"""Exact linear algebra over Z, Q and Z_p.

Everything here is computed with arbitrary-precision scalars: Python ints
for Z and Z_p, :class:`fractions.Fraction` for Q.  Integer matrices get a
Smith normal form with full unimodular transforms, which is what turns
kernel/image pairs into presentations of finitely generated abelian groups
(free rank, torsion coefficients, and lifts of the chosen generators back
to representative vectors).

The integer path is sparse from one end to the other.
:func:`smith_normal_form` eliminates on sparse rows and columns (unit
pivots first, which is all a boundary matrix usually needs), keeps its
transforms U, U^-1 and V sparse, and the Z kernels (kernel, image, solve,
quotient) apply them to sparse vectors.  A dense :class:`Matrix` over Z is
read through its sparse columns; :class:`IntColumns` hands columns in
directly.

Elimination over a field is sparse and runs through one span interface,
with one span class per backend.  :func:`field_span` picks the span:
:class:`Gf2Span` keeps vectors as bitsets stored from their lowest row
(:class:`Gf2Vector`, an offset and one Python int) because the cohomology
pipeline spends most of its time row-reducing over Z_2, and
:class:`FieldSpan` keeps them as dicts over Z_p and Q.  Both key a pivot
by its highest row, and every field kernel (rank, kernel, image, solve,
quotient) is written once on top of them, as is
:func:`field_presentations`, which presents every degree of a cochain
complex's cohomology from one reduction per matrix, with clearing and
lazy pivots, which every span can hold (:class:`_Span`): a column that
meets no pivot when it is added is kept as its signed rows, converted
each time a reduction reads it, and never stored converted.  The same
pass presents cohomology over Z on integer columns (:class:`_ZSpan`, a
:class:`FieldSpan` whose reduction divides by a pivot's top entry)
while every pivot is 1 or -1, which certifies that the groups are free;
the first other pivot raises :class:`_NonUnitPivot`, and the caller
falls back to the Smith normal form walk :func:`_z_presentations`.  The
same span decides membership in the lattice of a set of integer columns
(:func:`_z_lattice`) past any pivot: a column left with a remainder
takes Euclid's step, so no Smith normal form is needed there.  Both
passes take their columns through one intake loop
(:func:`_take_columns`).  Boundary-style columns come in as tuples of
signed rows (``r`` for +1 at row r, ``~r`` for -1); a span's ``signed``
converts them to the span's form, and :func:`signed_columns` reads them
with the span :func:`_span` picks.
:func:`field_span` is the only code that tells Z_2 apart from the other
rings, and :func:`_span` the only one that tells Z apart from the fields.

Scalars are plain Python numbers combined with Python's own operators; a
:class:`Ring` does not do arithmetic.  Whatever must be a scalar of the
ring (a matrix entry, a coordinate, a cochain value) is reduced once with
:meth:`Ring.normalize`, and everything stored is normalized: an int in
[0, p) over Z_p, a Fraction over Q.  Code then reads the ring from the
data rather than asking which ring it is: normalized entries are equal
exactly when their difference is zero, and only a presentation over Z has
nonzero torsion orders.
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


# Miller-Rabin with the primes up to 41 as bases is exact below this bound
# (Sorenson and Webster, "Strong pseudoprimes to twelve prime bases", 2017)
PRIME_LIMIT = 3317044064679887385961981
_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)


def _is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin; exact for ``n < PRIME_LIMIT``."""
    if n < 2:
        return False
    for a in _BASES:
        if n % a == 0:
            return n == a
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in _BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
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
            if p is not None and p >= PRIME_LIMIT:
                raise UnsupportedRingError(
                    f"prime moduli must be below {PRIME_LIMIT}, the bound of "
                    "the exact primality test")
            if p is None or not _is_prime(p):
                raise UnsupportedRingError(f"{p!r} is not prime")
        self.kind = kind
        self.p = p

    @property
    def is_field(self) -> bool:
        return self.kind != "Z"

    def normalize(self, x):
        """``x`` as a scalar of this ring; non-integers raise over Z and Z_p."""
        kind = self.kind
        if kind == "Z" and type(x) is int:
            return x
        if kind == "Q":
            return Fraction(x)
        if type(x) is not int:
            n = int(x)
            if n != x:
                raise ValueError(f"{x!r} is not an integer")
            x = n
        return x % self.p if kind == "GF" else x

    @property
    def zero(self):
        return Fraction(0) if self.kind == "Q" else 0

    @property
    def one(self):
        return Fraction(1) if self.kind == "Q" else 1

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
    # the modulus of zp:<p> or z<p>
    digits = code[3:] if code.startswith("zp:") else code[1:] if code.startswith("z") else ""
    if not digits.isdecimal():
        raise UnsupportedRingError(f"unknown ring code {code!r}")
    try:
        p = int(digits.lstrip("0") or "0")
    except ValueError:  # past int()'s digit limit, so far past PRIME_LIMIT
        p = PRIME_LIMIT
    return GF(p)


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

    def change_ring(self, ring: Ring) -> "Matrix":
        return Matrix(ring, self.rows, ncols=self.ncols)

    def copy_rows(self):
        return [list(r) for r in self.rows]

    # -- arithmetic

    def __mul__(self, other):
        if not isinstance(other, Matrix):
            return NotImplemented
        if self.ncols != other.nrows:
            raise ValueError(f"shape mismatch {self.shape} * {other.shape}")
        normalize = self.ring.normalize
        n = other.ncols
        # each row of other as its nonzero (column, entry) pairs
        orows = [[(j, b) for j, b in enumerate(orow) if b] for orow in other.rows]
        out = []
        for row in self.rows:
            acc = [0] * n
            for a, orow in zip(row, orows):
                if a:
                    for j, b in orow:
                        acc[j] += a * b
            out.append([normalize(x) for x in acc])
        return Matrix(self.ring, out, ncols=n)

    def __eq__(self, other):
        return (isinstance(other, Matrix) and self.ring == other.ring
                and self.shape == other.shape and self.rows == other.rows)

    def __repr__(self):
        return f"Matrix({self.ring!r}, {self.nrows}x{self.ncols})"

    def is_zero(self):
        return not any(map(any, self.rows))


# ---------------------------------------------------------------------------
# sparse elimination.  A span keeps vectors in its own form: a Gf2Vector
# over GF(2), a dict row -> nonzero scalar over Z_p, Q and Z (a plain int
# in [0, p) over Z_p, a Fraction over Q, an int over Z).  Columns go in in
# that form, as dicts, or as dense sequences; ``signed`` reads a column of
# signed rows.  Every span can hold lazy pivots (_Span): a column that
# meets no pivot when it is added stays a tuple of signed rows, converted
# each time a reduction meets its top row and never kept.


class Gf2Vector:
    """A vector over GF(2) stored from row ``lo``: bit i of the int ``bits``
    is its entry at row lo + i.

    ``lo`` is at most the lowest nonzero row, so the int is about as long
    as the rows the vector spans, not as its highest row.  A vector is not
    changed once made.
    """

    __slots__ = ("lo", "bits")

    def __init__(self, lo: int, bits: int):
        self.lo = lo
        self.bits = bits


def _gf2_rows(rows) -> Gf2Vector:
    """The vector with a one at each of the distinct ``rows``, given as
    rows or as signed rows (``r`` and ``~r`` both stand for row r)."""
    lo, bits = None, 0
    for r in rows:
        if r < 0:
            r = ~r
        if lo is None:
            lo = r
        elif r < lo:
            bits <<= lo - r
            lo = r
        bits |= 1 << r - lo
    return Gf2Vector(0 if lo is None else lo, bits)


_new = object.__new__  # how _Span.copy makes a span without __init__


class _Span:
    """What every span shares: the pivots made, keyed by their highest
    row, the number of columns added, and the lazy pivots.

    A column whose top row is no pivot's when it is added becomes a pivot
    as it is, with the unit combination at its slot, and most columns of
    a big complex never meet another pivot after that.
    :func:`_take_columns` keeps such a column in ``lazy`` instead, as its
    signed rows and its slot keyed by its top row, and it is never made.
    When a reduction meets that row, :meth:`_lazy_hit` hands it the pivot
    the column stands for (:meth:`_pivot`), converted for that read and
    not kept: a lazy column is read about once, by a column added later or
    by a coordinates call.  So the pivots, kernel vectors and coordinates
    are the ones the span gives when each column is converted and absorbed
    as it comes, and a span that takes no lazy column is a plain one.

    The combination a lazy pivot carries is the unit at its slot while
    ``combos`` is True, and the zero one after ``_drop_combinations``,
    which rebuilds the pivots made.  ``rank`` counts the pivots made.
    """

    __slots__ = ("pivots", "n_added", "lazy", "combos")
    _shared = ()  # the slots a copy shares with its span: what the ring fixes

    def __init__(self):
        self.pivots = {}  # pivot row -> the pivot, in the form _pivot makes
        self.n_added = 0
        self.lazy = {}  # top row -> (signed rows, slot)
        self.combos = True

    def copy(self):
        """A span of the same class with the same pivots, made and lazy,
        that grows on its own.  Stored pivots are never changed and lazy
        entries are tuples, so copying the two dicts suffices.  No
        ``__init__`` runs, which keeps a copy cheap:
        ``PairingState.extended`` copies a span at every piece
        evaluation."""
        twin = _new(type(self))
        twin.pivots = self.pivots.copy()
        twin.lazy = self.lazy.copy()
        twin.n_added = self.n_added
        twin.combos = self.combos
        for name in self._shared:
            setattr(twin, name, getattr(self, name))
        return twin

    def unpivoted(self, n: int) -> list:
        """The rows below ``n`` that are no pivot's, lazy or made."""
        pivots, lazy = self.pivots, self.lazy
        return [j for j in range(n) if j not in pivots and j not in lazy]

    def _lazy_hit(self, top):
        """The pivot of the lazy column at row ``top``, converted for one
        read and left lazy; the reduction loop asks for it when ``top`` is
        a lazy pivot's row and no made pivot's."""
        rows, slot = self.lazy[top]
        return self._pivot(self.signed(rows), top, slot if self.combos else None)

    @property
    def rank(self):
        return len(self.pivots)


class Gf2Span(_Span):
    """Incremental column span over GF(2) with expression tracking.

    The interface is :class:`FieldSpan`'s, with :class:`Gf2Vector` for
    vectors: combinations over the added columns are vectors of the same
    form, and they are always kept.  A column and its combination are
    reduced as plain (lo, bits) pairs, whose ``lo`` drops to a pivot's when
    the pivot starts lower and is never raised again.  A pivot is kept as
    the tuple ``(lo, bits, clo, cbits)`` of both: the garbage collector
    stops tracking a tuple of ints, and a pinned table can hold a pivot per
    simplex.
    """

    __slots__ = ()

    @staticmethod
    def vector(col) -> Gf2Vector:
        """``col`` as a :class:`Gf2Vector`; one is taken as it is."""
        if type(col) is Gf2Vector:
            return col
        items = col.items() if isinstance(col, dict) else enumerate(col)
        return _gf2_rows([i for i, x in items if x % 2])

    signed = staticmethod(_gf2_rows)

    @staticmethod
    def dense(vec: Gf2Vector, n: int) -> list:
        out = [0] * n
        for i, c in enumerate(reversed(bin(vec.bits)), vec.lo):
            if c == "1":
                out[i] = 1
        return out

    @staticmethod
    def coefficient(vec: Gf2Vector, i: int) -> int:
        i -= vec.lo
        return vec.bits >> i & 1 if i >= 0 else 0

    @staticmethod
    def support(vec: Gf2Vector) -> int:
        """The rows where ``vec`` is nonzero, as a bitset (bit r is row r)."""
        return vec.bits << vec.lo

    def _reduce(self, lo: int, bits: int, clo: int, cbits: int):
        """Reduce the vector (lo, bits) until its highest row is no pivot's,
        and its combination (clo, cbits) alongside; returns both."""
        pivots, lazy = self.pivots, self.lazy
        while bits:
            top = lo + bits.bit_length() - 1
            hit = pivots.get(top)
            if hit is None:
                if top not in lazy:
                    break
                hit = self._lazy_hit(top)
            vlo, vbits, wlo, wbits = hit
            if vlo >= lo:
                bits ^= vbits << (vlo - lo)
            else:
                bits = bits << (lo - vlo) ^ vbits
                lo = vlo
            if not wbits:
                continue
            if not cbits:
                clo, cbits = wlo, wbits
            elif wlo >= clo:
                cbits ^= wbits << (wlo - clo)
            else:
                cbits = cbits << (clo - wlo) ^ wbits
                clo = wlo
        return lo, bits, clo, cbits

    def _absorb(self, col, combo=None):
        """Add a column.  Returns (enlarged, combo), where combo is the
        reduced column's combination over the added columns: a kernel
        vector when the span did not grow.  ``combo`` replaces the
        column's own combination, the unit vector at its index; any linear
        image of the combinations can be carried this way."""
        if combo is None:
            clo, cbits = self.n_added, 1
        else:
            clo, cbits = combo.lo, combo.bits
        self.n_added += 1
        if type(col) is not Gf2Vector:
            col = self.vector(col)
        lo, bits, clo, cbits = self._reduce(col.lo, col.bits, clo, cbits)
        if not bits:
            return False, Gf2Vector(clo, cbits)
        self.pivots[lo + bits.bit_length() - 1] = (lo, bits, clo, cbits)
        return True, None

    @staticmethod
    def _pivot(vec: Gf2Vector, top, slot) -> tuple:
        """The pivot made of ``vec`` as it is, with the unit combination at
        ``slot``, or the zero one when ``slot`` is None.  ``top``, its
        highest row, is not read here."""
        if slot is None:
            return vec.lo, vec.bits, 0, 0
        return vec.lo, vec.bits, slot, 1

    def _pin(self, vec: Gf2Vector, slot):
        """Make ``vec`` a pivot (:meth:`_pivot`).  Its highest row must be
        no pivot's."""
        self.pivots[vec.lo + vec.bits.bit_length() - 1] = self._pivot(vec, None, slot)

    def _drop_combinations(self):
        """Give every pivot, made or lazy, the zero combination, as a table
        of image pivots for :func:`_pinned_presentation` has."""
        self.pivots = {top: (lo, bits, 0, 0)
                       for top, (lo, bits, _, _) in self.pivots.items()}
        self.combos = False

    def add(self, col) -> bool:
        """Add a column; returns True when it enlarged the span."""
        return self._absorb(col)[0]

    def contains(self, col) -> bool:
        col = self.vector(col)
        return not self._reduce(col.lo, col.bits, 0, 0)[1]

    def express(self, col):
        """Coefficients over the added columns as a :class:`Gf2Vector`, or
        None if outside."""
        col = self.vector(col)
        _, bits, clo, cbits = self._reduce(col.lo, col.bits, 0, 0)
        return None if bits else Gf2Vector(clo, cbits)


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


class FieldSpan(_Span):
    """Incremental column span over Z_p or Q with expression tracking.

    As in :class:`Gf2Span`, a pivot is keyed by its highest row and a
    column is reduced only until its highest row is no pivot's.  Pivots
    are stored monic together with their combination over the added
    columns.  A pivot's dicts are never changed once stored:
    :meth:`_reduce` changes only the column and combination it is given,
    and every caller hands it copies or fresh dicts.  So a monic vector
    is stored as it is, and :meth:`copy` shares the pivots.
    """

    __slots__ = _shared = ("ring", "p", "units")

    def __init__(self, ring: Ring):
        if not ring.is_field:
            raise UnsupportedRingError(f"{ring} is not a field")
        super().__init__()
        self.ring = ring
        self.p = ring.p
        self.units = ring.one, ring.normalize(-1)  # ``signed``'s r and ~r

    def vector(self, col) -> dict:
        """``col`` as a sparse dict; a dict is taken to be one already."""
        if isinstance(col, dict):
            return col
        normalize = self.ring.normalize
        out = {}
        for i, x in enumerate(col):
            x = normalize(x)
            if x:
                out[i] = x
        return out

    def signed(self, rows) -> dict:
        """A column of signed rows (``r`` for +1 at row r, ``~r`` for -1)."""
        one, minus = self.units
        vec = {}
        for r in rows:
            if r >= 0:
                vec[r] = one
            else:
                vec[~r] = minus
        return vec

    def dense(self, vec: dict, n: int) -> list:
        out = [self.ring.zero] * n
        for i, x in vec.items():
            out[i] = x
        return out

    def coefficient(self, vec: dict, i: int):
        return vec.get(i, self.ring.zero)

    @staticmethod
    def support(vec: dict) -> int:
        """The rows where ``vec`` is nonzero, as a bitset."""
        return sum(1 << i for i in vec)

    def _reduce(self, col: dict, combo):
        """Reduce ``col`` (mutated) and, unless None, its ``combo`` alongside."""
        pivots, lazy, p = self.pivots, self.lazy, self.p
        while col:
            top = max(col)
            hit = pivots.get(top)
            if hit is None:
                if top not in lazy:
                    break
                hit = self._lazy_hit(top)
            c = -col[top]
            _axpy(col, c, hit[0], p)
            if combo is not None:
                _axpy(combo, c, hit[1], p)
        return col, combo

    def _inverse(self, a):
        """The inverse of the top entry ``a`` of a new pivot."""
        return self.ring.inv(a)

    def _scaled(self, vec: dict, a) -> dict:
        p = self.p
        if p is None:
            return {i: a * x for i, x in vec.items()}
        return {i: a * x % p for i, x in vec.items()}

    def _absorb(self, col, combo=None):
        """Add a column.  Returns (enlarged, combo), where combo is the
        reduced column's combination over the added columns: a kernel
        vector when the span did not grow.
        ``combo`` (a dict, not changed) replaces the column's own
        combination, the unit at its index, as in :class:`Gf2Span`."""
        idx = self.n_added
        self.n_added += 1
        combo = {idx: self.ring.one} if combo is None else dict(combo)
        col, combo = self._reduce(dict(self.vector(col)), combo)
        if not col:
            return False, combo
        top = max(col)
        inv = self._inverse(col[top])
        if inv != 1:  # col and combo are this call's own copies
            col, combo = self._scaled(col, inv), self._scaled(combo, inv)
        self.pivots[top] = (col, combo)
        return True, None

    def _pivot(self, vec: dict, top: int, slot) -> tuple:
        """The pivot made of ``vec``, whose highest row is ``top``: ``vec``
        scaled to 1 at ``top``, with the unit combination at ``slot``
        scaled alike, or the zero one when ``slot`` is None.  This is the
        pivot :meth:`_absorb` makes of a column that meets no pivot; it
        holds ``vec`` itself when that is monic already."""
        inv = self._inverse(vec[top])
        return (vec if inv == 1 else self._scaled(vec, inv),
                {} if slot is None else {slot: inv})

    def _pin(self, vec: dict, slot):
        """Make ``vec`` a pivot (:meth:`_pivot`).  Its highest row must be
        no pivot's."""
        top = max(vec)
        self.pivots[top] = self._pivot(vec, top, slot)

    def _drop_combinations(self):
        """Give every pivot, made or lazy, the zero combination, as a table
        of image pivots for :func:`_pinned_presentation` has."""
        self.pivots = {top: (vec, {}) for top, (vec, _) in self.pivots.items()}
        self.combos = False

    def add(self, col) -> bool:
        """Add a column; returns True when it enlarged the span."""
        return self._absorb(col)[0]

    def express(self, col):
        """Coefficients over the added columns (dict index -> scalar), or None."""
        col, combo = self._reduce(dict(self.vector(col)), {})
        if col:
            return None
        normalize = self.ring.normalize
        return {k: normalize(-v) for k, v in combo.items()}

    def contains(self, col) -> bool:
        return not self._reduce(dict(self.vector(col)), None)[0]


def field_span(ring: Ring):
    """An empty span over the field ``ring``: :class:`Gf2Vector` vectors
    over GF(2), dicts otherwise."""
    if ring == GF2:
        return Gf2Span()
    return FieldSpan(ring)


class _NonUnitPivot(Exception):
    """A column over Z reduced to a top entry other than 1 or -1."""


class _ZSpan(FieldSpan):
    """The span over Z: a :class:`FieldSpan` on dicts of ints whose
    reduction is a division step.

    At a pivot's row ``top`` a reduction takes
    ``q, r = divmod(col[top], pivot[top])``.  With ``r == 0`` it subtracts
    q times the pivot, so every column and combination stays integral;
    otherwise it stops there.  A lazy pivot is a raw signed column, whose
    top entry is 1 or -1, so dividing by it is always exact.

    A presentation (:func:`field_presentations`) needs every pivot to be
    a unit: :meth:`_absorb` stores a pivot monic, scaled by its top
    entry's inverse, 1 or -1, and a column that reduces to another top
    entry raises :class:`_NonUnitPivot`, since the image may then not be
    saturated.  A lattice (:func:`_z_lattice`) takes pivots with any top
    entry: :meth:`_insert` keeps a reduced column as it is, and where a
    division left a remainder it takes Euclid's step
    (:meth:`_euclid_step`).
    """

    __slots__ = ()

    def __init__(self):
        _Span.__init__(self)  # FieldSpan refuses Z, which only _inverse handles
        self.ring, self.p, self.units = ZZ, None, (1, -1)

    @staticmethod
    def _inverse(a):
        if a == 1 or a == -1:
            return a
        raise _NonUnitPivot(a)

    def _reduce(self, col: dict, combo):
        """Reduce ``col`` (mutated) and, unless None, its ``combo``
        alongside, by division steps, until its top row is no pivot's or
        a division there leaves the nonzero remainder on top."""
        pivots, lazy = self.pivots, self.lazy
        while col:
            top = max(col)
            hit = pivots.get(top)
            if hit is None:
                if top not in lazy:
                    break
                hit = self._lazy_hit(top)
            pivot = hit[0]
            q, r = divmod(col[top], pivot[top])
            _axpy(col, -q, pivot, None)
            if combo is not None:
                _axpy(combo, -q, hit[1], None)
            if r:
                break
        return col, combo

    def _insert(self, col: dict):
        """Grow the lattice by ``col`` (mutated), with no combination.  A
        column that stops at a row no pivot has becomes that row's pivot
        as it is.  One that stops at a made pivot's row has the nonzero
        remainder of a division on top, and takes Euclid's step there.
        Each step leaves a smaller top entry at its row, so this ends."""
        pivots = self.pivots
        while col := self._reduce(col, None)[0]:
            top = max(col)
            if top not in pivots:
                pivots[top] = col, {}
                return
            col = self._euclid_step(col, top)

    def _euclid_step(self, col: dict, top: int) -> dict:
        """Make ``col``, whose top entry is the remainder of a division by
        the pivot at row ``top``, the pivot there, and return a copy of the
        old pivot to be reduced in its turn: on the two top entries, a step
        of Euclid's algorithm.  The old pivot's dict is not changed."""
        held = self.pivots[top][0]
        self.pivots[top] = col, {}
        return dict(held)


def _span(ring: Ring):
    """An empty span over ``ring``: :func:`field_span` over a field, and
    over Z the unit-pivot span :class:`_ZSpan`."""
    return _ZSpan() if ring == ZZ else field_span(ring)


def _take_columns(span, cols, indices, gens=None) -> None:
    """Reduce the columns ``cols[j]`` (signed rows) for j in ``indices``
    into ``span``, in that order.

    A column whose top row is no pivot's, made or lazy, stays a lazy pivot
    (:class:`_Span`) with its slot j.  With a list ``gens``, each
    other column is reduced with its combination over all the columns, and
    the combinations of those that reduce to zero are appended to
    ``gens``.  Without one ``span`` is a lattice (:func:`_z_lattice`),
    and each other column is inserted with no combination
    (:meth:`_ZSpan._insert`).
    """
    pivots, lazy = span.pivots, span.lazy
    for j in indices:
        rows = cols[j]
        if rows:
            top = max(max(rows), ~min(rows))  # ~min: the top of the rows ~r
            if top not in pivots and top not in lazy:
                lazy[top] = (rows, j)  # read as a pivot, never made
                continue
        if gens is None:
            span._insert(span.signed(rows))
            continue
        span.n_added = j  # combinations run over all the columns
        grew, combo = span._absorb(span.signed(rows))
        if not grew:
            gens.append(combo)


def _z_lattice(cols) -> _ZSpan:
    """The lattice B the integer columns ``cols`` (signed rows) span, as a
    :class:`_ZSpan` with lazy pivots whose ``contains`` decides
    membership.

    Each column is taken once, with no combination (:func:`_take_columns`):
    it is reduced by division steps and becomes a pivot where it stops,
    whatever its top entry; where it stops at a made pivot's row, with
    the remainder of a division on top, it takes that row and the old
    pivot is reduced in its place (Euclid's step, :meth:`_ZSpan._insert`).
    This is incremental Hermite-style insertion (Cohen, "A Course in
    Computational Algebraic Number Theory", 1993, section 2.4).  Why
    ``contains`` is exact:

    - Every step is unimodular: a division subtracts an integer multiple
      of a pivot, and a Euclid step swaps the remainder in for the pivot
      it came from, which is then reduced.  So the pivots, made and lazy,
      generate B, and having distinct top rows they are an echelon
      Z-basis of it.
    - So a nonzero vector of B is an integer combination of the pivots,
      and its top row t is that of the highest pivot in the combination,
      as no other pivot reaches row t.  With k that pivot's coefficient
      and b_t its top entry, the vector's entry at t is b_t * k.  The
      division step there is exact, with q = k, and leaves a vector of B
      with a lower top row.  So every v in B reduces to 0.
    - If v reduces to 0, it is an integer combination of the pivots, so
      it is in B.  If v stops at w != 0, w is in v + B, and its top row is
      no pivot's or its top entry is not divisible by the pivot's: no
      vector of B is like that, so v is not in B.

    Nothing here needs the quotient of the columns' space by B to be
    torsion-free.

    >>> lattice = _z_lattice([(~0, 1), (~1, 2)])   # e1 - e0, e2 - e1
    >>> lattice.contains({0: -1, 2: 1}), lattice.contains({2: 1})
    (True, False)
    >>> lattice = _z_lattice([(0, 2), (~0, 2)])   # e0 + e2 reduces e2 - e0 to -2 e0
    >>> lattice.contains({0: 2}), lattice.contains({0: 1}), lattice.contains({2: 1})
    (True, False, False)
    """
    span = _ZSpan()
    span.combos = False
    _take_columns(span, cols, range(len(cols)))
    return span


def signed_columns(ring: Ring, cols) -> list:
    """Columns of signed rows, such as boundary columns (``r`` for +1 at row
    r, ``~r`` for -1), in the form the span :func:`_span` gives for
    ``ring`` keeps, read by its ``signed``: over Z_2 a :class:`Gf2Vector`
    stored from its lowest row, built straight from the signed rows."""
    return list(map(_span(ring).signed, cols))


def _field_rank(ring: Ring, cols) -> int:
    span = field_span(ring)
    return sum(1 for col in cols if span.add(col))


def _field_kernel(ring: Ring, cols) -> list:
    """Kernel basis of the matrix with the given columns, as vectors over the
    column indices in :func:`field_span`'s form: one per column dependent on
    earlier ones."""
    span = field_span(ring)
    kernel = []
    for col in cols:
        grew, combo = span._absorb(col)
        if not grew:
            kernel.append(combo)
    return kernel


def _field_solve(ring: Ring, cols, targets):
    """x with sum x_k cols[k] == t for each target t, in :func:`field_span`'s
    form, or None."""
    span = field_span(ring)
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
    span = field_span(ring)
    return [col for col in cols if span.add(col)]


def _field_matrix(ring: Ring, vectors, nrows: int) -> Matrix:
    """The matrix whose columns are ``vectors``, given in :func:`field_span`'s form."""
    read = field_span(ring)
    return Matrix.from_columns(ring, [read.dense(v, nrows) for v in vectors], nrows)


# ---------------------------------------------------------------------------
# Smith normal form over Z, with transforms.  The working matrix is kept as
# sparse rows plus a column -> rows index, U as sparse rows, Uinv and V as
# sparse columns: each row operation then touches rows of A and U and
# columns of Uinv, each column operation columns of A and V, and costs the
# nonzeros it touches.  Vectors are dicts index -> nonzero int.


class IntColumns:
    """An integer matrix given by its sparse columns (dicts row -> nonzero int).

    This is the form the Z kernels hand to :func:`smith_normal_form`, which
    reads a :class:`Matrix` over Z through the same ``sparse_columns``.
    """

    __slots__ = ("ring", "nrows", "ncols", "cols")

    def __init__(self, cols, nrows: int):
        self.ring = ZZ
        self.nrows = nrows
        self.ncols = len(cols)
        self.cols = cols

    def sparse_columns(self):
        return self.cols


def _combine(vectors, coeffs: dict) -> dict:
    """sum_k coeffs[k] * vectors[k], as a sparse integer vector."""
    out = {}
    for k, c in coeffs.items():
        _axpy(out, c, vectors[k], None)
    return out


def _transpose_sparse(vectors, n: int) -> list:
    out = [{} for _ in range(n)]
    for j, vec in enumerate(vectors):
        for i, x in vec.items():
            out[i][j] = x
    return out


def _int_vector(vec) -> dict:
    """A dense integer sequence as a sparse vector."""
    normalize = ZZ.normalize
    out = {}
    for i, x in enumerate(vec):
        x = normalize(x)
        if x:
            out[i] = x
    return out


class SNF:
    """U * M * V == S with U, V unimodular; Uinv the exact inverse of U.

    The three transforms are kept sparse: ``u_rows`` by rows, ``uinv_cols``
    and ``v_cols`` by columns, each a list of dicts.  The dense
    :class:`Matrix` forms ``S``, ``U``, ``V`` and ``Uinv`` are built each
    time they are read.
    """

    __slots__ = ("nrows", "ncols", "diagonal", "rank", "u_rows", "uinv_cols",
                 "v_cols", "_u_cols")

    def __init__(self, nrows, ncols, diagonal, u_rows, uinv_cols, v_cols):
        self.nrows = nrows
        self.ncols = ncols
        self.diagonal = diagonal
        self.rank = len(diagonal)
        self.u_rows = u_rows
        self.uinv_cols = uinv_cols
        self.v_cols = v_cols
        self._u_cols = None

    def apply_u(self, vec: dict) -> dict:
        """U * vec for a sparse vector over the rows of M."""
        if self._u_cols is None:
            self._u_cols = _transpose_sparse(self.u_rows, self.nrows)
        return _combine(self._u_cols, vec)

    @property
    def S(self) -> Matrix:
        S = Matrix.zeros(ZZ, self.nrows, self.ncols)
        for i, d in enumerate(self.diagonal):
            S.rows[i][i] = d
        return S

    @property
    def U(self) -> Matrix:
        return Matrix.from_columns(ZZ, _transpose_sparse(self.u_rows, self.nrows),
                                   self.nrows)

    @property
    def Uinv(self) -> Matrix:
        return Matrix.from_columns(ZZ, self.uinv_cols, self.nrows)

    @property
    def V(self) -> Matrix:
        return Matrix.from_columns(ZZ, self.v_cols, self.ncols)


def smith_normal_form(M) -> SNF:
    """Smith normal form of an integer matrix.

    ``M`` is a :class:`Matrix` over Z or an :class:`IntColumns`.  The pivot
    is the smallest nonzero entry of the working block, the first in
    row-major order, and a unit is taken at once.  Boundary matrices have
    entries +-1, so their elimination runs on unit pivots; a non-unit
    leftover goes through the same sparse operations.

    >>> snf = smith_normal_form(Matrix(ZZ, [[2, 0], [0, 3]]))
    >>> snf.diagonal
    [1, 6]
    """
    if M.ring != ZZ:
        raise UnsupportedRingError("smith_normal_form needs integer entries")
    m, n = M.nrows, M.ncols
    A = [{} for _ in range(m)]          # working matrix, by rows
    where = [set() for _ in range(n)]   # column -> rows with a nonzero there
    for j, col in enumerate(M.sparse_columns()):
        for i, x in col.items():
            A[i][j] = x
        where[j].update(col)
    U = [{i: 1} for i in range(m)]      # rows
    Uinv = [{i: 1} for i in range(m)]   # columns
    V = [{j: 1} for j in range(n)]      # columns

    def row_add(i, j, c):  # row_i += c * row_j
        if not c:
            return
        row = A[i]
        for k, x in A[j].items():
            v = row.get(k, 0) + c * x
            if v:
                if k not in row:
                    where[k].add(i)
                row[k] = v
            else:
                del row[k]
                where[k].discard(i)
        _axpy(U[i], c, U[j], None)
        _axpy(Uinv[j], -c, Uinv[i], None)

    def row_swap(i, j):
        for k in A[i]:
            where[k].discard(i)
        for k in A[j]:
            where[k].discard(j)
        A[i], A[j] = A[j], A[i]
        for k in A[i]:
            where[k].add(i)
        for k in A[j]:
            where[k].add(j)
        U[i], U[j] = U[j], U[i]
        Uinv[i], Uinv[j] = Uinv[j], Uinv[i]

    def row_negate(i):
        for vec in (A[i], U[i], Uinv[i]):
            for k in vec:
                vec[k] = -vec[k]

    def col_add(i, j, c):  # col_i += c * col_j
        if not c:
            return
        for r in where[j]:
            row = A[r]
            v = row.get(i, 0) + c * row[j]
            if v:
                if i not in row:
                    where[i].add(r)
                row[i] = v
            else:
                del row[i]
                where[i].discard(r)
        _axpy(V[i], c, V[j], None)

    def col_swap(i, j):
        for r in where[i] | where[j]:
            row = A[r]
            a, b = row.pop(i, 0), row.pop(j, 0)
            if a:
                row[j] = a
            if b:
                row[i] = b
        where[i], where[j] = where[j], where[i]
        V[i], V[j] = V[j], V[i]

    def find_pivot(t):
        # rows t.. hold nonzeros only in columns t.. (rows above are done)
        best = None
        for i in range(t, m):
            row = A[i]
            if row:
                a, j = min((abs(v), k) for k, v in row.items())
                if best is None or a < best[0]:
                    best = (a, i, j)
                    if a == 1:
                        return best
        return best

    def move_pivot(t, best):
        _, bi, bj = best
        if bi != t:
            row_swap(t, bi)
        if bj != t:
            col_swap(t, bj)

    size = min(m, n)
    t = 0
    while t < size:
        best = find_pivot(t)
        if best is None:
            break
        move_pivot(t, best)
        while True:
            pivot = A[t][t]
            # clear below the pivot
            redo = False
            for i in [i for i in where[t] if i != t]:
                row_add(i, t, -(A[i][t] // pivot))
                if t in A[i]:
                    redo = True
            if redo:
                move_pivot(t, find_pivot(t))
                continue
            # clear to the right of the pivot
            row = A[t]
            for j in [j for j in row if j != t]:
                col_add(j, t, -(row[j] // pivot))
                if j in row:
                    redo = True
            if not redo and len(where[t]) == 1:
                break
            move_pivot(t, find_pivot(t))
        if A[t][t] < 0:
            row_negate(t)
        t += 1

    # enforce the divisibility chain d_i | d_{i+1}
    r = 0
    while r < size and A[r].get(r, 0):
        r += 1
    changed = True
    while changed:
        changed = False
        for i in range(r - 1):
            a, b = A[i].get(i, 0), A[i + 1].get(i + 1, 0)
            if b % a != 0:
                changed = True
                col_add(i, i + 1, 1)  # puts b into position (i+1, i)
                # local 2x2 elimination via gcd
                while A[i + 1].get(i, 0):
                    if abs(A[i + 1][i]) <= abs(A[i].get(i, 0)):
                        row_add(i, i + 1, -(A[i].get(i, 0) // A[i + 1][i]))
                        row_swap(i, i + 1)
                    else:
                        row_add(i + 1, i, -(A[i + 1][i] // A[i][i]))
                # clear fill-in to the right
                if A[i].get(i + 1, 0):
                    col_add(i + 1, i, -(A[i][i + 1] // A[i][i]))
                if A[i].get(i, 0) < 0:
                    row_negate(i)
                if A[i + 1].get(i + 1, 0) < 0:
                    row_negate(i + 1)
    diagonal = [d for d in (A[i].get(i, 0) for i in range(size)) if d != 0]
    return SNF(m, n, diagonal, U, Uinv, V)


def _z_kernel(M) -> list:
    """Lattice basis of ker(M) as sparse vectors: V's last columns."""
    snf = smith_normal_form(M)
    return snf.v_cols[snf.rank:]


def _z_image(M) -> list:
    """Lattice basis of M's column space as sparse vectors: d_i * Uinv's columns."""
    snf = smith_normal_form(M)
    return [{i: d * x for i, x in snf.uinv_cols[k].items()}
            for k, d in enumerate(snf.diagonal)]


def _z_solve(M, targets):
    return _z_solve_with_snf(smith_normal_form(M), targets)


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
        return _field_matrix(M.ring, _field_kernel(M.ring, M.sparse_columns()), M.ncols)
    return Matrix.from_columns(ZZ, _z_kernel(M), M.ncols)


def image_basis(M: Matrix) -> Matrix:
    """Columns form a basis of the column space (a lattice basis over Z)."""
    if M.ring.is_field:
        return Matrix.from_columns(M.ring, _field_image(M.ring, M.sparse_columns()),
                                   M.nrows)
    return Matrix.from_columns(ZZ, _z_image(M), M.nrows)


def solve(M: Matrix, B: Matrix):
    """Solve M @ X == B exactly; None when there is no solution in the ring."""
    if M.ring != B.ring:
        raise RingMismatchError("matrices over different rings")
    if M.ring.is_field:
        sol = _field_solve(M.ring, M.sparse_columns(), B.sparse_columns())
        return None if sol is None else _field_matrix(M.ring, sol, M.ncols)
    sol = _z_solve(M, B.sparse_columns())
    return None if sol is None else Matrix.from_columns(ZZ, sol, M.ncols)


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
        return tuple(c % d if d else c for c, d in zip(coords, self.orders))

    def class_is_zero(self, vector) -> bool:
        return not any(self.coordinates(vector))

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
        return _field_quotient(ring, ambient, cycles.sparse_columns(),
                               boundaries.sparse_columns())
    return _z_quotient(ambient, cycles.sparse_columns(), boundaries.sparse_columns())


def _field_quotient(ring, ambient, cycle_cols, boundary_cols) -> Presentation:
    """span(cycles)/span(boundaries) over a field, from columns in any form
    :func:`field_span` takes."""
    cycle_span = field_span(ring)
    for col in cycle_cols:
        cycle_span.add(col)
    for col in boundary_cols:
        if not cycle_span.contains(col):
            raise BoundaryNotInCyclesError("a boundary lies outside the cycle space")
    span = field_span(ring)
    for col in boundary_cols:
        span.add(col)
    gens = []
    slots = []  # per generator, its "added column index" in span
    for col in cycle_cols:
        idx = span.n_added
        if span.add(col):
            slots.append(idx)
            gens.append(span.dense(span.vector(col), ambient))

    def express(vector):
        coeffs = span.express(vector)
        if coeffs is None:
            return None
        return [span.coefficient(coeffs, idx) for idx in slots]

    return Presentation(ring, ambient, gens, (0,) * len(gens), express)


# the mod-2 builder is the shared one; bench/tracer.py still wraps this name
_gf2_quotient = _field_quotient


def field_presentations(ring: Ring, steps) -> list:
    """Cohomology of a cochain complex over a field, or over Z while every
    pivot is a unit, one presentation per group.

    ``steps`` yields ``(n, cols)`` for C^0, C^1, ... in turn: n is the
    dimension of C^k and ``cols`` the n columns of d^k : C^k -> C^{k+1} as
    sequences of signed rows, ``r`` for +1 and ``~r`` for -1 (empty columns
    after the last group).
    Homology is the same computation with the chain groups taken from the
    top degree down.

    Each d^k is reduced once, with clearing (Chen-Kerber, "Persistent
    homology computation with a twist", 2011): column j of d^k is skipped
    when row j is a pivot of the reduction of d^{k-1}, because the reduced
    column of d^{k-1} with top row j is a cocycle, which puts column j in
    the span of the columns before it.  The combinations of the remaining
    columns that reduce to zero are the generators: each has its own
    column as its top row, which is no pivot of the image, so they are
    independent modulo the image and as many as the Betti number.
    ``coordinates`` reduces by one table: the image pivots with a zero
    combination and one pivot per generator with a unit combination.

    Pivots are lazy (:class:`_Span`): a kept column that meets no
    pivot when it is added stays a tuple of signed rows, with its slot.
    It is converted to the span's form each time a later column or a
    ``coordinates`` call reduces through it, and the converted copy is
    dropped after that one read: such a column is read about once, so
    keeping the copy would only hold memory.  On a subdivision almost
    every kept column is such a column.  The pivots, generators and
    coordinates are those of converting every column as it comes.

    Clearing is sound only when d^k o d^{k-1} == 0; every
    :class:`homology.ChainComplexData` satisfies it.

    Over Z (``ring`` is ``ZZ``) :func:`_span` gives :class:`_ZSpan`s: every
    pivot is monic, scaled by its top entry, 1 or -1, and the first
    column that reduces to another top entry raises
    :class:`_NonUnitPivot`.  Without one the walk presents the groups
    over Z, all free:

    - The column operations are unitriangular over Z: a column's
      combination is its own unit plus integer multiples of earlier
      columns' combinations.  With clearing, take for a cleared column j
      the cleared image pivot instead, a cocycle whose top row is j with
      entry 1 or -1.  These combinations are then a unimodular basis of
      C^k, and the reduced columns that stay nonzero have distinct top
      rows, so they are independent.  An integer cocycle is therefore an
      integer combination of the generators and the cleared image pivots
      alone: together they are a lattice basis of the cocycles.
    - Clearing stays valid over Z: a cleared column j equals minus the
      sum, with integer coefficients, of the columns of the image pivot's
      lower rows, all before it.
    - The image pivots span the image of d^{k-1} over Z (they are its
      columns after unimodular operations) and are part of the lattice
      basis above, so the image is a direct summand of the cocycles and
      H^k is free on the generators.  A non-unit pivot may break this,
      and the caller then presents the steps with a Smith normal form
      (:func:`_z_presentations`).

    >>> d0 = [(~0,), (0,)]   # one edge: the coboundary of each end
    >>> [p.group_str() for p in field_presentations(GF2, [(2, d0), (1, [[]])])]
    ['Z_2', '0']
    >>> [p.group_str() for p in field_presentations(ZZ, [(2, d0), (1, [[]])])]
    ['Z', '0']
    """
    out = []
    image = _span(ring)  # the reduction of d^{k-1}, pivots keyed by rows of C^k
    for n, cols in steps:
        span = _span(ring)
        gens = []
        _take_columns(span, cols, image.unpivoted(n), gens)  # the others are cleared
        out.append(_pinned_presentation(ring, n, image, gens))
        span._drop_combinations()  # they are needed only while reducing
        image = span
    return out


def _pinned_presentation(ring: Ring, n: int, table, gens) -> Presentation:
    """Presentation with generators ``gens`` that reads coordinates from
    ``table``, a span of the image pivots with zero combinations: generator
    k joins it as a pivot with the unit combination at k."""
    for k, gen in enumerate(gens):
        table._pin(gen, k)
    slots = range(len(gens))

    def express(vector):
        coeffs = table.express(vector)
        if coeffs is None:
            return None
        return [table.coefficient(coeffs, k) for k in slots]

    return Presentation(ring, n, [table.dense(g, n) for g in gens], (0,) * len(gens),
                        express)


def _z_quotient(ambient, cycle_cols, boundary_cols) -> Presentation:
    """span(cycles)/span(boundaries) over Z, from sparse integer columns.

    One Smith normal form of the cycles checks their independence and
    expresses the boundaries in them (the relation matrix A); the Smith
    normal form of A picks the generators.
    """
    k = len(cycle_cols)
    snf_k = smith_normal_form(IntColumns(cycle_cols, ambient))
    if snf_k.rank != k:
        raise ValueError("cycle columns must be independent")
    relations = _z_solve_with_snf(snf_k, boundary_cols)
    if relations is None:
        raise BoundaryNotInCyclesError("a boundary lies outside the cycle lattice")
    snf_a = smith_normal_form(IntColumns(relations, k))
    orders_all = snf_a.diagonal + [0] * (k - snf_a.rank)
    kept = [i for i, d in enumerate(orders_all) if d != 1]
    gens = []
    for i in kept:
        gen = [0] * ambient
        for l, c in snf_a.uinv_cols[i].items():
            for row, x in cycle_cols[l].items():
                gen[row] += c * x
        gens.append(gen)
    orders = [orders_all[i] for i in kept]
    u_kept = [snf_a.u_rows[i] for i in kept]

    def express(vector):
        w = _z_solve_with_snf(snf_k, [_int_vector(vector)])
        if w is None:
            return None
        w = w[0]
        return [sum(x * w[l] for l, x in row.items() if l in w) for row in u_kept]

    return Presentation(ZZ, ambient, gens, orders, express)


def _z_presentations(steps) -> list:
    """:func:`field_presentations` over Z, from the same steps.

    Each step's columns are signed once.  Their kernel, with the next
    step's n as its row count (0 after the last step), is the group's
    cocycles, and :func:`_z_quotient` presents it modulo the previous
    step's columns.
    """
    out = []
    previous = []  # d^{k-1}, the coboundaries in C^k
    steps = iter(steps)
    step = next(steps, None)
    while step is not None:
        n, cols = step
        step = next(steps, None)
        cols = signed_columns(ZZ, cols)
        cycles = _z_kernel(IntColumns(cols, step[0] if step else 0))
        out.append(_z_quotient(n, cycles, previous))
        previous = cols
    return out


def _z_solve_with_snf(snf: SNF, targets):
    """x with M x == t for each sparse target t, as sparse vectors, given
    the Smith normal form of M; None when one has no integer solution."""
    diagonal, r = snf.diagonal, snf.rank
    out = []
    for t in targets:
        x = {}
        for i, y in snf.apply_u(t).items():
            if i >= r or y % diagonal[i]:
                return None
            x[i] = y // diagonal[i]
        out.append(_combine(snf.v_cols, x))
    return out


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
        # column j scaled by the source relation must die in the target;
        # only a Z presentation has nonzero orders
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
    if not any(target.orders):
        return matrix
    rows = matrix.copy_rows()
    for i, d in enumerate(target.orders):
        if d:
            rows[i] = [x % d for x in rows[i]]
    return Matrix(matrix.ring, rows, ncols=matrix.ncols)


def homs_equal(f: Hom, g: Hom) -> bool:
    """True iff f - g is the zero homomorphism (relation-aware over Z)."""
    if not (f.source.same_shape(g.source) and f.target.same_shape(g.target)):
        raise PresentationMismatchError("homs compare only on equal presentations")
    # a Hom's matrix is canonical: normalized entries, each torsion row
    # reduced mod its order (_canonicalize_hom_matrix)
    return f.matrix == g.matrix
