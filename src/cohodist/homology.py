"""Simplicial chain complexes, (co)homology with coefficients, induced maps
of simplicial maps, and degreewise equality of induced maps.

Boundary operators are kept as sparse integral columns with the usual
alternating signs in the complex's vertex order.  Coefficients are handled
by two paths: over a field (Z_2, Z_p, Q) those columns go straight into
the spans of :func:`exactalg.field_span`, which run Z_2 on bitsets; over
Z they go through Smith normal form, which is where torsion comes from.

Equality of induced maps is decided by one routine: for every generator of
the relevant group it tests whether the difference of the two (co)chain
images is a (co)boundary.  Over Z this is exact lattice membership, so it
is relation-aware.  :func:`maps_equal` reports the verdict per degree,
:func:`equality_obstruction` counts the failing generators.  The count
can restrict the maps to a subcomplex of their source given as a mask over
the source's chain bases, without building the subcomplex.

Results are pure functions of the inputs and are cached per (complex,
ring).
"""

from . import exactalg
from .exactalg import (
    Hom,
    Matrix,
    Presentation,
    Ring,
    ZZ,
    field_span,
    kernel_basis,
    quotient_presentation,
    signed_columns,
    smith_normal_form,
    trivial_presentation,
)
from .complexes import SimplicialComplex, SimplicialMap

COHOMOLOGY = "cohomology"
HOMOLOGY = "homology"


def _check_variance(variance):
    if variance not in (COHOMOLOGY, HOMOLOGY):
        raise ValueError(f"variance must be {COHOMOLOGY!r} or {HOMOLOGY!r}")


# ---------------------------------------------------------------------------
# chain complexes


class ChainComplexData:
    """Bases and boundary operators of a complex, in one place."""

    __slots__ = ("complex", "basis", "index", "_sparse")

    def __init__(self, K: SimplicialComplex):
        self.complex = K
        self.basis = {d: K.simplices_of_dim(d) for d in range(K.dim + 1)}
        self.index = {}
        for d, simps in self.basis.items():
            for i, s in enumerate(simps):
                self.index[s] = i
        self._sparse = {}
        for d in range(1, K.dim + 1):
            cols = []
            for s in self.basis[d]:
                col = []
                for i in range(len(s)):
                    face = s[:i] + s[i + 1:]
                    col.append((self.index[face], -1 if i % 2 else 1))
                cols.append(col)
            self._sparse[d] = cols

    def rank_of(self, d: int) -> int:
        return len(self.basis.get(d, ()))

    def sparse_boundary(self, d: int):
        """Columns of the boundary C_d -> C_{d-1} as (row, sign) lists."""
        return self._sparse.get(d, [[] for _ in range(self.rank_of(d))])

    def sparse_coboundary(self, d: int):
        """Columns of delta^d : C^d -> C^{d+1} (the transpose of boundary d+1)."""
        return _transpose(self.sparse_boundary(d + 1), self.rank_of(d))

    def closure_mask(self, faces):
        """The subcomplex spanned by ``faces`` as a mask over these bases.

        Entry d of the tuple is an int whose bit i is set when simplex i of
        ``basis[d]`` lies in the downward closure of the faces.
        """
        bits = [0] * (self.complex.dim + 1)
        index = self.index
        for face in faces:
            face = self.complex.sort_simplex(face)
            n = len(face)
            for m in range(1, 1 << n):
                sub = tuple(face[i] for i in range(n) if m >> i & 1)
                bits[len(sub) - 1] |= 1 << index[sub]
        return tuple(bits)

    def boundary_matrix(self, d: int) -> Matrix:
        """Dense integral boundary matrix (use only at desk scale)."""
        m, n = self.rank_of(d - 1), self.rank_of(d)
        rows = [[0] * n for _ in range(m)]
        for j, col in enumerate(self.sparse_boundary(d)):
            for i, sign in col:
                rows[i][j] = sign
        return Matrix(ZZ, rows, ncols=n)


_chain_cache: dict = {}


def chain_complex(K: SimplicialComplex) -> ChainComplexData:
    data = _chain_cache.get(K)
    if data is None:
        data = _chain_cache[K] = ChainComplexData(K)
    return data


def _transpose(sparse_cols, nrows: int):
    cols = [[] for _ in range(nrows)]
    for j, col in enumerate(sparse_cols):
        for i, sign in col:
            cols[i].append((j, sign))
    return cols


def _bit_indices(bits: int) -> list:
    """Positions of the set bits of ``bits``, ascending."""
    return [i for i, c in enumerate(reversed(bin(bits))) if c == "1"]


class _PieceChains:
    """Chain complex of a subcomplex given as a mask over a parent's bases.

    Each basis is the parent's restricted to the piece and renumbered in
    the parent's order, and each boundary column is the parent's with its
    rows renumbered.  A piece built as a complex inherits
    the parent's vertex order, so its simplices, orientations and boundary
    signs are these: both give the same chain complex.
    """

    __slots__ = ("parent", "indices", "dim")

    def __init__(self, parent: ChainComplexData, mask):
        self.parent = parent
        self.indices = [_bit_indices(bits) for bits in mask]
        self.dim = max((d for d, idx in enumerate(self.indices) if idx), default=-1)

    def basis_indices(self, d: int):
        """Parent indices of the piece's degree-d simplices, ascending."""
        return self.indices[d] if 0 <= d < len(self.indices) else []

    def rank_of(self, d: int) -> int:
        return len(self.basis_indices(d))

    def sparse_boundary(self, d: int):
        # a subcomplex holds every face of its simplices, so every row is local
        local = {i: k for k, i in enumerate(self.basis_indices(d - 1))}
        parent_cols = self.parent.sparse_boundary(d)
        return [[(local[i], sign) for i, sign in parent_cols[j]]
                for j in self.basis_indices(d)]

    def sparse_coboundary(self, d: int):
        return _transpose(self.sparse_boundary(d + 1), self.rank_of(d))


# ---------------------------------------------------------------------------
# graded modules


class GradedModule:
    """Per-degree presentations of H_*(K;R) or H^*(K;R)."""

    __slots__ = ("complex", "ring", "variance", "modules")

    def __init__(self, K, ring, variance, modules):
        self.complex = K
        self.ring = ring
        self.variance = variance
        self.modules = modules

    def presentation(self, d: int) -> Presentation:
        p = self.modules.get(d)
        if p is None:
            data = chain_complex(self.complex)
            return trivial_presentation(self.ring, data.rank_of(d))
        return p

    @property
    def degrees(self):
        return range(self.complex.dim + 1)

    def betti(self):
        return tuple(self.presentation(d).free_rank for d in self.degrees)

    def group_strs(self):
        return tuple(self.presentation(d).group_str() for d in self.degrees)

    def __repr__(self):
        return (f"GradedModule({self.variance} of {self.complex!r} over "
                f"{self.ring}: {', '.join(self.group_strs())})")


def _degree_presentation(data, ring: Ring, variance, d: int):
    """H^d or H_d of a :class:`ChainComplexData` (or :class:`_PieceChains`)."""
    n = data.rank_of(d)
    bnd_src = _image_columns(data, variance, d)
    if variance == COHOMOLOGY:
        cycle_src, cycle_rows = data.sparse_coboundary(d), data.rank_of(d + 1)
    else:
        cycle_src, cycle_rows = data.sparse_boundary(d), data.rank_of(d - 1)
    if ring.is_field:
        cycles = exactalg._field_kernel(ring, signed_columns(ring, cycle_src))
        return exactalg._field_quotient(ring, n, cycles, signed_columns(ring, bnd_src))
    cycles = kernel_basis(_integer_matrix(cycle_src, cycle_rows))
    return quotient_presentation(cycles, _integer_matrix(bnd_src, n))


def _image_columns(data, variance, d: int):
    """Columns of delta^{d-1} (cohomology) or boundary_{d+1} (homology)."""
    if variance == COHOMOLOGY:
        return data.sparse_coboundary(d - 1) if d >= 1 else []
    return data.sparse_boundary(d + 1)


def _integer_matrix(sparse_cols, nrows) -> Matrix:
    rows = [[0] * len(sparse_cols) for _ in range(nrows)]
    for j, col in enumerate(sparse_cols):
        for i, sign in col:
            rows[i][j] = sign
    return Matrix(ZZ, rows, ncols=len(sparse_cols))


_graded_cache: dict = {}


def _graded_module(K, ring, variance) -> GradedModule:
    key = (K, ring, variance)
    gm = _graded_cache.get(key)
    if gm is None:
        data = chain_complex(K)
        modules = {d: _degree_presentation(data, ring, variance, d)
                   for d in range(K.dim + 1)}
        gm = _graded_cache[key] = GradedModule(K, ring, variance, modules)
    return gm


def homology(K: SimplicialComplex, ring: Ring) -> GradedModule:
    """H_*(K;R), one presentation per degree with cycle representatives.

    >>> from cohodist.complexes import from_maximal_faces
    >>> homology(from_maximal_faces([[0]]), ZZ).group_strs()
    ('Z',)
    """
    return _graded_module(K, ring, HOMOLOGY)


def cohomology(K: SimplicialComplex, ring: Ring) -> GradedModule:
    """H^*(K;R) via the transposed boundaries."""
    return _graded_module(K, ring, COHOMOLOGY)


# ---------------------------------------------------------------------------
# chain maps and induced homomorphisms


_chain_map_cache: dict = {}


def chain_map(phi: SimplicialMap, d: int):
    """Degree-d chain map as a list over the source basis: (target index, sign)
    per simplex, or None when the image is degenerate."""
    key = (phi, d)
    out = _chain_map_cache.get(key)
    if out is not None:
        return out
    src = chain_complex(phi.source)
    tgt = chain_complex(phi.target)
    entries = []
    for s in src.basis.get(d, ()):
        image = [phi.assignment[v] for v in s]
        if len(set(image)) != len(image):
            entries.append(None)
            continue
        pos = [phi.target.position(v) for v in image]
        sign = _permutation_sign(pos)
        entries.append((tgt.index[tuple(sorted(image, key=phi.target.position))], sign))
    _chain_map_cache[key] = entries
    return entries


def _permutation_sign(values) -> int:
    inversions = 0
    for i in range(len(values)):
        for j in range(i + 1, len(values)):
            if values[i] > values[j]:
                inversions += 1
    return -1 if inversions % 2 else 1


def pullback_cochain(phi: SimplicialMap, ring: Ring, d: int, cochain):
    """phi^# of a degree-d cochain on the target (dense list over source basis)."""
    entries = chain_map(phi, d)
    z = ring.zero
    out = [z] * len(entries)
    for i, e in enumerate(entries):
        if e is not None:
            j, sign = e
            v = cochain[j]
            out[i] = ring.normalize(v if sign == 1 else -v)
    return out


def pushforward_chain(phi: SimplicialMap, ring: Ring, d: int, chain):
    """phi_# of a degree-d chain on the source (dense list over target basis)."""
    return _push(ring, chain_map(phi, d), chain_complex(phi.target).rank_of(d), chain)


def _push(ring: Ring, entries, n_t: int, chain):
    """A chain pushed through chain-map ``entries`` into a basis of size n_t."""
    z = ring.zero
    out = [z] * n_t
    for i, e in enumerate(entries):
        if e is not None and chain[i] != z:
            j, sign = e
            term = chain[i] if sign == 1 else ring.neg(chain[i])
            out[j] = ring.add(out[j], term)
    return out


class GradedHom:
    """Per-degree homomorphisms between two graded modules."""

    __slots__ = ("source", "target", "homs")

    def __init__(self, source: GradedModule, target: GradedModule, homs):
        self.source = source
        self.target = target
        self.homs = homs

    def hom(self, d: int) -> Hom:
        h = self.homs.get(d)
        if h is None:
            return Hom.zero(self.source.presentation(d), self.target.presentation(d))
        return h

    @property
    def degrees(self):
        top = max(self.source.complex.dim, self.target.complex.dim)
        return range(top + 1)

    def compose(self, other: "GradedHom") -> "GradedHom":
        homs = {d: self.hom(d).compose(other.hom(d)) for d in other.degrees}
        return GradedHom(other.source, self.target, homs)

    def is_iso(self) -> bool:
        return all(self.hom(d).is_iso() for d in self.degrees)

    def __repr__(self):
        return f"GradedHom({self.source!r} -> {self.target!r})"


def induced_map(phi: SimplicialMap, ring: Ring, variance: str) -> GradedHom:
    """Induced homomorphism on (co)homology presentations.

    Cohomology is contravariant: the result maps H^*(target complex) to
    H^*(source complex).
    """
    _check_variance(variance)
    if variance == COHOMOLOGY:
        src_gm = cohomology(phi.target, ring)
        tgt_gm = cohomology(phi.source, ring)
        push = lambda d, vec: pullback_cochain(phi, ring, d, vec)
    else:
        src_gm = homology(phi.source, ring)
        tgt_gm = homology(phi.target, ring)
        push = lambda d, vec: pushforward_chain(phi, ring, d, vec)
    top = max(phi.source.dim, phi.target.dim)
    homs = {}
    for d in range(top + 1):
        sp = src_gm.presentation(d)
        tp = tgt_gm.presentation(d)
        cols = [tp.coordinates(push(d, gen)) for gen in sp.gens]
        homs[d] = Hom(sp, tp, Matrix.from_columns(ring, cols, tp.ngens), check=False)
    return GradedHom(src_gm, tgt_gm, homs)


# ---------------------------------------------------------------------------
# membership solvers: is a vector a (co)boundary?


_span_cache: dict = {}


class _ZSpan:
    __slots__ = ("matrix", "snf")

    def __init__(self, matrix: Matrix):
        self.matrix = matrix
        self.snf = smith_normal_form(matrix)

    def contains(self, vec) -> bool:
        B = Matrix.from_columns(ZZ, [list(vec)], self.matrix.nrows)
        return exactalg._z_solve_with_snf(self.snf, self.matrix.ncols, B) is not None


def _membership(ring: Ring, sparse_cols, nrows: int):
    """Membership tester for the span of (row, sign) columns with ``nrows`` rows."""
    if ring.is_field:
        span = field_span(ring, track=False)
        for col in signed_columns(ring, sparse_cols):
            span.add(col)
        return span
    return _ZSpan(_integer_matrix(sparse_cols, nrows))


def _image_span(K: SimplicialComplex, ring: Ring, variance: str, d: int):
    """Membership tester for im(delta^{d-1}) (cohomology) or im(boundary_{d+1})."""
    key = (K, ring, variance, d)
    span = _span_cache.get(key)
    if span is None:
        data = chain_complex(K)
        span = _span_cache[key] = _membership(ring, _image_columns(data, variance, d),
                                              data.rank_of(d))
    return span


# ---------------------------------------------------------------------------
# equality of induced maps


class MapsEqualReport:
    """Outcome of comparing two induced maps degree by degree."""

    __slots__ = ("equal", "first_failing_degree", "by_degree")

    def __init__(self, by_degree):
        self.by_degree = dict(by_degree)
        failing = [d for d, ok in sorted(self.by_degree.items()) if not ok]
        self.first_failing_degree = failing[0] if failing else None
        self.equal = not failing

    def __bool__(self):
        return self.equal

    def __repr__(self):
        if self.equal:
            return "MapsEqualReport(equal)"
        return f"MapsEqualReport(first failure in degree {self.first_failing_degree})"


def _require_parallel(phi, psi):
    if phi.source != psi.source or phi.target != psi.target:
        raise ValueError("maps must share source and target")


_difference_cache: dict = {}


def _cochain_differences(phi, psi, ring, d):
    """phi^# y - psi^# y over the whole source, per generator y of H^d(target)."""
    key = (phi, psi, ring, d)
    diffs = _difference_cache.get(key)
    if diffs is None:
        sub = ring.sub
        diffs = []
        for gen in cohomology(phi.target, ring).presentation(d).gens:
            a = pullback_cochain(phi, ring, d, gen)
            b = pullback_cochain(psi, ring, d, gen)
            diffs.append([sub(x, y) for x, y in zip(a, b)])
        _difference_cache[key] = diffs
    return diffs


def _cochain_verdicts(phi, psi, ring, d, chains, piece):
    diffs = _cochain_differences(phi, psi, ring, d)
    if piece is not None:
        idx = chains.basis_indices(d)
        diffs = [[diff[i] for i in idx] for diff in diffs]
    if d == 0:
        return [not any(diff) for diff in diffs]
    if piece is None:
        span = _image_span(phi.source, ring, COHOMOLOGY, d)
    else:
        span = _membership(ring, chains.sparse_coboundary(d - 1), chains.rank_of(d))
    return (span.contains(diff) for diff in diffs)


def _chain_verdicts(phi, psi, ring, d, pres, chains, piece):
    span = _image_span(phi.target, ring, HOMOLOGY, d)
    n_t = chain_complex(phi.target).rank_of(d)
    phi_entries, psi_entries = chain_map(phi, d), chain_map(psi, d)
    if piece is not None:
        idx = chains.basis_indices(d)
        phi_entries = [phi_entries[i] for i in idx]
        psi_entries = [psi_entries[i] for i in idx]
    sub = ring.sub
    for gen in pres.gens:
        a = _push(ring, phi_entries, n_t, gen)
        b = _push(ring, psi_entries, n_t, gen)
        yield span.contains([sub(x, y) for x, y in zip(a, b)])


def _generator_verdicts(phi, psi, ring, variance, piece):
    """Per degree d, the verdict of every generator compared in degree d.

    Yields ``(d, verdicts)``, where ``verdicts`` iterates lazily over
    booleans: True when the two images of one generator differ by a
    (co)boundary.  Cohomology compares the pullbacks of the generators of
    H^d(target) modulo the source's coboundaries; homology compares the
    pushforwards of the generators of H_d(source) modulo the target's
    boundaries.  Over Z membership is exact lattice membership, so the
    test is relation-aware.

    ``piece`` (None for the whole source) is a subcomplex of the source
    as a mask from :meth:`ChainComplexData.closure_mask`.  The maps are then
    restricted to it without building it: the source's (co)boundary
    columns and the maps' chain-map entries are restricted to the piece's
    indices (see :class:`_PieceChains`).
    """
    chains = chain_complex(phi.source)
    src_dim = phi.source.dim
    if piece is not None:
        chains = _PieceChains(chains, piece)
        src_dim = chains.dim
    degrees = range(max(src_dim, phi.target.dim) + 1)
    if variance == COHOMOLOGY:
        gm = cohomology(phi.target, ring)
        for d in degrees:
            if gm.presentation(d).is_trivial or d > src_dim:
                yield d, ()
            else:
                yield d, _cochain_verdicts(phi, psi, ring, d, chains, piece)
        return
    gm = homology(phi.source, ring) if piece is None else None
    for d in degrees:
        if piece is None:
            pres = gm.presentation(d)
        elif d <= src_dim:
            pres = _degree_presentation(chains, ring, HOMOLOGY, d)
        else:
            pres = trivial_presentation(ring)
        if pres.is_trivial:
            yield d, ()
        else:
            yield d, _chain_verdicts(phi, psi, ring, d, pres, chains, piece)


def maps_equal(phi: SimplicialMap, psi: SimplicialMap, ring: Ring,
               variance: str) -> MapsEqualReport:
    """Do phi and psi induce the same map in every degree?

    Each degree is decided by testing the generator differences for
    (co)boundary membership.
    """
    _require_parallel(phi, psi)
    _check_variance(variance)
    return MapsEqualReport({d: all(verdicts) for d, verdicts
                            in _generator_verdicts(phi, psi, ring, variance, None)})


def equality_obstruction(phi: SimplicialMap, psi: SimplicialMap, ring: Ring,
                         variance: str, piece=None) -> int:
    """Number of generators whose images differ; 0 means the maps agree.

    A finer-grained version of :func:`maps_equal`, used as a search score.
    ``piece`` restricts both maps to a subcomplex of their source given as
    a mask (see :meth:`ChainComplexData.closure_mask`).
    """
    _require_parallel(phi, psi)
    _check_variance(variance)
    return sum(not ok for _, verdicts
               in _generator_verdicts(phi, psi, ring, variance, piece)
               for ok in verdicts)
