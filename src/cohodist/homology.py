"""Simplicial chain complexes, (co)homology with coefficients, induced maps
of simplicial maps, and degreewise equality of induced maps.

Boundary operators are kept as sparse integral columns with the usual
alternating signs in the complex's vertex order.  A column is one tuple of
signed row indices, ``r`` for +1 and ``~r`` for -1, each row found by the
face's key (its sorted tuple of vertex positions), and every ``~r`` of a
complex's columns is one int object, read from one list of negative rows;
chain maps give signed rows of the same form, read through one array of
image positions per map.
Every degree comes from one walk over the (co)boundary matrices, fed
those columns as they are.  Cohomology is walked upward and homology
downward, and only the function that presents the steps depends on the
ring.  Over a field (Z_2, Z_p, Q) it is
:func:`exactalg.field_presentations`, one pass that reduces each
(co)boundary matrix once on the spans of :func:`exactalg.field_span`
(over Z_2, bitsets stored from their lowest row), converting a column
each time a reduction reads it and keeping no converted copy (lazy
pivots); a degree's incoming matrix is reduced before its outgoing one,
and the outgoing reduction skips the columns whose index is a pivot row
of the incoming one (clearing).
Clearing is sound only when the composite of the two matrices is zero,
which every :class:`ChainComplexData` satisfies by the simplicial
identity.  Over Z it is the same pass on integer columns, while every
pivot is 1 or -1: such pivots certify that each image is a direct
summand of the cycles, so the groups are free.  Boundary matrices of
simplicial complexes mostly reduce on such pivots (Dumas, Heckenbach,
Saunders and Welker, "Computing simplicial homology based on efficient
Smith normal form algorithms", 2003).  A complex whose reduction meets
another pivot, as a complex with torsion must, is presented by
:func:`exactalg._z_presentations` instead, the sparse Smith normal form
of each matrix and of its relations, which is where torsion comes from.

Equality of induced maps is decided by one routine, on a subcomplex of
the source given as a mask over the source's chain bases
(:attr:`complexes.Subcomplex.mask`; the whole source is its full mask),
without building the subcomplex; cover search and ``verify`` both call
it.  For every generator
of the relevant group it tests whether the difference of the two
(co)chain images is zero in (co)homology.  Over a field H^d(P) is dual
to H_d(P), so both variances pull back the generators of H^d(target): a
difference is a coboundary on the piece exactly when it vanishes on every
d-cycle of the piece, so a :class:`PairingState` reduces the piece's
boundary columns and pairs each new cycle with the differences; it grows
by a face, reducing only the new columns, and leaves the state it grew
from as it was, which is how cover search evaluates the pieces it grows.
Over Z that duality fails through Ext terms, and the piece is read off
its chains, its mask read against the source's chain data, as a field
piece is.  Cohomology tests the difference for membership in the
lattice of the piece's coboundaries: the source's boundary columns of
the piece's simplices are transposed and reduced once into the Z span,
with Euclid's step where a pivot is not 1 or -1, and a difference is in
the lattice exactly when it reduces to zero there.  Homology presents
the piece on the walk above, its steps the source's columns with their
rows renumbered within the piece, pushes the generators of H_d(piece)
forward and reads the difference's class off the target's presentation,
its coordinates reduced mod torsion.
Every path gives, per degree, one verdict form: the bitset of the
generators that fail, as :attr:`PairingState.failing` holds it.
:func:`maps_equal` reads a degree as equal when its bitset is 0, and
:func:`equality_obstruction` counts the set bits.

Results are pure functions of the inputs, cached by value in module
caches: chain data per complex, modules per (complex, ring, variance),
chain maps per (map, degree), and difference cochains and pairings per
map pair and ring.  Equal complexes and maps share these entries, however
often they are read.  The one release is for subdivisions: when
:func:`complexes.barycentric_subdivision` replaces its memo entry, every
entry whose key holds a subdivision the memo built (by identity, the
replaced one and any released earlier and cached again since), or a map
from or to one, is dropped (:func:`_release`).  Everything else stays.
Recomputing a released entry gives the same presentations and generators,
so coordinates read off a released module remain valid.

The chain data, the (co)homology walk with its coboundary transposes,
chain maps and induced maps are built with the cyclic garbage collector
paused (:func:`complexes._collector_paused`): they keep what they
allocate, so a collection inside them would free nothing.  The collector
is resumed before control returns, also on an exception, and a caller
that had it off finds it off.
"""

from itertools import combinations, compress, count, repeat
from operator import eq, gt, invert, itemgetter, neg, or_, xor

from . import exactalg
from .exactalg import (
    Hom,
    Matrix,
    Presentation,
    Ring,
    ZZ,
    field_presentations,
    field_span,
    signed_columns,
    trivial_presentation,
)
from .complexes import (
    SimplicialComplex,
    SimplicialMap,
    _bit_indices,
    _collector_paused,
    on_subdivision_release,
)
from .errors import ComplexMismatchError

COHOMOLOGY = "cohomology"
HOMOLOGY = "homology"


def _check_variance(variance):
    if variance not in (COHOMOLOGY, HOMOLOGY):
        raise ValueError(f"variance must be {COHOMOLOGY!r} or {HOMOLOGY!r}")


# ---------------------------------------------------------------------------
# chain complexes


class ChainComplexData:
    """Bases and boundary operators of a complex, in one place.

    ``keys[d]`` lists the degree-d simplices as sorted tuples of vertex
    positions (:meth:`SimplicialComplex.keys_of_dim`); simplex i of degree
    d is ``complex.simplices_of_dim(d)[i]``, but no label tuple is read
    here.  ``index`` maps a key to its place in its degree
    (:attr:`SimplicialComplex.index`).  A boundary
    column is a tuple of signed row indices, ``r`` for +1 and ``~r`` for
    -1, one per face in the order the left-out vertex has in the simplex
    (:func:`_face_rows`).  Face k of face i and face i of face k + 1
    (i <= k) are one simplex with opposite signs, so every composite of
    two boundaries is zero, as the (co)homology passes need.
    """

    __slots__ = ("complex", "keys", "index", "_sparse")

    def __init__(self, K: SimplicialComplex):
        self.complex = K
        self.keys = keys = {d: K.keys_of_dim(d) for d in range(K.dim + 1)}
        with _collector_paused():
            self.index = index = K.index
            # ~r for every row r of every degree, one int object per row
            nrows = max((len(keys[d]) for d in range(K.dim)), default=0)
            negative = list(map(invert, range(nrows)))
            self._sparse = {d: list(zip(*_face_rows(keys[d], d, index, negative)))
                            for d in range(1, K.dim + 1)}

    @property
    def dim(self) -> int:
        return self.complex.dim

    def rank_of(self, d: int) -> int:
        return len(self.keys.get(d, ()))

    def sparse_boundary(self, d: int):
        """Columns of the boundary C_d -> C_{d-1} as tuples of signed rows."""
        cols = self._sparse.get(d)
        if cols is None:
            return [() for _ in range(self.rank_of(d))]
        return cols

    def sparse_coboundary(self, d: int):
        """Columns of delta^d : C^d -> C^{d+1} (the transpose of boundary d+1)."""
        return _transpose(self.sparse_boundary(d + 1), self.rank_of(d))

    def full_mask(self):
        """The whole complex as a mask of the same form: every bit set."""
        return tuple((1 << self.rank_of(d)) - 1 for d in range(self.dim + 1))

    def boundary_matrix(self, d: int) -> Matrix:
        """Dense integral boundary matrix (use only at desk scale)."""
        return Matrix.from_columns(ZZ, signed_columns(ZZ, self.sparse_boundary(d)),
                                   self.rank_of(d - 1))


def _face_rows(keys, d: int, index, negative) -> list:
    """The boundary of the degree-d simplices ``keys`` (d >= 1) by face
    position: list i holds the signed row of face i of every simplex, and
    the boundary columns are these lists zipped.

    Face i of a simplex leaves out its vertex i and has sign (-1)^i; its
    row is its place in ``index``, stored as ``r`` or ``~r``.  ``~r`` is
    read from ``negative``, which holds ~r at place r, so that every face
    of a row shares one int object.  The faces are read one i at a time
    over the whole degree.
    """
    rows = []
    for i in range(d + 1):
        rest = [k for k in range(d + 1) if k != i]
        get = itemgetter(*rest)
        faces = zip(map(get, keys)) if d == 1 else map(get, keys)
        face_rows = map(index.__getitem__, faces)
        rows.append(list(map(negative.__getitem__, face_rows) if i % 2 else face_rows))
    return rows


_chain_cache: dict = {}


def chain_complex(K: SimplicialComplex) -> ChainComplexData:
    data = _chain_cache.get(K)
    if data is None:
        data = _chain_cache[K] = ChainComplexData(K)
    return data


def _transpose(sparse_cols, nrows: int):
    """The transpose of columns of signed rows, in the same form; the
    entries of column j share the ints j and ~j."""
    cols = [[] for _ in range(nrows)]
    for j, col in enumerate(sparse_cols):
        minus = ~j
        for r in col:
            if r >= 0:
                cols[r].append(j)
            else:
                cols[~r].append(minus)
    return cols


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


def _presentations(data: ChainComplexData, ring: Ring, variance) -> dict:
    """H^d or H_d for every degree of a :class:`ChainComplexData`.

    Cohomology is walked upward and homology downward, so a degree's
    incoming matrix comes before its outgoing one (:func:`_walk`).
    """
    top = data.dim
    if variance == COHOMOLOGY:
        degrees, outgoing = range(top + 1), data.sparse_coboundary
    else:
        degrees, outgoing = range(top, -1, -1), data.sparse_boundary

    def steps():
        return ((data.rank_of(d), outgoing(d)) for d in degrees)

    return dict(zip(degrees, _walk(ring, steps)))


def _walk(ring: Ring, steps) -> list:
    """The presentations of the steps that ``steps()`` yields, as
    :func:`exactalg.field_presentations` takes them: one walk for every
    ring, for whole complexes and Z homology pieces alike.

    Over Z that walk keeps integer columns with pivots 1 and -1, which
    present the groups, all free, as its docstring proves.  A reduction
    that meets another pivot, which is where torsion may come from,
    signals it, and ``steps()`` is called again for
    :func:`exactalg._z_presentations`, the sparse Smith normal form of
    each matrix and of its relations.  Both walks need every composite of
    two steps to be zero, which the simplicial identity gives every
    complex and every piece of one.
    """
    try:
        return field_presentations(ring, steps())
    except exactalg._NonUnitPivot:  # over Z only
        return exactalg._z_presentations(steps())


_graded_cache: dict = {}


def _graded_module(K, ring, variance) -> GradedModule:
    key = (K, ring, variance)
    gm = _graded_cache.get(key)
    if gm is None:
        with _collector_paused():  # coboundary transposes included
            modules = _presentations(chain_complex(K), ring, variance)
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
    """Degree-d chain map as a list over the source basis: the signed target
    row (``j`` or ``~j``, as in a boundary column) per simplex, or None when
    the image is degenerate.

    The simplices are read as their keys, one vertex position at a time
    over the whole degree, through one array of the target position of
    every source vertex: an image is degenerate when two of its positions
    agree, and its sign is the parity of the pairs of positions it has
    out of order."""
    key = (phi, d)
    out = _chain_map_cache.get(key)
    if out is None:
        with _collector_paused():
            out = _chain_map_cache[key] = _chain_map(phi, d)
    return out


def _chain_map(phi, d):
    """:func:`chain_map`, built."""
    index = chain_complex(phi.target).index
    keys = chain_complex(phi.source).keys.get(d, ())
    at = phi.image_positions().__getitem__
    images = [list(map(at, map(itemgetter(i), keys))) for i in range(d + 1)]
    kept = list(map(eq, map(len, map(set, zip(*images))), repeat(d + 1)))
    images = [list(compress(image, kept)) for image in images]
    odd = [False] * len(images[0])
    for a, b in combinations(images, 2):
        odd = list(map(xor, odd, map(gt, a, b)))
    rows = map(index.__getitem__, map(tuple, map(sorted, zip(*images))))
    out = [None] * len(keys)
    for i, j in zip(compress(count(), kept), map(xor, rows, map(neg, odd))):
        out[i] = j  # j ^ -1 is ~j
    return out


def pullback_cochain(phi: SimplicialMap, ring: Ring, d: int, cochain):
    """phi^# of a degree-d cochain on the target (dense list over source basis)."""
    entries = chain_map(phi, d)
    z = ring.zero
    out = [z] * len(entries)
    for i, e in enumerate(entries):
        if e is not None:
            out[i] = ring.normalize(cochain[e] if e >= 0 else -cochain[~e])
    return out


def pushforward_chain(phi: SimplicialMap, ring: Ring, d: int, chain):
    """phi_# of a degree-d chain on the source (dense list over target basis)."""
    return _push(ring, chain_map(phi, d), chain_complex(phi.target).rank_of(d), chain)


def _push(ring: Ring, entries, n_t: int, chain):
    """A chain pushed through chain-map ``entries`` into a basis of size n_t."""
    out = [0] * n_t
    for e, x in zip(entries, chain):
        if e is not None and x:
            if e >= 0:
                out[e] += x
            else:
                out[~e] -= x
    return list(map(ring.normalize, out))


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
    with _collector_paused():
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
# equality of induced maps


class MapsEqualReport:
    """Outcome of comparing two induced maps degree by degree."""

    __slots__ = ("equal", "first_failing_degree", "by_degree")

    def __init__(self, by_degree):
        self.by_degree = dict(by_degree)
        self.first_failing_degree = min(
            (d for d, ok in self.by_degree.items() if not ok), default=None)
        self.equal = self.first_failing_degree is None

    def __bool__(self):
        return self.equal

    def __repr__(self):
        if self.equal:
            return "MapsEqualReport(equal)"
        return f"MapsEqualReport(first failure in degree {self.first_failing_degree})"


def _require_parallel(phi, psi):
    if phi.source != psi.source or phi.target != psi.target:
        raise ComplexMismatchError("maps must share source and target")


_difference_cache: dict = {}


def _cochain_differences(phi, psi, ring, d):
    """phi^# y - psi^# y over the whole source, per generator y of H^d(target)."""
    key = (phi, psi, ring, d)
    diffs = _difference_cache.get(key)
    if diffs is None:
        normalize = ring.normalize
        diffs = []
        for gen in cohomology(phi.target, ring).presentation(d).gens:
            a = pullback_cochain(phi, ring, d, gen)
            b = pullback_cochain(psi, ring, d, gen)
            diffs.append([normalize(x - y) for x, y in zip(a, b)])
        _difference_cache[key] = diffs
    return diffs


def _cochain_verdicts(phi, psi, ring, d, indices) -> int:
    """Over Z: the bitset of the generators of H^d(target) whose
    difference lies outside the piece's coboundary lattice
    B = im delta^{d-1}|P, for the piece whose degree-k simplices are the
    source's ``indices[k]``.

    The columns of delta^{d-1}|P are the transpose of the source's
    boundary columns of the piece's d-simplices, read at the piece's
    (d-1)-simplices; their rows, like the differences' entries, are the
    places of the d-simplices in the piece.  They are taken once into the
    Z span (:func:`exactalg._z_lattice`), an echelon Z-basis of B whose
    top entries are mostly 1 or -1, with Euclid's step where one is not,
    and a difference lies in B exactly when it reduces to zero there,
    every division exact (the proof is in that function's docstring; it
    needs no torsion-freeness of the piece).  Degree 0 has B = 0.
    """
    idx = indices[d]
    diffs = [{k: x for k, i in enumerate(idx) if (x := diff[i])}
             for diff in _cochain_differences(phi, psi, ring, d)]
    if d == 0:
        return _bits(diffs)
    data = chain_complex(phi.source)
    boundary = data.sparse_boundary(d)
    coboundary = _transpose([boundary[j] for j in idx], data.rank_of(d - 1))
    lattice = exactalg._z_lattice([coboundary[i] for i in indices[d - 1]])
    return _bits(not lattice.contains(diff) for diff in diffs)


def _bits(failing) -> int:
    """The bitset of the positions where ``failing`` is true."""
    return sum(1 << y for y, fails in enumerate(failing) if fails)


# ---------------------------------------------------------------------------
# over a field: difference cochains paired with the cycles of a piece


_pairing_cache: dict = {}


def _pairings(phi, psi, ring) -> tuple:
    """What a :class:`PairingState` of phi and psi reduces and pairs.

    One entry ``(d, ngens, columns, pairs)`` per degree d of the source in
    which some difference cochain (:func:`_cochain_differences`) is
    nonzero.  The other degrees cannot fail on any piece, and are skipped:
    every degree with trivial H^d(target), and degree 0 when the target is
    connected, since both maps pull the constant cochain back to itself.
    ``columns`` are the source's degree-d boundary columns in
    :func:`exactalg.field_span`'s form (empty ones for d = 0).
    ``pairs[j]`` holds the values on simplex j of the difference cochains,
    one per generator, as a vector of the same form: over Z_2 a
    :class:`exactalg.Gf2Vector` over the generators, which the span's
    ``support`` turns into the plain bitset that ``failing`` collects.
    """
    key = (phi, psi, ring)
    out = _pairing_cache.get(key)
    if out is None:
        data = chain_complex(phi.source)
        vector = field_span(ring).vector
        out = []
        for d in range(min(data.dim, phi.target.dim) + 1):
            diffs = _cochain_differences(phi, psi, ring, d)
            if not any(map(any, diffs)):
                continue
            columns = signed_columns(ring, data.sparse_boundary(d))
            out.append((d, len(diffs), columns, [vector(v) for v in zip(*diffs)]))
        out = _pairing_cache[key] = tuple(out)
    return out


class PairingState:
    """A piece of the source of two parallel maps, with the generators of
    H^*(target) that fail on it when its query is over a field (in either
    variance; see :func:`pairing_state`), kept so that it can grow.

    Over a field im delta^{d-1}|_P = (ker boundary_d|_P)^perp, so a
    generator y of H^d(target) passes on a piece P exactly when its
    difference cochain (phi^# - psi^#)y vanishes on every d-cycle of P
    (the duality of de Silva, Morozov and Vejdemo-Johansson, "Dualities in
    persistent (co)homology", 2011).  In every degree of :func:`_pairings`
    the state keeps the piece's boundary columns reduced in one span, its
    rows the source's indices, so nothing is renumbered.  Each column
    carries, in place of its combination, that combination's pairings with
    the difference cochains: a column that reduces to zero is a new cycle
    z, and what it carries names the generators y with
    <(phi^# - psi^#)y, z> != 0.  A degree-0 column is empty, so every
    vertex is such a cycle; degree 0 is paired only when the target is
    disconnected (:func:`_pairings`).  ``failing`` holds per degree the
    bitset of the generators that failed.  A generator that fails fails on
    every larger piece, and a degree whose generators have all failed
    reduces nothing more.  A Z query's state has no pairings: it only
    joins masks, and is read as its ``mask``.  ``key`` is the maps and
    ring the state pairs for, ``(phi, psi, ring)``; a state answers those
    only, compared by value, so it stays valid when the cached pairings
    it was built from are released (:func:`_release`).

    :meth:`extended` grows the piece as the persistence column reduction
    (Edelsbrunner, Letscher and Zomorodian 2002) grows a filtration: only
    the new simplices' columns are reduced, when the state grows, on
    copies of the spans they change, so the state it grew from can grow
    again.
    """

    __slots__ = ("key", "pairings", "mask", "_spans", "failing")

    def __init__(self, key, pairings, mask, spans, failing):
        self.key = key
        self.pairings = pairings
        self.mask = mask
        self._spans = spans
        self.failing = failing

    def extended(self, mask) -> "PairingState":
        """The state of the union of this piece and the subcomplex ``mask``
        (a mask over the source's bases, as :attr:`complexes.Subcomplex.mask`)."""
        grown = tuple(map(or_, self.mask, mask))
        spans, failing = list(self._spans), list(self.failing)
        for k, (d, ngens, columns, pairs) in enumerate(self.pairings):
            new = grown[d] & ~self.mask[d]
            every = (1 << ngens) - 1
            if not new or failing[k] == every:
                continue
            span = spans[k] = spans[k].copy()
            for j in _bit_indices(new):
                grew, pairing = span._absorb(columns[j], pairs[j])
                if not grew:
                    failing[k] |= span.support(pairing)
                    if failing[k] == every:
                        break  # the span is not read again
        return PairingState(self.key, self.pairings, grown, spans, failing)


def pairing_state(phi: SimplicialMap, psi: SimplicialMap, ring: Ring) -> PairingState:
    """The empty piece of the maps' source for a query over ``ring``, in
    either variance, to grow with :meth:`PairingState.extended` and pass
    to :func:`equality_obstruction` as its ``piece``.  It pairs with
    cycles over a field and pairs nothing over Z."""
    _require_parallel(phi, psi)
    pairings = _pairings(phi, psi, ring) if ring.is_field else ()
    empty = (0,) * (chain_complex(phi.source).dim + 1)
    spans = [field_span(ring) for _ in pairings]
    return PairingState((phi, psi, ring), pairings, empty, spans, [0] * len(pairings))


def _paired_verdicts(phi, psi, ring, piece):
    """:func:`_generator_verdicts` over a field: the bitsets of
    ``failing`` of the :class:`PairingState` ``piece``, or of one built
    from scratch for a mask; 0 in every degree the state does not pair."""
    if isinstance(piece, PairingState):
        if piece.key != (phi, psi, ring):
            raise ValueError("the pairing state belongs to other maps or coefficients")
        state = piece
    else:
        state = pairing_state(phi, psi, ring).extended(piece)
    failing = {d: bits for (d, *_), bits in zip(state.pairings, state.failing)}
    top = max((d for d, bits in enumerate(state.mask) if bits), default=-1)
    for d in range(max(top, phi.target.dim) + 1):
        yield d, failing.get(d, 0)


def _piece_steps(data: ChainComplexData, indices):
    """The homology walk's steps (:func:`_walk`) of the piece whose
    degree-d simplices are the source's ``indices[d]``, from its top
    degree down: the source's boundary columns of the piece's simplices,
    their rows renumbered within the piece, which is the chain complex of
    the piece built as a complex.  The numbering matters: the Smith
    normal form picks pivots by row position, so its generators, and the
    obstruction counts that greedy search ranks pieces by, depend on it.
    """
    for d in range(len(indices) - 1, -1, -1):
        # a subcomplex holds every face of its simplices, so every row is
        # local; ``local`` renumbers a signed row, ~i as well as i
        local = {}
        for k, i in enumerate(indices[d - 1] if d else ()):
            local[i] = k
            local[~i] = ~k
        get = local.__getitem__
        cols = data.sparse_boundary(d)
        yield len(indices[d]), [tuple(map(get, cols[j])) for j in indices[d]]


def _chain_verdicts(phi, psi, ring, d, pres, idx) -> int:
    """The bitset of the generators of H_d(piece) whose two images differ
    in H_d(target), for the piece whose degree-d simplices are the
    source's ``idx``."""
    target = homology(phi.target, ring).presentation(d)
    n_t = chain_complex(phi.target).rank_of(d)
    phi_entries, psi_entries = chain_map(phi, d), chain_map(psi, d)
    phi_entries = [phi_entries[i] for i in idx]
    psi_entries = [psi_entries[i] for i in idx]
    differences = ([x - y for x, y in zip(_push(ring, phi_entries, n_t, gen),
                                          _push(ring, psi_entries, n_t, gen))]
                   for gen in pres.gens)
    return _bits(not target.class_is_zero(diff) for diff in differences)


def _generator_verdicts(phi, psi, ring, variance, piece):
    """Per degree d, the generators compared in degree d that fail.

    Yields ``(d, bits)``, where bit y of the int ``bits`` is set when the
    two images of generator y differ in (co)homology: the form
    :attr:`PairingState.failing` holds, so 0 means every generator of the
    degree passes.  Over a field both variances pair the pulled-back
    generators of H^d(target) with the piece's cycles (:class:`PairingState`;
    by duality a degree fails in one exactly when in the other).  Over Z
    cohomology tests them for membership in the piece's coboundary
    lattice, by one integer echelon reduction per degree, with Euclid's
    step where a pivot is not 1 or -1 (:func:`_cochain_verdicts`), and
    homology compares the pushforwards of the generators of H_d(piece) in
    H_d(target), the piece presented on the walk of whole complexes
    (:func:`_piece_steps`).

    ``piece`` is a subcomplex of the source as a mask
    (:attr:`complexes.Subcomplex.mask`), or None for the whole source, or
    a :class:`PairingState` of the maps.  A state that pairs nothing is
    read as its mask; one that pairs answers its own field only.  Over Z
    the piece is not built: the mask is read against the source's chain
    data, as the lists of the source's indices of the piece's simplices
    in each degree up to the piece's dimension.
    """
    if piece is None:
        piece = chain_complex(phi.source).full_mask()
    elif isinstance(piece, PairingState) and not piece.pairings:
        piece = piece.mask
    if ring.is_field:
        yield from _paired_verdicts(phi, psi, ring, piece)
        return
    if isinstance(piece, PairingState):
        raise ValueError("a paired state compares maps over its own field only")
    indices = [_bit_indices(bits) for bits in piece]
    top = max((d for d, idx in enumerate(indices) if idx), default=-1)
    del indices[top + 1:]
    degrees = range(max(top, phi.target.dim) + 1)
    if variance == COHOMOLOGY:
        gm = cohomology(phi.target, ring)
        for d in degrees:
            trivial = gm.presentation(d).is_trivial or d > top
            yield d, 0 if trivial else _cochain_verdicts(phi, psi, ring, d, indices)
        return
    data = chain_complex(phi.source)
    presented = _walk(ring, lambda: _piece_steps(data, indices))
    modules = dict(zip(range(top, -1, -1), presented))
    for d in degrees:
        pres = modules.get(d)
        trivial = pres is None or pres.is_trivial
        yield d, 0 if trivial else _chain_verdicts(phi, psi, ring, d, pres, indices[d])


def maps_equal(phi: SimplicialMap, psi: SimplicialMap, ring: Ring,
               variance: str, piece=None) -> MapsEqualReport:
    """Do phi and psi induce the same map in every degree?

    Each degree is decided by testing the generator differences for being
    zero in (co)homology: a degree is equal when its bitset of failing
    generators (:func:`_generator_verdicts`) is 0.  ``piece`` restricts
    both maps to a subcomplex of their source, as in
    :func:`equality_obstruction`; None means the whole source.
    """
    _require_parallel(phi, psi)
    _check_variance(variance)
    return MapsEqualReport({d: bits == 0 for d, bits
                            in _generator_verdicts(phi, psi, ring, variance, piece)})


def equality_obstruction(phi: SimplicialMap, psi: SimplicialMap, ring: Ring,
                         variance: str, piece=None) -> int:
    """Number of generators whose images differ; 0 means the maps agree.

    A finer-grained version of :func:`maps_equal`, used as a search score:
    the popcounts of the bitsets of failing generators
    (:func:`_generator_verdicts`), summed over the degrees; in field
    homology those of H^d(target), as in cohomology.
    ``piece`` restricts both maps to a subcomplex of their source given as
    a mask (:attr:`complexes.Subcomplex.mask`); None means the whole
    source.  ``piece`` may also be a :class:`PairingState` of the maps,
    grown from :func:`pairing_state` for the same ring.
    """
    _require_parallel(phi, psi)
    _check_variance(variance)
    return sum(bits.bit_count() for _, bits
               in _generator_verdicts(phi, psi, ring, variance, piece))


# ---------------------------------------------------------------------------
# release of a subdivision


def _refers_to_subdivision(key) -> bool:
    """Does a cache key hold a subdivision the memo built, or a map from or
    to one?"""
    return any(part._memo_made if isinstance(part, SimplicialComplex)
               else isinstance(part, SimplicialMap)
               and (part.source._memo_made or part.target._memo_made)
               for part in (key if isinstance(key, tuple) else (key,)))


def _release() -> None:
    """Drop what the caches derived from the subdivisions that the memo of
    :func:`complexes.barycentric_subdivision` built, as it replaces its
    entry: their chain data and modules, the chain maps of maps from or to
    them, and the difference cochains and pairings of maps on them.  That
    includes a subdivision released before and queried again since.  Keys
    are matched by identity, so an equal complex read elsewhere keeps its
    entries."""
    for cache in (_chain_cache, _graded_cache, _chain_map_cache,
                  _difference_cache, _pairing_cache):
        for key in [key for key in cache if _refers_to_subdivision(key)]:
            del cache[key]


on_subdivision_release(_release)
