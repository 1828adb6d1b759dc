"""Cover certificates for the simplicial cohomological and homological
distance: verification, cup-product lower bounds, cover search, and the
category/complexity conveniences.

A distance query fixes a pair of parallel simplicial maps, a coefficient
ring and a variance.  Its value is the least n admitting a cover of the
source by n+1 subcomplexes on which the two maps induce equal maps in
every degree.  ``verify`` checks a proposed cover and records per-piece,
per-degree verdicts; failures are recorded, never thrown.

Search explores pieces spanned by subsets of the source's maximal faces.
This loses nothing, whatever the target: in a cover by subcomplexes on
which the maps agree, every maximal face of the source lies in some
piece, the span of the maximal faces inside a piece is a sub-piece of it,
on which the maps agree too (restriction factors through the piece), and
these spans cover the source.  So a face-spanned "no cover" is a "no
cover" for the simplicial distance.  A piece is evaluated as a mask over
the source's chain bases (:attr:`complexes.Subcomplex.mask`) and never
built, by search and by ``verify`` alike.  Every piece is a
:class:`homology.PairingState`, whatever the ring and variance; it pairs
with cycles over a field, reducing and pairing only the new simplices'
boundary columns as the state grows, and is read as its mask over Z.
The lower bound is a cup-length in either variance (:func:`lower_bound`).

Search state is per query.  One checker evaluates every piece of a query,
at every size and in both strategies, and memoizes each verdict for the
whole query; it holds no state but the empty one.  One size plan
(:func:`_size_plan`) decides, for :func:`search` and :func:`bounds_for`
alike, whether a size is searched exhaustively or greedily, and each
search verifies the cover it returns, once.  Each walk owns the states it
grows and grows each piece from one it knows to lie inside.  Exhaustive
search proves nonexistence within that family, and so among all covers
by subcomplexes.  One depth-first walk
assigns faces to pieces: it runs uncut over the first ``2^n`` assignments,
then every nonempty set of maximal faces is evaluated once into a table of
verdicts, depth first over the sets, and the walk runs again, cut at the
first partial piece the table rejects (a piece that passes passes on
every sub-piece).  Face sets are int bit masks throughout.  Its budget
bounds the ``(2^s - 1)^n`` assignments of the full enumeration, which the
table's ``2^n`` entries never exceed for two or more pieces.  The
greedy strategy grows pieces face by face and repairs by local moves.  It
keeps a state beside each piece's face set, grows a piece that gains a
face from that state, and its repair grows the pieces without one face
from one another by divide and conquer, never from the empty state.
Every walk frees its states by reference counting as soon as it leaves
them.

Everything is pure and deterministic given the seed; independent pieces
and candidate covers could be evaluated concurrently without changing any
verdict.
"""

import itertools
import random
import sys
from dataclasses import dataclass, field
from functools import partial
from operator import attrgetter

from .complexes import (
    Cover,
    SimplicialComplex,
    SimplicialMap,
    Subcomplex,
    barycentric_subdivision,
    _bit_indices,
    is_cover,
    product,
    sd_map,
    subdivide_cover,
)
from .cupring import J_generators, ProductWitness, lcp_with_witness
from .errors import BudgetExceededError, NotASubcomplexError
from .exactalg import QQ, Ring
from .homology import (
    COHOMOLOGY,
    HOMOLOGY,
    _check_variance,
    _require_parallel,
    equality_obstruction,
    maps_equal,
    pairing_state,
)

DEFAULT_BUDGET = 2 ** 24
STRATEGIES = ("auto", "exhaustive", "greedy")


@dataclass(frozen=True)
class DistanceQuery:
    """A pair of parallel maps plus coefficients and variance."""

    phi: SimplicialMap
    psi: SimplicialMap
    ring: Ring
    variance: str = COHOMOLOGY

    def __post_init__(self):
        _require_parallel(self.phi, self.psi)
        _check_variance(self.variance)

    @property
    def source(self) -> SimplicialComplex:
        return self.phi.source

    @property
    def target(self) -> SimplicialComplex:
        return self.phi.target


def scat_query(K: SimplicialComplex, ring: Ring, variance=COHOMOLOGY) -> DistanceQuery:
    """Category query: constant map versus the identity."""
    return DistanceQuery(SimplicialMap.constant(K, K),
                         SimplicialMap.identity(K), ring, variance)


def stc_query(K: SimplicialComplex, ring: Ring, variance=COHOMOLOGY) -> DistanceQuery:
    """Complexity query: the two projections of K x K."""
    P, pi1, pi2 = product(K, K)
    return DistanceQuery(pi1, pi2, ring, variance)


@dataclass(frozen=True)
class PieceReport:
    name: str
    equal: bool
    first_failing_degree: int | None
    by_degree: dict

    def to_dict(self):
        return {
            "piece": self.name,
            "equal": self.equal,
            "first_failing_degree": self.first_failing_degree,
            "by_degree": {str(d): ok for d, ok in sorted(self.by_degree.items())},
        }


@dataclass(frozen=True)
class CoverCertificate:
    """Evidence that a cover does (or does not) witness a distance bound."""

    query: DistanceQuery
    cover: Cover
    cover_ok: bool
    missing_simplex: tuple | None
    piece_reports: tuple
    verified: bool

    @property
    def n(self) -> int:
        return len(self.cover.pieces) - 1

    def to_dict(self):
        return {
            "pieces": len(self.cover.pieces),
            "n": self.n,
            "cover_ok": self.cover_ok,
            "missing_simplex": list(self.missing_simplex) if self.missing_simplex else None,
            "piece_reports": [r.to_dict() for r in self.piece_reports],
            "verified": self.verified,
        }


def verify(query: DistanceQuery, cover: Cover) -> CoverCertificate:
    """Check the cover property and piecewise equality; record every verdict."""
    if cover.parent != query.source:
        raise NotASubcomplexError("cover does not live on the query's source")
    cover_ok, missing = is_cover(cover.parent, cover.pieces)
    reports = []
    for i, piece in enumerate(cover.pieces):
        rep = maps_equal(query.phi, query.psi, query.ring, query.variance,
                         piece=piece.mask)
        reports.append(PieceReport(piece.name or f"K{i}", rep.equal,
                                   rep.first_failing_degree, rep.by_degree))
    return CoverCertificate(query, cover, cover_ok, missing, tuple(reports),
                            cover_ok and all(r.equal for r in reports))


def lower_bound(query: DistanceQuery):
    """(lcp of the difference image, witness product), in either variance:
    over a field both give one verdict per piece, and a cover for Z homology
    is one for Q homology (H_*(P; Q) = H_*(P; Z) (x) Q), so it takes Q's."""
    ring = query.ring
    if query.variance == HOMOLOGY and not ring.is_field:
        ring = QQ
    return lcp_with_witness(J_generators(query.phi, query.psi, ring))


# ---------------------------------------------------------------------------
# search


class _PieceChecker:
    """Memoized evaluation of face sets as candidate cover pieces.

    A face set is an int bit mask over the source's maximal faces.  A piece
    is not built as a complex: each maximal face's closure is kept as a mask
    over the source's chain bases, and the piece of a face set is a
    :class:`homology.PairingState` grown from the query's empty piece
    (:func:`homology.pairing_state`) by its faces' masks.  The query's
    maps are compared on it by :func:`homology.equality_obstruction`, once
    per face set; whether a state pairs with cycles is decided there, from
    the query's ring.

    Verdicts are memoized, states are not: the checker keeps each face's
    closure, the empty state and the verdicts, and no other state.  One
    checker serves a whole query: :func:`bounds_for` evaluates every size
    through it, exhaustive and greedy alike, so no face set is evaluated
    twice in a query.  A search owns the states it grows and tells
    :meth:`evaluated` how to build a piece's state from one of them; a
    piece it does not, such as an assignment of exhaustive search's first
    pass, grows from the empty state.  :meth:`removals` and
    :meth:`verdict_table` grow the states they walk from one another and
    drop them as they go.
    """

    def __init__(self, query: DistanceQuery):
        self.query = query
        source = query.source
        self.faces = source.maximal_faces
        self._closures = [_closure_mask(source, key) for key in source.maximal_keys()]
        self._cache = {0: 0}  # the empty piece is vacuous
        self._empty = pairing_state(query.phi, query.psi, query.ring)

    def subcomplex(self, face_set: int, name="") -> Subcomplex:
        return Subcomplex.spanned_by(self.query.source,
                                     [self.faces[i] for i in _bit_indices(face_set)],
                                     name=name)

    def mask(self, face_set: int):
        """The piece spanned by the faces, as a mask over the source's bases."""
        return self._union(_bit_indices(face_set))

    def _union(self, faces):
        """The piece spanned by the faces with these indices, as a mask."""
        bits = [0] * len(self._closures[0])
        for i in faces:
            for d, b in enumerate(self._closures[i]):
                bits[d] |= b
        return tuple(bits)

    def _evaluate(self, face_set: int, piece) -> int:
        q = self.query
        hit = self._cache[face_set] = equality_obstruction(
            q.phi, q.psi, q.ring, q.variance, piece=piece)
        return hit

    def evaluated(self, face_set: int, grow=None):
        """``(obstruction, state)``: the state is the one built to evaluate
        the piece, or None when its verdict was memoized.  ``grow()``, when
        given, builds the state; otherwise it grows from the empty state."""
        hit = self._cache.get(face_set)
        if hit is not None:
            return hit, None
        piece = grow() if grow else self._empty.extended(self.mask(face_set))
        return self._evaluate(face_set, piece), piece

    def obstruction(self, face_set: int) -> int:
        """0 when the restrictions agree on the piece."""
        return self.evaluated(face_set)[0]

    def passes(self, face_set: int) -> bool:
        return self.obstruction(face_set) == 0

    def removals(self, face_set: int):
        """Yield ``(f, grow)`` for each face f of the nonempty set, in
        ascending bit order, where ``grow()`` returns the state of the
        piece without f; it is valid until the walk resumes.

        Divide and conquer: the faces are split into halves, the states
        without a face of one half grow from the state without that whole
        half, and so on down to single faces.  A state is built on the
        first ``grow()`` that needs it, from the nearest state built above
        it, so a removal whose verdict is memoized costs nothing.  The walk
        keeps its path, one entry per level (the state, or None before it
        is built, and the faces it adds to the level above), so at most
        ``ceil(log2 k) + 1`` states are alive for k faces, the empty one
        included, and the states of all k removals cost O(k log k) face
        extensions in all, against O(k^2) from the empty state.
        """
        faces = _bit_indices(face_set)
        path = [[self._empty, ()]]

        def grow():
            top = len(path) - 1
            while path[top][0] is None:
                top -= 1
            for level in range(top + 1, len(path)):
                path[level][0] = path[level - 1][0].extended(
                    self._union(path[level][1]))
            return path[-1][0]

        for f in _halving(faces, path, 0, len(faces)):
            yield f, grow

    def verdict_table(self) -> bytearray:
        """``table[m]`` is 1 when the piece of the face set ``m`` passes (the
        empty piece does), 0 otherwise; each of the ``2^n - 1`` nonempty
        face sets is evaluated once, verdicts already memoized included.

        The sets are walked as a tree, depth first: a set's children add
        one face above its highest one, and each piece grows from its
        parent's by that face.  A set's state is built only when the set
        is evaluated or has children, and lives while its subtree is
        walked.
        """
        table = bytearray(1 << len(self.faces))
        table[0] = 1
        self._fill(table, 0, self._empty)
        return table

    def _fill(self, table, parent: int, state):
        """Enter the verdicts of the face sets below ``parent``, whose
        piece has the state ``state``, into ``table``.  A method, as
        :func:`_halving` is a module function: a nested function that
        calls itself is a reference cycle, which would keep the walk's
        objects alive until the cyclic collector ran."""
        n = len(self.faces)
        for top in range(parent.bit_length(), n):
            m, closure = parent | 1 << top, self._closures[top]
            hit, piece = self.evaluated(m, partial(state.extended, closure))
            table[m] = hit == 0
            if top < n - 1:
                self._fill(table, m, piece or state.extended(closure))

    def cover_from(self, face_sets) -> Cover:
        pieces = [self.subcomplex(fs, name=f"S{i}")
                  for i, fs in enumerate(face_sets) if fs]
        return Cover(self.query.source, pieces)

    def certificate(self, face_sets) -> CoverCertificate:
        """The cover of the face sets (:meth:`cover_from`), verified."""
        return verify(self.query, self.cover_from(face_sets))


def _closure_mask(K: SimplicialComplex, key) -> tuple:
    """The closure of the simplex with position key ``key`` as a mask over
    K's chain bases; the closure of a face is a subcomplex by construction."""
    index, bits = K.index, [0] * (K.dim + 1)
    for n in range(1, len(key) + 1):
        for sub in itertools.combinations(key, n):
            bits[n - 1] |= 1 << index[sub]
    return tuple(bits)


def _halving(faces, path, lo: int, hi: int):
    """Yield ``faces[lo:hi]`` in order.  While a face is yielded, ``path``
    ends with one ``[None, kept]`` per halving of ``[lo, hi)`` down to it,
    ``kept`` the faces of the other half.  A walk at module level holds no
    reference cycle, so its states are freed as soon as it ends."""
    if hi - lo == 1:
        yield faces[lo]
        return
    mid = (lo + hi) // 2
    for a, b, kept in ((lo, mid, faces[mid:hi]), (mid, hi, faces[lo:mid])):
        path.append([None, kept])
        yield from _halving(faces, path, a, b)
        path.pop()


def exhaustive_count(n_faces: int, size: int) -> int:
    return (2 ** size - 1) ** n_faces


def _assignments(n: int, size: int, fits):
    """Assign faces 0..n-1 to nonempty sets of `size` pieces, in the order
    of ``itertools.product`` over the membership patterns, and yield each
    assignment as the list of its pieces' face masks.  A branch is cut as
    soon as ``fits`` rejects a piece that a face joins.  The list yielded is
    the walk's own state, so read it before resuming the walk.  The walk
    keeps its own stack, so thousands of faces do not recurse."""
    patterns = [[j for j, inside in enumerate(m) if inside]
                for m in itertools.product((False, True), repeat=size) if any(m)]
    pieces = [0] * size
    stack = []  # each assigned face's pattern and the patterns it has left
    left = iter(patterns)
    while True:
        bit = 1 << len(stack)
        if len(stack) == n:
            yield pieces
        else:
            pattern = next((p for p in left
                            if all(fits(pieces[j] | bit) for j in p)), None)
            if pattern is not None:
                for j in pattern:
                    pieces[j] |= bit
                stack.append((pattern, left))
                left = iter(patterns)
                continue
        if not stack:
            return
        pattern, left = stack.pop()
        for j in pattern:
            pieces[j] ^= 1 << len(stack)


def search_exhaustive(query: DistanceQuery, size: int,
                      budget: int = DEFAULT_BUDGET) -> Cover | None:
    """Decide whether some cover by `size` pieces spanned by maximal faces
    satisfies the query; return a verified cover, or None as a proof that
    none exists.

    The candidates are the assignments of each maximal face to a nonempty
    set of pieces, ``(2^size - 1)^n`` of them for n faces, in the order of
    ``itertools.product`` over the membership patterns; the budget caps
    that count.  See :func:`_exhaustive` for the walk.
    """
    return search(query, size, "exhaustive", budget)


def _exhaustive(checker, size):
    """The certificate of the first cover by `size` pieces that verifies,
    or None.

    One walk, :func:`_assignments`, runs uncut over the first ``2^n``
    assignments, each piece evaluated with memo, so an early cover costs a
    few evaluations; for one piece these are all of them.  Past them every
    nonempty face set is evaluated once into a table of verdicts (the memo
    is reused) and the walk runs again, cut at the first partial piece the
    table rejects.  A piece that passes passes on every sub-piece
    (restriction to it factors through the inclusion), so the cut walk
    reaches exactly the all-passing assignments, in the same order, and
    returns the first that verifies.  A proof that no cover by two or more
    pieces exists therefore makes ``2^n - 1`` evaluations, fewer when the
    checker already holds verdicts.
    """
    n = len(checker.faces)
    total = exhaustive_count(n, size)
    first = min(total, 1 << n)
    if first > sys.maxsize:
        raise BudgetExceededError(f"a table of 2^{n} verdicts is too large to index")
    early = itertools.islice(_assignments(n, size, lambda m: True), first)
    found = _first_verified(checker, (p for p in early if all(map(checker.passes, p))))
    if found or first == total:
        return found
    table = checker.verdict_table()
    return _first_verified(checker, _assignments(n, size, table.__getitem__))


def search_greedy(query: DistanceQuery, size: int, seed: int = 0,
                  restarts: int = 24) -> Cover | None:
    """Grow pieces face by face, then repair by local moves; return a
    verified cover by `size` pieces, or None.  See :func:`_greedy`."""
    _check_size(size)
    return _cover(_greedy(_PieceChecker(query), size, seed, restarts))


def _greedy(checker, size, seed=0, restarts=24):
    """The certificate of the first cover by `size` pieces that greedy
    search finds and verifies, or None.

    Faces are assigned in order to the piece with the least obstruction
    (ties to the lower piece index).  Repair scans failing pieces for the
    first move or copy of a face that strictly lowers the total
    obstruction.  Face orders are reshuffled per restart from the seed.
    The result is re-verified before being returned.

    The search keeps each piece's state beside its face set.  A piece that
    gains a face grows from its own state by that face; the pieces a repair
    scan removes a face from grow from one another
    (:meth:`_PieceChecker.removals`): O(k log k) face extensions for the k
    removals of a piece of k faces, not O(k^2).
    """
    n = len(checker.faces)
    rng = random.Random(seed)

    def repaired():
        for attempt in range(max(1, restarts)):
            order = list(range(n))
            if attempt:
                rng.shuffle(order)
            yield _repair(checker, *_grown(checker, order, size), max_steps=4 * n)

    return _first_verified(checker, filter(None, repaired()))


def _first_verified(checker, candidates):
    """The certificate of the first candidate's cover (a list of face
    sets) that verifies, or None; each is verified before the next is
    drawn, so a walk may yield its own state."""
    return next(filter(attrgetter("verified"), map(checker.certificate, candidates)), None)


def _cover(cert):
    return cert.cover if cert else None


def _grown(checker, order, size):
    """Greedy's first pass: ``(face_sets, states)`` of ``size`` pieces
    after each face in ``order`` has joined the piece with the least
    obstruction with it, whose state grows by the face."""
    face_sets, states = [0] * size, [checker._empty] * size
    for f in order:
        bit, closure = 1 << f, checker._closures[f]
        scores = [checker.evaluated(fs | bit, partial(state.extended, closure))
                  for fs, state in zip(face_sets, states)]
        j = min(range(size), key=lambda j: scores[j][0])
        face_sets[j] |= bit
        states[j] = scores[j][1] or states[j].extended(closure)
    return face_sets, states


def _repair(checker, face_sets, states, max_steps):
    obs = [checker.obstruction(fs) for fs in face_sets]
    for _ in range(max_steps):
        if not any(obs):
            return face_sets
        move = _first_improving_move(checker, face_sets, states, obs)
        if move is None:
            return None
        for j, fs, state in move:
            face_sets[j], states[j] = fs, state
        obs = [checker.obstruction(fs) for fs in face_sets]
    return None


def _first_improving_move(checker, face_sets, states, obs):
    """The first move or copy of a face out of a failing piece that
    strictly lowers the total obstruction, as the pieces it changes:
    ``(index, face set, state)`` each.  The piece that loses the face comes
    with its state from :meth:`_PieceChecker.removals`; the piece that
    gains it with the state built to evaluate it or, when its verdict was
    memoized, its own state grown by the face."""
    size = len(face_sets)
    for src in range(size):
        if obs[src] == 0:
            continue
        for f, grow in checker.removals(face_sets[src]):
            bit, closure = 1 << f, checker._closures[f]
            left = face_sets[src] ^ bit
            for dst in range(size):
                if dst == src:
                    continue
                joined = face_sets[dst] | bit
                grow_dst = partial(states[dst].extended, closure)
                gain_dst, state = checker.evaluated(joined, grow_dst)
                if left:
                    new_src, _ = checker.evaluated(left, grow)
                    if new_src + gain_dst < obs[src] + obs[dst]:
                        return [(src, left, grow()), (dst, joined, state or grow_dst())]
                if gain_dst < obs[dst]:
                    return [(dst, joined, state or grow_dst())]
    return None


def search(query: DistanceQuery, size: int, strategy: str = "auto",
           budget: int = DEFAULT_BUDGET, seed: int = 0) -> Cover | None:
    """Find a verified cover by `size` pieces, or None.

    ``exhaustive`` also proves nonexistence; ``auto`` uses it whenever the
    enumeration fits the budget and falls back to greedy otherwise
    (:func:`_size_plan`, as :func:`bounds_for` decides each size).
    """
    exhaustive, _ = _size_plan(len(query.source.maximal_faces), size, strategy, budget)
    checker = _PieceChecker(query)
    return _cover(_exhaustive(checker, size) if exhaustive else _greedy(checker, size, seed))


def _size_plan(n_faces: int, size: int, strategy: str, budget: int,
               exhaustive_upto: int | None = None, per_size: bool = False):
    """How to search for a cover by `size` pieces of a source with
    `n_faces` maximal faces: ``(exhaustive, note)``.

    Exhaustive search is asked for by the strategy ``exhaustive``, or by
    ``exhaustive_upto`` up to that size; ``auto`` takes it whenever its
    ``(2^size - 1)^n`` assignments fit the budget.  An exhaustive search
    asked for past the budget is searched greedily, with a note, under
    ``auto``, and raises :class:`BudgetExceededError` otherwise, in the
    words of a bound report (``per_size``) or of a search.
    """
    _check_size(size)
    _check_strategy(strategy)
    total = exhaustive_count(n_faces, size)
    asked = strategy == "exhaustive" or size <= (exhaustive_upto or 0)
    if total <= budget and (asked or strategy == "auto"):
        return True, None
    if not asked:
        return False, None
    if strategy == "auto":
        return False, (f"exhaustive search at {size} pieces exceeds the "
                       f"budget of {budget}; searched greedily")
    raise BudgetExceededError(
        f"exhaustive search at {size} pieces exceeds the budget" if per_size
        else f"{total} candidate covers exceed the budget of {budget}")


def _check_size(size: int):
    if size < 1:
        raise ValueError("size must be at least 1")


def _check_strategy(strategy: str):
    if strategy not in STRATEGIES:
        raise ValueError(f"unknown strategy {strategy!r}")


# ---------------------------------------------------------------------------
# bound reports


@dataclass
class BoundReport:
    """Lower/upper bounds on a distance query, with their evidence."""

    query: DistanceQuery
    lower: int
    lower_witness: ProductWitness | None
    upper: int | None
    certificate: CoverCertificate | None
    exact: int | None
    notes: list = field(default_factory=list)

    def __post_init__(self):
        if self.upper is not None and self.lower > self.upper:
            raise ValueError("lower bound exceeds upper bound")

    def to_dict(self):
        return {
            "lower": self.lower,
            "upper": self.upper,
            "exact": self.exact,
            "lower_witness_degrees": (list(self.lower_witness.degrees)
                                      if self.lower_witness else None),
            "certificate": self.certificate.to_dict() if self.certificate else None,
            "notes": list(self.notes),
        }


def bounds_for(query: DistanceQuery, cover: Cover | None = None,
               strategy: str = "auto", budget: int = DEFAULT_BUDGET, seed: int = 0,
               max_size: int | None = None,
               exhaustive_upto: int | None = None) -> BoundReport:
    """Bounds for an arbitrary query; hscat/hstc are the common wrappers.

    The lower bound is the cup-length of the difference image.  A supplied
    cover that verifies is the upper bound; otherwise sizes from the lower
    bound + 1 up are searched, each as :func:`_size_plan` decides, all
    through one :class:`_PieceChecker`, until a search returns the
    certificate of a cover it verified.  An exhaustive search that finds
    none raises the lower bound.  When no size yields a cover, the
    one-piece-per-face cover is verified instead.
    """
    _check_strategy(strategy)
    if max_size is not None and max_size < 1:
        raise ValueError(f"max_size must be at least 1, got {max_size}")
    if exhaustive_upto is not None and exhaustive_upto < 1:
        raise ValueError(f"exhaustive_upto must be at least 1, got {exhaustive_upto}")
    lower, witness = lower_bound(query)
    notes = []
    if cover is not None:
        cert = verify(query, cover)
        if cert.verified:
            exact = cert.n if cert.n == lower else None
            return BoundReport(query, lower, witness, cert.n, cert, exact, notes)
        notes.append("supplied cover failed verification")
    checker = _PieceChecker(query)
    n_faces = len(checker.faces)
    hard_cap = n_faces if max_size is None else min(max_size, n_faces)
    for size in range(lower + 1, hard_cap + 1):
        exhaustive, note = _size_plan(n_faces, size, strategy, budget,
                                      exhaustive_upto, per_size=True)
        if note:
            notes.append(note)
        cert = _exhaustive(checker, size) if exhaustive else _greedy(checker, size, seed)
        if cert:
            break
        if exhaustive:
            notes.append(f"no cover with {size} pieces (exhaustive)")
            lower = size
        else:
            notes.append(f"greedy found no cover with {size} pieces")
    else:
        # one maximal simplex per piece always verifies for a connected target
        cert = checker.certificate([1 << i for i in range(n_faces)])
        if cert.verified:
            notes.append("fell back to the one-piece-per-face cover")
    upper = cert.n if cert.verified else None
    exact = upper if upper == lower else None
    return BoundReport(query, lower, witness, upper, cert, exact, notes)


def hscat(K: SimplicialComplex, ring: Ring, cover: Cover | None = None,
          strategy: str = "auto", budget: int = DEFAULT_BUDGET, seed: int = 0,
          max_size: int | None = None, exhaustive_upto: int | None = None) -> BoundReport:
    """Bounds on the cohomological category of K (constant versus identity)."""
    return bounds_for(scat_query(K, ring), cover, strategy, budget, seed,
                      max_size, exhaustive_upto)


def hstc(K: SimplicialComplex, ring: Ring, cover: Cover | None = None,
         strategy: str = "auto", budget: int = DEFAULT_BUDGET, seed: int = 0,
         max_size: int | None = None, exhaustive_upto: int | None = None) -> BoundReport:
    """Bounds on the cohomological complexity of K (the two projections)."""
    return bounds_for(stc_query(K, ring), cover, strategy, budget, seed,
                      max_size, exhaustive_upto)


def subdivision_monotonicity_check(query: DistanceQuery, cover: Cover) -> bool:
    """Subdivide a verified cover and re-verify it for the subdivided maps.

    Constructive witness that subdividing never increases the distance.
    """
    sd_source, _ = barycentric_subdivision(query.source)
    sd_target, _ = barycentric_subdivision(query.target)
    sd_phi = sd_map(query.phi, sd_source, sd_target)
    sd_psi = sd_map(query.psi, sd_source, sd_target)
    sd_cov = subdivide_cover(cover, sd_source)
    sd_query = DistanceQuery(sd_phi, sd_psi, query.ring, query.variance)
    return verify(sd_query, sd_cov).verified
