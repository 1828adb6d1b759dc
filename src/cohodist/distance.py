"""Cover certificates for the simplicial cohomological and homological
distance: verification, cup-product lower bounds, cover search, and the
category/complexity conveniences.

A distance query fixes a pair of parallel simplicial maps, a coefficient
ring and a variance.  Its value is the least n admitting a cover of the
source by n+1 subcomplexes on which the two maps induce equal maps in
every degree.  ``verify`` checks a proposed cover and records per-piece,
per-degree verdicts; failures are recorded, never thrown.

Search explores pieces spanned by subsets of the source's maximal faces.
For a connected target this loses nothing: an isolated vertex changes
neither positive-degree cohomology nor the always-equal degree-0
comparison, and in dimension one every subcomplex is of this form up to
isolated vertices.  A candidate piece is evaluated as a mask over the
source's chain complex and never built; ``verify`` builds every piece of
a cover before search returns it and checks it again.  Exhaustive
enumeration proves nonexistence within that family; the greedy strategy
grows pieces face by face and repairs by local moves, re-verifying any
cover before returning it.

Everything is pure and deterministic given the seed; independent pieces
and candidate covers could be evaluated concurrently without changing any
verdict.
"""

import itertools
import random
from dataclasses import dataclass, field

from .complexes import (
    Cover,
    SimplicialComplex,
    SimplicialMap,
    Subcomplex,
    barycentric_subdivision,
    is_cover,
    product,
    restrict,
    sd_map,
    subdivide_cover,
)
from .cupring import J_generators, ProductWitness, lcp_with_witness
from .errors import BudgetExceededError, NotASubcomplexError, VarianceUnsupportedError
from .exactalg import Ring
from .homology import (
    COHOMOLOGY,
    HOMOLOGY,
    chain_complex,
    equality_obstruction,
    maps_equal,
)

DEFAULT_BUDGET = 2 ** 24


@dataclass(frozen=True)
class DistanceQuery:
    """A pair of parallel maps plus coefficients and variance."""

    phi: SimplicialMap
    psi: SimplicialMap
    ring: Ring
    variance: str = COHOMOLOGY

    def __post_init__(self):
        if self.phi.source != self.psi.source or self.phi.target != self.psi.target:
            raise ValueError("maps must share source and target")
        if self.variance not in (COHOMOLOGY, HOMOLOGY):
            raise ValueError(f"bad variance {self.variance!r}")

    @property
    def source(self) -> SimplicialComplex:
        return self.phi.source

    @property
    def target(self) -> SimplicialComplex:
        return self.phi.target


def scat_query(K: SimplicialComplex, ring: Ring, variance=COHOMOLOGY,
               basepoint=None) -> DistanceQuery:
    """Category query: constant map versus the identity."""
    return DistanceQuery(SimplicialMap.constant(K, K, basepoint),
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
    all_equal = True
    for i, piece in enumerate(cover.pieces):
        rep = maps_equal(restrict(query.phi, piece), restrict(query.psi, piece),
                         query.ring, query.variance)
        all_equal = all_equal and rep.equal
        reports.append(PieceReport(piece.name or f"K{i}", rep.equal,
                                   rep.first_failing_degree, rep.by_degree))
    return CoverCertificate(query, cover, cover_ok, missing, tuple(reports),
                            cover_ok and all_equal)


def lower_bound(query: DistanceQuery):
    """(lcp of the difference image, witness product); cohomology only."""
    if query.variance != COHOMOLOGY:
        raise VarianceUnsupportedError(
            "the cup-length lower bound applies to the cohomology variance")
    J = J_generators(query.phi, query.psi, query.ring)
    return lcp_with_witness(J)


# ---------------------------------------------------------------------------
# search


class _PieceChecker:
    """Memoized evaluation of face subsets as candidate cover pieces.

    A piece is not built as a complex: each maximal face's closure is kept
    as a mask over the source's chain bases, the piece of a face set is the
    union of its faces' masks, and the query's maps are compared on it by
    :func:`homology.equality_obstruction`.
    """

    def __init__(self, query: DistanceQuery):
        self.query = query
        self.faces = query.source.maximal_faces
        data = chain_complex(query.source)
        self._closures = [data.closure_mask([f]) for f in self.faces]
        self._cache = {}

    def subcomplex(self, face_set, name="") -> Subcomplex:
        return Subcomplex.spanned_by(self.query.source,
                                     [self.faces[i] for i in sorted(face_set)],
                                     name=name)

    def mask(self, face_set):
        """The piece spanned by the faces, as a mask over the source's bases."""
        bits = [0] * len(self._closures[0])
        for i in face_set:
            for d, b in enumerate(self._closures[i]):
                bits[d] |= b
        return tuple(bits)

    def obstruction(self, face_set) -> int:
        """0 when the restrictions agree on the piece (empty piece is vacuous)."""
        fs = frozenset(face_set)
        if not fs:
            return 0
        hit = self._cache.get(fs)
        if hit is None:
            q = self.query
            hit = equality_obstruction(q.phi, q.psi, q.ring, q.variance,
                                       piece=self.mask(fs))
            self._cache[fs] = hit
        return hit

    def passes(self, face_set) -> bool:
        return self.obstruction(face_set) == 0

    def cover_from(self, face_sets) -> Cover:
        pieces = [self.subcomplex(fs, name=f"S{i}")
                  for i, fs in enumerate(face_sets) if fs]
        return Cover(self.query.source, pieces)


def exhaustive_count(n_faces: int, size: int) -> int:
    return (2 ** size - 1) ** n_faces


def search_exhaustive(query: DistanceQuery, size: int,
                      budget: int = DEFAULT_BUDGET) -> Cover | None:
    """Try every assignment of maximal faces to nonempty piece subsets.

    Returns a verified cover, or None as a proof that no cover by `size`
    pieces spanned by maximal faces satisfies the query.
    """
    checker = _PieceChecker(query)
    n = len(checker.faces)
    total = exhaustive_count(n, size)
    if total > budget:
        raise BudgetExceededError(
            f"{total} candidate covers exceed the budget of {budget}")
    memberships = [m for m in itertools.product((False, True), repeat=size) if any(m)]
    for assignment in itertools.product(range(len(memberships)), repeat=n):
        face_sets = [set() for _ in range(size)]
        for face_idx, m_idx in enumerate(assignment):
            for j, inside in enumerate(memberships[m_idx]):
                if inside:
                    face_sets[j].add(face_idx)
        if all(checker.passes(fs) for fs in face_sets):
            cover = checker.cover_from(face_sets)
            cert = verify(query, cover)
            if cert.verified:
                return cover
    return None


def search_greedy(query: DistanceQuery, size: int, seed: int = 0,
                  restarts: int = 24) -> Cover | None:
    """Grow pieces face by face, then repair by local moves.

    Faces are assigned in order to the piece with the least obstruction
    (ties to the lower piece index).  Repair scans failing pieces for the
    first move or copy of a face that strictly lowers the total
    obstruction.  Face orders are reshuffled per restart from the seed.
    The result is re-verified before being returned.
    """
    checker = _PieceChecker(query)
    n = len(checker.faces)
    rng = random.Random(seed)
    base_order = list(range(n))
    for attempt in range(max(1, restarts)):
        order = list(base_order)
        if attempt:
            rng.shuffle(order)
        face_sets = [set() for _ in range(size)]
        for face_idx in order:
            scored = []
            for j in range(size):
                ob = checker.obstruction(face_sets[j] | {face_idx})
                scored.append((ob, j))
            ob, j = min(scored)
            face_sets[j].add(face_idx)
        face_sets = _repair(checker, face_sets, max_steps=4 * n)
        if face_sets is not None:
            cover = checker.cover_from(face_sets)
            cert = verify(query, cover)
            if cert.verified:
                return cover
    return None


def _repair(checker, face_sets, max_steps):
    size = len(face_sets)
    obs = [checker.obstruction(fs) for fs in face_sets]
    for _ in range(max_steps):
        total = sum(obs)
        if total == 0:
            return face_sets
        move = _first_improving_move(checker, face_sets, obs, total)
        if move is None:
            return None
        kind, f, src, dst = move
        if kind == "move":
            face_sets[src].discard(f)
        face_sets[dst].add(f)
        obs = [checker.obstruction(fs) for fs in face_sets]
    return None


def _first_improving_move(checker, face_sets, obs, total):
    size = len(face_sets)
    for src in range(size):
        if obs[src] == 0:
            continue
        for f in sorted(face_sets[src]):
            for dst in range(size):
                if dst == src:
                    continue
                gain_dst = checker.obstruction(face_sets[dst] | {f})
                if len(face_sets[src]) > 1:
                    new_src = checker.obstruction(face_sets[src] - {f})
                    new_total = (total - obs[src] - obs[dst]) + new_src + gain_dst
                    if new_total < total:
                        return ("move", f, src, dst)
                new_total = (total - obs[dst]) + gain_dst
                if new_total < total:
                    return ("copy", f, src, dst)
    return None


def search(query: DistanceQuery, size: int, strategy: str = "auto",
           budget: int = DEFAULT_BUDGET, seed: int = 0,
           restarts: int = 24) -> Cover | None:
    """Find a verified cover by `size` pieces, or None.

    ``exhaustive`` also proves nonexistence; ``auto`` uses it whenever the
    enumeration fits the budget and falls back to greedy otherwise.
    """
    if size < 1:
        raise ValueError("size must be at least 1")
    if strategy not in ("auto", "exhaustive", "greedy"):
        raise ValueError(f"unknown strategy {strategy!r}")
    n = len(query.source.maximal_faces)
    if strategy == "exhaustive":
        return search_exhaustive(query, size, budget)
    if strategy == "auto" and exhaustive_count(n, size) <= budget:
        return search_exhaustive(query, size, budget)
    return search_greedy(query, size, seed=seed, restarts=restarts)


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


def _bound_pipeline(query: DistanceQuery, cover, strategy, budget, seed,
                    max_size, exhaustive_upto) -> BoundReport:
    if max_size is not None and max_size < 1:
        raise ValueError(f"max_size must be at least 1, got {max_size}")
    lower, witness = lower_bound(query)
    notes = []
    if cover is not None:
        cert = verify(query, cover)
        if cert.verified:
            upper = cert.n
        else:
            upper = None
            notes.append("supplied cover failed verification")
        if upper is not None:
            exact = upper if upper == lower else None
            return BoundReport(query, lower, witness, upper, cert, exact, notes)
    n_faces = len(query.source.maximal_faces)
    hard_cap = n_faces if max_size is None else min(max_size, n_faces)
    size = lower + 1
    upper = None
    cert = None
    while size <= hard_cap:
        feasible = exhaustive_count(n_faces, size) <= budget
        want_exhaustive = (strategy == "exhaustive"
                           or (strategy == "auto" and feasible)
                           or (exhaustive_upto is not None and size <= exhaustive_upto))
        if want_exhaustive and not feasible and strategy != "auto":
            raise BudgetExceededError(
                f"exhaustive search at {size} pieces exceeds the budget")
        if want_exhaustive and feasible:
            found = search_exhaustive(query, size, budget)
            if found is None:
                notes.append(f"no cover with {size} pieces (exhaustive)")
                lower = size
                size += 1
                continue
        else:
            found = search_greedy(query, size, seed=seed)
            if found is None:
                notes.append(f"greedy found no cover with {size} pieces")
                size += 1
                continue
        cert = verify(query, found)
        upper = cert.n
        break
    if upper is None:
        # one maximal simplex per piece always verifies for a connected target
        checker = _PieceChecker(query)
        cover = checker.cover_from([{i} for i in range(n_faces)])
        cert = verify(query, cover)
        if cert.verified:
            upper = cert.n
            notes.append("fell back to the one-piece-per-face cover")
    exact = upper if upper == lower else None
    return BoundReport(query, lower, witness, upper, cert, exact, notes)


def bounds_for(query: DistanceQuery, cover: Cover | None = None,
               strategy: str = "auto", budget: int = DEFAULT_BUDGET, seed: int = 0,
               max_size: int | None = None,
               exhaustive_upto: int | None = None) -> BoundReport:
    """Bounds for an arbitrary query; hscat/hstc are the common wrappers."""
    return _bound_pipeline(query, cover, strategy, budget, seed, max_size,
                           exhaustive_upto)


def hscat(K: SimplicialComplex, ring: Ring, cover: Cover | None = None,
          strategy: str = "auto", budget: int = DEFAULT_BUDGET, seed: int = 0,
          max_size: int | None = None, exhaustive_upto: int | None = None) -> BoundReport:
    """Bounds on the cohomological category of K (constant versus identity)."""
    return _bound_pipeline(scat_query(K, ring), cover, strategy, budget, seed,
                           max_size, exhaustive_upto)


def hstc(K: SimplicialComplex, ring: Ring, cover: Cover | None = None,
         strategy: str = "auto", budget: int = DEFAULT_BUDGET, seed: int = 0,
         max_size: int | None = None, exhaustive_upto: int | None = None) -> BoundReport:
    """Bounds on the cohomological complexity of K (the two projections)."""
    return _bound_pipeline(stc_query(K, ring), cover, strategy, budget, seed,
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
