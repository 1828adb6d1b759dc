"""Simplicial cup products and the cup-length invariants built on them.

Products use the front-face/back-face (Alexander-Whitney) formula in the
complex's fixed vertex order.  All class-level questions (equality, being
zero, products of sets of classes) are answered through the canonical
coordinates provided by the cohomology presentations, so torsion over Z is
handled correctly: a class is zero iff its representative is a coboundary.

``lcp_of_set`` quantifies over products of the given classes with
repetition allowed.  Since the cup product is distributive, products of
module generators detect exactly what products of arbitrary elements of
their span would; the invariants below rely on that reduction.
"""

from .complexes import SimplicialComplex, SimplicialMap, product
from .errors import ComplexMismatchError, NotAFieldError, RingMismatchError
from .exactalg import Ring
from .homology import _cochain_differences, _require_parallel, chain_complex, cohomology

class CohomologyClass:
    """A cohomology class of one degree, carried by a cochain representative."""

    __slots__ = ("complex", "ring", "degree", "vector", "_coords")

    def __init__(self, K: SimplicialComplex, ring: Ring, degree: int, vector,
                 check: bool = True):
        data = chain_complex(K)
        vector = tuple(ring.normalize(x) for x in vector)
        if len(vector) != data.rank_of(degree):
            raise ValueError(f"vector has length {len(vector)}, "
                             f"expected {data.rank_of(degree)}")
        self.complex = K
        self.ring = ring
        self.degree = degree
        self.vector = vector
        self._coords = None
        if check and not self._is_cocycle():
            raise ValueError("representative is not a cocycle")

    def _is_cocycle(self) -> bool:
        data = chain_complex(self.complex)
        out = [0] * data.rank_of(self.degree + 1)
        for v, col in zip(self.vector, data.sparse_coboundary(self.degree)):
            if v:
                for j in col:
                    if j >= 0:
                        out[j] += v
                    else:
                        out[~j] -= v
        return not any(map(self.ring.normalize, out))

    def coordinates(self):
        """Canonical coordinates in H^degree (cached)."""
        if self._coords is None:
            pres = cohomology(self.complex, self.ring).presentation(self.degree)
            self._coords = pres.coordinates(list(self.vector))
        return self._coords

    def is_zero(self) -> bool:
        return not any(self.coordinates())

    def key(self):
        return (self.degree, self.coordinates())

    def __eq__(self, other):
        return (isinstance(other, CohomologyClass)
                and self.complex == other.complex and self.ring == other.ring
                and self.key() == other.key())

    def __hash__(self):
        return hash((self.complex, self.ring, self.key()))

    def __repr__(self):
        tag = "0" if self.is_zero() else str(self.coordinates())
        return f"CohomologyClass(deg {self.degree}, {tag})"


def zero_class(K, ring, degree) -> CohomologyClass:
    n = chain_complex(K).rank_of(degree)
    return CohomologyClass(K, ring, degree, [ring.zero] * n, check=False)


def unit_class(K, ring) -> CohomologyClass:
    """The degree-0 unit: the constant-1 cochain on vertices."""
    n = chain_complex(K).rank_of(0)
    return CohomologyClass(K, ring, 0, [ring.one] * n, check=False)


def cup(alpha: CohomologyClass, beta: CohomologyClass) -> CohomologyClass:
    """Front/back product; the result lives in degree |alpha| + |beta|.

    >>> from cohodist.fixtures import fixture_complex
    >>> from cohodist.exactalg import GF2
    >>> K = fixture_complex("s2")
    >>> u = unit_class(K, GF2)
    >>> cup(u, u).vector == u.vector
    True
    """
    if alpha.complex != beta.complex:
        raise ComplexMismatchError("classes live on different complexes")
    if alpha.ring != beta.ring:
        raise RingMismatchError("classes have different coefficients")
    K, R = alpha.complex, alpha.ring
    p, q = alpha.degree, beta.degree
    data = chain_complex(K)
    n = data.rank_of(p + q)
    if n == 0:
        return zero_class(K, R, p + q)
    index = data.index  # faces of a key are keys: its slices stay sorted
    out = [0] * n
    for i, s in enumerate(data.keys[p + q]):
        a = alpha.vector[index[s[:p + 1]]]
        if a:
            out[i] = a * beta.vector[index[s[p:]]]
    return CohomologyClass(K, R, p + q, out, check=False)  # normalizes each entry


def positive_generators(K: SimplicialComplex, ring: Ring):
    """Module generators of H^{>0}(K;R) as classes (torsion ones included)."""
    gm = cohomology(K, ring)
    out = []
    for d in range(1, K.dim + 1):
        for gen in gm.presentation(d).gens:
            out.append(CohomologyClass(K, ring, d, gen, check=False))
    return out


class GradedClassSet:
    """A finite set of positive-degree classes on one complex."""

    __slots__ = ("classes",)

    def __init__(self, classes):
        classes = tuple(classes)
        for c in classes:
            if c.degree < 1:
                raise ValueError("classes must have positive degree")
        self.classes = classes

    def __iter__(self):
        return iter(self.classes)

    def __len__(self):
        return len(self.classes)

    def nonzero(self):
        return [c for c in self.classes if not c.is_zero()]

    def __repr__(self):
        return f"GradedClassSet({len(self.classes)} classes)"


class ProductWitness:
    """A nonzero product of classes, kept as the factor list plus the product."""

    __slots__ = ("factors", "product")

    def __init__(self, factors, prod):
        self.factors = tuple(factors)
        self.product = prod

    @property
    def degrees(self):
        return tuple(c.degree for c in self.factors)

    def __repr__(self):
        return f"ProductWitness(degrees {list(self.degrees)})"


def lcp_with_witness(classes) -> tuple[int, ProductWitness | None]:
    """Least n such that every (n+1)-fold product of the classes vanishes,
    together with a maximal nonzero product.

    A nonzero k-fold product forces nonzero prefixes, so the answer is the
    largest k admitting a nonzero product (0 when every class is zero).
    """
    classes = GradedClassSet(classes)
    base = []
    seen = set()
    for c in classes.nonzero():
        if c.key() not in seen:
            seen.add(c.key())
            base.append(c)
    if not base:
        return 0, None
    dim = base[0].complex.dim
    level = {c.key(): ProductWitness((c,), c) for c in base}
    depth = 1
    while True:
        nxt = {}
        for wit in level.values():
            for s in base:
                if wit.product.degree + s.degree > dim:
                    continue
                prod = cup(wit.product, s)
                if prod.is_zero():
                    continue
                k = prod.key()
                if k not in nxt:
                    nxt[k] = ProductWitness(wit.factors + (s,), prod)
        if not nxt:
            break
        level = nxt
        depth += 1
    witness = next(iter(level.values()))
    return depth, witness


def lcp_of_set(classes) -> int:
    """The nilpotency length of the set: see :func:`lcp_with_witness`."""
    return lcp_with_witness(classes)[0]


def cup_length(K: SimplicialComplex, ring: Ring) -> int:
    """Classical cup-length: lcp of the positive-degree generators.

    >>> from cohodist.fixtures import fixture_complex
    >>> from cohodist.exactalg import GF2
    >>> cup_length(fixture_complex("point"), GF2)
    0
    """
    return lcp_of_set(positive_generators(K, ring))


def J_generators(phi: SimplicialMap, psi: SimplicialMap, ring: Ring) -> GradedClassSet:
    """Classes (phi* - psi*)(y) for y running over generators of H^{>0}(target).

    Their span is the image of phi* - psi* in positive degrees; the
    degree-0 difference vanishes for a connected target and is omitted.
    """
    _require_parallel(phi, psi)
    return GradedClassSet(CohomologyClass(phi.source, ring, d, diff, check=False)
                          for d in range(1, phi.target.dim + 1)
                          for diff in _cochain_differences(phi, psi, ring, d))


def lcp_ideal(classes, K: SimplicialComplex, ring: Ring) -> int:
    """lcp of the ideal generated by the classes inside H^*(K;R).

    The ideal is module-spanned by the classes themselves plus their
    products with the positive-degree module generators.
    """
    classes = GradedClassSet(classes)
    closure = list(classes)
    for g in positive_generators(K, ring):
        for s in classes:
            if g.degree + s.degree <= K.dim:
                closure.append(cup(g, s))
    return lcp_of_set(closure)


def zero_divisor_cup_length(K: SimplicialComplex, ring: Ring) -> int:
    """lcp of ker(cup: H^* (x) H^* -> H^*) over a field.

    Computed as lcp of the projection differences on K x K, which generate
    the same ideal as the kernel of the product map over a field.
    """
    if not ring.is_field:
        raise NotAFieldError("zero-divisor cup-length needs field coefficients")
    P, pi1, pi2 = product(K, K)
    return lcp_of_set(J_generators(pi1, pi2, ring))
