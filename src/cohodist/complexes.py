"""Finite abstract simplicial complexes, simplicial maps, covers, and the
two constructions everything else leans on: barycentric subdivision and the
staircase triangulation of a product.

A complex carries a fixed total order on its vertices, and keeps each
simplex as its key: the sorted tuple of its vertices' positions in that
order (:meth:`SimplicialComplex.keys_of_dim`).  The keys are all that
construction builds, and the constructor takes nothing else.  Simplices as
tuples of labels, sorted by the vertex order, are built from the keys only
when they are read.  A simplicial map is checked on positions, and the
chain data downstream indexes keys (:attr:`SimplicialComplex.index`), so
no label tuple is built per simplex on those paths.  A cover piece
(:class:`Subcomplex`) is a bit mask over its parent's keys, degree by
degree, and is built as a complex of its own only when read.  All objects
are immutable after construction and hash by content, so value-equal
complexes share cached chain data downstream.

The builders (:func:`from_maximal_faces`, :func:`product` and
:func:`barycentric_subdivision`) make their keys sorted and each once,
and hand them to the constructor grouped by degree, as it stores them;
only general input, in any order and with repeats, is normalized simplex
by simplex.  They build with the cyclic garbage collector paused
(:func:`_collector_paused`), as the chain data, (co)homology walks, chain
maps and induced maps of :mod:`cohodist.homology` do: what a build
allocates it keeps, so a collection inside it would free nothing.  The
caller finds the collector as it left it.
"""

import gc
from contextlib import contextmanager
from itertools import chain, combinations, repeat
from operator import or_

from .errors import (
    DisconnectedComplexError,
    DuplicateVertexInFaceError,
    EmptyInputError,
    InvalidCoverError,
    NotASubcomplexError,
    NotSimplicialError,
    UnsupportedLabelError,
)


def label_key(label):
    """Total order on vertex labels across the types we use.

    ints sort before strings before tuples; tuples sort lexicographically
    by their members' keys.  Any other label, a bool or a float among them,
    raises :class:`errors.UnsupportedLabelError`.
    """
    if isinstance(label, bool):
        raise UnsupportedLabelError("bool is not a vertex label")
    if isinstance(label, int):
        return (0, label)
    if isinstance(label, str):
        return (1, label)
    if isinstance(label, tuple):
        return (2, tuple(label_key(x) for x in label))
    raise UnsupportedLabelError(f"unsupported vertex label {label!r}")


class SimplicialComplex:
    """Finite abstract simplicial complex with a fixed vertex order.

    Construction builds the vertex order and the keys of the simplices,
    degree by degree (:meth:`keys_of_dim`), and nothing else: dimension,
    f-vector, Euler characteristic, connectivity, equality and hash are
    read off the keys.  The label views are built from the keys on first
    read and kept: :attr:`simplices`, :meth:`simplices_of_dim` (one degree
    at a time), :meth:`simplices_of_dim_all` and :attr:`maximal_faces`.
    """

    __slots__ = ("vertices", "_pos", "_keys", "_hash", "_by_dim", "_simplices",
                 "_maximal", "_maximal_faces", "_index", "_memo_made")

    def __init__(self, vertices, simplices):
        """Internal constructor; use :func:`from_maximal_faces`.

        ``vertices``: ordered tuple of labels.  ``simplices``: iterable of
        tuples of positions in ``vertices``, downward closed; a simplex may
        list its positions in any order and may occur more than once.  The
        builders of this module hand over their keys as they are stored
        instead: a dict from each degree d, ascending, to the tuple of its
        keys, each a sorted tuple of positions, ascending and without
        repeats, so no simplex is sorted again.
        """
        self.vertices = verts = tuple(vertices)
        self._pos = {v: i for i, v in enumerate(verts)}
        self._keys = simplices if isinstance(simplices, dict) else _keys_by_dim(simplices)
        self._hash = None
        self._by_dim = {}
        self._simplices = self._maximal = self._maximal_faces = self._index = None
        self._memo_made = False  # set by barycentric_subdivision's memo

    def _labels(self, keys):
        """The simplices with the given keys as tuples of vertex labels."""
        label = self.vertices.__getitem__
        return tuple(tuple(map(label, k)) for k in keys)

    # -- label views, built on first read

    @property
    def simplices(self):
        """Every simplex as a label tuple, in one frozenset."""
        if self._simplices is None:
            self._simplices = frozenset(chain.from_iterable(
                map(self.simplices_of_dim, self._keys)))
        return self._simplices

    def simplices_of_dim(self, d: int):
        simps = self._by_dim.get(d)
        if simps is None:
            if d not in self._keys:
                return ()
            simps = self._by_dim[d] = self._labels(self._keys[d])
        return simps

    def simplices_of_dim_all(self):
        out = []
        for d in range(self.dim + 1):
            out.extend(self.simplices_of_dim(d))
        return out

    @property
    def maximal_faces(self):
        """The maximal simplices as label tuples, by ascending dimension and
        in the order of :meth:`simplices_of_dim`."""
        if self._maximal_faces is None:
            self._maximal_faces = self._labels(self.maximal_keys())
        return self._maximal_faces

    # -- basic queries

    @property
    def dim(self) -> int:
        return max(self._keys) if self._keys else -1

    def keys_of_dim(self, d: int):
        """The degree-d simplices as sorted tuples of vertex positions, in
        the order of :meth:`simplices_of_dim`."""
        return self._keys.get(d, ())

    def maximal_keys(self):
        """The keys of :attr:`maximal_faces`, in the same order."""
        if self._maximal is None:
            keys_by_dim = self._keys
            maximal = []
            for d in sorted(keys_by_dim):
                keys = keys_by_dim[d]
                up = keys_by_dim.get(d + 1)
                if up is None:
                    maximal.extend(keys)
                    continue
                # a simplex is maximal iff it is no facet of a simplex one
                # up (closure makes this enough)
                left = set(keys)
                left.difference_update(chain.from_iterable(
                    map(combinations, up, repeat(d + 1))))
                maximal.extend(k for k in keys if k in left)
            self._maximal = tuple(maximal)
        return self._maximal

    @property
    def index(self):
        """Each key's place in its degree, built on first read: the row of
        its simplex in the chain bases downstream."""
        if self._index is None:
            self._index = {k: i for keys in self._keys.values()
                           for i, k in enumerate(keys)}
        return self._index

    def f_vector(self):
        return tuple(len(self._keys.get(d, ())) for d in range(self.dim + 1))

    def euler_characteristic(self) -> int:
        return sum((-1) ** d * len(v) for d, v in self._keys.items())

    def position(self, vertex):
        return self._pos[vertex]

    def sort_simplex(self, verts):
        return tuple(sorted(verts, key=self._pos.__getitem__))

    def __contains__(self, simplex) -> bool:
        try:
            return tuple(sorted(map(self._pos.__getitem__, simplex))) in self.index
        except KeyError:
            return False

    def is_connected(self) -> bool:
        n = len(self.vertices)
        if not n:
            return False
        adj = [[] for _ in range(n)]
        for a, b in self._keys.get(1, ()):
            adj[a].append(b)
            adj[b].append(a)
        seen = [False] * n
        seen[0] = True
        stack = [0]
        reached = 1
        while stack:
            for w in adj[stack.pop()]:
                if not seen[w]:
                    seen[w] = True
                    reached += 1
                    stack.append(w)
        return reached == n

    # -- equality / hashing by content

    def __eq__(self, other):
        # each degree's keys are sorted, and with the same vertex order equal
        # keys name equal simplices, so this is equality of the simplex sets
        return (isinstance(other, SimplicialComplex)
                and self.vertices == other.vertices
                and self._keys == other._keys)

    def __hash__(self):
        if self._hash is None:
            self._hash = hash((self.vertices, tuple(sorted(self._keys.items()))))
        return self._hash

    def __repr__(self):
        return (f"SimplicialComplex({len(self.vertices)} vertices, "
                f"f={self.f_vector()})")


def _sorted_by_dim(by_len) -> dict:
    """Collections of keys without repeats, indexed by their length (entry
    0 unused), as the constructor stores them: each degree sorted."""
    return {n - 1: tuple(sorted(keys)) for n, keys in enumerate(by_len) if keys}


def _keys_by_dim(simplices) -> dict:
    """Position tuples in any order and with repeats, normalized simplex by
    simplex, as the constructor stores them."""
    keys = {tuple(sorted(s)) for s in simplices}
    by_len = [[] for _ in range(max(map(len, keys), default=0) + 1)]
    for key in keys:
        by_len[len(key)].append(key)
    return _sorted_by_dim(by_len)


def _downward_closure(faces):
    closure = set()
    for face in faces:
        for k in range(1, len(face) + 1):
            closure.update(combinations(face, k))
    return closure


@contextmanager
def _collector_paused():
    """The cyclic garbage collector off for a bulk build.

    A build allocates its keys, columns and rows by the ten thousand and
    keeps them all, so a collection inside it frees nothing and only walks
    what is being built.  The collector is re-enabled before control
    returns to the caller, also on an exception.  When it is already off,
    by the caller or by an enclosing build, this does nothing, and the
    thresholds are never touched, so no caller sees a changed collector
    state.  Other threads get no cyclic collection while a build runs.
    """
    if not gc.isenabled():
        yield
        return
    gc.disable()
    try:
        yield
    finally:
        gc.enable()


def _bit_indices(bits: int) -> list:
    """Positions of the set bits of ``bits``, ascending.

    A sparse mask, such as the simplices one face adds to a piece, is read
    one set bit at a time; a dense one through its binary string.
    """
    if bits.bit_count() * 8 >= bits.bit_length():
        return [i for i, c in enumerate(reversed(bin(bits))) if c == "1"]
    out = []
    while bits:
        low = bits & -bits
        out.append(low.bit_length() - 1)
        bits ^= low
    return out


def from_maximal_faces(faces, order=None, require_connected=True) -> SimplicialComplex:
    """Build the downward closure of the given faces.

    >>> K = from_maximal_faces([[0, 1, 2], [0, 1, 3], [0, 2, 3], [1, 2, 3]])
    >>> K.f_vector()
    (4, 6, 4)
    """
    faces = [tuple(f) for f in faces]
    if not faces:
        raise EmptyInputError("need at least one face")
    verts = set()
    for f in faces:
        if not f:
            raise EmptyInputError("faces must be nonempty")
        if len(set(f)) != len(f):
            raise DuplicateVertexInFaceError(f"face {f!r} repeats a vertex")
        verts.update(f)
    if order is None:
        vertices = tuple(sorted(verts, key=label_key))
    else:
        vertices = tuple(order)
        if set(vertices) != verts or len(vertices) != len(set(vertices)):
            raise EmptyInputError("explicit order must list each vertex exactly once")
        for v in vertices:
            label_key(v)  # raises on a label of no supported type
    pos = {v: i for i, v in enumerate(vertices)}
    with _collector_paused():
        keys = [tuple(sorted(map(pos.__getitem__, f))) for f in faces]
        # the faces of sorted keys come out sorted, each degree's once
        by_len = [()] + [set(chain.from_iterable(map(combinations, keys, repeat(n))))
                         for n in range(1, max(map(len, keys)) + 1)]
        K = SimplicialComplex(vertices, _sorted_by_dim(by_len))
        if require_connected and not K.is_connected():
            raise DisconnectedComplexError("1-skeleton is not path-connected")
    return K


class Subcomplex:
    """A downward-closed, nonempty subset of a parent complex's simplices.

    The subset is kept as ``mask``: entry d is an int whose bit i is set
    when simplex i of ``parent.keys_of_dim(d)`` lies in it, which is also
    the order of the parent's chain bases downstream.  ``complex``, the
    subset as its own :class:`SimplicialComplex` on the parent's vertex
    order restricted, is built only when it is read.
    """

    __slots__ = ("parent", "mask", "name", "_complex")

    def __init__(self, parent: SimplicialComplex, simplices, name: str = ""):
        index, pos = parent.index, parent._pos
        keys, bits = set(), [0] * (parent.dim + 1)
        for s in simplices:
            key = tuple(sorted(map(pos.get, s, repeat(-1))))  # -1: not a vertex
            i = index.get(key)
            if i is None:
                raise NotASubcomplexError(f"{s!r} is not a simplex of the parent")
            keys.add(key)
            bits[len(key) - 1] |= 1 << i
        if not keys:
            raise EmptyInputError("a subcomplex needs at least one simplex")
        missing = {k[:i] + k[i + 1:] for k in keys if len(k) > 1
                   for i in range(len(k))} - keys
        if missing:
            face, = parent._labels((min(missing),))
            raise NotASubcomplexError(f"missing face {face!r}")
        self.parent = parent
        self.mask = tuple(bits)
        self.name = name
        self._complex = None

    @classmethod
    def spanned_by(cls, parent: SimplicialComplex, faces, name: str = "") -> "Subcomplex":
        """Subcomplex generated by the given faces (downward closure)."""
        return cls(parent, _downward_closure(faces), name=name)

    def _parent_keys(self):
        """The piece's keys in the parent, by degree and in the parent's order."""
        return [k for d, bits in enumerate(self.mask)
                for k in map(self.parent.keys_of_dim(d).__getitem__, _bit_indices(bits))]

    @property
    def simplices(self):
        return frozenset(self.parent._labels(self._parent_keys()))

    @property
    def complex(self) -> SimplicialComplex:
        if self._complex is None:
            keys = self._parent_keys()
            verts = [k for k, in keys[:self.mask[0].bit_count()]]
            at = {v: i for i, v in enumerate(verts)}
            self._complex = SimplicialComplex(
                map(self.parent.vertices.__getitem__, verts),
                [tuple(map(at.__getitem__, k)) for k in keys])
        return self._complex

    def __repr__(self):
        tag = f" {self.name!r}" if self.name else ""
        return f"Subcomplex({tag} {self.complex.f_vector()} of {self.parent!r})"


class Cover:
    """A list of subcomplexes meant to cover a parent complex.

    Piece i is known by its name, or by ``K<i>`` when it has none, as cover
    files name it (:func:`fileio.cover_to_text`); no two pieces share one.
    """

    __slots__ = ("parent", "pieces")

    def __init__(self, parent: SimplicialComplex, pieces):
        pieces = tuple(pieces)
        if not pieces:
            raise EmptyInputError("a cover needs at least one piece")
        seen = set()
        for i, p in enumerate(pieces):
            if p.parent != parent:
                raise NotASubcomplexError("piece belongs to a different parent")
            name = p.name or f"K{i}"
            if name in seen:
                raise InvalidCoverError(f"piece name {name!r} given twice")
            seen.add(name)
        self.parent = parent
        self.pieces = pieces

    @classmethod
    def from_face_lists(cls, parent, face_lists, names=None) -> "Cover":
        face_lists = list(face_lists)
        names = names or [f"K{i}" for i in range(len(face_lists))]
        if len(names) != len(face_lists):
            raise InvalidCoverError(
                f"{len(face_lists)} face lists but {len(names)} piece names")
        return cls(parent, [Subcomplex.spanned_by(parent, fl, name=n)
                            for fl, n in zip(face_lists, names)])

    def __len__(self):
        return len(self.pieces)

    def __repr__(self):
        return f"Cover({len(self.pieces)} pieces of {self.parent!r})"


def is_cover(parent: SimplicialComplex, pieces):
    """(True, None) when the pieces cover every simplex, else (False, witness):
    the first simplex left out, by degree and in the parent's order."""
    covered = [0] * (parent.dim + 1)
    for p in pieces:
        if p.parent != parent:
            raise NotASubcomplexError("piece belongs to a different parent")
        covered = list(map(or_, covered, p.mask))
    for d, bits in enumerate(covered):
        left = ~bits & (1 << len(parent.keys_of_dim(d))) - 1
        if left:
            return False, parent.simplices_of_dim(d)[(left & -left).bit_length() - 1]
    return True, None


class SimplicialMap:
    """Vertex assignment between complexes that carries simplices to simplices."""

    __slots__ = ("source", "target", "assignment", "_at", "_hash")

    def __init__(self, source, target, assignment):
        self.source = source
        self.target = target
        self.assignment = dict(assignment)
        self._at = at = []
        for v in source.vertices:
            if v not in self.assignment:
                raise NotSimplicialError(f"vertex {v!r} has no image")
            w = target._pos.get(self.assignment[v])
            if w is None:
                raise NotSimplicialError(f"image {self.assignment[v]!r} is not a vertex")
            at.append(w)
        # on positions: a face's image is the sorted set of its vertices'
        # image positions
        for k in source.maximal_keys():
            if tuple(sorted({at[i] for i in k})) not in target.index:
                face, = source._labels((k,))
                raise NotSimplicialError(f"image of {face!r} is not a simplex")
        self._hash = None

    def __call__(self, vertex):
        return self.assignment[vertex]

    def image_positions(self):
        """The target position of the image of each source vertex, listed
        by source position."""
        return self._at

    def image_simplex(self, simplex):
        """Image vertex set, sorted in the target order (duplicates removed)."""
        return self.target.sort_simplex({self.assignment[v] for v in simplex})

    @classmethod
    def identity(cls, K) -> "SimplicialMap":
        return cls(K, K, {v: v for v in K.vertices})

    @classmethod
    def constant(cls, source, target, vertex=None) -> "SimplicialMap":
        if vertex is None:
            vertex = target.vertices[0]
        return cls(source, target, {v: vertex for v in source.vertices})

    def compose(self, other: "SimplicialMap") -> "SimplicialMap":
        """self o other."""
        if other.target != self.source:
            raise NotSimplicialError("maps are not composable")
        return SimplicialMap(other.source, self.target,
                             {v: self.assignment[other.assignment[v]]
                              for v in other.source.vertices})

    def __eq__(self, other):
        return (isinstance(other, SimplicialMap) and self.source == other.source
                and self.target == other.target and self.assignment == other.assignment)

    def __hash__(self):
        if self._hash is None:
            self._hash = hash((self.source, self.target,
                               tuple(sorted(self.assignment.items(),
                                            key=lambda kv: self.source.position(kv[0])))))
        return self._hash

    def __repr__(self):
        return f"SimplicialMap({self.source!r} -> {self.target!r})"


def restrict(phi: SimplicialMap, piece: Subcomplex) -> SimplicialMap:
    """Restriction of a map to a subcomplex of its source."""
    if piece.parent != phi.source:
        raise NotASubcomplexError("piece is not a subcomplex of the map's source")
    return SimplicialMap(piece.complex, phi.target,
                         {v: phi.assignment[v] for v in piece.complex.vertices})


def diagonal_map(K: SimplicialComplex, product_complex=None):
    """The diagonal K -> K x K; its pullback computes cup products."""
    if product_complex is None:
        product_complex, _, _ = product(K, K)
    return SimplicialMap(K, product_complex, {v: (v, v) for v in K.vertices})


# ---------------------------------------------------------------------------
# barycentric subdivision


_sd_cache: dict = {}  # the last complex subdivided -> its pair
_release_hook = None  # called whenever the memo replaces its pair


def on_subdivision_release(hook) -> None:
    """Have ``hook()`` called whenever :func:`barycentric_subdivision`
    replaces its memo entry, before it builds the next subdivision;
    :mod:`cohodist.homology` sets this at import to release what its
    caches derived from any subdivision the memo built, each marked by
    its ``_memo_made``."""
    global _release_hook
    _release_hook = hook


def barycentric_subdivision(K: SimplicialComplex):
    """(sd K, carrier map sd K -> K).

    Vertices of sd K are the simplices of K; its simplices are the chains
    under strict inclusion.  The carrier map sends a barycenter to the last
    vertex of its simplex in K's order, a simplicial approximation of the
    identity.

    The last pair built is memoized by the value of K: an equal complex
    (the same vertex order and simplices) subdivided next, such as the
    same file read again, gets back the identical pair, whose caches
    downstream then match it without comparing its simplices, and nothing
    is released.  The repeats this serves come in a row (two queries on
    one file, the source and target of a self-map).  Another complex
    replaces the entry, and the release hook (:func:`on_subdivision_release`)
    drops the chain data, modules, chain maps, difference cochains and
    pairings that :mod:`cohodist.homology` holds for every subdivision
    this memo ever built, compared by identity: the one replaced, and one
    replaced earlier and queried again since.  So a process that
    subdivides many complexes holds one subdivision at a time.  A caller
    that still holds a released subdivision can query it again; what it
    needs is computed anew, with the same result.
    """
    pair = _sd_cache.get(K)
    if pair is None:
        if _release_hook is not None:
            _release_hook()
        _sd_cache.clear()
        with _collector_paused():
            pair = _subdivide(K)
        pair[0]._memo_made = True
        _sd_cache[K] = pair
    return pair


def _subdivide(K: SimplicialComplex):
    """:func:`barycentric_subdivision`, built.

    The chains are built on positions: a simplex of K is found by its key
    (:meth:`SimplicialComplex.keys_of_dim`), and a chain is the tuple of
    its members' positions in the vertex order of sd K.  Each chain is
    built once, so each is sorted once into its key and none is repeated.
    """
    simplices = K.simplices_of_dim_all()  # by ascending dimension
    keys = [k for d in range(K.dim + 1) for k in K.keys_of_dim(d)]
    order = sorted(range(len(simplices)), key=lambda g: label_key(simplices[g]))
    vertices = [simplices[g] for g in order]
    at = [0] * len(order)  # position in sd K of simplex g of K
    for p, g in enumerate(order):
        at[g] = p
    chains_ending = {}
    by_len = [[] for _ in range(K.dim + 2)]
    for key, p in zip(keys, at):
        tail = (p,)
        ending = [tail]
        n = len(key)
        for mask in range(1, (1 << n) - 1):
            face = tuple(key[i] for i in range(n) if mask >> i & 1)
            ending.extend([c + tail for c in chains_ending[face]])
        chains_ending[key] = ending
        for c in map(tuple, map(sorted, ending)):
            by_len[len(c)].append(c)
    del chains_ending  # the unsorted chains, before the keys are stored
    sd = SimplicialComplex(vertices, _sorted_by_dim(by_len))
    # the maximal chains are the full flags that end at a maximal simplex
    # of K, so a d-chain is maximal exactly when it holds a maximal
    # d-simplex of K
    maximal = set(K.maximal_keys())
    maximal_at = {}  # d -> positions in sd K of the maximal d-simplices of K
    for key, p in zip(keys, at):
        if key in maximal:
            maximal_at.setdefault(len(key) - 1, set()).add(p)
    sd._maximal = tuple(c for d in sorted(maximal_at) for c in sd.keys_of_dim(d)
                        if not maximal_at[d].isdisjoint(c))
    carrier = SimplicialMap(sd, K, {s: s[-1] for s in simplices})
    return sd, carrier


def sd_map(phi: SimplicialMap, sd_source=None, sd_target=None) -> SimplicialMap:
    """Induced map sd(source) -> sd(target): barycenter to barycenter of the image."""
    if sd_source is None:
        sd_source, _ = barycentric_subdivision(phi.source)
    if sd_target is None:
        sd_target, _ = barycentric_subdivision(phi.target)
    assignment = {s: phi.image_simplex(s) for s in phi.source.simplices}
    return SimplicialMap(sd_source, sd_target, assignment)


def subdivide_cover(cover: Cover, sd_parent=None) -> Cover:
    """Subdivide each piece inside sd(parent); always covers sd(parent)."""
    if sd_parent is None:
        sd_parent, _ = barycentric_subdivision(cover.parent)
    pieces = []
    for i, p in enumerate(cover.pieces):
        piece_simplices = p.simplices
        chains = [c for c in sd_parent.simplices if all(s in piece_simplices for s in c)]
        pieces.append(Subcomplex(sd_parent, chains, name=f"sd {p.name or f'K{i}'}"))
    return Cover(sd_parent, pieces)


# ---------------------------------------------------------------------------
# staircase product


def _staircase_paths(a: int, b: int):
    """Monotone chains from (0,0) to (a,b) with unit steps (Delannoy paths),
    depth first with the steps in the order (1,0), (0,1), (1,1).

    The walk keeps its own stack rather than a recursive closure, which
    would refer to itself and leave a reference cycle for the collector.
    """
    out = []
    stack = [((0, 0),)]
    while stack:
        path = stack.pop()
        i, j = path[-1]
        if i == a and j == b:
            out.append(path)
            continue
        # pushed last first, so the steps are taken in order
        if i < a and j < b:
            stack.append(path + ((i + 1, j + 1),))
        if j < b:
            stack.append(path + ((i, j + 1),))
        if i < a:
            stack.append(path + ((i + 1, j),))
    return out


def product(K: SimplicialComplex, L: SimplicialComplex):
    """Staircase triangulation of |K| x |L| plus the two projections.

    Simplices are the monotone chains in the product of the vertex orders
    whose coordinate projections are simplices of K and L.  The vertex
    (u, v) sits at position pos(u) * |L| + pos(v), so a chain is built as
    the tuple of those positions.
    """
    with _collector_paused():
        # each chain once: its projections and steps fix it; its positions
        # ascend along the path, so it is its own key
        by_len = [[] for _ in range(K.dim + L.dim + 2)]
        width = len(L.vertices)
        for dk in range(K.dim + 1):
            for dl in range(L.dim + 1):
                paths = _staircase_paths(dk, dl)
                for sigma in K.keys_of_dim(dk):
                    for tau in L.keys_of_dim(dl):
                        for path in paths:
                            by_len[len(path)].append(
                                tuple(sigma[i] * width + tau[j] for i, j in path))
        vertices = [(u, v) for u in K.vertices for v in L.vertices]
        P = SimplicialComplex(vertices, _sorted_by_dim(by_len))
        pi1 = SimplicialMap(P, K, {p: p[0] for p in vertices})
        pi2 = SimplicialMap(P, L, {p: p[1] for p in vertices})
        return P, pi1, pi2
