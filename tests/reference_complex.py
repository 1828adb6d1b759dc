"""The label-based :class:`SimplicialComplex` constructor, kept as a reference.

The package's constructor maps every simplex to a tuple of vertex
positions, sorts and de-duplicates those, and builds the label tuples and
maximal faces only when they are read.  The construction below is the
earlier one, on the labels themselves: each simplex sorted by a position
lookup per vertex, each dimension sorted with a key tuple, and the
maximal faces found through a set of every facet.  It fills every part of
the package's layout at once, the keys taken from its own label sort, so
nothing is left for the package to build on read.  The tests check that
both give the same complex, attribute by attribute and in order.  Unlike
``oracles.py`` this helper is built from package code.

The package's constructor takes simplices as tuples of vertex positions
only; :func:`label_complex` feeds it simplices given as labels.
"""

from cohodist.complexes import SimplicialComplex


def reference_complex(vertices, simplices) -> SimplicialComplex:
    """A :class:`SimplicialComplex` built by the label-based construction."""
    K = object.__new__(SimplicialComplex)
    K.vertices = tuple(vertices)
    K._pos = pos = {v: i for i, v in enumerate(K.vertices)}
    K._simplices = frozenset(tuple(sorted(s, key=pos.__getitem__)) for s in simplices)
    by_dim = {}
    for s in K._simplices:
        by_dim.setdefault(len(s) - 1, []).append(s)
    for d in by_dim:
        by_dim[d].sort(key=lambda s: tuple(pos[v] for v in s))
    K._by_dim = {d: tuple(v) for d, v in sorted(by_dim.items())}
    K._keys = {d: tuple(tuple(pos[v] for v in s) for s in simps)
               for d, simps in K._by_dim.items()}
    K._index = {k: i for keys in K._keys.values() for i, k in enumerate(keys)}
    # a simplex is maximal iff it is nobody's facet (closure makes this enough)
    non_maximal = set()
    for s in K._simplices:
        if len(s) > 1:
            for i in range(len(s)):
                non_maximal.add(s[:i] + s[i + 1:])
    K._maximal_faces = tuple(s for d in K._by_dim for s in K._by_dim[d]
                             if s not in non_maximal)
    K._maximal = tuple(tuple(pos[v] for v in s) for s in K._maximal_faces)
    K._hash = None
    return K


def label_complex(vertices, simplices) -> SimplicialComplex:
    """The package's constructor on simplices given as tuples of labels,
    each label mapped to its position in ``vertices``."""
    pos = {v: i for i, v in enumerate(vertices)}
    return SimplicialComplex(vertices, [tuple(map(pos.__getitem__, s)) for s in simplices])
