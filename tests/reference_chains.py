"""Label-based subdivision, boundary columns and chain maps, kept as references.

The package builds these on vertex positions: a subdivision's chains are
tuples of positions in its vertex order, a chain complex looks each face
up by its sorted tuple of positions and stores a boundary column as one
tuple of signed rows (``r`` for +1, ``~r`` for -1), and a chain map reads
each simplex through one array of image positions.  The staircase product
is built on positions too.  The constructions below are the earlier ones,
on the labels themselves: chains as tuples of simplices of K, product
chains as tuples of vertex pairs, faces looked up by their label tuples,
columns as lists of ``(row, sign)`` pairs and chain-map entries as
``(row, sign)`` or None.
The tests check that both give the same objects.  Unlike ``oracles.py``
these helpers are built from package code.
"""

from cohodist.complexes import SimplicialMap, _staircase_paths, label_key

from .reference_complex import reference_complex


def reference_subdivision(K):
    """(sd K, carrier map) built on labels, with the label-based constructor."""
    simplices = K.simplices_of_dim_all()
    chains_ending = {}
    all_chains = []
    for s in simplices:  # by ascending dimension
        ending = [(s,)]
        n = len(s)
        if n > 1:
            for mask in range(1, (1 << n) - 1):
                t = tuple(s[i] for i in range(n) if mask >> i & 1)
                for c in chains_ending[t]:
                    ending.append(c + (s,))
        chains_ending[s] = ending
        all_chains.extend(ending)
    vertices = sorted(simplices, key=lambda s: label_key(tuple(s)))
    sd = reference_complex(vertices, all_chains)
    carrier = SimplicialMap(sd, K, {s: s[-1] for s in simplices})
    return sd, carrier


def reference_product(K, L):
    """(K x L, pi1, pi2) with chains of vertex pairs, built by the
    label-based constructor."""
    simplices = set()
    for dk in range(K.dim + 1):
        for sigma in K.simplices_of_dim(dk):
            for dl in range(L.dim + 1):
                for tau in L.simplices_of_dim(dl):
                    for path in _staircase_paths(dk, dl):
                        simplices.add(tuple((sigma[i], tau[j]) for i, j in path))
    vertices = sorted({(u, v) for u in K.vertices for v in L.vertices},
                      key=lambda p: (K.position(p[0]), L.position(p[1])))
    P = reference_complex(vertices, simplices)
    pi1 = SimplicialMap(P, K, {p: p[0] for p in vertices})
    pi2 = SimplicialMap(P, L, {p: p[1] for p in vertices})
    return P, pi1, pi2


def _label_index(K):
    return {s: i for d in range(K.dim + 1) for i, s in enumerate(K.simplices_of_dim(d))}


def reference_columns(K, d):
    """Boundary columns of degree d >= 1 as lists of (row, sign) pairs."""
    index = _label_index(K)
    return [[(index[s[:i] + s[i + 1:]], -1 if i % 2 else 1) for i in range(len(s))]
            for s in K.simplices_of_dim(d)]


def reference_chain_map(phi, d):
    """Degree-d chain map: (target row, sign) per source simplex, or None
    when its image is degenerate."""
    index = _label_index(phi.target)
    entries = []
    for s in phi.source.simplices_of_dim(d):
        image = [phi.assignment[v] for v in s]
        if len(set(image)) != len(image):
            entries.append(None)
            continue
        pos = [phi.target.position(v) for v in image]
        inversions = sum(1 for i in range(len(pos)) for j in range(i + 1, len(pos))
                         if pos[i] > pos[j])
        row = index[tuple(sorted(image, key=phi.target.position))]
        entries.append((row, -1 if inversions % 2 else 1))
    return entries


def decoded(signed):
    """A signed row as a (row, sign) pair; None stays None."""
    if signed is None:
        return None
    return (signed, 1) if signed >= 0 else (~signed, -1)
