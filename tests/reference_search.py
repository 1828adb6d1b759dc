"""The product enumeration of exhaustive cover search, kept as a reference.

Past its first ``2^n`` assignments ``distance.search_exhaustive`` evaluates
every face set once into a table and walks the assignments depth first,
pruning on the first failing partial piece.  The search below is the
earlier one: it runs through all
``(2^s - 1)^n`` assignments of faces to nonempty piece sets in
``itertools.product`` order and checks each candidate's pieces, memoized
per face set (a bit mask over the maximal faces).  The tests check that
both return the same cover, or None.
Like ``reference_complex.py`` this helper is built from package code.
"""

import itertools

from cohodist.distance import _PieceChecker, verify


def search_by_product(query, size):
    """The first verified cover of the full enumeration, or None."""
    checker = _PieceChecker(query)
    n = len(checker.faces)
    memberships = [m for m in itertools.product((False, True), repeat=size) if any(m)]
    for assignment in itertools.product(range(len(memberships)), repeat=n):
        face_sets = [0] * size
        for face_idx, m_idx in enumerate(assignment):
            for j, inside in enumerate(memberships[m_idx]):
                if inside:
                    face_sets[j] |= 1 << face_idx
        if all(checker.passes(fs) for fs in face_sets):
            cover = checker.cover_from(face_sets)
            if verify(query, cover).verified:
                return cover
    return None
