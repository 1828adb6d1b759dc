"""Field cohomology verdicts by coboundary membership, kept as a reference.

The package decides a field cohomology piece by pairing each generator's
difference cochain with the piece's cycles, grown one face at a time.
The functions below are the earlier path: for every generator y of
H^d(target), restrict (phi^# - psi^#)y to the piece and test it for
membership in the span of the piece's coboundary columns, built from
scratch for each piece.  The tests check that the two count the same
failing generators.  Like ``presentation_path.py`` this helper is built
from package code, but from none of the pairing code.
"""

from cohodist import exactalg
from cohodist.complexes import Subcomplex
from cohodist.homology import ChainComplexData, _cochain_differences, cohomology


def cochain_verdicts(phi, psi, ring, d, idx, chains):
    """True per generator of H^d(target) whose difference is a coboundary
    on the piece whose degree-d simplices are the source's ``idx``, with
    ``chains`` the ``ChainComplexData`` of the piece built as a complex."""
    diffs = [[diff[i] for i in idx] for diff in _cochain_differences(phi, psi, ring, d)]
    if d == 0:
        return [not any(diff) for diff in diffs]
    span = exactalg.field_span(ring)
    for col in exactalg.signed_columns(ring, chains.sparse_coboundary(d - 1)):
        span.add(col)
    return [span.contains(diff) for diff in diffs]


def obstruction_by_membership(phi, psi, ring, piece) -> int:
    """Failing generators of H^*(target) over a field on the piece given as
    a mask over the source's bases, as :func:`homology.equality_obstruction`
    counts them in cohomology."""
    if not ring.is_field:
        raise ValueError("the membership reference is for fields")
    indices = [[i for i in range(bits.bit_length()) if bits >> i & 1] for bits in piece]
    simplices = [phi.source.simplices_of_dim(d)[i]
                 for d, idx in enumerate(indices) for i in idx]
    chains = ChainComplexData(Subcomplex(phi.source, simplices).complex)
    gm = cohomology(phi.target, ring)
    return sum(not ok
               for d in range(chains.dim + 1) if not gm.presentation(d).is_trivial
               for ok in cochain_verdicts(phi, psi, ring, d, indices[d], chains))
