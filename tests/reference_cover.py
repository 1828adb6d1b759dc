"""Cover verification on built pieces, kept as a reference.

The package keeps a cover piece as a bit mask over its parent's simplices
and verifies it on that mask, without building it.  The functions below
are the earlier route: each piece is built as its own complex
(``Subcomplex.complex``), both maps are restricted onto it (``restrict``)
and compared there by ``maps_equal`` on the whole piece, and the cover
property is decided on the union of the pieces' label sets.  The tests
check that both routes give the same certificate.  Like
``presentation_path.py`` this helper is built from package code.
"""

from cohodist.complexes import restrict
from cohodist.distance import CoverCertificate, PieceReport
from cohodist.errors import NotASubcomplexError
from cohodist.homology import maps_equal


def is_cover_by_labels(parent, pieces):
    """(True, None) when the pieces' label sets cover every simplex, else
    (False, the first simplex left out, by degree and in the parent's order)."""
    covered = set()
    for p in pieces:
        if p.parent != parent:
            raise NotASubcomplexError("piece belongs to a different parent")
        covered |= p.complex.simplices
    for d in range(parent.dim + 1):
        for s in parent.simplices_of_dim(d):
            if s not in covered:
                return False, s
    return True, None


def verify_by_restriction(query, cover) -> CoverCertificate:
    """``distance.verify`` with every piece built and both maps restricted."""
    if cover.parent != query.source:
        raise NotASubcomplexError("cover does not live on the query's source")
    cover_ok, missing = is_cover_by_labels(cover.parent, cover.pieces)
    reports = []
    for i, piece in enumerate(cover.pieces):
        rep = maps_equal(restrict(query.phi, piece), restrict(query.psi, piece),
                         query.ring, query.variance)
        reports.append(PieceReport(piece.name or f"K{i}", rep.equal,
                                   rep.first_failing_degree, rep.by_degree))
    return CoverCertificate(query, cover, cover_ok, missing, tuple(reports),
                            cover_ok and all(r.equal for r in reports))
