"""The query and report classes of ``distance``: plain ``__slots__``
classes with field-by-field ``==``, a ``name=value`` repr, frozen fields
where they were frozen, and a hash by value for queries."""

import pytest

from cohodist.complexes import SimplicialMap
from cohodist.distance import (
    BoundReport,
    CoverCertificate,
    DistanceQuery,
    PieceReport,
    scat_query,
    verify,
)
from cohodist.exactalg import GF2
from cohodist.fixtures import fixture_complex, fixture_cover
from cohodist.homology import COHOMOLOGY, HOMOLOGY


def pair(K):
    return SimplicialMap.constant(K, K), SimplicialMap.identity(K)


def test_query_equal_by_value_and_hashable():
    K = fixture_complex("s2")
    a = DistanceQuery(*pair(K), GF2)
    b = DistanceQuery(*pair(K), ring=GF2)
    assert a.phi is not b.phi
    assert a == b and not a != b
    assert hash(a) == hash(b)
    assert len({a: 1, b: 2}) == 1
    assert a != DistanceQuery(*pair(K), GF2, variance=HOMOLOGY)
    assert a != (a.phi, a.psi, a.ring, a.variance)


def test_query_fields_defaults_and_repr():
    K = fixture_complex("s2")
    phi, psi = pair(K)
    q = DistanceQuery(phi, psi, GF2)
    assert (q.phi, q.psi, q.ring, q.variance) == (phi, psi, GF2, COHOMOLOGY)
    assert DistanceQuery(psi=psi, phi=phi, ring=GF2, variance=HOMOLOGY).variance == HOMOLOGY
    assert q.source is K and q.target is K
    text = repr(q)
    assert text.startswith("DistanceQuery(phi=")
    for name in ("phi", "psi", "ring", "variance"):
        assert f"{name}=" in text
    assert f"variance={COHOMOLOGY!r}" in text


def test_query_validates():
    K = fixture_complex("s2")
    with pytest.raises(ValueError):
        DistanceQuery(*pair(K), GF2, "homolgy")


@pytest.mark.parametrize("field", ["phi", "variance", "extra"])
def test_query_is_frozen(field):
    q = scat_query(fixture_complex("s2"), GF2)
    with pytest.raises(AttributeError):
        setattr(q, field, None)
    with pytest.raises(AttributeError):
        delattr(q, field)


def test_piece_reports_and_certificates_equal_by_field_and_frozen():
    cover = fixture_cover("table3")
    first, second = (verify(scat_query(cover.parent, GF2), cover) for _ in range(2))
    assert first is not second and first == second
    assert first.piece_reports[0] == second.piece_reports[0]
    r = PieceReport("A", True, None, {0: True})
    assert r == PieceReport(name="A", equal=True, first_failing_degree=None,
                            by_degree={0: True})
    assert r != PieceReport("A", False, 0, {0: False})
    assert repr(r) == ("PieceReport(name='A', equal=True, first_failing_degree=None, "
                       "by_degree={0: True})")
    for obj, field in ((r, "equal"), (first, "verified")):
        with pytest.raises(AttributeError):
            setattr(obj, field, False)
    assert repr(first).startswith("CoverCertificate(query=DistanceQuery(")


def test_bound_report_notes_are_per_report_and_bounds_checked():
    q = scat_query(fixture_complex("s2"), GF2)
    a, b = BoundReport(q, 1, None, 1, None, 1), BoundReport(q, 1, None, 1, None, 1)
    assert a.notes == [] and a.notes is not b.notes
    a.notes.append("x")
    assert b.notes == [] and a != b
    b.notes.append("x")
    assert a == b
    a.upper = 2  # a bound report is not frozen
    assert a.upper == 2
    kept = ["given"]
    assert BoundReport(q, 0, None, None, None, None, notes=kept).notes is kept
    with pytest.raises(ValueError):
        BoundReport(q, 2, None, 1, None, None)
    with pytest.raises(TypeError):
        hash(a)


@pytest.mark.parametrize("cls", [DistanceQuery, PieceReport, CoverCertificate, BoundReport])
def test_no_dataclass_machinery(cls):
    assert not hasattr(cls, "__dataclass_fields__")
    assert "__dict__" not in dir(cls)
