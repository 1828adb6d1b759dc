"""Maps of spheres of every degree from -3 to 3 have their closed-form
distance.

The source is the cycle c_10 and its first two suspensions (S^1, S^2,
S^3), the target c_3 and its suspensions.  The degree-d map sends cycle
vertex i to sign(d) * min(i, 3|d|) mod 3, so it winds |d| times round
c_3, in the direction of d's sign, and then rests at 0; a suspension
fixes its poles.  Two such maps f_a and f_b induce (a - b) * 1 on the top
(co)homology over R and agree in degree 0, and a sphere is covered by
two contractible pieces, so their distance is 0 when (a - b) * 1 = 0 in
R and 1 otherwise.  The expected value is that closed form, computed
from a, b and the characteristic of R alone.
"""

import pytest

from cohodist.complexes import SimplicialMap, from_maximal_faces
from cohodist.distance import DistanceQuery, bounds_for
from cohodist.exactalg import GF, GF2, QQ, ZZ

DEGREES = range(-3, 4)
# each ring with its characteristic
RINGS = ((ZZ, 0), (QQ, 0), (GF2, 2), (GF(3), 3), (GF(5), 5))


def cycle_faces(n):
    return [(i, (i + 1) % n) for i in range(n)]


def suspended(faces, level):
    """The faces of the suspension with the poles ``N<level>`` and
    ``S<level>``."""
    return [(pole, *face) for pole in (f"N{level}", f"S{level}") for face in faces]


def spheres(n):
    """[S^1, S^2, S^3] as maximal faces, from the cycle on n vertices."""
    faces = [cycle_faces(n)]
    for level in (1, 2):
        faces.append(suspended(faces[-1], level))
    return faces


def degree_assignment(vertices, d):
    """The vertex map of the degree-d map: poles are fixed."""
    def image(v):
        return v if isinstance(v, str) else ((d > 0) - (d < 0)) * min(v, 3 * abs(d)) % 3

    return {v: image(v) for v in vertices}


def closed_form(a, b, characteristic):
    difference = a - b
    zero = difference == 0 if characteristic == 0 else difference % characteristic == 0
    return 0 if zero else 1


@pytest.mark.parametrize("dim", (1, 2, 3))
def test_degree_maps_have_closed_form_distance(dim):
    source = from_maximal_faces(spheres(10)[dim - 1])
    target = from_maximal_faces(spheres(3)[dim - 1])
    maps = {d: SimplicialMap(source, target, degree_assignment(source.vertices, d))
            for d in DEGREES}
    mismatches = []
    for ring, characteristic in RINGS:
        for variance in ("cohomology", "homology"):
            for a in DEGREES:
                for b in DEGREES:
                    got = bounds_for(DistanceQuery(maps[a], maps[b], ring, variance)).exact
                    want = closed_form(a, b, characteristic)
                    if got != want:
                        mismatches.append((ring, variance, a, b, got, want))
    assert mismatches == []
