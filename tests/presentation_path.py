"""Reference path for equality of induced maps, used by the tests only.

It decides equality the slow way: build both induced homomorphisms on the
group presentations and compare them with :func:`exactalg.homs_equal`.
The package decides it by (co)boundary membership of generator
differences; the tests check that the two agree.  Unlike ``oracles.py``
this helper is built from package code.
"""

from cohodist.exactalg import homs_equal
from cohodist.homology import MapsEqualReport, induced_map


def maps_equal_by_presentation(phi, psi, ring, variance) -> MapsEqualReport:
    f = induced_map(phi, ring, variance)
    g = induced_map(psi, ring, variance)
    return MapsEqualReport({d: homs_equal(f.hom(d), g.hom(d)) for d in f.degrees})
