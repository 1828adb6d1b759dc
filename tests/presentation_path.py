"""Reference paths built from package code, used by the tests only.

:func:`maps_equal_by_presentation` decides equality of induced maps the
slow way: build both induced homomorphisms on the group presentations and
compare them with :func:`exactalg.homs_equal`.  The package decides it by
(co)boundary membership of generator differences; the tests check that
the two agree.  :func:`field_presentation_by_degree` builds one degree of
(co)homology over a field from a kernel and a quotient, without clearing,
to check the package's one-pass reduction against, and
:func:`z_presentation_by_degree` does the same over Z, signing and
transposing each degree's columns afresh.
:func:`eager_field_presentations` is the one field pass as it runs
without lazy pivots, converting every kept column as it comes.  Unlike
``oracles.py`` these helpers are built from package code.
"""

from cohodist import exactalg
from cohodist.exactalg import ZZ, IntColumns, field_span, homs_equal, signed_columns
from cohodist.homology import COHOMOLOGY, MapsEqualReport, induced_map


def maps_equal_by_presentation(phi, psi, ring, variance) -> MapsEqualReport:
    f = induced_map(phi, ring, variance)
    g = induced_map(psi, ring, variance)
    return MapsEqualReport({d: homs_equal(f.hom(d), g.hom(d)) for d in f.degrees})


def field_presentation_by_degree(data, ring, variance, d):
    """H^d or H_d over a field, one degree at a time.

    The cycles come from :func:`exactalg._field_kernel` and the quotient
    from :func:`exactalg._field_quotient`, which checks that every
    boundary is a cycle.  ``data`` is a chain complex with ``rank_of``,
    ``sparse_boundary`` and ``sparse_coboundary`` (a ``ChainComplexData``
    or a piece of one).  The package builds every degree in one pass with
    clearing; the tests check that the two agree.
    """
    if variance == COHOMOLOGY:
        cycle_src = data.sparse_coboundary(d)
        boundary_src = data.sparse_coboundary(d - 1) if d >= 1 else []
    else:
        cycle_src = data.sparse_boundary(d)
        boundary_src = data.sparse_boundary(d + 1)
    cycles = exactalg._field_kernel(ring, signed_columns(ring, cycle_src))
    return exactalg._field_quotient(ring, data.rank_of(d), cycles,
                                    signed_columns(ring, boundary_src))


def z_presentation_by_degree(data, variance, d):
    """H^d or H_d over Z, one degree at a time: the cycles are the kernel
    of the outgoing matrix (:func:`exactalg._z_kernel`), presented modulo
    the incoming columns by :func:`exactalg._z_quotient`.  The package
    walks every degree once, signing each matrix once; the tests check
    that the two agree."""
    n = data.rank_of(d)
    if variance == COHOMOLOGY:
        cycle_src, cycle_rows = data.sparse_coboundary(d), data.rank_of(d + 1)
        boundary_src = data.sparse_coboundary(d - 1) if d >= 1 else []
    else:
        cycle_src, cycle_rows = data.sparse_boundary(d), data.rank_of(d - 1)
        boundary_src = data.sparse_boundary(d + 1)
    cycles = exactalg._z_kernel(IntColumns(signed_columns(ZZ, cycle_src), cycle_rows))
    return exactalg._z_quotient(n, cycles, signed_columns(ZZ, boundary_src))


def eager_field_presentations(ring, steps):
    """:func:`exactalg.field_presentations` with every kept column
    converted and absorbed as it comes, on spans of
    :func:`exactalg.field_span` that hold no lazy pivot: the pivots,
    generators and coordinates the lazy pass must reproduce."""
    out = []
    image = field_span(ring)
    for n, cols in steps:
        span = field_span(ring)
        keep = [j for j in range(n) if j not in image.pivots]
        gens = []
        for j, col in zip(keep, signed_columns(ring, [cols[j] for j in keep])):
            span.n_added = j
            grew, combo = span._absorb(col)
            if not grew:
                gens.append(combo)
        out.append(exactalg._pinned_presentation(ring, n, image, gens))
        span._drop_combinations()
        image = span
    return out
