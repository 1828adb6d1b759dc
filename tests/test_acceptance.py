"""Acceptance suite: end-to-end reproduction of the headline computations
plus the randomized property sweeps.  Each test prints one PASS/FAIL line.

Every test in this module is expected to pass.  The mod-2 complexity of
the sphere is pinned at its exact values (zero-divisor cup-length 1 over
Z_2, 2 over Z_3 and Q, and the interval [1, 2]) with an independent oracle
cross-check; see ``test_s2_complexity_mod2_values_as_stated``.
"""

import random
import time

from cohodist.complexes import (
    Cover,
    SimplicialMap,
    Subcomplex,
    barycentric_subdivision,
    diagonal_map,
    from_maximal_faces,
    product,
)
from cohodist.cupring import (
    CohomologyClass,
    J_generators,
    cup,
    cup_length,
    lcp_ideal,
    lcp_of_set,
    positive_generators,
    zero_divisor_cup_length,
)
from cohodist.distance import (
    DistanceQuery,
    hscat,
    hstc,
    lower_bound,
    scat_query,
    search,
    stc_query,
    subdivision_monotonicity_check,
    verify,
)
from cohodist.exactalg import FieldSpan, GF, GF2, QQ, ZZ, homs_equal
from cohodist.fixtures import S2_FACES, fixture_complex, fixture_cover, rp2_loop
from cohodist.homology import (
    chain_complex,
    cohomology,
    homology,
    induced_map,
    maps_equal,
)

from . import oracles
from .test_complexes import rand_complex
from .test_cupring import rand_class


def report(name, ok, detail=""):
    tag = "PASS" if ok else "FAIL"
    print(f"[{tag}] {name}" + (f": {detail}" if detail else ""))


# ---------------------------------------------------------------------------
# headline certificates


def test_cp2_category_certificate():
    t0 = time.time()
    cp2 = fixture_complex("cp2")
    q = scat_query(cp2, GF2)
    cert = verify(q, fixture_cover("table1"))
    assert cert.verified and cert.n == 2
    lo, wit = lower_bound(q)
    assert lo == 2 and wit.degrees == (2, 2)   # x cup x survives
    rep = hscat(cp2, GF2, cover=fixture_cover("table1"))
    assert rep.exact == 2
    elapsed = time.time() - t0
    assert elapsed <= 60
    report("CP^2 category certificate", True, f"exact 2 in {elapsed:.1f}s")


def test_rp3_category_certificate():
    t0 = time.time()
    rp3 = fixture_complex("rp3")
    q = scat_query(rp3, GF2)
    cert = verify(q, fixture_cover("table2"))
    assert cert.verified and cert.n == 3
    lo, wit = lower_bound(q)
    assert lo == 3 and wit.degrees == (1, 1, 1)   # a^3 survives
    rep = hscat(rp3, GF2, cover=fixture_cover("table2"))
    assert rep.exact == 3
    elapsed = time.time() - t0
    assert elapsed <= 120
    report("RP^3 category certificate", True, f"exact 3 in {elapsed:.1f}s")


def test_s1_x_s2_category_certificate():
    t0 = time.time()
    K = fixture_complex("c3xs2")
    q = scat_query(K, GF2)
    cert = verify(q, fixture_cover("table3"))
    assert cert.verified and cert.n == 2
    lo, _ = lower_bound(q)
    assert lo == 2
    rep = hscat(K, GF2, cover=fixture_cover("table3"))
    assert rep.exact == 2
    elapsed = time.time() - t0
    assert elapsed <= 120
    report("S^1 x S^2 category certificate", True, f"exact 2 in {elapsed:.1f}s")


def test_s2_complexity_pieces_cover_verdict_and_repair():
    t0 = time.time()
    s2 = fixture_complex("s2")
    q = stc_query(s2, GF2)
    printed = fixture_cover("table4")
    cert = verify(q, printed)
    # every printed piece passes the piecewise equality check
    assert all(r.equal for r in cert.piece_reports)
    # the printed data does not cover (its last two piece lists coincide)
    assert not cert.cover_ok and cert.missing_simplex is not None
    # greedy search repairs it with a verified 3-cover
    repaired = search(q, 3, strategy="greedy", seed=0)
    assert repaired is not None
    assert verify(q, repaired).verified
    rep2 = hstc(s2, GF2, cover=repaired)
    assert rep2.upper == 2
    # over fields where the squared difference class survives, the value 2
    # is exact: lower and upper bounds meet
    rep3 = hstc(s2, GF(3), seed=0)
    assert (rep3.lower, rep3.upper, rep3.exact) == (2, 2, 2)
    elapsed = time.time() - t0
    assert elapsed <= 1800
    report("S^2 complexity: printed pieces pass, cover gap repaired", True,
           f"3-cover found; exact 2 over Z_3; mod-2 interval "
           f"[{rep2.lower}, {rep2.upper}] in {elapsed:.1f}s")


def test_s2_complexity_mod2_values_as_stated():
    """Pins zdcl(S^2; Z_2) = 1, the value 2 over Z_3 and Q, and the mod-2
    complexity interval [1, 2].

    With x the degree-2 generator, the kernel of cup in degree 2 is the
    line through x(x)1 + 1(x)x, degree 4 is the top, and the only product
    to test is (x(x)1 + 1(x)x)^2 = 2(x(x)x): zero mod 2, so zdcl is 1;
    nonzero over Z_3 and Q, so zdcl is 2.  The oracle rederives this from
    the raw faces of S^2 x S^2 alone (Betti numbers, the difference of the
    two pulled-back duals of one triangle, and its cochain-level square)
    before the package values are asserted.  Mod 2 the lower bound is 1,
    a verified 3-cover gives the upper bound 2, and no exact value exists.
    """
    t0 = time.time()
    s2 = fixture_complex("s2")
    # oracle: raw faces only, no package homology, cup or algebra code
    faces = oracles.staircase_product_faces(S2_FACES, S2_FACES)
    by_dim = oracles.simplices_by_dim(oracles.closure_of(faces))
    P, _, _ = product(s2, s2)
    assert set(P.simplices) == {s for dim_d in by_dim.values() for s in dim_d}
    dual = {tuple(sorted(S2_FACES[0])): 1}   # a cocycle representing x
    for p, square_vanishes in ((2, True), (3, False)):
        assert oracles.betti_mod(faces, p) == (1, 0, 2, 0, 1)
        z = [(a - b) % p for a, b in zip(
            oracles.pullback_mod(by_dim, 2, lambda v: v[0], dual, p),
            oracles.pullback_mod(by_dim, 2, lambda v: v[1], dual, p))]
        assert not any(oracles.coboundary_mod(by_dim, 2, z, p))
        assert not oracles.is_coboundary_mod(by_dim, 2, z, p)
        zz = oracles.cup_cochain(by_dim, z, z, 2, 2, p)
        assert oracles.is_coboundary_mod(by_dim, 4, zz, p) == square_vanishes
    # package values agree with the oracle
    zdcl = {name: zero_divisor_cup_length(s2, ring)
            for name, ring in (("Z_2", GF2), ("Z_3", GF(3)), ("Q", QQ))}
    assert zdcl == {"Z_2": 1, "Z_3": 2, "Q": 2}
    q = stc_query(s2, GF2)
    lo, wit = lower_bound(q)
    assert lo == 1 and wit.degrees == (2,)
    cover = search(q, 3, strategy="greedy", seed=0)
    assert cover is not None and verify(q, cover).verified
    rep = hstc(s2, GF2, cover=cover)
    assert (rep.lower, rep.upper, rep.exact) == (1, 2, None)
    elapsed = time.time() - t0
    report("S^2 complexity mod-2 values", True,
           f"zdcl 1 over Z_2 ((x(x)1 + 1(x)x)^2 = 2 x(x)x = 0), 2 over Z_3 "
           f"and Q; mod-2 interval [{rep.lower}, {rep.upper}] in {elapsed:.1f}s")


def test_k5_exact_category_and_subdivision_drop():
    t0 = time.time()
    k5 = fixture_complex("k5")
    q = scat_query(k5, GF2)
    # no two pieces suffice: exhaustive proof plus an independent oracle
    assert search(q, 2, "exhaustive") is None
    assert not oracles.k5_two_cover_exists()
    # the printed three-piece cover works
    assert verify(q, fixture_cover("k5")).verified
    rep = hscat(k5, GF2)
    assert (rep.lower, rep.upper, rep.exact) == (2, 2, 2)
    # one subdivision drops the invariant to 1
    sd_k5, _ = barycentric_subdivision(k5)
    qsd = scat_query(sd_k5, GF2)
    two = search(qsd, 2, seed=0)
    assert two is not None and verify(qsd, two).verified
    rep_sd = hscat(sd_k5, GF2, seed=0)
    assert (rep_sd.lower, rep_sd.upper, rep_sd.exact) == (1, 1, 1)
    assert rep_sd.exact < rep.exact
    elapsed = time.time() - t0
    assert elapsed <= 600
    report("K5 exact category and subdivision drop", True,
           f"2 for K5, 1 for sd K5, in {elapsed:.1f}s")


def test_loop_asymmetry_between_variances():
    t0 = time.time()
    iota = rp2_loop()
    c3 = iota.source
    c = SimplicialMap.constant(c3, iota.target)
    assert maps_equal(iota, c, ZZ, "cohomology").equal
    rep = maps_equal(iota, c, ZZ, "homology")
    assert not rep.equal and rep.first_failing_degree == 1
    # cohomological distance 0: the one-piece cover verifies
    whole = Cover(c3, [Subcomplex.spanned_by(c3, c3.maximal_faces)])
    assert verify(DistanceQuery(iota, c, ZZ, "cohomology"), whole).verified
    # homological distance exactly 1: one piece fails, two arcs verify
    hq = DistanceQuery(iota, c, ZZ, "homology")
    assert not verify(hq, whole).verified
    arcs = Cover(c3, [Subcomplex.spanned_by(c3, [[0, 1], [0, 2]], name="A"),
                      Subcomplex.spanned_by(c3, [[1, 2]], name="B")])
    assert verify(hq, arcs).verified
    elapsed = time.time() - t0
    assert elapsed <= 10
    report("loop homology/cohomology asymmetry", True,
           f"cohomological 0, homological exactly 1, in {elapsed:.1f}s")


def test_cup_length_sharpness():
    k5 = fixture_complex("k5")
    assert cup_length(k5, GF2) == 1
    assert hscat(k5, GF2).exact == 2
    iota = rp2_loop()
    c = SimplicialMap.constant(iota.source, iota.target)
    assert lcp_of_set(J_generators(iota, c, ZZ)) == 0
    hq = DistanceQuery(iota, c, ZZ, "homology")
    arcs = Cover(iota.source,
                 [Subcomplex.spanned_by(iota.source, [[0, 1], [0, 2]]),
                  Subcomplex.spanned_by(iota.source, [[1, 2]])])
    assert verify(hq, arcs).verified  # distance 1 despite a zero cup bound
    report("cup-length sharpness", True,
           "cup bound 1 < category 2 on K5; cup bound 0 < homological distance 1")


# ---------------------------------------------------------------------------
# property sweeps


def _cone(K):
    return from_maximal_faces([list(f) + ["apex"] for f in K.maximal_faces])


def _map_pool(rng, K):
    pool = [SimplicialMap.identity(K), SimplicialMap.constant(K, K)]
    verts = list(K.vertices)
    for _ in range(4):
        a, b = rng.sample(verts, 2) if len(verts) >= 2 else (verts[0], verts[0])
        assignment = {v: v for v in verts}
        assignment[a] = b
        try:
            pool.append(SimplicialMap(K, K, assignment))
        except Exception:
            pass
    return pool


def test_property_boundary_squares_to_zero():
    rng = random.Random(41)
    for _ in range(200):
        K = rand_complex(rng, 6)
        data = chain_complex(K)
        for d in range(1, K.dim + 1):
            assert (data.boundary_matrix(d) * data.boundary_matrix(d + 1)).is_zero()
    report("property: boundary of boundary vanishes", True, "200 random complexes")


def test_property_induced_map_functoriality():
    rng = random.Random(43)
    cases = 0
    while cases < 200:
        K = _cone(rand_complex(rng, 4))
        R = rng.choice([GF2, GF(3), ZZ])
        pool = _map_pool(rng, K)
        phi, psi = rng.choice(pool), rng.choice(pool)
        comp = psi.compose(phi)
        lhs_c = induced_map(comp, R, "cohomology")
        rhs_c = induced_map(phi, R, "cohomology").compose(induced_map(psi, R, "cohomology"))
        for d in lhs_c.degrees:
            assert homs_equal(lhs_c.hom(d), rhs_c.hom(d))
        lhs_h = induced_map(comp, R, "homology")
        rhs_h = induced_map(psi, R, "homology").compose(induced_map(phi, R, "homology"))
        for d in lhs_h.degrees:
            assert homs_equal(lhs_h.hom(d), rhs_h.hom(d))
        cases += 1
    report("property: induced maps compose functorially", True, "200 random pairs")


def test_property_contiguous_maps_agree():
    rng = random.Random(47)
    cases = 0
    while cases < 200:
        K = _cone(rand_complex(rng, 4))
        apex = "apex"
        ident = SimplicialMap.identity(K)
        v = rng.choice([u for u in K.vertices if u != apex] or [apex])
        moved = dict(ident.assignment)
        moved[v] = apex
        psi = SimplicialMap(K, K, moved)
        # one-vertex move towards the apex is contiguous to the identity
        for s in K.maximal_faces:
            union = set(s) | set(psi.image_simplex(s))
            assert K.sort_simplex(union) in K.simplices
        R = rng.choice([GF2, GF(3), ZZ])
        assert maps_equal(ident, psi, R, "cohomology").equal
        assert maps_equal(ident, psi, R, "homology").equal
        cases += 1
    report("property: contiguous maps induce equal maps", True, "200 random moves")


def test_property_cup_ring_axioms():
    # graded commutativity, associativity, unitality, naturality at class level
    from cohodist.homology import pullback_cochain

    rng = random.Random(53)
    cases = 0
    while cases < 200:
        K = rand_complex(rng, 5)
        R = rng.choice([GF2, GF(3), QQ])
        degs = list(range(0, K.dim + 1))
        p, q = rng.choice(degs), rng.choice(degs)
        if p + q > K.dim:
            continue
        a = rand_class(rng, K, R, p)
        b = rand_class(rng, K, R, q)
        ab, ba = cup(a, b), cup(b, a)
        sign = R.normalize(-1 if (p % 2 and q % 2) else 1)
        pres = cohomology(K, R).presentation(p + q)
        assert ab.coordinates() == pres.coordinates([R.normalize(sign * x) for x in ba.vector])
        r = rng.choice(degs)
        if p + q + r <= K.dim:
            c = rand_class(rng, K, R, r)
            assert cup(cup(a, b), c).coordinates() == cup(a, cup(b, c)).coordinates()
        from cohodist.cupring import unit_class
        assert cup(unit_class(K, R), a).coordinates() == a.coordinates()
        pool = _map_pool(rng, K)
        phi = rng.choice(pool)
        pa = CohomologyClass(K, R, p, pullback_cochain(phi, R, p, list(a.vector)),
                             check=False)
        pb = CohomologyClass(K, R, q, pullback_cochain(phi, R, q, list(b.vector)),
                             check=False)
        pulled = CohomologyClass(K, R, p + q,
                                 pullback_cochain(phi, R, p + q, list(ab.vector)),
                                 check=False)
        assert pulled.coordinates() == cup(pa, pb).coordinates()
        cases += 1
    report("property: cup commutativity/associativity/unit/naturality", True,
           "200 random cases")


def test_property_ideal_length_equals_set_length():
    rng = random.Random(59)
    # fixture pairs
    s2 = fixture_complex("s2")
    P, pi1, pi2 = product(s2, s2)
    for R in (GF2, GF(3), QQ):
        J = J_generators(pi1, pi2, R)
        assert lcp_of_set(J) == lcp_ideal(J, P, R)
    for name in ("s2", "rp2", "rp3", "torus", "k5"):
        K = fixture_complex(name)
        J = J_generators(SimplicialMap.identity(K), SimplicialMap.constant(K, K), GF2)
        assert lcp_of_set(J) == lcp_ideal(J, K, GF2)
    # randomized pairs
    cases = 0
    while cases < 200:
        K = _cone(rand_complex(rng, 4)) if rng.random() < 0.3 else rand_complex(rng, 5)
        R = rng.choice([GF2, GF(3)])
        pool = _map_pool(rng, K)
        phi, psi = rng.choice(pool), rng.choice(pool)
        J = J_generators(phi, psi, R)
        assert lcp_of_set(J) == lcp_ideal(J, K, R)
        cases += 1
    report("property: set and ideal cup-lengths agree", True,
           "fixtures plus 200 random pairs")


def test_property_field_variance_equivalence():
    rng = random.Random(61)
    # fixture pairs
    s2 = fixture_complex("s2")
    pairs = [(SimplicialMap.identity(s2), SimplicialMap.constant(s2, s2))]
    iota = rp2_loop()
    pairs.append((iota, SimplicialMap.constant(iota.source, iota.target)))
    P, pi1, pi2 = product(s2, s2)
    pairs.append((pi1, pi2))
    for phi, psi in pairs:
        for F in (GF2, GF(3), QQ):
            assert (maps_equal(phi, psi, F, "cohomology").equal
                    == maps_equal(phi, psi, F, "homology").equal)
    # randomized
    cases = 0
    while cases < 200:
        K = rand_complex(rng, 5)
        F = rng.choice([GF2, GF(3), QQ])
        pool = _map_pool(rng, K)
        phi, psi = rng.choice(pool), rng.choice(pool)
        assert (maps_equal(phi, psi, F, "cohomology").equal
                == maps_equal(phi, psi, F, "homology").equal)
        cases += 1
    report("property: field coefficients equate the two variances", True,
           "fixtures plus 200 random pairs")


def test_property_projection_ideal_is_kernel_of_diagonal():
    for name in ("s2", "c3"):
        K = fixture_complex(name)
        P, pi1, pi2 = product(K, K)
        gh = induced_map(diagonal_map(K, P), GF2, "cohomology")
        J = J_generators(pi1, pi2, GF2)
        ideal = list(J) + [cup(g, s) for g in positive_generators(P, GF2)
                           for s in J if g.degree + s.degree <= P.dim]
        for d in range(1, P.dim + 1):
            span = FieldSpan(GF2)
            ideal_rank = sum(1 for c in ideal if c.degree == d
                             and span.add(list(c.coordinates())))
            h = gh.hom(d)
            ker_span = FieldSpan(GF2)
            img_rank = sum(1 for col in h.matrix.columns() if ker_span.add(col))
            kernel_dim = h.source.ngens - img_rank
            assert ideal_rank == kernel_dim
            for c in ideal:
                if c.degree == d:
                    img = [sum(h.matrix.rows[i][j] * c.coordinates()[j]
                               for j in range(h.source.ngens)) % 2
                           for i in range(h.target.ngens)]
                    assert all(x == 0 for x in img)
    report("property: projection-difference ideal is the product kernel", True,
           "S^2 and S^1 over Z_2")


def _betti_convolution(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return tuple(out)


def test_property_kunneth_betti_numbers():
    factors = {"torus": ("c3", "c3"), "c3xs2": ("c3", "s2"), "s2xs2": ("s2", "s2")}
    for name, (an, bn) in factors.items():
        K = fixture_complex(name)
        A, B = fixture_complex(an), fixture_complex(bn)
        for F in (GF2, GF(3), QQ):
            got = cohomology(K, F).betti()
            want = _betti_convolution(cohomology(A, F).betti(),
                                      cohomology(B, F).betti())
            assert got == want, (name, F)
    report("property: product Betti numbers convolve", True,
           "all product fixtures over Z_2, Z_3, Q")


def test_property_subdivision_carrier_isomorphisms():
    small = ("point", "edge", "c3", "s2", "k5", "rp2", "torus", "figure1")
    big = ("rp3", "c3xs2", "cp2", "s2xs2")
    for name in small:
        K = fixture_complex(name)
        _, lam = barycentric_subdivision(K)
        assert induced_map(lam, GF2, "cohomology").is_iso()
        assert induced_map(lam, ZZ, "cohomology").is_iso()
        assert induced_map(lam, ZZ, "homology").is_iso()
    for name in big:
        K = fixture_complex(name)
        _, lam = barycentric_subdivision(K)
        assert induced_map(lam, GF2, "cohomology").is_iso()
        assert induced_map(lam, GF2, "homology").is_iso()
    report("property: subdivision carrier induces isomorphisms", True,
           "full fixture sweep")


def _verified_certificates():
    out = []
    for cover_name, cx_name in (("table1", "cp2"), ("table2", "rp3"),
                                ("table3", "c3xs2"), ("k5", "k5")):
        q = scat_query(fixture_complex(cx_name), GF2)
        out.append((q, fixture_cover(cover_name)))
    s2 = fixture_complex("s2")
    q4 = stc_query(s2, GF2)
    repaired = search(q4, 3, strategy="greedy", seed=0)
    assert repaired is not None
    out.append((q4, repaired))
    qs = scat_query(s2, GF2)
    two = search(qs, 2, "exhaustive")
    assert two is not None
    out.append((qs, two))
    return out


def test_property_lower_bound_respects_certificates():
    for q, cov in _verified_certificates():
        cert = verify(q, cov)
        assert cert.verified
        lo, _ = lower_bound(q)
        assert lo <= cert.n
    report("property: cup-length bound below every verified certificate", True)


def test_property_subdivided_covers_stay_verified():
    for q, cov in _verified_certificates():
        assert subdivision_monotonicity_check(q, cov)
    # a homological-variance cover subdivides just as well
    iota = rp2_loop()
    c = SimplicialMap.constant(iota.source, iota.target)
    hq = DistanceQuery(iota, c, ZZ, "homology")
    arcs = Cover(iota.source,
                 [Subcomplex.spanned_by(iota.source, [[0, 1], [0, 2]]),
                  Subcomplex.spanned_by(iota.source, [[1, 2]])])
    assert subdivision_monotonicity_check(hq, arcs)
    report("property: subdivided covers stay verified", True,
           "all verified fixture covers")
