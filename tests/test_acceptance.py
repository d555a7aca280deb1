"""Acceptance gate: one test per criterion, exact assertions throughout.

Every test prints a single status line so a verbose run reads as a
checklist.  Criterion 8 is asserted verbatim and is a strict expected
failure: the scan machinery demonstrably yields a different homogeneity
locus (the companion test pins the computed one); see the notes shipped
with the change for the analysis.
"""

import itertools
import random
from fractions import Fraction

import pytest

from coxtools import intlinalg as la
from coxtools.cones import Cone, hilbert_basis
from coxtools.cyclotomic import CycloNum
from coxtools.gradings import (AbGroup, GradedEndo, GradedRing, NotHomogeneousError,
                               anick_automorphism, check_normalizes, degree_of,
                               elementary_shear, nagata_polymap, quadric_grading,
                               shear_family, shear_map, wildness_machinery)
from coxtools.monoids import (AffineMonoid, Beta, MonoidHom,
                              ViolationStar, ViolationStarStar, divisor_theory,
                              extend_embedding, is_saturated, verify_divisor_axioms)
from coxtools.polynomials import (Poly, PolyMap, compose, compose_chain, jacobian,
                                  parse_map, parse_poly, poly_det, substitute)
from coxtools.quotients import close_group, quotient_report, reynolds_invariants
from coxtools.toric import cox_data, verify_lift

from conftest import XS, YS, Y5, TAU_STRS, TAU_INV_STRS


def report(n, status, text):
    print(f"ACCEPTANCE {n:02d}: {status} - {text}")


# -- criterion 1 ---------------------------------------------------------------

def test_c01_divisor_theory_469():
    m = AffineMonoid(2, [(2, 0), (1, 1), (0, 2)])
    dt = divisor_theory(m)
    assert dt.free_rank == 2
    assert dt.ambient_functionals() == ((Fraction(1), Fraction(0)),
                                        (Fraction(0), Fraction(1)))
    assert dt.generator_images() == ((2, 0), (1, 1), (0, 2))
    assert verify_divisor_axioms(dt, 6).ok
    report(1, "PASS", "4,6,9 divisor theory: coordinate functionals, "
                      "images (2,0),(1,1),(0,2), axioms pass at depth 6")


# -- criterion 2 ---------------------------------------------------------------

def test_c02_divisor_theory_10_14_15_21():
    gens = [(1, 0, 1, 0), (1, 0, 0, 1), (0, 1, 1, 0), (0, 1, 0, 1)]
    dt = divisor_theory(AffineMonoid(4, gens))
    assert dt.free_rank == 4
    # functionals are the coordinate projections up to relabeling: the
    # image matrix has exactly the original columns
    assert sorted(zip(*dt.generator_images())) == sorted(zip(*gens))
    report(2, "PASS", "10,14,15,21 divisor theory: rank-4 coordinate functionals")


# -- criterion 3 ---------------------------------------------------------------

def _alpha_images_up_to(images, bound):
    """All alpha-image sums with coordinate total <= bound (independent
    enumeration for witness revalidation)."""
    seen = {tuple(0 for _ in images[0])}
    frontier = [tuple(0 for _ in images[0])]
    while frontier:
        base = frontier.pop()
        for im in images:
            nxt = tuple(x + y for x, y in zip(base, im))
            if sum(nxt) <= bound and nxt not in seen:
                seen.add(nxt)
                frontier.append(nxt)
    return seen


def test_c03_extension_violations_with_revalidation():
    # condition (*): 10 -> 10, 14 -> 2, 15 -> 15, 21 -> 3
    gens = [(1, 0, 1, 0), (1, 0, 0, 1), (0, 1, 1, 0), (0, 1, 0, 1)]
    m = AffineMonoid(4, gens)
    dt = divisor_theory(m)
    alpha = MonoidHom([(1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 0)])
    res = extend_embedding(dt, alpha)
    assert res == ViolationStar(a=(1, 0, 1, 0), b=(1, 0, 0, 1), s=(0, 0, 1, 0))
    a_img, b_img = alpha.image(res.a), alpha.image(res.b)
    assert tuple(x - y for x, y in zip(a_img, b_img)) == res.s
    assert all(x >= 0 for x in res.s) and any(res.s)
    gen_images = [alpha.image(g) for g in gens]
    assert res.s not in _alpha_images_up_to(gen_images, sum(res.s))

    # condition (**): 4 -> 20, 6 -> 30, 9 -> 45
    m2 = AffineMonoid(2, [(2, 0), (1, 1), (0, 2)])
    dt2 = divisor_theory(m2)
    alpha2 = MonoidHom.from_generator_images(m2, [(2, 0, 1), (1, 1, 1), (0, 2, 1)])
    res2 = extend_embedding(dt2, alpha2)
    assert res2 == ViolationStarStar(witness_set=((2, 0), (1, 1), (0, 2)),
                                     common_prime_index=3)
    for j in range(dt2.free_rank):
        assert min(w[j] for w in res2.witness_set) == 0
    p = res2.common_prime_index - 1
    for w in res2.witness_set:
        g = dt2.preimage(w)
        assert g is not None and alpha2.image(g)[p] > 0
    report(3, "PASS", "both extension counterexamples reproduced; witnesses "
                      "revalidate against the raw (*) and (**) definitions")


# -- criterion 4 ---------------------------------------------------------------

def test_c04_extension_of_divisor_theory_is_identity():
    for rank, gens in [(2, [(2, 0), (1, 1), (0, 2)]),
                       (4, [(1, 0, 1, 0), (1, 0, 0, 1), (0, 1, 1, 0), (0, 1, 0, 1)])]:
        m = AffineMonoid(rank, gens)
        dt = divisor_theory(m)
        alpha = MonoidHom.from_generator_images(m, list(dt.generator_images()))
        res = extend_embedding(dt, alpha)
        assert isinstance(res, Beta)
        assert res.matrix == la.identity(dt.free_rank)
    report(4, "PASS", "extending the divisor theory along itself gives the "
                      "identity matrix for both monoids")


# -- criterion 5 ---------------------------------------------------------------

TAU_CANON = [
    "x1", "x2+x1*(x2-x3)", "x3+x1*(x2-x3)",
    "x4+(x2+x3)*(x2-x3)+x1*(x2-x3)^2",
]
ZETA_CANON = ["y1", "y2", "y3+y2*(y1*y3-y2*y4)", "y4+y1*(y1*y3-y2*y4)"]


def test_c05_lift_verification():
    cd = cox_data(Cone(3, [(0, 0, 1), (1, 0, 1), (0, 1, 1), (1, 1, 1)]))
    tau = [parse_poly(s, XS) for s in TAU_CANON]
    zeta = GradedEndo(cd.graded_ring, parse_map(ZETA_CANON, YS))
    assert verify_lift(cd, tau, zeta)
    # tau composed with its inverse pulls back to the identity on all
    # four coordinates
    tau_map = parse_map(TAU_STRS, XS)
    tau_inv = parse_map(TAU_INV_STRS, XS)
    both = compose(tau_map, tau_inv)
    assert both.is_identity()
    pull = cd.pullback_map
    for j in range(4):
        assert substitute(both.images[j], pull) == pull.images[j]
    report(5, "PASS", "verify_lift(quadric, tau, zeta) holds and tau o tau^-1 "
                      "pulls back to the identity on all four coordinates")


# -- criterion 6 ---------------------------------------------------------------

def test_c06_five_variable_chain():
    ring5 = quadric_grading(extra_zero_vars=1)
    delta = parse_poly("y1*y4-y2*y3", Y5)
    y = [Poly.variable(5, i) for i in range(5)]
    steps = [
        elementary_shear(ring5, 4, delta),
        elementary_shear(ring5, 1, y[0] * y[4]),
        elementary_shear(ring5, 3, y[2] * y[4]),
        elementary_shear(ring5, 4, -delta),
        elementary_shear(ring5, 1, -(y[0] * y[4])),
        elementary_shear(ring5, 3, -(y[2] * y[4])),
    ]
    for e in steps:
        assert check_normalizes(e).kind == "preserves"
    chain = compose_chain([e.map for e in steps])
    expected = parse_map(["y1", "y2+y1*(y1*y4-y2*y3)", "y3",
                          "y4+y3*(y1*y4-y2*y3)", "y5"], Y5)
    assert chain == expected
    report(6, "PASS", "the six-step five-variable chain composes exactly to "
                      "the two-shear map extended by a fixed fifth variable")


# -- criterion 7 ---------------------------------------------------------------

def test_c07_wildness_machinery_numbers():
    ring = quadric_grading()
    delta = parse_poly("y1*y4-y2*y3", YS)
    rho0 = shear_map(ring, 1, Poly.variable(4, 0) * delta)
    m = wildness_machinery([rho0])
    assert m.det_jacobian == parse_poly("1-y1*y3", YS)
    assert m.residual.is_zero() and m.residual_in_i2
    assert m.f.is_zero() and m.g.is_zero()
    assert m.f_in_i3 and m.g_in_i3
    assert poly_det(jacobian(anick_automorphism().map)) == Poly.constant(4, 1)
    report(7, "PASS", "det J(rho0) = 1 - y1*y3 exactly, residual 0 in I^2, "
                      "f = g = 0 in I^3, det J(zeta) = 1")


# -- criterion 8 ---------------------------------------------------------------

def _nagata_homogeneity_locus(bound=4):
    nm = nagata_polymap()
    g = AbGroup(1, ())
    good = set()
    rng = range(-bound, bound + 1)
    for a in rng:
        for b in rng:
            for c in rng:
                ring = GradedRing(g, (g.element((a,)), g.element((b,)), g.element((c,))))
                try:
                    for p in nm.images:
                        degree_of(p, ring)
                except NotHomogeneousError:
                    continue
                good.add((a, b, c))
    return good


@pytest.mark.xfail(strict=True,
                   reason="stated locus deg(y1)=2deg(y2) is not what the map "
                          "satisfies; the scan yields deg(y1)=3deg(y2) (the "
                          "displayed torus weights (3,1,-1)); see the ledger")
def test_c08_nagata_homogeneity_as_stated():
    stated = {(2 * b, b, -b) for b in range(-2, 3)}
    assert _nagata_homogeneity_locus(4) == stated


def test_c08_nagata_homogeneity_computed_locus():
    locus = _nagata_homogeneity_locus(4)
    assert locus == {(-3, -1, 1), (0, 0, 0), (3, 1, -1)}
    assert all(a == 3 * b and c == -b for a, b, c in locus)
    report(8, "FAIL as stated / machinery verified",
           "the scan finds the homogeneity locus deg(y1)=3deg(y2), "
           "deg(y3)=-deg(y2), not the stated 2deg(y2) line")


# -- criterion 9 ---------------------------------------------------------------

def test_c09_quadric_cox_data():
    cd = cox_data(Cone(3, [(0, 0, 1), (1, 0, 1), (0, 1, 1), (1, 1, 1)]))
    assert cd.cl_group == AbGroup(1, ())  # Cl = ZZ, no torsion
    degs = [d.free[0] for d in cd.var_degrees]
    assert degs == [1, -1, -1, 1]  # canonical ray order, documented sign
    # up to the documented normalization (positives first) this is (1,1,-1,-1)
    assert sorted(degs, reverse=True) == [1, 1, -1, -1]
    pulls = [p.render() for p in cd.pullback_map.images]
    assert pulls == ["y1*y2", "y1*y3", "y2*y4", "y3*y4"]
    pos = [i for i, d in enumerate(degs) if d == 1]
    neg = [i for i, d in enumerate(degs) if d == -1]
    mixed = {frozenset((p, n)) for p in pos for n in neg}
    got = {frozenset(i for i, e in enumerate(next(iter(p.terms))) if e)
           for p in cd.pullback_map.images}
    assert got == mixed
    report(9, "PASS", "quadric: Cl = ZZ, degrees (1,1,-1,-1) up to the "
                      "documented normalization, pullbacks are the four "
                      "mixed-degree monomials")


# -- criterion 10 -----------------------------------------------------------------

def test_c10_quaternion_report_and_reynolds():
    i = CycloNum.zeta(4)
    q8 = close_group([[[i, 0], [0, -i]], [[0, 1], [-1, 0]]], conductor=4)
    rep = quotient_report(q8)
    assert rep.order_h == 1
    assert rep.order_h_tilde == 2
    assert not rep.f_abelian
    assert rep.n_invariants == (2, 2)
    assert not rep.is_toric
    pm = close_group([[[-1, 0], [0, -1]]], conductor=1)
    assert len(reynolds_invariants(pm, 2)) == 3
    report(10, "PASS", "Q8: H trivial, H~ of order 2, F nonabelian, "
                       "N = (2,2), not toric; degree-2 invariants of +/-E "
                       "have dimension 3")


# -- criterion 11 -----------------------------------------------------------------

def test_c11_shear_family_growth():
    ring = quadric_grading()
    f = Poly.variable(4, 1)
    h = parse_poly("y2*y3", YS)
    probe = parse_poly("y1*y3", YS)
    degrees = []
    for k in range(1, 7):
        endo = shear_family(ring, 0, f, h, k)
        degrees.append(substitute(probe, endo.map).total_degree())
    assert degrees == [2 * (k + 1) for k in range(1, 7)]
    assert all(x < y for x, y in zip(degrees, degrees[1:]))
    report(11, "PASS", "shear-family image degrees are 2(k+1) for k=1..6, "
                       "strictly increasing")


# -- criterion 12: randomized property suites -------------------------------------

def _adjugate_with_det(rows):
    det = la.det_int(rows)
    inv = la.inverse_frac(rows)
    n = len(rows)
    adj = tuple(tuple(int(inv[i][j] * det) for j in range(n)) for i in range(n))
    return adj, det


def _membership_oracle(rays, k):
    """Independent exact membership in cone(rays) via Caratheodory:
    some independent k-subset carries the point with nonnegative
    coordinates (integer adjugate arithmetic only)."""
    tables = []
    for sub in itertools.combinations(rays, k):
        if la.det_int(sub) == 0:
            continue
        adj, det = _adjugate_with_det(sub)
        sign = 1 if det > 0 else -1
        tables.append((adj, sign))

    def contains(v):
        for adj, sign in tables:
            coords = tuple(sum(v[i] * adj[i][j] for i in range(k)) * sign
                           for j in range(k))
            if all(c >= 0 for c in coords):
                return True
        return False

    return contains


def _random_pointed_cone(rng, k):
    """Full-dimensional cones with nonnegative ray entries: staying in
    the positive orthant makes every cone pointed and keeps brute-force
    summand enumeration inside the coordinate box."""
    while True:
        nrays = rng.randint(2, 3)
        rays = []
        for _ in range(nrays):
            v = tuple(rng.randint(0, 3) for _ in range(k))
            if any(v):
                rays.append(v)
        if rays and la.rank(rays) == k:
            return rays


def test_c12a_hilbert_basis_vs_brute_force():
    rng = random.Random(20260810)
    cases = 0
    while cases < 200:
        k = 3 if cases % 4 == 0 else 2
        rays = _random_pointed_cone(rng, k)
        cone = Cone(k, rays)
        hb = hilbert_basis(cone)
        oracle = _membership_oracle(rays, k)
        box = [p for p in itertools.product(range(11), repeat=k) if oracle(p)]
        points = set(box)
        assert all(h in points for h in hb)
        # every box point is a nonnegative combination of the basis
        memo = {}

        def representable(v):
            if not any(v):
                return True
            if v in memo:
                return memo[v]
            ok = False
            for h in hb:
                rest = tuple(x - y for x, y in zip(v, h))
                if all(x >= 0 for x in rest) and rest in points and representable(rest):
                    ok = True
                    break
            memo[v] = ok
            return ok

        assert all(representable(p) for p in box)
        # no basis element splits as a sum of two nonzero cone points
        zero = (0,) * k
        for h in hb:
            for a in points:
                if a == zero or a == h:
                    continue
                rest = tuple(x - y for x, y in zip(h, a))
                if all(x >= 0 for x in rest) and rest != zero and rest in points:
                    raise AssertionError(f"{h} = {a} + {rest} is reducible")
        cases += 1
    report(12, "PASS", "suite A: Hilbert basis minimality vs brute force, "
                       "200 cases, zero failures")


def test_c12b_divisor_axioms_random_saturated_monoids():
    rng = random.Random(1143)
    cases = 0
    while cases < 200:
        k = 3 if cases % 3 == 0 else 2
        rays = _random_pointed_cone(rng, k)
        hb = hilbert_basis(Cone(k, rays))
        if not 1 <= len(hb) <= 5:
            continue
        m = AffineMonoid(k, hb)
        assert is_saturated(m) == (True, None)
        dt = divisor_theory(m)
        assert verify_divisor_axioms(dt, 6).ok
        cases += 1
    report(12, "PASS", "suite B: divisor axioms at depth 6 for 200 random "
                       "saturated monoids, zero failures")


def _random_poly(rng, num_vars, max_terms=3, max_deg=3):
    terms = {}
    for _ in range(rng.randint(1, max_terms)):
        e = tuple(rng.randint(0, max_deg) for _ in range(num_vars))
        terms[e] = Fraction(rng.randint(-3, 3), rng.choice([1, 1, 2]))
    return Poly(num_vars, terms)


def test_c12c_substitution_and_chain_rule():
    rng = random.Random(977)
    for case in range(200):
        n = rng.choice([2, 2, 3])
        p = _random_poly(rng, n)
        q = _random_poly(rng, n)
        m = PolyMap(tuple(_random_poly(rng, n, max_terms=2, max_deg=2)
                          for _ in range(n)))
        assert substitute(p + q, m) == substitute(p, m) + substitute(q, m)
        assert substitute(p * q, m) == substitute(p, m) * substitute(q, m)
        # mixed partials commute
        i, j = rng.randrange(n), rng.randrange(n)
        assert p.derivative(i).derivative(j) == p.derivative(j).derivative(i)
        if case % 4 == 0:
            f = PolyMap(tuple(_random_poly(rng, 2, max_terms=2, max_deg=2)
                              for _ in range(2)))
            g = PolyMap(tuple(_random_poly(rng, 2, max_terms=2, max_deg=2)
                              for _ in range(2)))
            lhs = poly_det(jacobian(compose(f, g)))
            rhs = substitute(poly_det(jacobian(f)), g) * poly_det(jacobian(g))
            assert lhs == rhs
    report(12, "PASS", "suite C: substitution distributivity, commuting "
                       "partials, Jacobian chain rule, 200 cases")


def test_c12d_normal_form_identities():
    rng = random.Random(4099)
    for _ in range(200):
        rows = rng.randint(1, 4)
        cols = rng.randint(1, 4)
        a = tuple(tuple(rng.randint(-9, 9) for _ in range(cols))
                  for _ in range(rows))
        h, u = la.hnf(a)
        assert la.mat_mul(u, a) == h
        assert abs(la.det_int(u)) == 1
        s, us, vs = la.snf(a)
        assert la.mat_mul(la.mat_mul(us, a), vs) == s
        assert abs(la.det_int(us)) == 1 and abs(la.det_int(vs)) == 1
        diag = [s[i][i] for i in range(min(rows, cols))]
        assert all(d >= 0 for d in diag)
        for x, y in zip(diag, diag[1:]):
            if x == 0:
                assert y == 0
            else:
                assert y % x == 0
        for i in range(rows):
            for j in range(cols):
                if i != j:
                    assert s[i][j] == 0
    report(12, "PASS", "suite D: HNF/SNF defining identities on 200 random "
                       "matrices, zero failures")
