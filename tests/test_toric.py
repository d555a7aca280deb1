import itertools

import pytest

from coxtools.cones import Cone, NonPointedError, NotFullDimensionalError
from coxtools.gradings import AbGroup, GradedEndo
from coxtools.polynomials import Poly, PolyMap, compose, parse_map, parse_poly
from coxtools.toric import (NotInDualConeError, cox_data, pullback, respects_relations,
                            verify_lift)

QUADRIC_CONE = Cone(3, [(0, 0, 1), (1, 0, 1), (0, 1, 1), (1, 1, 1)])
XS = ["x1", "x2", "x3", "x4"]
YS = ["y1", "y2", "y3", "y4"]

# the quadric automorphism and its lift, written in the canonical
# coordinate order produced by cox_data (see test_canonical_transport)
TAU_CANON = [
    "x1",
    "x2+x1*(x2-x3)",
    "x3+x1*(x2-x3)",
    "x4+(x2+x3)*(x2-x3)+x1*(x2-x3)^2",
]
TAU_INV_CANON = [
    "x1",
    "x2-x1*(x2-x3)",
    "x3-x1*(x2-x3)",
    "x4-(x2+x3)*(x2-x3)+x1*(x2-x3)^2",
]
ZETA_CANON = ["y1", "y2", "y3+y2*(y1*y3-y2*y4)", "y4+y1*(y1*y3-y2*y4)"]
ZETA_INV_CANON = ["y1", "y2", "y3-y2*(y1*y3-y2*y4)", "y4-y1*(y1*y3-y2*y4)"]


@pytest.fixture(scope="module")
def quadric():
    return cox_data(QUADRIC_CONE)


def test_orthant_cox_data():
    cd = cox_data(Cone(2, [(1, 0), (0, 1)]))
    assert cd.cl_group == AbGroup(0, ())
    assert all(d.free == () and d.torsion == () for d in cd.var_degrees)


def test_quadric_cox_data(quadric):
    assert quadric.cl_group == AbGroup(1, ())
    assert [d.free for d in quadric.var_degrees] == [(1,), (-1,), (-1,), (1,)]


def test_cyclic_quotient_cox_data():
    cd = cox_data(Cone(2, [(1, 0), (1, 2)]))
    assert cd.cl_group == AbGroup(0, (2,))
    assert [d.torsion for d in cd.var_degrees] == [(1,), (1,)]


def test_cox_data_hashes(quadric):
    """CoxData is a frozen dataclass, so it hashes its fields, the Cone
    included; the cached characters do not change the hash."""
    again = cox_data(Cone(3, quadric.rays))
    assert again == quadric and hash(again) == hash(quadric)
    before = hash(again)
    assert again.characters
    assert hash(again) == before


def test_cox_data_rejects_bad_cones():
    with pytest.raises(NotFullDimensionalError):
        cox_data(Cone(3, [(1, 0, 0), (0, 1, 0)]))
    with pytest.raises(NonPointedError):
        cox_data(Cone(2, [(1, 0), (-1, 0), (0, 1)]))


def test_quadric_pullbacks(quadric):
    monomials = [p.render() for p in quadric.pullback_map.images]
    assert monomials == ["y1*y2", "y1*y3", "y2*y4", "y3*y4"]
    # every pullback pairs one positive-degree with one negative-degree variable
    pos = {i for i, d in enumerate(quadric.var_degrees) if d.free == (1,)}
    neg = {i for i, d in enumerate(quadric.var_degrees) if d.free == (-1,)}
    expected = {frozenset((p, n)) for p in pos for n in neg}
    got = {frozenset(i for i, e in enumerate(expo) if e)
           for p in quadric.pullback_map.images for expo in p.terms}
    assert got == expected


def test_pullback_simple_cases():
    cd = cox_data(Cone(2, [(1, 0), (0, 1)]))
    assert pullback(cd, (0, 0)) == Poly.constant(2, 1)
    # ray order is canonical: (0,1) is the first variable
    assert pullback(cd, (1, 0)) == Poly.variable(2, 1)
    with pytest.raises(NotInDualConeError):
        pullback(cd, (-1, 0))


def test_pullbacks_have_degree_zero(quadric):
    for p in quadric.pullback_map.images:
        expo = next(iter(p.terms))
        assert quadric.cl_group.combination(expo, quadric.var_degrees) == quadric.cl_group.zero()


def test_degree_zero_monomials_are_pullbacks(quadric):
    """Exactness: every degree-zero monomial with exponents <= 4 is the
    pullback of a dual-cone character (solved exactly)."""
    from coxtools import intlinalg as la
    rays = quadric.rays
    for expo in itertools.product(range(5), repeat=4):
        d = quadric.cl_group.combination(expo, quadric.var_degrees)
        if d != quadric.cl_group.zero():
            continue
        u = la.solve(la.mat(rays), expo)
        assert u is not None and all(x.denominator == 1 for x in u)
        uu = tuple(int(x) for x in u)
        assert pullback(quadric, uu) == Poly.monomial(expo)


def test_canonical_transport(quadric):
    """Derive the coordinate transport programmatically and confirm the
    frozen canonical forms above: the positive-degree variables take the
    first two roles of the matrix-entry convention, whose coherent
    monomial dictionary is x1 = p1*p3, x2 = p2*p3, x3 = p1*p4,
    x4 = p2*p4."""
    pos = [i for i, d in enumerate(quadric.var_degrees) if d.free == (1,)]
    neg = [i for i, d in enumerate(quadric.var_degrees) if d.free == (-1,)]
    p1, p2 = pos
    p3, p4 = neg
    dictionary = [frozenset((p1, p3)), frozenset((p2, p3)),
                  frozenset((p1, p4)), frozenset((p2, p4))]
    char_monos = [frozenset(i for i, e in enumerate(next(iter(p.terms))) if e)
                  for p in quadric.pullback_map.images]
    perm = [char_monos.index(d) for d in dictionary]
    # matrix-entry coordinate k corresponds to canonical coordinate perm[k]
    assert perm == [0, 2, 1, 3]


def test_verify_lift_quadric(quadric):
    tau = [parse_poly(s, XS) for s in TAU_CANON]
    zeta = GradedEndo(quadric.graded_ring, parse_map(ZETA_CANON, YS))
    assert verify_lift(quadric, tau, zeta)


def test_verify_lift_identity(quadric):
    ident = [parse_poly(x, XS) for x in XS]
    phi = GradedEndo(quadric.graded_ring, PolyMap.identity(4))
    assert verify_lift(quadric, ident, phi)


def test_verify_lift_mismatch(quadric):
    tau = [parse_poly(s, XS) for s in TAU_CANON]
    phi = GradedEndo(quadric.graded_ring, PolyMap.identity(4))
    assert not verify_lift(quadric, tau, phi)


def test_verify_lift_functoriality(quadric):
    """If (psi, phi) and (psi', phi') verify, so does the composition."""
    tau = parse_map(TAU_CANON, XS)
    tau_inv = parse_map(TAU_INV_CANON, XS)
    zeta = parse_map(ZETA_CANON, YS)
    zeta_inv = parse_map(ZETA_INV_CANON, YS)
    assert verify_lift(quadric, list(tau_inv.images),
                       GradedEndo(quadric.graded_ring, zeta_inv))
    both_psi = compose(tau, tau_inv)
    both_phi = GradedEndo(quadric.graded_ring, compose(zeta, zeta_inv))
    assert verify_lift(quadric, list(both_psi.images), both_phi)


def test_verify_lift_with_torsion_grading():
    """A lift over ZZ/2: swapping the two coordinates of the plane
    descends to reversing the three coordinates of its quotient cone."""
    cd = cox_data(Cone(2, [(1, 0), (1, 2)]))
    # canonical coordinates pull back to y2^2, y1*y2, y1^2
    assert [p.render() for p in cd.pullback_map.images] == ["y2^2", "y1*y2", "y1^2"]
    x3 = ["x1", "x2", "x3"]
    psi = [parse_poly(s, x3) for s in ["x3", "x2", "x1"]]
    phi = GradedEndo(cd.graded_ring, parse_map(["y2", "y1"], ["y1", "y2"]))
    assert verify_lift(cd, psi, phi)
    ident = GradedEndo(cd.graded_ring, PolyMap.identity(2))
    assert not verify_lift(cd, psi, ident)


def test_verify_lift_over_a_class_group_z2_to_the_fourth():
    """The quotient cone with rays e1 and e1 + 2*e_k (k = 2..5) has class
    group (ZZ/2)^4; swapping y4 and y5 lifts the swap of x3 and x4."""
    cd = cox_data(Cone(5, [(1, 0, 0, 0, 0), (1, 0, 0, 0, 2), (1, 0, 0, 2, 0),
                           (1, 0, 2, 0, 0), (1, 2, 0, 0, 0)]))
    assert cd.graded_ring.group == AbGroup(0, (2, 2, 2, 2))
    xs = [f"x{i}" for i in range(1, 7)]
    psi = [parse_poly(s, xs) for s in ["x1", "x2", "x4", "x3", "x5", "x6"]]
    ys = [f"y{i}" for i in range(1, 6)]
    phi = GradedEndo(cd.graded_ring, parse_map(["y1", "y2", "y3", "y5", "y4"], ys))
    assert verify_lift(cd, psi, phi)
    assert not verify_lift(cd, psi, GradedEndo(cd.graded_ring, PolyMap.identity(5)))


def test_respects_relations(quadric):
    rel = parse_poly("x1*x4-x2*x3", XS)
    tau = [parse_poly(s, XS) for s in TAU_CANON]
    assert respects_relations(quadric, tau, [rel])
    broken = [parse_poly(s, XS) for s in ["x1", "x2", "x3", "x4+x1"]]
    assert not respects_relations(quadric, broken, [rel])
