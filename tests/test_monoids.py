import itertools
from fractions import Fraction

import pytest

from coxtools.cones import NonPointedError
from coxtools.monoids import (AffineMonoid, Beta, DivisorTheory, MonoidHom,
                              NotAnEmbedding, NotSaturatedError, ViolationStar,
                              ViolationStarStar, _enumerate_elements, divisor_theory,
                              extend_embedding, is_saturated, verify_divisor_axioms)


def test_units_rejected():
    with pytest.raises(NonPointedError):
        AffineMonoid(2, [(1, 0), (-1, 0)])


def test_saturation_of_469(monoid_469):
    assert is_saturated(monoid_469) == (True, None)


def test_saturation_failure_with_ambient_group():
    m = AffineMonoid(2, [(2, 0), (0, 1)], group_basis=[[1, 0], [0, 1]])
    sat, witness = is_saturated(m)
    assert not sat and witness == (1, 0)
    with pytest.raises(NotSaturatedError):
        divisor_theory(m)


def test_saturation_inside_own_group():
    # inside its own (derived) group the same monoid is saturated
    m = AffineMonoid(2, [(2, 0), (0, 1)])
    assert is_saturated(m) == (True, None)


def test_orthant_divisor_theory_is_identity_up_to_order():
    m = AffineMonoid(2, [(1, 0), (0, 1)])
    dt = divisor_theory(m)
    assert dt.free_rank == 2
    assert sorted(dt.generator_images()) == [(0, 1), (1, 0)]


def test_divisor_theory_469(dt_469):
    assert dt_469.free_rank == 2
    assert dt_469.generator_images() == ((2, 0), (1, 1), (0, 2))
    # the functionals restrict the ambient coordinate projections
    assert dt_469.ambient_functionals() == (
        (Fraction(1), Fraction(0)), (Fraction(0), Fraction(1)))


def test_divisor_theory_10_14_15_21(dt_10_14_15_21, monoid_10_14_15_21):
    dt = dt_10_14_15_21
    assert dt.free_rank == 4
    images = dt.generator_images()
    # each functional agrees with one ambient coordinate projection on
    # all generators (the image matrix is a column permutation)
    gens = monoid_10_14_15_21.generators
    original_cols = set(zip(*gens))
    image_cols = set(zip(*images))
    assert image_cols == original_cols


def test_divisor_theory_stable_under_reordering(monoid_469):
    m2 = AffineMonoid(2, [(0, 2), (2, 0), (1, 1)])
    dt2 = divisor_theory(m2)
    dt1 = divisor_theory(monoid_469)
    assert sorted(dt1.generator_images()) == sorted(dt2.generator_images())
    assert dt1.functionals == dt2.functionals


def test_divisor_theory_unimodular_change_of_coordinates(monoid_469, dt_469):
    # transform the ambient by a unimodular matrix; images are unchanged
    u = ((1, 1), (0, 1))
    gens = [tuple(sum(u[i][j] * g[j] for j in range(2)) for i in range(2))
            for g in monoid_469.generators]
    dt2 = divisor_theory(AffineMonoid(2, gens))
    assert sorted(dt2.generator_images()) == sorted(dt_469.generator_images())


def test_axioms_pass_for_469(dt_469):
    report = verify_divisor_axioms(dt_469, 6)
    assert report.ok


def test_axioms_pass_identity_embedding():
    dt = divisor_theory(AffineMonoid(2, [(1, 0), (0, 1)]))
    assert verify_divisor_axioms(dt, 4).ok


def test_axiom_two_fails_for_redundant_coordinate(monoid_469):
    dt = DivisorTheory.from_ambient_functionals(monoid_469, [(1, 0), (0, 1), (1, 1)])
    report = verify_divisor_axioms(dt, 6)
    assert not report.ok
    assert report.failed_axiom == 2
    d1, d2 = report.witness
    assert d1 != d2


def test_extension_star_violation(dt_10_14_15_21):
    # 10 -> 10, 14 -> 2, 15 -> 15, 21 -> 3 over the primes 2, 3, 5, 7
    alpha = MonoidHom([(1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 0)])
    result = extend_embedding(dt_10_14_15_21, alpha, depth=8)
    assert result == ViolationStar(a=(1, 0, 1, 0), b=(1, 0, 0, 1), s=(0, 0, 1, 0))
    # witness revalidates against the raw condition
    assert tuple(x - y for x, y in zip(alpha.image(result.a), alpha.image(result.b))) \
        == result.s


def test_extension_star_star_violation(dt_469, monoid_469):
    # 4 -> 20, 6 -> 30, 9 -> 45 over the primes 2, 3, 5
    alpha = MonoidHom.from_generator_images(monoid_469, [(2, 0, 1), (1, 1, 1), (0, 2, 1)])
    result = extend_embedding(dt_469, alpha, depth=8)
    assert isinstance(result, ViolationStarStar)
    assert result.witness_set == ((2, 0), (1, 1), (0, 2))
    assert result.common_prime_index == 3
    # revalidate: coprime upstairs, common prime downstairs
    r = dt_469.free_rank
    assert all(min(w[j] for w in result.witness_set) == 0 for j in range(r))
    p = result.common_prime_index - 1
    for w in result.witness_set:
        g = dt_469.preimage(w)
        assert alpha.image(g)[p] > 0


def test_extension_identity_469(dt_469, monoid_469):
    alpha = MonoidHom.from_generator_images(monoid_469, list(dt_469.generator_images()))
    assert extend_embedding(dt_469, alpha, depth=8) == Beta(((1, 0), (0, 1)))


def test_extension_identity_10_14_15_21(dt_10_14_15_21, monoid_10_14_15_21):
    dt = dt_10_14_15_21
    alpha = MonoidHom.from_generator_images(monoid_10_14_15_21,
                                            list(dt.generator_images()))
    result = extend_embedding(dt, alpha, depth=8)
    assert isinstance(result, Beta)
    assert result.matrix == tuple(tuple(1 if i == j else 0 for j in range(4))
                                  for i in range(4))


def test_extension_beta_commutes(dt_469, monoid_469):
    from coxtools import intlinalg as la
    # a non-identity but conforming alpha: double every functional image
    images = [tuple(2 * x for x in im) for im in dt_469.generator_images()]
    alpha = MonoidHom.from_generator_images(monoid_469, images)
    result = extend_embedding(dt_469, alpha, depth=10)
    assert isinstance(result, Beta)
    assert result.matrix == ((2, 0), (0, 2))
    for g in monoid_469.generators:
        assert la.mat_vec(result.matrix, dt_469.image(g)) == alpha.image(g)


def test_extension_into_larger_free_monoid(dt_469, monoid_469):
    # embed through an extra, never-used prime: the extension matrix
    # gains a zero row
    images = [im + (0,) for im in dt_469.generator_images()]
    alpha = MonoidHom.from_generator_images(monoid_469, images)
    result = extend_embedding(dt_469, alpha, depth=8)
    assert result == Beta(((1, 0), (0, 1), (0, 0)))


def test_extension_beta_uniqueness_small_kernel_search(dt_10_14_15_21, monoid_10_14_15_21):
    """No alternative nonnegative integral solution exists near Beta."""
    from coxtools import intlinalg as la
    import itertools
    dt = dt_10_14_15_21
    alpha = MonoidHom.from_generator_images(monoid_10_14_15_21,
                                            list(dt.generator_images()))
    beta = extend_embedding(dt, alpha, depth=8).matrix
    images = dt.generator_images()
    kernel = la.nullspace(la.transpose(la.mat(images)))  # rows x with x . images == 0
    assert len(kernel) == 1
    direction = kernel[0]
    scale = 1
    for f in direction:
        scale = scale * f.denominator // 1
    dirvec = tuple(int(f * scale) for f in direction)
    found = []
    for offsets in itertools.product(range(-2, 3), repeat=4):
        cand = tuple(tuple(beta[i][j] + offsets[i] * dirvec[j] for j in range(4))
                     for i in range(4))
        if any(x < 0 for row in cand for x in row):
            continue
        if all(la.mat_vec(cand, im) == la.mat_vec(beta, im) for im in images):
            found.append(cand)
    assert found == [beta]


def test_not_an_embedding():
    m = AffineMonoid(2, [(1, 0), (0, 1)])
    dt = divisor_theory(m)
    alpha = MonoidHom([(1, 1)])  # both generators map to the same element
    result = extend_embedding(dt, alpha, depth=6)
    assert isinstance(result, NotAnEmbedding)


def test_depth_insufficient(dt_469, monoid_469):
    from coxtools.monoids import DepthInsufficientError
    alpha = MonoidHom.from_generator_images(monoid_469, list(dt_469.generator_images()))
    with pytest.raises(DepthInsufficientError):
        extend_embedding(dt_469, alpha, depth=1)


def test_monoid_contains():
    m = AffineMonoid(2, [(2, 0), (1, 1), (0, 2)])
    assert m.contains((3, 1))
    assert not m.contains((1, 0))
    assert m.contains((0, 0))


def test_class_group(dt_469, dt_10_14_15_21):
    # index of the even-sum sublattice in ZZ^2 is 2
    assert dt_469.class_group() == (0, (2,))
    # rank-3 group inside ZZ^4 with saturated quotient: free of rank 1
    assert dt_10_14_15_21.class_group() == (1, ())
    dt = divisor_theory(AffineMonoid(2, [(1, 0), (0, 1)]))
    assert dt.class_group() == (0, ())


def test_monoid_contains_matches_brute_force():
    gens = [(3, 0, 1), (0, 2, 1), (1, 1, 1), (2, 1, 0)]
    m = AffineMonoid(3, gens)
    sums = {tuple(sum(e * g[i] for e, g in zip(expo, gens)) for i in range(3))
            for expo in itertools.product(range(6), repeat=len(gens))}
    for v in itertools.product(range(-1, 6), repeat=3):
        assert m.contains(v) == (v in sums), v


def test_contains_solves_only_the_target(monkeypatch):
    """The generators' span coordinates are computed once per monoid: each
    membership query does one ``lattice_coords`` solve, for the query."""
    from coxtools import intlinalg as la
    m = AffineMonoid(3, [(3, 0, 1), (0, 2, 1), (1, 1, 1), (2, 1, 0)])
    solve, calls = la.lattice_coords, []
    monkeypatch.setattr(la, "lattice_coords", lambda *a: calls.append(a) or solve(*a))
    queries = [(3, 0, 1), (4, 1, 2), (1, 0, 0), (5, 5, 5), (0, 0, 1)]
    assert [m.contains(v) for v in queries * 2] == [True, True, False, True, False] * 2
    assert [a[1] for a in calls] == queries * 2


# (ambient, tau, alpha) in enumeration order for 10, 14, 15, 21 at depth 6,
# with alpha sending each generator g to (g, 1)
ELEMENTS_10_14_15_21 = [
    ((0, 0, 0, 0), (0, 0, 0, 0), (0, 0, 0, 0, 0)),
    ((1, 0, 1, 0), (1, 0, 1, 0), (1, 0, 1, 0, 1)),
    ((1, 0, 0, 1), (0, 0, 1, 1), (1, 0, 0, 1, 1)),
    ((0, 1, 1, 0), (1, 1, 0, 0), (0, 1, 1, 0, 1)),
    ((0, 1, 0, 1), (0, 1, 0, 1), (0, 1, 0, 1, 1)),
    ((2, 0, 2, 0), (2, 0, 2, 0), (2, 0, 2, 0, 2)),
    ((2, 0, 1, 1), (1, 0, 2, 1), (2, 0, 1, 1, 2)),
    ((1, 1, 2, 0), (2, 1, 1, 0), (1, 1, 2, 0, 2)),
    ((1, 1, 1, 1), (1, 1, 1, 1), (1, 1, 1, 1, 2)),
    ((2, 0, 0, 2), (0, 0, 2, 2), (2, 0, 0, 2, 2)),
    ((1, 1, 0, 2), (0, 1, 1, 2), (1, 1, 0, 2, 2)),
    ((0, 2, 2, 0), (2, 2, 0, 0), (0, 2, 2, 0, 2)),
    ((0, 2, 1, 1), (1, 2, 0, 1), (0, 2, 1, 1, 2)),
    ((0, 2, 0, 2), (0, 2, 0, 2), (0, 2, 0, 2, 2)),
    ((3, 0, 3, 0), (3, 0, 3, 0), (3, 0, 3, 0, 3)),
    ((3, 0, 2, 1), (2, 0, 3, 1), (3, 0, 2, 1, 3)),
    ((2, 1, 3, 0), (3, 1, 2, 0), (2, 1, 3, 0, 3)),
    ((2, 1, 2, 1), (2, 1, 2, 1), (2, 1, 2, 1, 3)),
    ((3, 0, 1, 2), (1, 0, 3, 2), (3, 0, 1, 2, 3)),
    ((2, 1, 1, 2), (1, 1, 2, 2), (2, 1, 1, 2, 3)),
    ((1, 2, 3, 0), (3, 2, 1, 0), (1, 2, 3, 0, 3)),
    ((1, 2, 2, 1), (2, 2, 1, 1), (1, 2, 2, 1, 3)),
    ((1, 2, 1, 2), (1, 2, 1, 2), (1, 2, 1, 2, 3)),
    ((3, 0, 0, 3), (0, 0, 3, 3), (3, 0, 0, 3, 3)),
    ((2, 1, 0, 3), (0, 1, 2, 3), (2, 1, 0, 3, 3)),
    ((1, 2, 0, 3), (0, 2, 1, 3), (1, 2, 0, 3, 3)),
    ((0, 3, 3, 0), (3, 3, 0, 0), (0, 3, 3, 0, 3)),
    ((0, 3, 2, 1), (2, 3, 0, 1), (0, 3, 2, 1, 3)),
    ((0, 3, 1, 2), (1, 3, 0, 2), (0, 3, 1, 2, 3)),
    ((0, 3, 0, 3), (0, 3, 0, 3), (0, 3, 0, 3, 3)),
]


def test_enumerate_elements_pinned(dt_10_14_15_21, monoid_10_14_15_21):
    m = monoid_10_14_15_21
    alpha = MonoidHom.from_generator_images(m, [g + (1,) for g in m.generators])
    q, h = Fraction(1, 4), Fraction(1, 2)
    # the span projection: the group is the hyperplane x1 + x2 = x3 + x4
    assert alpha.matrix == ((3 * q, -q, q, q), (-q, 3 * q, q, q), (q, q, 3 * q, -q),
                            (q, q, -q, 3 * q), (h, h, h, h))
    elements = _enumerate_elements(dt_10_14_15_21, 6, alpha)
    assert [(e.ambient, e.tau, e.alpha) for e in elements] == ELEMENTS_10_14_15_21
    assert [(e.ambient, e.tau) for e in _enumerate_elements(dt_10_14_15_21, 6)] == \
        [(a, t) for a, t, _ in ELEMENTS_10_14_15_21]
