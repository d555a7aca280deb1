import itertools
import random
from dataclasses import dataclass
from fractions import Fraction

import pytest

from coxtools import intlinalg as la
from coxtools import cones, monoids
from coxtools.cones import Cone, NonPointedError, hilbert_basis
from coxtools.monoids import (AffineMonoid, AxiomReport, Beta, DivisorTheory, MonoidHom,
                              NotAnEmbedding, NotSaturatedError, ViolationStar,
                              ViolationStarStar, divisor_theory, extend_embedding, is_saturated,
                              verify_divisor_axioms)


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


@pytest.mark.parametrize("rank", [2.5, Fraction(5, 2), "2", True])
def test_monoid_rank_must_be_an_int(rank):
    with pytest.raises(ValueError, match="ambient rank must be an int"):
        AffineMonoid(rank, [(1, 0), (0, 1)])


def test_divisor_theory_and_its_axioms_triangulate_once(monkeypatch):
    """On the hb-moment3-8 monoid (the 64-element Hilbert basis of the
    moment cone (1, a, a^2), a < 8, as generators), the axiom check reuses
    the basis that divisor_theory computed to prove saturation."""
    gens = hilbert_basis(Cone(3, [(1, a, a * a) for a in range(8)]))
    calls = []
    pull = cones._pulling_simplices
    monkeypatch.setattr(cones, "_pulling_simplices", lambda *a: calls.append(1) or pull(*a))
    dt = divisor_theory(AffineMonoid(3, gens))
    assert verify_divisor_axioms(dt, 6).ok
    assert len(calls) == 1


def test_group_basis_is_checked_by_the_cone():
    with pytest.raises(ValueError, match="independent"):
        AffineMonoid(2, [(2, 0), (0, 2)], group_basis=[[2, 0], [4, 0]])
    with pytest.raises(ValueError, match=r"generator \(1, 1\) is not in the lattice"):
        AffineMonoid(2, [(2, 0), (1, 1)], group_basis=[[2, 0], [0, 2]])


def test_one_coordinate_solve_per_generator(monkeypatch):
    """AffineMonoid, divisor_theory and verify_divisor_axioms on the
    hb-moment3-4 monoid (8 generators) solve each generator's coordinates
    once, in Cone: not at all in ZZ^3, and once each in 2 ZZ^3."""
    from coxtools import intlinalg as la
    gens = hilbert_basis(Cone(3, [(1, a, a * a) for a in range(4)]))
    assert len(gens) == 8
    solve, calls = la.lattice_coords, []
    monkeypatch.setattr(la, "lattice_coords", lambda *a: calls.append(a) or solve(*a))
    for scale, solves in ((1, 0), (2, 8)):
        calls.clear()
        dt = divisor_theory(AffineMonoid(3, [la.vec_scale(g, scale) for g in gens]))
        assert verify_divisor_axioms(dt, 4).ok
        assert len(calls) == solves
        assert dt.generator_images() == tuple(dt.image(g) for g in dt.monoid.generators)


def test_saturation_inside_own_group():
    # inside its own (derived) group the same monoid is saturated
    m = AffineMonoid(2, [(2, 0), (0, 1)])
    assert is_saturated(m) == (True, None)


def _seeded_monoids(seed, count):
    """Seeded monoids in ZZ^2 and ZZ^3 with nonnegative generators (so the
    cone is pointed); about 30% are given an explicit ``group_basis``, the
    whole lattice or the saturation of the generators' span."""
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        n = rng.choice((2, 3))
        gens = [tuple(rng.randint(0, 4) for _ in range(n)) for _ in range(rng.randint(1, 5))]
        gens = [g for g in gens if any(g)]
        if not gens:
            continue
        basis = None
        if rng.random() < 0.3:
            basis = la.identity(n) if la.rank(gens) == n else la.saturation_basis(gens)
        out.append(AffineMonoid(n, gens, group_basis=basis))
    return out


def test_saturation_witness_matches_the_membership_search():
    """is_saturated reads the witness off the Hilbert basis without a
    search; ``contains`` on each Hilbert basis element is the oracle."""
    seeded = _seeded_monoids(15, 500)
    verdicts = []
    for m in seeded:
        expected = next((h for h in hilbert_basis(m.cone) if not m.contains(h)), None)
        assert is_saturated(m) == (expected is None, expected)
        verdicts.append(expected is None)
    assert 0.2 < sum(verdicts) / len(verdicts) < 0.8
    assert sum(m.group_basis != monoids._generated_group(m.generators) for m in seeded) > 50


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


def test_axiom_one_exact_where_the_scan_saw_axiom_two():
    """tau(-4, 4) = (8, 0) >= 0 although (-4, 4) is not in M: an axiom-1
    failure.  The depth-bounded scan met no such pair and reported the
    axiom-2 collision ((1, 0), (0, 1)) instead."""
    m = AffineMonoid(2, [(4, 2), (4, 3)])
    report = verify_divisor_axioms(DivisorTheory(m, ((0, 2), (4, 1))), 8)
    assert report == AxiomReport(False, 1, ((-4, 4), (8, 0)), 8)
    assert not m.contains((-4, 4))


def test_axiom_one_is_judged_in_the_generators_group():
    # saturated in its own group 2ZZ x ZZ, though not in the given ZZ^2:
    # axiom 1 holds, and the odd first coordinate breaks axiom 2
    m = AffineMonoid(2, [(2, 0), (0, 1)], group_basis=[[1, 0], [0, 1]])
    assert is_saturated(m) == (False, (1, 0))
    report = verify_divisor_axioms(DivisorTheory(m, ((1, 0), (0, 1))), 8)
    assert report == AxiomReport(False, 2, ((1, 0), (2, 0)), 8)
    # the offending ray (1, -1) first meets the group 2ZZ^2 at (2, -2)
    m = AffineMonoid(2, [(2, 0), (0, 2)], group_basis=[[1, 0], [0, 1]])
    report = verify_divisor_axioms(DivisorTheory(m, ((1, 0), (1, 1))), 8)
    assert report == AxiomReport(False, 1, ((2, -2), (2, 0)), 8)


def test_axiom_two_gcd_witness():
    # every image is even at coordinate 0: e_0 and 2 e_0 divide alike
    m = AffineMonoid(1, [(1,)])
    assert verify_divisor_axioms(DivisorTheory(m, ((2,),)), 0) == \
        AxiomReport(False, 2, ((1,), (2,)), 0)
    # the images vanishing at 0 leave coordinate 1 uncovered
    report = verify_divisor_axioms(DivisorTheory(m, ((1,), (0,))), 3)
    assert report == AxiomReport(False, 2, ((0, 1), (1, 1)), 3)
    # a zero first functional: nothing is divisible by e_0 or by 2 e_0
    m = AffineMonoid(2, [(1, 0), (0, 1)])
    report = verify_divisor_axioms(DivisorTheory(m, ((0, 0), (1, 0), (0, 1))), 3)
    assert report == AxiomReport(False, 2, ((1, 0, 0), (2, 0, 0)), 3)


def test_functionals_must_live_on_the_monoids_span():
    # a functional on ZZ^2 is not determined by the monoid on the x-axis,
    # whose group has rank 1
    m = AffineMonoid(2, [(1, 0)])
    with pytest.raises(ValueError, match="row length must match the group rank"):
        DivisorTheory(m, ((1, 0), (0, 1)))


def test_axiom_one_failure_past_the_scan_depth():
    """(1, 1, 0) is a hole of M in its group ZZ^3 with tau image (0, 0, 3).
    The depth-bounded scan passed this monoid at every depth up to 17; it first
    met a pair a - b outside M at depth 18."""
    m = AffineMonoid(3, [(1, 1, 1), (2, 1, 3), (2, 3, 3), (3, 3, 0)])
    dt = DivisorTheory(m, ((-3, 3, 1), (3, -3, 1), (3, 0, -2)))
    for depth in (8, 18):
        assert verify_divisor_axioms(dt, depth) == \
            AxiomReport(False, 1, ((1, 1, 0), (0, 0, 3)), depth)
    assert _reference_verify_divisor_axioms(dt, 8).ok
    assert _reference_verify_divisor_axioms(dt, 18) == \
        AxiomReport(False, 1, ((6, 6, 6), (2, 1, 3), (6, 0, 6)), 18)


def test_axioms_do_not_depend_on_depth(dt_10_14_15_21):
    reports = {d: verify_divisor_axioms(dt_10_14_15_21, d) for d in (0, 6, 10)}
    assert {d: (r.ok, r.witness, r.depth) for d, r in reports.items()} == \
        {d: (True, (), d) for d in (0, 6, 10)}


# -- the depth-bounded searches that the exact checks replaced -----------------------
#
# The element enumeration and the extension search that extend_embedding ran
# before it became exact, kept verbatim as the test-only reference.

class DepthInsufficientError(ValueError):
    """The bounded search neither produced an extension nor a violation."""


@dataclass(frozen=True)
class _Element:
    ambient: tuple
    tau: tuple
    alpha: tuple = None


def _enumerate_elements(dt, depth, alpha=None):
    """Monoid elements with divisor-image coordinate sum <= depth.

    Elements appear ordered by total generator degree and then by
    lexicographic exponent vector; duplicates keep their first
    occurrence.  The unit comes first.
    """
    gens = dt.monoid.generators
    tau_images = dt.generator_images()
    alpha_images = tuple(alpha.image(g) for g in gens) if alpha else None
    seen = {}
    order = []
    unit = _Element((0,) * dt.monoid.ambient_rank, (0,) * dt.free_rank,
                    (0,) * alpha.target_rank if alpha else None)
    seen[unit.tau] = unit
    order.append(unit)
    # every generator image has coordinate sum >= 1, so degree <= depth
    for degree in range(1, depth + 1):
        for expo in la.compositions(degree, len(gens)):
            tau = la.vec_mat(expo, tau_images)
            if sum(tau) > depth or tau in seen:
                continue
            el = _Element(la.vec_mat(expo, gens), tau,
                          la.vec_mat(expo, alpha_images) if alpha else None)
            seen[tau] = el
            order.append(el)
    return order


def _reference_extend_embedding(dt, alpha, depth):
    """Extend ``alpha`` through the divisor theory, or find a violation.

    Checks, in order: injectivity of alpha (up to depth), condition (*),
    condition (**), and finally constructs the extension matrix from the
    divisibility-set correspondence between primes of the target and
    primes of the divisor theory.  Raises DepthInsufficientError when
    the bounded data cannot settle the answer.
    """
    if len(alpha.matrix[0]) != dt.monoid.ambient_rank:
        raise ValueError("alpha's row length must match the monoid's ambient rank")
    gens = dt.monoid.generators
    for g in gens:
        if all(x == 0 for x in alpha.image(g)):
            return NotAnEmbedding(g, (0,) * dt.monoid.ambient_rank)
        if any(x < 0 for x in alpha.image(g)):
            raise ValueError("alpha must map generators into the free monoid")

    elements = _enumerate_elements(dt, depth, alpha)
    if max(sum(t) for t in dt.generator_images()) > depth:
        raise DepthInsufficientError("depth smaller than a generator's image")

    by_alpha = {}
    for e in elements:
        other = by_alpha.get(e.alpha)
        if other is not None:
            return NotAnEmbedding(other.ambient, e.ambient)
        by_alpha[e.alpha] = e

    alpha_gen_images = tuple(alpha.image(g) for g in gens)

    # condition (*): s in alpha(monoid) is decided exactly, since every
    # alpha-image of a generator is nonnegative and nonzero; each distinct
    # difference s is decided once
    nonunit = elements[1:]
    represented = {}
    for a in nonunit:
        for b in nonunit:
            if a is b:
                continue
            s = tuple(x - y for x, y in zip(a.alpha, b.alpha))
            if any(x < 0 for x in s) or all(x == 0 for x in s):
                continue
            if s not in represented:
                represented[s] = monoids._represents(s, alpha_gen_images, lambda x: min(x) >= 0)
            if not represented[s]:
                return ViolationStar(a.ambient, b.ambient, s)

    def coprime(es):
        """No divisor-theory prime divides every member of ``es``."""
        return all(min(e.tau[j] for e in es) == 0 for j in range(dt.free_rank))

    # condition (**): one maximal candidate subset per target prime
    target_rank = alpha.target_rank
    for p in range(target_rank):
        subset = [e for e in nonunit if e.alpha[p] > 0]
        if not subset or not coprime(subset):
            continue
        # prefer the generator subset when it is already coprime
        gen_candidates = [e for e in subset if e.ambient in gens]
        witness = gen_candidates if gen_candidates and coprime(gen_candidates) else subset
        return ViolationStarStar(tuple(e.tau for e in witness), p + 1)

    # construct the extension from divisibility-set matching
    r = dt.free_rank
    l_sets = []
    for j in range(r):
        lj = frozenset(i for i, e in enumerate(elements) if e.tau[j] > 0)
        if not lj:
            raise DepthInsufficientError("a divisor-theory prime divides no element in range")
        l_sets.append(lj)
    matrix = [[0] * r for _ in range(target_rank)]
    matched = set()
    for p in range(target_rank):
        n_p = frozenset(i for i, e in enumerate(elements) if e.alpha[p] > 0)
        if not n_p:
            continue
        js = [j for j in range(r) if l_sets[j] == n_p]
        if len(js) != 1:
            raise DepthInsufficientError(
                "divisibility sets do not single out a divisor-theory prime")
        j = js[0]
        matched.add(j)
        exponent = 1
        while frozenset(i for i, e in enumerate(elements) if e.alpha[p] > exponent) == n_p:
            exponent += 1
        matrix[p][j] = exponent
    if matched != set(range(r)):
        raise DepthInsufficientError("some divisor-theory prime has no matching target prime")
    beta = la.mat(matrix)
    tau_gen = dt.generator_images()
    for gi, ag in zip(tau_gen, alpha_gen_images):
        if la.mat_vec(beta, gi) != ag:
            raise DepthInsufficientError("candidate extension fails on a generator")
    return Beta(beta)


# -- the exact axiom check against the depth-bounded scan ----------------------------
#
# The pair scan and divisibility-set buckets that verify_divisor_axioms ran
# before it became exact, kept verbatim as the test-only reference.

def _exists_multiple_avoiding(images, da, db):
    """Exact decision: is there a monoid image v with v >= da but not
    v >= db?  Any v splits, per coordinate j with v_j < db_j, into a
    bounded combination of generators positive at j plus arbitrarily
    many generators vanishing at j; the latter can cover any remaining
    coordinate with a positive entry.  No search bound is needed.
    """
    r = len(da)
    for j in range(r):
        if da[j] >= db[j]:
            continue  # the window [da_j, db_j) is empty
        limit = db[j] - 1
        tj = [im for im in images if im[j] > 0]
        sj = [im for im in images if im[j] == 0]
        cover = [any(im[i] > 0 for im in sj) for i in range(r)]

        def feasible(idx, acc):
            if acc[j] > limit:
                return False
            if idx == len(tj):
                if acc[j] < da[j]:
                    return False
                return all(acc[i] >= da[i] or cover[i] for i in range(r))
            im = tj[idx]
            for c in range((limit - acc[j]) // im[j] + 1):
                if feasible(idx + 1, tuple(a + c * b for a, b in zip(acc, im))):
                    return True
            return False

        if feasible(0, (0,) * r):
            return True
    return False


def _reference_verify_divisor_axioms(dt, depth):
    """Bounded check of the two divisor-theory axioms.

    Axiom 1: whenever tau(a) = tau(b) + c with c in the free monoid, c
    is itself a tau-image.  Axiom 2: distinct free-monoid elements have
    distinct divisibility sets inside the monoid.  Both quantifiers run
    over coordinate sums <= depth, but an axiom-2 counterexample is only
    reported after an exact (unbounded) confirmation that the two
    divisibility sets coincide, so boundary truncation cannot produce
    spurious reports.  A pass certifies the axioms up to depth only.
    """
    elements = _enumerate_elements(dt, depth)
    # the enumeration is complete up to the depth bound (every generator
    # image has coordinate sum >= 1), so image membership of a difference
    # vector is a set lookup
    tau_set = {e.tau for e in elements}
    # axiom 1
    for a in elements:
        for b in elements:
            if a is b:
                continue
            c = tuple(x - y for x, y in zip(a.tau, b.tau))
            if any(x < 0 for x in c) or all(x == 0 for x in c):
                continue
            if c not in tau_set:
                return AxiomReport(False, 1, (a.ambient, b.ambient, c), depth)
    # axiom 2: group free-monoid elements by truncated divisibility sets,
    # then confirm collisions exactly
    r = dt.free_rank
    gen_images = dt.generator_images()
    by_set = {}
    for total in range(0, depth + 1):
        for d in la.compositions(total, r):
            div = frozenset(e.tau for e in elements
                            if all(x >= y for x, y in zip(e.tau, d)))
            bucket = by_set.setdefault(div, [])
            for other in bucket:
                if not (_exists_multiple_avoiding(gen_images, other, d)
                        or _exists_multiple_avoiding(gen_images, d, other)):
                    return AxiomReport(False, 2, (other, d), depth)
            bucket.append(d)
    return AxiomReport(True, 0, (), depth)


def _random_divisor_theory(rng):
    """A monoid of group rank 1..3 with nonnegative generators (so its
    cone is pointed), sometimes inside the larger group ZZ^n, and either
    its facet normals or random nonnegative full-rank functionals."""
    while True:
        n = rng.randint(1, 3)
        gens = {tuple(rng.randint(0, 3) for _ in range(n)) for _ in range(rng.randint(1, n + 2))}
        gens = sorted(g for g in gens if any(g))
        if not gens:
            continue
        larger = la.rank(gens) == n and rng.random() < 0.3
        m = AffineMonoid(n, gens, group_basis=la.identity(n) if larger else None)
        normals = m.cone.facet_normals()
        if rng.random() < 0.5:
            return DivisorTheory(m, normals)
        # nonnegative combinations of the facet normals are nonnegative on M
        rows = [la.vec_mat([rng.randint(0, 2) for _ in normals], normals)
                for _ in range(rng.randint(m.cone.dim, m.cone.dim + 2))]
        if la.rank(rows) == m.cone.dim:
            return DivisorTheory(m, rows)


def test_exact_axioms_match_the_depth_scan_on_random_monoids():
    rng = random.Random(20261018)
    failed = {1: 0, 2: 0}
    for _ in range(420):
        dt = _random_divisor_theory(rng)
        m = dt.monoid
        report = verify_divisor_axioms(dt, 8)
        if report.ok != _reference_verify_divisor_axioms(dt, 8).ok:
            # the scan sees only pairs of coordinate sum <= 8: it may pass
            # an axiom-1 failure, which the witness below then certifies
            assert report.failed_axiom == 1, m.generators
        if report.ok:
            continue
        failed[report.failed_axiom] += 1
        if report.failed_axiom == 1:
            x, tau_x = report.witness
            assert la.lattice_coords(AffineMonoid(m.ambient_rank, m.generators).group_basis,
                                     x) is not None
            assert tau_x == dt.image(x) and min(tau_x) >= 0 and any(tau_x)
            assert not m.contains(x)
        else:
            d1, d2 = report.witness
            images = dt.generator_images()
            assert d1 != d2
            assert not _exists_multiple_avoiding(images, d1, d2)
            assert not _exists_multiple_avoiding(images, d2, d1)
    # both kinds of failure occur, and so do passes
    assert min(failed.values()) > 0 and sum(failed.values()) < 420


# -- the exact extension against the depth-bounded search ----------------------------

# the order in which extend_embedding decides, earliest failure first
_KINDS = (NotAnEmbedding, ViolationStar, ViolationStarStar, Beta)


def _unimodular(rng, n):
    """A seeded integer matrix of determinant +-1: 2n elementary row
    operations with multipliers +-1."""
    u = [list(row) for row in la.identity(n)]
    for _ in range(2 * n):
        i, j = rng.sample(range(n), 2)
        k = rng.choice((-1, 1))
        u[i] = [x + k * y for x, y in zip(u[i], u[j])]
    return u


def _seeded_saturated_monoids(rng, count):
    """4,6,9, 10,14,15,21 and the Hilbert bases of seeded cones in ZZ^2 and
    ZZ^3, each under a seeded unimodular change of coordinates."""
    models = [[(2, 0), (1, 1), (0, 2)], [(1, 0, 1, 0), (1, 0, 0, 1), (0, 1, 1, 0), (0, 1, 0, 1)]]
    while len(models) < count:
        n = rng.choice((2, 3))
        rays = [r for r in {tuple(rng.randint(0, 2) for _ in range(n))
                            for _ in range(rng.randint(2, n + 1))} if any(r)]
        if rays:
            models.append(hilbert_basis(Cone(n, rays)))
    out = []
    for gens in models:
        u = _unimodular(rng, len(gens[0]))
        out.append(AffineMonoid(len(u), [la.vec_mat(g, u) for g in gens]))
    return out


def _seeded_alpha(rng, dt):
    """The divisor theory's ambient functionals permuted and scaled by 1 or
    2, then maybe with one row zeroed (sometimes added to another row
    first) and maybe with an extra row, a 0/1 combination of the
    functionals."""
    funcs = list(dt.ambient_functionals())
    rng.shuffle(funcs)
    rows = [la.vec_scale(f, rng.randint(1, 2)) for f in funcs]
    if rng.random() < 0.5:
        i, j = rng.randrange(len(rows)), rng.randrange(len(rows))
        if i != j and rng.random() < 0.5:
            rows[j] = tuple(x + y for x, y in zip(rows[j], rows[i]))
        rows[i] = (0,) * len(funcs[0])
    if rng.random() < 0.5:
        rows.append(la.vec_mat([rng.randint(0, 1) for _ in funcs], funcs))
    return MonoidHom(rows)


def _assert_valid(dt, alpha, result):
    """Check an answer of extend_embedding against the raw definitions."""
    m = dt.monoid
    gen_images = [alpha.image(g) for g in m.generators]
    if isinstance(result, Beta):
        assert min(map(min, result.matrix)) >= 0
        assert [la.mat_vec(result.matrix, t) for t in dt.generator_images()] == gen_images
    elif isinstance(result, NotAnEmbedding):
        assert result.a != result.b and m.contains(result.a) and m.contains(result.b)
        assert alpha.image(result.a) == alpha.image(result.b)
    elif isinstance(result, ViolationStar):
        assert m.contains(result.a) and m.contains(result.b)
        s = la.vec_sub(alpha.image(result.a), alpha.image(result.b))
        assert s == result.s and min(s) >= 0
        assert not monoids._represents(s, gen_images, lambda x: min(x) >= 0)
    else:
        p = result.common_prime_index - 1
        assert all(min(t[j] for t in result.witness_set) == 0 for j in range(dt.free_rank))
        for t in result.witness_set:
            x = dt.preimage(t)
            assert m.contains(x) and alpha.image(x)[p] > 0


def test_exact_extension_matches_the_depth_search():
    """310 cases.  Where the depth-6 search answers (300 of them), it gives
    the same kind and the same extension, or it missed an earlier failure
    that the exact decision finds; every exact answer is checked on its own."""
    rng = random.Random(20261019)
    kinds, answered, earlier = dict.fromkeys(_KINDS, 0), 0, 0
    for m in _seeded_saturated_monoids(rng, 62):
        dt = divisor_theory(m)
        for _ in range(5):
            alpha = _seeded_alpha(rng, dt)
            result = extend_embedding(dt, alpha)
            _assert_valid(dt, alpha, result)
            kinds[type(result)] += 1
            try:
                reference = _reference_extend_embedding(dt, alpha, 6)
            except DepthInsufficientError:
                continue
            answered += 1
            if type(reference) is type(result):
                assert not isinstance(result, Beta) or result == reference
            else:
                assert _KINDS.index(type(result)) < _KINDS.index(type(reference))
                earlier += 1
    assert min(kinds.values()) > 0 and answered >= 290 and earlier > 0, (kinds, answered, earlier)


def test_extension_star_violation(dt_10_14_15_21):
    # 10 -> 10, 14 -> 2, 15 -> 15, 21 -> 3 over the primes 2, 3, 5, 7
    alpha = MonoidHom([(1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 0)])
    result = extend_embedding(dt_10_14_15_21, alpha)
    assert result == ViolationStar(a=(1, 0, 1, 0), b=(1, 0, 0, 1), s=(0, 0, 1, 0))
    # witness revalidates against the raw condition
    assert tuple(x - y for x, y in zip(alpha.image(result.a), alpha.image(result.b))) \
        == result.s


def test_extension_star_star_violation(dt_469, monoid_469):
    # 4 -> 20, 6 -> 30, 9 -> 45 over the primes 2, 3, 5
    alpha = MonoidHom.from_generator_images(monoid_469, [(2, 0, 1), (1, 1, 1), (0, 2, 1)])
    result = extend_embedding(dt_469, alpha)
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
    assert extend_embedding(dt_469, alpha) == Beta(((1, 0), (0, 1)))


def test_extension_identity_10_14_15_21(dt_10_14_15_21, monoid_10_14_15_21):
    dt = dt_10_14_15_21
    alpha = MonoidHom.from_generator_images(monoid_10_14_15_21,
                                            list(dt.generator_images()))
    result = extend_embedding(dt, alpha)
    assert isinstance(result, Beta)
    assert result.matrix == tuple(tuple(1 if i == j else 0 for j in range(4))
                                  for i in range(4))


def test_extension_beta_commutes(dt_469, monoid_469):
    from coxtools import intlinalg as la
    # a non-identity but conforming alpha: double every functional image
    images = [tuple(2 * x for x in im) for im in dt_469.generator_images()]
    alpha = MonoidHom.from_generator_images(monoid_469, images)
    result = extend_embedding(dt_469, alpha)
    assert isinstance(result, Beta)
    assert result.matrix == ((2, 0), (0, 2))
    for g in monoid_469.generators:
        assert la.mat_vec(result.matrix, dt_469.image(g)) == alpha.image(g)


def test_extension_into_larger_free_monoid(dt_469, monoid_469):
    # embed through an extra, never-used prime: the extension matrix
    # gains a zero row
    images = [im + (0,) for im in dt_469.generator_images()]
    alpha = MonoidHom.from_generator_images(monoid_469, images)
    result = extend_embedding(dt_469, alpha)
    assert result == Beta(((1, 0), (0, 1), (0, 0)))


def test_extension_beta_uniqueness_small_kernel_search(dt_10_14_15_21, monoid_10_14_15_21):
    """No alternative nonnegative integral solution exists near Beta."""
    from coxtools import intlinalg as la
    import itertools
    dt = dt_10_14_15_21
    alpha = MonoidHom.from_generator_images(monoid_10_14_15_21,
                                            list(dt.generator_images()))
    beta = extend_embedding(dt, alpha).matrix
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


def test_extension_doubling_on_n():
    dt = divisor_theory(AffineMonoid(1, [(1,)]))
    assert extend_embedding(dt, MonoidHom([["2"]])) == Beta(((2,),))


def test_injectivity_is_decided_before_star():
    """alpha(x, y) = 9x + 10y kills x = (-10, 9).  The depth-8 search met
    no collision and read a (*) violation; at depth 12 it met one.  No
    single generator lifts x into N^2, so b is the least multiple of the
    generators' sum that does."""
    m = AffineMonoid(2, [(1, 0), (0, 1)])
    dt, alpha = divisor_theory(m), MonoidHom([[9, 10]])
    assert isinstance(_reference_extend_embedding(dt, alpha, 8), ViolationStar)
    assert isinstance(_reference_extend_embedding(dt, alpha, 12), NotAnEmbedding)
    result = extend_embedding(dt, alpha)
    assert result == NotAnEmbedding(a=(0, 19), b=(10, 10))
    assert m.contains(result.a) and m.contains(result.b)
    assert alpha.image(result.a) == alpha.image(result.b)


def test_not_an_embedding():
    m = AffineMonoid(2, [(1, 0), (0, 1)])
    dt = divisor_theory(m)
    alpha = MonoidHom([(1, 1)])  # both generators map to the same element
    result = extend_embedding(dt, alpha)
    assert isinstance(result, NotAnEmbedding)


@pytest.mark.parametrize("matrix", [[[0]], [[1, 0, 7], [0, 1, 7]]], ids=["short", "long"])
def test_extend_rejects_alpha_of_the_wrong_width(dt_469, matrix):
    """Rows shorter than the ambient rank used to end in an IndexError and
    longer ones were cut silently."""
    with pytest.raises(ValueError, match="ambient rank"):
        extend_embedding(dt_469, MonoidHom(matrix))


def test_monoid_hom_rejects_ragged_rows():
    with pytest.raises(ValueError, match="equal length"):
        MonoidHom([(1, 0), (1,)])


@pytest.mark.parametrize("v", [(1,), (1, 0, 0)], ids=["short", "long"])
def test_monoid_hom_image_refuses_a_vector_of_the_wrong_length(v):
    """(1,) used to map to (1, 3), as if it were (1, 0), and (1, 0, 0)
    ended in an IndexError."""
    with pytest.raises(ValueError, match="width"):
        MonoidHom([[1, 2], [3, 4]]).image(v)


def test_monoid_hom_image_matches_the_fraction_sum():
    """On seeded rational matrices, integral and not, ``image`` is the
    Fraction dot product of each row with v when every entry of that is
    integral, and otherwise refuses v."""
    rng = random.Random(5)
    outcomes = set()
    for _ in range(400):
        rows, cols = rng.randint(1, 4), rng.randint(1, 5)
        den = rng.choice([1, 1, 2, 3, 6, 12])
        matrix = [[Fraction(rng.randint(-9, 9), rng.choice([1, den])) for _ in range(cols)]
                  for _ in range(rows)]
        hom = MonoidHom(matrix)
        assert hom.matrix == tuple(tuple(row) for row in matrix)
        v = tuple(rng.randint(-5, 5) * rng.choice([1, den]) for _ in range(cols))
        want = [sum((x * y for x, y in zip(row, v)), Fraction(0)) for row in matrix]
        if all(x.denominator == 1 for x in want):
            got = hom.image(v)
            assert got == tuple(want) and all(type(x) is int for x in got)
            outcomes.add("integral")
        else:
            with pytest.raises(ValueError, match="not integral"):
                hom.image(v)
            outcomes.add("refused")
    assert outcomes == {"integral", "refused"}


def test_generator_images_must_be_consistent_and_of_equal_lengths(monoid_469):
    """Images longer than the first were cut to its length, and one shorter
    than the first raised an IndexError."""
    with pytest.raises(ValueError, match="equal lengths"):
        MonoidHom.from_generator_images(monoid_469, [(2, 0, 1), (1, 1), (0, 2, 1)])
    with pytest.raises(ValueError, match="equal lengths"):
        MonoidHom.from_generator_images(monoid_469, [(2, 0), (1, 1, 1), (0, 2, 1)])
    # 4 * 9 == 6 * 6, but the images 1 + 0 and 2 * 1 differ
    with pytest.raises(ValueError, match="inconsistent"):
        MonoidHom.from_generator_images(monoid_469, [(1,), (1,), (0,)])


@pytest.mark.parametrize("v", [(1, 1, 5), (1,)], ids=["long", "short"])
def test_vectors_of_the_wrong_length_are_refused(v):
    """(1, 1, 5) used to be read as (1, 1): contained, with image (1, 1);
    (1,) ended in an IndexError."""
    m = AffineMonoid(2, [(2, 0), (1, 1), (0, 2)])
    dt = divisor_theory(m)
    assert m.contains((1, 1)) and dt.image((1, 1)) == (1, 1)
    with pytest.raises(ValueError, match="length"):
        m.contains(v)
    with pytest.raises(ValueError, match="length"):
        dt.image(v)


def test_monoid_contains():
    m = AffineMonoid(2, [(2, 0), (1, 1), (0, 2)])
    assert m.contains((3, 1))
    assert not m.contains((1, 0))
    assert m.contains((0, 0))


def test_contains_rejects_a_non_integral_vector():
    """A half used to be truncated to 0, which every monoid contains."""
    with pytest.raises(ValueError, match="not an integer"):
        AffineMonoid(1, [(2,)]).contains((Fraction(1, 2),))
    assert AffineMonoid(1, [(2,)]).contains((Fraction(4, 2),))


def test_contains_far_from_the_origin():
    """Membership needs no stack frame per subtracted generator."""
    assert AffineMonoid(1, [(1,)]).contains((5000,))
    assert AffineMonoid(2, [(1, 0), (0, 1)]).contains((600, 600))
    assert not AffineMonoid(1, [(2,)]).contains((4001,))


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
