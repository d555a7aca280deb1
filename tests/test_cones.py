import itertools
import math
import random
from fractions import Fraction

import pytest

from coxtools import intlinalg as la
from coxtools.cones import (Cone, NonPointedError, _inside, _parallelepiped_points,
                            _pulling_triangulation, cone_contains, dual_cone, hilbert_basis)


def test_orthant_self_dual():
    c = Cone(2, [(1, 0), (0, 1)])
    assert dual_cone(c).rays == ((0, 1), (1, 0))


def test_dual_of_skew_plane_cone():
    c = Cone(2, [(1, 0), (1, 2)])
    assert dual_cone(c).rays == ((0, 1), (2, -1))


def test_dual_of_cone_over_square():
    c = Cone(3, [(0, 0, 1), (1, 0, 1), (0, 1, 1), (1, 1, 1)])
    d = dual_cone(c)
    assert len(d.rays) == 4
    for f in d.rays:
        vanishing = [r for r in c.rays if la.dot(f, r) == 0]
        assert len(vanishing) == 2
        assert all(la.dot(f, r) >= 0 for r in c.rays)


def test_biduality():
    for rays in [[(1, 0), (0, 1)], [(1, 0), (1, 2)],
                 [(0, 0, 1), (1, 0, 1), (0, 1, 1), (1, 1, 1)],
                 [(2, 1), (1, 3)]]:
        c = Cone(len(rays[0]), rays)
        assert dual_cone(dual_cone(c)).rays == c.rays


def test_dual_rays_primitive_and_facet_spanning():
    c = Cone(3, [(1, 0, 0), (0, 1, 0), (1, 1, 2)])
    d = dual_cone(c)
    for f in d.rays:
        assert la.vec_gcd(f) == 1
        tight = [r for r in c.rays if la.dot(f, r) == 0]
        assert la.rank(tight) == c.dim - 1


def test_nonpointed_rejected():
    c = Cone(2, [(1, 0), (-1, 0), (0, 1)])
    assert not c.pointed
    with pytest.raises(NonPointedError):
        dual_cone(c)
    with pytest.raises(NonPointedError):
        hilbert_basis(c)


def test_redundant_generator_dropped():
    c = Cone(2, [(1, 0), (1, 1), (0, 1)])
    assert c.rays == ((0, 1), (1, 0))


def test_canonicalization_is_order_and_scale_invariant():
    a = Cone(3, [(0, 0, 1), (1, 0, 1), (0, 1, 1), (1, 1, 1)])
    b = Cone(3, [(2, 2, 2), (0, 1, 1), (0, 0, 3), (1, 0, 1)])
    assert a == b
    assert dual_cone(a).rays == dual_cone(b).rays


def test_hilbert_basis_orthant():
    assert hilbert_basis(Cone(2, [(1, 0), (0, 1)])) == ((0, 1), (1, 0))


def test_hilbert_basis_skew_cone():
    assert hilbert_basis(Cone(2, [(1, 0), (1, 2)])) == ((1, 0), (1, 1), (1, 2))


def test_hilbert_basis_even_sublattice():
    c = Cone(2, [(2, 0), (0, 2)], lattice=[[1, 1], [0, 2]])
    assert hilbert_basis(c) == ((0, 2), (1, 1), (2, 0))


def test_hilbert_basis_non_full_dimensional():
    c = Cone(3, [(1, 1, 0), (1, -1, 0)])
    assert hilbert_basis(c) == ((1, -1, 0), (1, 0, 0), (1, 1, 0))


def test_cone_contains():
    orthant = Cone(2, [(1, 0), (0, 1)])
    assert cone_contains(orthant, (3, 5))
    assert not cone_contains(orthant, (-1, 0))
    skew = Cone(2, [(1, 0), (1, 2)])
    assert cone_contains(skew, (1, 1))
    assert not cone_contains(skew, (0, 1))


def test_cone_contains_respects_span():
    c = Cone(3, [(1, 1, 0), (1, -1, 0)])
    assert cone_contains(c, (2, 0, 0))
    assert not cone_contains(c, (0, 0, 1))


def test_rank_cap():
    with pytest.raises(ValueError):
        Cone(9, [tuple(1 if i == j else 0 for j in range(9)) for i in range(9)])


def test_rank_four_cone_over_cube():
    rays = [(a, b, c, 1) for a in (0, 1) for b in (0, 1) for c in (0, 1)]
    cone = Cone(4, rays)
    assert len(cone.rays) == 8
    d = dual_cone(cone)
    assert len(d.rays) == 6  # one facet per cube face
    assert dual_cone(d).rays == cone.rays
    for f in d.rays:
        assert la.rank([r for r in cone.rays if la.dot(f, r) == 0]) == 3


def test_hilbert_basis_with_negative_coordinates():
    cone = Cone(2, [(1, -1), (1, 2)])
    assert hilbert_basis(cone) == ((1, -1), (1, 0), (1, 1), (1, 2))


def _reference_parallelepiped_points(rows):
    """The Smith-normal-form enumeration, kept as a test oracle: the SNF
    diagonal gives one residue box, mapped back through V^{-1} and reduced
    into [0, 1) with Fraction coordinates."""
    s, _u, v = la.snf(rows)
    dim = len(rows)
    diag = [s[i][i] for i in range(dim)]
    vinv = la.inverse_int(v)
    tinv = la.inverse_frac(rows)
    points = []
    for residues in itertools.product(*(range(d) for d in diag)):
        x0 = tuple(sum(residues[i] * vinv[i][j] for i in range(dim)) for j in range(dim))
        t = tuple(sum(Fraction(x0[i]) * tinv[i][j] for i in range(dim)) for j in range(dim))
        x = x0
        for i, ti in enumerate(t):
            fl = ti.numerator // ti.denominator
            if fl:
                x = tuple(a - fl * b for a, b in zip(x, rows[i]))
        if not la.is_zero_vec(x):
            points.append(x)
    return points


def test_parallelepiped_points_match_snf_reference():
    rng = random.Random(4)
    signs = set()
    for dim in (1, 2, 3, 4):
        done = 0
        while done < 25:
            rows = tuple(tuple(rng.randint(-4, 5) for _ in range(dim)) for _ in range(dim))
            det = la.det_int(rows)
            if det == 0 or abs(det) > 400:
                continue
            signs.add(det > 0)
            points = _parallelepiped_points(rows)
            assert len(points) == len(set(points)) == abs(det) - 1
            assert set(points) == set(_reference_parallelepiped_points(rows))
            done += 1
    assert signs == {True, False}


# cones with a one-dimensional span, which the general double description
# handles: (input, rays, pointed, dual, Hilbert basis or None if not pointed)
@pytest.mark.parametrize("gens,rays,pointed,dual,hb", [
    ([(1,)], ((1,),), True, ((1,),), ((1,),)),
    ([(3,)], ((1,),), True, ((1,),), ((1,),)),
    ([(-2,)], ((-1,),), True, ((-1,),), ((-1,),)),
    ([(1,), (-1,)], ((-1,), (1,)), False, (), None),
    ([(2,), (5,)], ((1,),), True, ((1,),), ((1,),)),
    ([(1, 0), (2, 0)], ((1, 0),), True, ((1,),), ((1, 0),)),
    ([(0, 1, 0)], ((0, 1, 0),), True, ((1,),), ((0, 1, 0),)),
    ([(1, 0, 0), (-1, 0, 0)], ((-1, 0, 0), (1, 0, 0)), False, (), None),
], ids=str)
def test_one_dimensional_cones(gens, rays, pointed, dual, hb):
    c = Cone(len(gens[0]), gens)
    assert (c.rays, c.pointed, c._dual) == (rays, pointed, dual)
    if pointed:
        assert hilbert_basis(c) == hb
    else:
        with pytest.raises(NonPointedError):
            hilbert_basis(c)


def _reference_hilbert_basis(c):
    """The all-subsets enumeration, kept as a test oracle."""
    c._require_pointed()
    coords = c._coords
    dim = c.dim
    if dim == 0 or not coords:
        return ()
    dual = c._dual
    candidates = set(coords)
    for subset in itertools.combinations(coords, dim):
        if la.det_int(subset) == 0:
            continue
        candidates.update(p for p in _parallelepiped_points(subset) if _inside(dual, p))
    # the facet-normal sum is positive on the nonzero points of the pointed
    # cone, so a reducible x = y + z has an irreducible summand of smaller
    # weight, accepted before x: reducing against the basis so far is exact
    weight_vec = tuple(sum(d[i] for d in dual) for i in range(dim))
    basis = []
    for x in sorted(candidates, key=lambda x: (la.dot(weight_vec, x), x)):
        if not any(_inside(dual, la.vec_sub(x, h)) for h in basis):
            basis.append(x)
    return tuple(sorted(la.vec_mat(b, c.span_basis) for b in basis))


def _seeded_cones(seed, count):
    """Pointed cones in ZZ^2..ZZ^4 with coordinates in -3..3: a third are
    drawn in the span of fewer than n vectors, and a third have generators
    written in the basis of a random full-rank lattice."""
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        n = rng.randint(2, 4)
        gens = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(rng.randint(2, 6))]
        lattice = None
        if len(out) % 3 == 1:  # generators in the span of k < n vectors
            span = [[rng.randint(-1, 1) for _ in range(n)] for _ in range(rng.randint(1, n - 1))]
            gens = [g for g in (la.vec_mat([rng.randint(0, 2) for _ in span], span)
                                for _ in range(rng.randint(1, 6))) if max(map(abs, g)) <= 3]
        elif len(out) % 3 == 2:
            lattice = [[rng.randint(-2, 2) for _ in range(n)] for _ in range(n)]
            if la.rank(lattice) < n:
                continue
            gens = [la.vec_mat(g, lattice) for g in gens]
        c = Cone(n, gens, lattice)
        if c.pointed and c.rays:
            out.append(c)
    return out


def test_hilbert_basis_matches_the_all_subsets_reference():
    cones = _seeded_cones(11, 300)
    assert {c.dim for c in cones} == {1, 2, 3, 4}
    assert any(c.dim < c.ambient_rank for c in cones)
    assert any(c.lattice != la.identity(c.ambient_rank) for c in cones)
    for c in cones:
        assert hilbert_basis(c) == _reference_hilbert_basis(c), c


def _volume(rays, simplices, height):
    """Normalized volume of the simplices cut at height(x) == 1; it does
    not depend on the triangulation of the cone."""
    return sum(Fraction(abs(la.det_int([rays[i] for i in s])),
                        math.prod(la.dot(height, rays[i]) for i in s)) for s in simplices)


def _assert_triangulates(c):
    """Every simplex has full rank, a 3-dimensional cone with n rays gives
    n - 2 simplices, and pulling the rays in reversed order gives the same
    volume."""
    coords, dual = c._coords, c._dual
    height = [sum(col) for col in zip(*dual)]  # positive on the nonzero cone
    simplices = _pulling_triangulation(coords, dual)
    assert all(len(s) == la.rank([coords[i] for i in s]) == c.dim for s in simplices)
    if c.dim == 3:
        assert len(simplices) == len(coords) - 2
    backwards = coords[::-1]
    assert _volume(coords, simplices, height) == _volume(
        backwards, _pulling_triangulation(backwards, dual), height)


@pytest.mark.parametrize("rays", [
    [(1, a, a * a) for a in range(8)],
    [(1, a, a * a, a ** 3) for a in range(7)],
    [(a, b, c, 1) for a in (0, 1) for b in (0, 1) for c in (0, 1)],
], ids=["moment3-8", "moment4-7", "cube"])
def test_pulling_triangulation_covers_the_cone(rays):
    _assert_triangulates(Cone(len(rays[0]), rays))


def test_pulling_triangulations_of_seeded_cones_cover_them():
    for c in _seeded_cones(12, 100):
        _assert_triangulates(c)
