import functools
import gc
import itertools
import math
import operator
import random
from fractions import Fraction

import pytest

from coxtools import cones as cones_module
from coxtools import intlinalg as la
from coxtools.cones import (Cone, NonPointedError, NotFullDimensionalError, _dual_extreme_rays,
                            _inside, _parallelepiped_points, _pulling_triangulation,
                            cone_contains, dual_cone, hilbert_basis)


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


def test_cone_contains_rejects_a_non_integral_vector():
    """-0.5 used to be truncated to 0, which put (-0.5, 1) in the orthant."""
    with pytest.raises(ValueError, match="not an integer"):
        cone_contains(Cone(2, [(1, 0), (0, 1)]), (-0.5, 1))


def test_non_integral_generator_rejected():
    """(1/2, 1) used to be truncated to (0, 1), which dropped a ray."""
    with pytest.raises(ValueError, match="not an integer"):
        Cone(2, [(Fraction(1, 2), 1), (1, 0)])
    assert Cone(2, [(Fraction(2, 1), 1), (1, 0)]).rays == ((1, 0), (2, 1))


def test_lattice_rows_must_have_the_ambient_width():
    """A lattice row longer than ambient_rank used to end in an IndexError."""
    with pytest.raises(ValueError, match="ambient_rank"):
        Cone(2, [(1, 0)], lattice=[(1, 0, 0), (0, 1, 0)])


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
            points = _parallelepiped_points(rows, *la.adjugate(rows))
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


@pytest.mark.parametrize("gens,lattice", [([(0, 0)], None), ([], [[1, 1], [0, 2]])], ids=str)
def test_zero_cone_takes_the_general_path(gens, lattice):
    """No nonzero generator: an empty span, no facets and a pointed cone
    holding 0 alone, whose dual is not pointed."""
    c = Cone(2, gens, lattice)
    assert (c._gen_coords, c.span_basis, c.rays, c._dual, c.pointed) == ((), (), (), (), True)
    assert cone_contains(c, (0, 0))
    assert not any(cone_contains(c, v) for v in [(1, 0), (0, 2), (-1, 1), (1, 1)])
    assert hilbert_basis(c) == ()
    with pytest.raises(NonPointedError):
        dual_cone(c)


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
        candidates.update(p for p in _parallelepiped_points(subset, *la.adjugate(subset))
                          if _inside(dual, p))
    # the facet-normal sum is positive on the nonzero points of the pointed
    # cone, so a reducible x = y + z has an irreducible summand of smaller
    # weight, accepted before x: reducing against the basis so far is exact
    weight_vec = tuple(sum(d[i] for d in dual) for i in range(dim))
    basis = []
    for x in sorted(candidates, key=lambda x: (la.dot(weight_vec, x), x)):
        if not any(_inside(dual, la.vec_sub(x, h)) for h in basis):
            basis.append(x)
    return tuple(sorted(la.vec_mat(b, c.span_basis) for b in basis))


def _seeded_cones(seed, count, top=4):
    """Pointed cones in ZZ^2..ZZ^top with coordinates in -3..3: a third are
    drawn in the span of fewer than n vectors, and a third have generators
    written in the basis of a random full-rank lattice."""
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        n = rng.randint(2, top)
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


def _full_scan_hilbert_basis(c):
    """The reduction against every basis element accepted so far, without
    the half-sum bound, kept as a test oracle."""
    c._require_pointed()
    coords = c._coords
    if c.dim == 0 or not coords:
        return ()
    candidates = set(coords)
    for simplex in _pulling_triangulation(coords, c._dual):
        rows = [coords[i] for i in simplex]
        candidates.update(_parallelepiped_points(rows, *la.adjugate(rows)))
    values = {x: tuple([la.dot(d, x) for d in c._dual]) for x in candidates}
    basis, basis_values = [], []
    for x in sorted(candidates, key=lambda x: (sum(values[x]), x)):
        v = values[x]
        if not any(all(map(operator.ge, v, h)) for h in basis_values):
            basis.append(x)
            basis_values.append(v)
    return tuple(sorted(la.vec_mat(b, c.span_basis) for b in basis))


def test_hilbert_basis_matches_the_full_scan_reduction():
    cones = [c for c in _seeded_cones(13, 300, top=5) if c.dim >= 2]
    assert {c.dim for c in cones} == {2, 3, 4, 5}
    assert any(c.dim < c.ambient_rank for c in cones)
    assert any(c.lattice != la.identity(c.ambient_rank) for c in cones)
    for c in cones:
        assert hilbert_basis(c) == _full_scan_hilbert_basis(c), c


def test_hilbert_basis_is_kept_on_the_cone(monkeypatch):
    """The basis is computed once per Cone; an equal new Cone computes it
    again, so no cache outlives its cone."""
    calls = []
    pull = cones_module._pulling_simplices
    monkeypatch.setattr(cones_module, "_pulling_simplices",
                        lambda *a: calls.append(1) or pull(*a))
    rays = [(1, a, a * a) for a in range(8)]
    c = Cone(3, rays)
    assert hilbert_basis(c) is hilbert_basis(c)
    assert len(calls) == 1
    assert hilbert_basis(Cone(3, rays)) == hilbert_basis(c)
    assert len(calls) == 2


def test_volume_cap_bounds_the_summed_simplex_volumes(monkeypatch):
    """The cap sits 10x and more above every volume the tests and fixtures
    reach (at most 338); a cone whose simplices sum to the cap is walked,
    one past it is refused."""
    assert cones_module._VOLUME_CAP >= 3380
    monkeypatch.setattr(cones_module, "_VOLUME_CAP", 100)
    assert len(hilbert_basis(Cone(2, [(1, 0), (1, 100)]))) == 101
    with pytest.raises(ValueError, match="candidate space too large"):
        hilbert_basis(Cone(2, [(1, 0), (1, 101)]))


def test_volume_cap_is_checked_per_simplex(monkeypatch):
    """The summed volume is checked as each simplex's adjugate comes in, so
    a cap that the first simplex passes costs one adjugate, not one per
    simplex."""
    c = Cone(3, [(1, a, a * a) for a in range(8)])
    assert len(_pulling_triangulation(c._coords, c._dual)) == 6
    calls = []
    adjugate = la.adjugate
    monkeypatch.setattr(la, "adjugate", lambda a: calls.append(1) or adjugate(a))
    monkeypatch.setattr(cones_module, "_VOLUME_CAP", 0)
    with pytest.raises(ValueError, match="candidate space too large"):
        hilbert_basis(c)
    assert len(calls) == 1


def test_volume_cap_stops_the_triangulation(monkeypatch):
    """The cox-data payload of 20 moment rays in rank 8 has a dual cone of
    1120 rays and 68525 pulling simplices.  The first passes the volume
    cap, so refusing it builds only that one."""
    c = dual_cone(Cone(8, [[a ** k for k in range(8)] for a in range(20)]))
    assert len(c._coords) == 1120
    built = []
    simplices = cones_module._pulling_simplices

    def counted(*args):
        for s in simplices(*args):
            built.append(s)
            yield s

    monkeypatch.setattr(cones_module, "_pulling_simplices", counted)
    with pytest.raises(ValueError, match="candidate space too large"):
        hilbert_basis(c)
    assert len(built) == 1


def test_hilbert_basis_leaves_no_reference_cycle():
    c = Cone(4, [(1, a, a * a, a ** 3) for a in range(7)])
    gc.collect()
    gc.disable()
    try:
        assert len(hilbert_basis(c)) > len(c.rays)
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_cone_hash_agrees_with_equality():
    c = Cone(2, [(1, 0), (1, 2)])
    d = Cone(2, [(2, 4), (3, 0), (1, 1)])
    assert c == d and hash(c) == hash(d)
    before = hash(c)
    hilbert_basis(c)
    assert hash(c) == before
    assert len({c, d, Cone(2, [(1, 0), (1, 3)])}) == 2


@pytest.mark.parametrize("rank", [3.7, Fraction(7, 2), "3", True, 3.0])
def test_cone_rank_must_be_an_int(rank):
    with pytest.raises(ValueError, match="ambient rank must be an int"):
        Cone(rank, [(1, 0, 0)])


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


# -- the double description against the rank-test construction ---------------

def _reference_is_extreme(r, normals, dim):
    """Is r tight on dim - 1 independent normals (an extreme ray)?"""
    return la.rank([n for n in normals if la.dot(n, r) == 0]) == dim - 1


def _reference_seed(normals, dim):
    """The seed loop of the rank-test double description, kept as a test
    oracle: ``(seed, rest)``, the first ``dim`` independent normals found
    with one rank test per normal, and the others."""
    # pick dim independent normals for the simplicial seed
    seed = []
    rest = []
    for n in normals:
        if len(seed) < dim and la.rank(seed + [n]) == len(seed) + 1:
            seed.append(n)
        else:
            rest.append(n)
    if len(seed) < dim:
        raise NotFullDimensionalError("normals do not span the space")
    return seed, rest


def _reference_dual_extreme_rays(normals, dim):
    """The rank-test double description, kept as a test oracle.

    Extreme rays of {x : n.x >= 0 for all n}, assuming the normals span.

    Incremental double description: seed with a simplicial cone cut out
    by ``dim`` independent normals, then clip by the remaining halfspaces,
    keeping only extreme rays (tight-set rank dim-1) after each step.
    """
    seed, rest = _reference_seed(normals, dim)

    # {x : B x >= 0} for invertible B is spanned by the columns of
    # B^{-1} = adj / det, positive multiples of the columns of sign(det) adj
    det, adj = la.adjugate(seed)
    s = 1 if det > 0 else -1
    rays = [la.primitive(tuple(s * x for x in col)) for col in la.transpose(adj)]

    processed = list(seed)

    def extreme_only(cands):
        out = []
        seen = set()
        for r in cands:
            r = la.primitive(r)
            if r in seen:
                continue
            seen.add(r)
            if _reference_is_extreme(r, processed, dim):
                out.append(r)
        return out

    rays = extreme_only(rays)
    for n in rest:
        vals = [(r, la.dot(n, r)) for r in rays]
        pos = [(r, v) for r, v in vals if v > 0]
        zero = [r for r, v in vals if v == 0]
        neg = [(r, v) for r, v in vals if v < 0]
        processed.append(n)
        if not neg:
            rays = extreme_only([r for r, _ in pos] + zero)
            continue
        cands = [r for r, _ in pos] + zero
        for rp, vp in pos:
            for rn, vn in neg:
                cands.append(tuple(vp * x - vn * y for x, y in zip(rn, rp)))
        rays = extreme_only(cands)
    return tuple(sorted(rays))


def _reference_cone(ambient_rank, generators, lattice=None):
    """The rank-test construction, kept as a test oracle: ``(_dual, rays,
    _coords, span_basis, pointed)`` as ``Cone`` built them with two
    coordinate solves per generator and a rank test per generator."""
    gens = [g for g in map(la.vec, generators) if not la.is_zero_vec(g)]
    lattice = la.identity(ambient_rank) if lattice is None else la.mat(lattice)
    if not gens:
        return (), (), (), (), True
    coords = [la.lattice_coords(lattice, g) for g in gens]
    if la.rank(coords) == len(lattice):
        span = la.identity(len(lattice))
    else:
        span = la.saturation_basis(coords)
    sub = [la.primitive(la.lattice_coords(span, c)) for c in coords]
    dim = len(span)
    span_basis = tuple(la.vec_mat(s, lattice) for s in span)
    dual = _reference_dual_extreme_rays(list(dict.fromkeys(sub)), dim)
    pointed = la.rank(dual) == dim if dual else dim == 0
    kept = [c for c in dict.fromkeys(sub) if not pointed or _reference_is_extreme(c, dual, dim)]
    pairs = sorted((la.vec_mat(c, span_basis), c) for c in kept)
    return dual, tuple(p[0] for p in pairs), tuple(p[1] for p in pairs), span_basis, pointed


def _comparison_inputs(seed, count):
    """``(ambient rank, generators, lattice)`` in ZZ^2..ZZ^5 with
    coordinates in -3..3, pointed or not.  By position mod 4: a random
    set; one with the sum of two generators added (a redundant normal of
    the dual); one in the span of fewer than n vectors; one written in
    the basis of a random full-rank lattice."""
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        n = rng.randint(2, 5)
        gens = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(rng.randint(2, 7))]
        lattice = None
        if len(out) % 4 == 1:
            gens.append(la.vec_sub(gens[0], la.vec_scale(gens[1], -1)))
        elif len(out) % 4 == 2:
            span = [[rng.randint(-1, 1) for _ in range(n)] for _ in range(rng.randint(1, n - 1))]
            gens = [la.vec_mat([rng.randint(0, 2) for _ in span], span)
                    for _ in range(rng.randint(1, 6))]
        elif len(out) % 4 == 3:
            lattice = [[rng.randint(-2, 2) for _ in range(n)] for _ in range(n)]
            if la.rank(lattice) < n:
                continue
            gens = [la.vec_mat(g, lattice) for g in gens]
        out.append((n, gens, lattice))
    return out


_SQUARE_PYRAMID = [(0, 0, 0, 1), (2, 0, 0, 1), (0, 2, 0, 1), (2, 2, 0, 1), (1, 1, 1, 1)]
_OCTAHEDRON = [tuple(s if i == j else 0 for j in range(3)) + (1,) for i in range(3) for s in (1, -1)]
_CUBE = [(a, b, c, 1) for a in (0, 1) for b in (0, 1) for c in (0, 1)]


def _non_simplicial_inputs():
    """Cones whose vertex figures are not simplices, each also with a
    redundant generator, over a sublattice, and (in a larger ambient
    rank) not full-dimensional."""
    models = [[(1, a, a * a) for a in range(k)] for k in (4, 5, 8, 12, 24)]
    models += [[(1, a, a * a, a ** 3) for a in range(7)], _SQUARE_PYRAMID, _OCTAHEDRON, _CUBE]
    out = []
    for gens in models:
        n = len(gens[0])
        scaled = la.identity(n)[:-1] + ((1,) + (0,) * (n - 2) + (2,),)  # index 2
        out += [(n, gens, None),
                (n, gens + [la.vec_sub(gens[0], la.vec_scale(gens[-1], -1))], None),
                (n, [la.vec_mat(g, scaled) for g in gens], scaled),
                (n + 1, [(*g, g[0]) for g in gens], None)]
    return out


def test_cones_match_the_rank_test_reference():
    inputs = _comparison_inputs(13, 300) + _non_simplicial_inputs()
    cones = [(Cone(n, gens, lattice), _reference_cone(n, gens, lattice))
             for n, gens, lattice in inputs]
    assert {c.pointed for c, _ in cones} == {True, False}
    assert any(c.dim < c.ambient_rank for c, _ in cones)
    assert any(c.lattice != la.identity(c.ambient_rank) for c, _ in cones)
    assert any(len(c.rays) < len(gens) for (c, _), (_n, gens, _l) in zip(cones, inputs))
    for (c, want), (n, gens, lattice) in zip(cones, inputs):
        assert (c._dual, c.rays, c._coords, c.span_basis, c.pointed) == want, (n, gens, lattice)


def test_double_description_matches_the_rank_test_reference():
    """Normal sets as ``extend`` passes them: with zero rows, repeated rows
    and opposite rows (so the cone may lie in a hyperplane or be 0)."""
    rng = random.Random(14)
    done = 0
    while done < 200:
        dim = rng.randint(1, 4)
        normals = [tuple(rng.randint(-2, 2) for _ in range(dim)) for _ in range(rng.randint(dim, 7))]
        extra = rng.choice([(), ((0,) * dim,), normals[:1], (la.vec_scale(normals[-1], -1),)])
        normals = list(extra) + normals
        if la.rank(normals) < dim:
            continue
        assert _dual_extreme_rays(normals, dim) == _reference_dual_extreme_rays(normals, dim)
        done += 1


def test_moment_cone_rank_calls(monkeypatch):
    """Building the 24-ray moment cone calls ``intlinalg.rank`` once, for the
    span test: the seed normals are the pivot columns of one elimination,
    and tight sets decide pointedness and extremality, where the rank-test
    construction makes one call per seed normal, candidate and generator."""
    calls = []
    rank = la.rank
    monkeypatch.setattr(la, "rank", lambda a: calls.append(len(a)) or rank(a))
    Cone(3, [(1, a, a * a) for a in range(24)])
    assert calls == [24]


# -- tight sets against the rank tests, and the dual read off its cone ---------

def _reference_pulling_triangulation(rays, dual):
    """The rank-test pulling triangulation, kept as a test oracle.

    Simplices of the pulling triangulation of a full-dimensional pointed
    cone, as sorted tuples of indices into ``rays`` (its extreme rays; the
    rows of ``dual`` are its facet normals).

    A face F is triangulated by pulling its lowest-index ray v: v is coned
    over the simplices of every facet of F that misses v.  The facets of F
    are the sets F ∩ tight(d) whose rays have rank rank(F) - 1, and a face
    with as many rays as its rank is a simplex.  Each face is pulled at its
    own lowest ray, so a face shared by two facets is triangulated alike in
    both and the simplices fit together (De Loera-Rambau-Santos,
    *Triangulations*, 2010, section 4.3).
    """
    tight = [frozenset(i for i, r in enumerate(rays) if la.dot(d, r) == 0) for d in dual]

    @functools.cache
    def pull(face, rank):
        if len(face) == rank:
            return [tuple(sorted(face))]
        v = min(face)
        facets = {face & t for t in tight if v not in t}
        return [(v, *s) for g in sorted(facets, key=sorted)
                if la.rank([rays[i] for i in g]) == rank - 1 for s in pull(g, rank - 1)]

    return pull(frozenset(range(len(rays))), len(rays[0]))


def test_tight_sets_match_the_rank_tests(monkeypatch):
    """On 500 seeded cones in ZZ^2..ZZ^5, pointed or not, and the cones
    without a simplicial vertex figure: the double description seeds with
    the normals the rank-test loop picks, pointedness is the rank test on
    the facet normals, and the pulling triangulation from maximal tight-set
    intersections is the rank-test one, simplex for simplex."""
    seeds = []
    adjugate = la.adjugate
    monkeypatch.setattr(la, "adjugate", lambda a: seeds.append(list(a)) or adjugate(a))
    inputs = _comparison_inputs(16, 500) + _non_simplicial_inputs()
    cones = [Cone(n, gens, lattice) for n, gens, lattice in inputs]
    assert {c.pointed for c in cones} == {True, False}
    assert {c.dim for c in cones} >= {2, 3, 4, 5}
    triangulated = 0
    for c in cones:
        assert c.pointed == (la.rank(c._dual) == c.dim if c._dual else c.dim == 0), c
        if not c.dim:
            continue
        normals = list(dict.fromkeys(la.primitive(x) for x in c._gen_coords))
        seeds.clear()
        assert _dual_extreme_rays(normals, c.dim) == _reference_dual_extreme_rays(normals, c.dim)
        assert seeds[0] == _reference_seed(normals, c.dim)[0], c
        if c.pointed and c.dim >= 2:
            assert _pulling_triangulation(c._coords, c._dual) == \
                _reference_pulling_triangulation(c._coords, c._dual), c
            triangulated += 1
    assert triangulated >= 250


def _cap_or_basis(c):
    try:
        return hilbert_basis(c)
    except ValueError as exc:
        return str(exc)


def _even(n):
    """A basis of 2ZZ^n."""
    return tuple(la.vec_scale(e, 2) for e in la.identity(n))


def test_dual_cone_matches_the_double_description(monkeypatch):
    """``dual_cone`` reads the dual off its cone; on 400 seeded pointed
    cones, some not full-dimensional, over random lattices and over 2ZZ^n,
    it equals the cone that the double description builds from the facet
    normals, and so does its Hilbert basis, or the volume cap's refusal."""
    monkeypatch.setattr(cones_module, "_VOLUME_CAP", 60)
    inputs = _comparison_inputs(17, 700) + _non_simplicial_inputs()
    inputs += [(n, [la.vec_scale(g, 2) for g in gens], _even(n))
               for n, gens, lattice in inputs[:200] if lattice is None]
    cones = [c for c in (Cone(*x) for x in inputs) if c.pointed and c.dim]
    assert len(cones) >= 400
    assert any(c.dim < c.ambient_rank for c in cones)
    assert any(c.lattice == _even(c.ambient_rank) for c in cones)
    capped = 0
    for c in cones:
        got, want = dual_cone(c), Cone(c.dim, c._dual)
        for name in ("ambient_rank", "rays", "_coords", "_gen_coords", "_dual", "span_basis",
                     "lattice", "pointed"):
            assert getattr(got, name) == getattr(want, name), (c, name)
        assert got == want and hash(got) == hash(want)
        basis = _cap_or_basis(got)
        assert basis == _cap_or_basis(want), c
        capped += isinstance(basis, str)
    assert 0 < capped < len(cones) // 2
