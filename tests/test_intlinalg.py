import random
from fractions import Fraction

import pytest
import sympy
from sympy.matrices.normalforms import smith_normal_form

from coxtools import intlinalg as la


def test_vec_and_mat_take_exact_integers_only():
    assert la.vec([3, Fraction(-4, 2), True]) == (3, -2, 1)
    assert all(type(x) is int for x in la.mat([[Fraction(6, 3), True]])[0])
    for bad in (Fraction(1, 2), 0.5, 2.0, "3", None):
        with pytest.raises(ValueError, match="not an integer"):
            la.vec([1, bad])
        with pytest.raises(ValueError, match="not an integer"):
            la.mat([[1], [bad]])


def test_hnf_already_normal():
    h, u = la.hnf([[2, 0], [0, 3]])
    assert h == ((2, 0), (0, 3))
    assert u == la.identity(2)


def test_hnf_defining_identities():
    a = ((1, 2), (3, 4))
    h, u = la.hnf(a)
    assert h[0][0] == 1
    assert la.mat_mul(u, a) == h
    assert abs(la.det_int(u)) == 1


def test_hnf_zero_matrix():
    h, u = la.hnf([[0, 0], [0, 0]])
    assert h == ((0, 0), (0, 0))
    assert u == la.identity(2)


def test_snf_diag_2_3():
    a = ((2, 0), (0, 3))
    s, u, v = la.snf(a)
    assert s == ((1, 0), (0, 6))
    assert la.mat_mul(la.mat_mul(u, a), v) == s
    assert abs(la.det_int(u)) == 1 and abs(la.det_int(v)) == 1


def test_snf_identity_and_single():
    s, u, v = la.snf(la.identity(3))
    assert s == la.identity(3)
    s, _, _ = la.snf([[2]])
    assert s == ((2,),)


def test_lattice_coords_and_saturation():
    basis = ((1, 1), (0, 2))
    assert la.lattice_coords(basis, (2, 0)) == (2, -1)
    assert la.lattice_coords(basis, (1, 0)) is None
    sat = la.saturation_basis([[2, 0], [0, 2]])
    # saturation of an index-4 sublattice of ZZ^2 is all of ZZ^2
    assert la.lattice_coords(sat, (1, 0)) is not None
    assert la.lattice_coords(sat, (0, 1)) is not None


def test_solve_and_nullspace():
    sol = la.solve([[1, 2], [2, 4]], (3, 6))
    assert sol is not None
    assert la.solve([[1, 2], [2, 4]], (3, 7)) is None
    null = la.nullspace([[1, 1, 1]])
    assert len(null) == 2


def test_inverse_int_unimodular():
    u = ((2, 1), (1, 1))
    inv = la.inverse_int(u)
    assert la.mat_mul(u, inv) == la.identity(2)


# -- the elimination kernel against sympy ------------------------------------------

def _random_matrices(seed, count=60):
    """Seeded small integer matrices: rectangular, singular, with zero rows."""
    rng = random.Random(seed)
    out = []
    for k in range(count):
        m, n = rng.randint(1, 5), rng.randint(1, 5)
        a = [[rng.randint(-4, 4) for _ in range(n)] for _ in range(m)]
        if k % 3 == 1 and m > 1:  # a repeated combination of rows: singular
            a[-1] = [x + 2 * y for x, y in zip(a[0], a[1 % m])]
        if k % 4 == 2:
            a[rng.randrange(m)] = [0] * n
        out.append(a)
    return out


def _frac(x):
    return Fraction(int(x.p), int(x.q))


def _all_fractions(rows):
    return all(type(x) is Fraction for row in rows for x in row)


def test_rank_matches_sympy():
    for a in _random_matrices(1):
        assert la.rank(a) == sympy.Matrix(a).rank()


def test_nullspace_matches_sympy():
    for a in _random_matrices(2):
        null = la.nullspace(a)
        assert _all_fractions(null)
        expected = [tuple(_frac(x) for x in v) for v in sympy.Matrix(a).nullspace()]
        assert list(null) == expected


def test_solve_matches_sympy():
    rng = random.Random(3)
    for a in _random_matrices(3):
        b = [rng.randint(-4, 4) for _ in a]
        x = la.solve(a, b)
        try:
            sol, params = sympy.Matrix(a).gauss_jordan_solve(sympy.Matrix(b))
        except ValueError:  # inconsistent system
            assert x is None
            continue
        assert x is not None and all(type(v) is Fraction for v in x)
        assert x == tuple(_frac(v) for v in sol.subs({p: 0 for p in params}))
        assert la.mat_vec(a, x) == tuple(b)


def test_inverse_frac_matches_sympy():
    for a in _random_matrices(4, count=120):
        if len(a) != len(a[0]):
            continue
        m = sympy.Matrix(a)
        if m.det() == 0:
            with pytest.raises(ValueError):
                la.inverse_frac(a)
            continue
        inv = la.inverse_frac(a)
        assert _all_fractions(inv)
        assert [list(r) for r in inv] == [[_frac(x) for x in m.inv().row(i)]
                                          for i in range(m.rows)]


def test_det_int_matches_sympy():
    squares = [a for a in _random_matrices(6, count=200) if len(a) == len(a[0])]
    assert any(sympy.Matrix(a).det() == 0 for a in squares)
    for a in squares:
        assert la.det_int(a) == sympy.Matrix(a).det()
    assert la.det_int(()) == 1


def test_adjugate_matches_sympy():
    """m / d is the inverse, and for integer input (d, m) is (det, adj)."""
    for a in _random_matrices(7, count=200):
        if len(a) != len(a[0]):
            continue
        m = sympy.Matrix(a)
        if m.det() == 0:
            with pytest.raises(ValueError):
                la.adjugate(a)
            continue
        d, adj = la.adjugate(a)
        assert d == m.det() and [list(r) for r in adj] == m.adjugate().tolist()
        assert [[Fraction(x, d) for x in r] for r in adj] == \
            [[_frac(x) for x in m.inv().row(i)] for i in range(m.rows)]
    d, adj = la.adjugate([[Fraction(1, 2), 1], [0, Fraction(2, 3)]])
    assert [[Fraction(x, d) for x in r] for r in adj] == [[2, -3], [0, Fraction(3, 2)]]


def test_snf_matches_sympy():
    """The invariant factors agree with sympy's Smith form, and U.a.V == S
    with U, V unimodular."""
    for a in _random_matrices(9, count=120):
        s, u, v = la.snf(a)
        ref = smith_normal_form(sympy.Matrix(a))
        assert [[s[i][j] for j in range(len(a[0]))] for i in range(len(a))] == ref.tolist()
        assert la.mat_mul(la.mat_mul(u, a), v) == s
        assert abs(la.det_int(u)) == abs(la.det_int(v)) == 1


def _smith_diagonal(a):
    """The diagonal of sympy's Smith form of ``a``, which may have no columns."""
    ref = smith_normal_form(sympy.Matrix(a)) if a[0] else sympy.zeros(len(a), 0)
    return [int(ref[i, i]) for i in range(min(ref.shape))]


def test_cokernel_small_cases():
    assert la.cokernel([[2], [0]]) == (1, (2,), (((0,), (1,)), ((1,), (0,))))
    assert la.cokernel([[], []]) == (2, (), (((1, 0), ()), ((0, 1), ())))
    assert la.cokernel([[0, 0]]) == (1, (), (((1,), ()),))
    assert la.cokernel([[1, 0], [0, 1]])[:2] == (0, ())


def test_cokernel_matches_sympy():
    """ZZ^m modulo the column span of a, on rank-deficient, wide, tall and
    zero-column matrices: the invariant factors above 1 are sympy's, the
    free rank is m - rank, every column of a has class 0, and the classes of
    the unit vectors generate the group."""
    rng = random.Random(12)
    mats = _random_matrices(11, count=150)
    mats += [[[rng.randint(-3, 3) for _ in range(n)] for _ in range(m)]
             for m, n in [(1, 6), (2, 7), (6, 1), (7, 2)] * 5]  # wide and tall
    mats += [[[]] * m for m in range(1, 5)]  # no columns
    for a in mats:
        m = len(a)
        free, torsion, classes = la.cokernel(a)
        diag = _smith_diagonal(a)
        assert torsion == tuple(d for d in diag if d > 1)
        assert free == m - sum(1 for d in diag if d) == m - (la.rank(a) if a[0] else 0)
        assert len(classes) == m
        assert all(len(f) == free and len(t) == len(torsion) for f, t in classes)
        for j in range(len(a[0])):
            image_free = [sum(a[i][j] * classes[i][0][k] for i in range(m)) for k in range(free)]
            image_tors = [sum(a[i][j] * classes[i][1][k] for i in range(m)) % d
                          for k, d in enumerate(torsion)]
            assert not any(image_free) and not any(image_tors)
        # the classes generate: [classes | relations of the torsion part],
        # one row per coordinate of the group, has every invariant factor 1
        rows = free + len(torsion)
        if rows:
            gen = [[f[k] for f, _t in classes] + [0] * len(torsion) for k in range(free)]
            gen += [[t[k] for _f, t in classes] + [d if i == k else 0 for i in range(len(torsion))]
                    for k, d in enumerate(torsion)]
            assert _smith_diagonal(gen) == [1] * rows


def _is_row_hnf(h):
    """The shape that makes a row Hermite form of a row space unique: pivot
    columns strictly increase, pivots are positive, the entries above a
    pivot lie in [0, pivot), and zero rows come last."""
    last = -1
    for i, row in enumerate(h):
        p = next((j for j, x in enumerate(row) if x), None)
        if p is None:
            return all(not any(r) for r in h[i:])
        if p <= last or row[p] <= 0 or any(not 0 <= h[k][p] < row[p] for k in range(i)):
            return False
        last = p
    return True


def test_hnf_is_the_unique_row_form():
    """U.a == H with U unimodular, and H has the unique row-HNF shape
    (sympy's hermite_normal_form uses another convention, so the shape is
    the oracle)."""
    for a in _random_matrices(10, count=200):
        h, u = la.hnf(a)
        assert la.mat_mul(u, a) == h
        assert abs(la.det_int(u)) == 1
        assert _is_row_hnf(h)
    assert not _is_row_hnf(((0, 2), (1, 0)))  # pivot columns must increase
    assert not _is_row_hnf(((1, 3), (0, 2)))  # entry above a pivot not reduced
    assert not _is_row_hnf(((0, 0), (1, 0)))  # a zero row before a nonzero one
    assert not _is_row_hnf(((-1, 0),))        # negative pivot


def test_lattice_coords_on_and_off_the_lattice():
    rng = random.Random(8)
    off_span = 0
    for a in _random_matrices(8):
        if la.rank(a) < len(a):
            continue
        c = tuple(rng.randint(-3, 3) for _ in a)
        v = la.vec_mat(c, a)
        assert la.lattice_coords(a, v) == c
        # 2v + a_0 over the basis 2a has the coordinate c_0 + 1/2
        doubled = [[2 * x for x in row] for row in a]
        assert la.lattice_coords(doubled, tuple(2 * x + y for x, y in zip(v, a[0]))) is None
        for j in range(len(a[0])):
            e = tuple(int(i == j) for i in range(len(a[0])))
            if la.rank(a + [list(e)]) > len(a):
                assert la.lattice_coords(a, e) is None
                off_span += 1
    assert off_span


# -- compositions ----------------------------------------------------------------

def test_compositions_order_and_count():
    assert list(la.compositions(2, 2)) == [(2, 0), (1, 1), (0, 2)]
    assert list(la.compositions(3, 1)) == [(3,)]
    parts = list(la.compositions(4, 3))
    assert len(parts) == 15 and parts == sorted(parts, reverse=True)
    assert all(sum(p) == 4 for p in parts)
