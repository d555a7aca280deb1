import random
import time
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
    # the zero lattice holds the zero vector alone, with no coordinates
    assert la.lattice_coords((), ()) == la.lattice_coords((), (0, 0)) == ()
    assert la.lattice_coords((), (0, 1)) is None
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


@pytest.mark.parametrize("v", [(2, 0, 5), (2,)], ids=["long", "short"])
def test_a_right_hand_side_of_the_wrong_length_is_refused(v):
    """(2, 0, 5) used to be read as (2, 0), and (2,) ended in an IndexError."""
    basis = ((1, 1), (0, 2))
    with pytest.raises(ValueError, match="length"):
        la.solve(la.transpose(basis), v)
    with pytest.raises(ValueError, match="length"):
        la.lattice_coords(basis, v)


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


# -- Smith forms past the small sizes -----------------------------------------------

# det 727272: its Smith form needs Euclid steps deep inside the matrix
DENSE_6 = [[9, 2, 0, -6, -3, 3], [-11, 0, -9, 2, 0, 2], [-1, 5, -12, 12, 11, 11],
           [-9, 1, 5, -1, 0, 8], [11, -4, -10, -12, 0, 0], [-7, 0, 9, 11, 0, -2]]


def test_snf_of_dense_matrices_matches_sympy_quickly():
    """Dense 6x6 to 8x8 matrices with entries up to 12 in absolute value:
    the invariant factors are sympy's, U.a.V == S, and every Smith form
    takes well under 50 ms, since each pass leaves its entries reduced."""
    rng = random.Random(14)
    mats = [DENSE_6] + [[[rng.randint(-12, 12) for _ in range(n)] for _ in range(n)]
                        for n in (6, 7, 8) for _ in range(4)]
    for a in mats:
        start = time.perf_counter()
        s, u, v = la.snf(a)
        assert time.perf_counter() - start < 0.05
        assert [list(row) for row in s] == smith_normal_form(sympy.Matrix(a)).tolist()
        assert la.mat_mul(la.mat_mul(u, a), v) == s
        assert abs(la.det_int(u)) == abs(la.det_int(v)) == 1
    assert la.snf(DENSE_6)[0][5][5] == 727272


# -- the normal forms before they shared the Hermite kernel ------------------------
# Verbatim copies (module names prefixed) of hnf, snf and cokernel as they
# were when snf ran its own pivot search and Euclid loop.  hnf must give
# the same (H, U); Smith transforms are not unique, so snf must give the
# same S, and cox_data the same degrees up to an automorphism of Cl.

def _reference_hnf(a):
    a = la.mat(a)
    if not a:
        raise ValueError("empty matrix")
    m, n = len(a), len(a[0])
    h = [list(r) for r in a]
    u = [list(r) for r in la.identity(m)]

    def row_sub(i, j, q):
        if q:
            h[i] = [x - q * y for x, y in zip(h[i], h[j])]
            u[i] = [x - q * y for x, y in zip(u[i], u[j])]

    r = 0
    for c in range(n):
        rows = [i for i in range(r, m) if h[i][c] != 0]
        if not rows:
            continue
        while len(rows) > 1:
            i0 = min(rows, key=lambda i: abs(h[i][c]))
            for i in rows:
                if i != i0:
                    row_sub(i, i0, h[i][c] // h[i0][c])
            rows = [i for i in range(r, m) if h[i][c] != 0]
        i0 = rows[0]
        if i0 != r:
            h[r], h[i0] = h[i0], h[r]
            u[r], u[i0] = u[i0], u[r]
        if h[r][c] < 0:
            h[r] = [-x for x in h[r]]
            u[r] = [-x for x in u[r]]
        for i in range(r):
            row_sub(i, r, h[i][c] // h[r][c])
        r += 1
        if r == m:
            break
    return la.mat(h), la.mat(u)


def _reference_snf(a):
    a = la.mat(a)
    if not a:
        raise ValueError("empty matrix")
    m, n = len(a), len(a[0])
    s = [list(r) for r in a]
    u = [list(r) for r in la.identity(m)]
    v = [list(r) for r in la.identity(n)]

    def row_sub(i, j, q):
        if q:
            s[i] = [x - q * y for x, y in zip(s[i], s[j])]
            u[i] = [x - q * y for x, y in zip(u[i], u[j])]

    def col_sub(i, j, q):
        if q:
            for row in s:
                row[i] -= q * row[j]
            for row in v:
                row[i] -= q * row[j]

    def swap_rows(i, j):
        if i != j:
            s[i], s[j] = s[j], s[i]
            u[i], u[j] = u[j], u[i]

    def swap_cols(i, j):
        if i != j:
            for row in s:
                row[i], row[j] = row[j], row[i]
            for row in v:
                row[i], row[j] = row[j], row[i]

    t = 0
    while True:
        pivot = None
        best = None
        for i in range(t, m):
            for j in range(t, n):
                if s[i][j] != 0 and (best is None or abs(s[i][j]) < best):
                    best = abs(s[i][j])
                    pivot = (i, j)
        if pivot is None:
            break
        swap_rows(t, pivot[0])
        swap_cols(t, pivot[1])
        while True:
            dirty = False
            for i in range(t + 1, m):
                if s[i][t] != 0:
                    q = s[i][t] // s[t][t]
                    row_sub(i, t, q)
                    if s[i][t] != 0:
                        swap_rows(t, i)
                    dirty = True
            for j in range(t + 1, n):
                if s[t][j] != 0:
                    q = s[t][j] // s[t][t]
                    col_sub(j, t, q)
                    if s[t][j] != 0:
                        swap_cols(t, j)
                    dirty = True
            if not dirty:
                break
        # divisibility fix-up: s[t][t] must divide everything below-right
        fixed = True
        for i in range(t + 1, m):
            for j in range(t + 1, n):
                if s[i][j] % s[t][t] != 0:
                    s[t] = [x + y for x, y in zip(s[t], s[i])]
                    u[t] = [x + y for x, y in zip(u[t], u[i])]
                    fixed = False
                    break
            if not fixed:
                break
        if not fixed:
            continue
        if s[t][t] < 0:
            s[t] = [-x for x in s[t]]
            u[t] = [-x for x in u[t]]
        t += 1
        if t == min(m, n):
            break
    return la.mat(s), la.mat(u), la.mat(v)


def _reference_cokernel(a):
    s, u, _v = _reference_snf(a)
    diag = [s[i][i] for i in range(min(len(s), len(s[0])))]
    r = sum(1 for d in diag if d)  # the nonzero entries lead the diagonal
    tors = [i for i in range(r) if diag[i] >= 2]
    classes = tuple([(col[r:], tuple([col[i] % diag[i] for i in tors])) for col in zip(*u)])
    return len(s) - r, tuple([diag[i] for i in tors]), classes


def test_hnf_matches_the_reference():
    """(H, U) is exactly the reference's, on 1200 seeded matrices up to 6x6
    with entries up to 9, a third of them singular by construction."""
    rng = random.Random(15)
    for k in range(1200):
        m, n = rng.randint(1, 6), rng.randint(1, 6)
        a = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(m)]
        if k % 3 == 1 and m > 1:
            a[-1] = [x - y for x, y in zip(a[0], a[1])]
        assert la.hnf(a) == _reference_hnf(a)


def test_snf_keeps_the_reference_invariants():
    """On small matrices, where the reference's entries stay small, S is the
    reference's S and U.a.V == S with U, V unimodular; the saturation basis
    read off V spans the lattice the reference's V gives."""
    for a in _random_matrices(16, count=300):
        s, u, v = la.snf(a)
        ref_s, _ref_u, ref_v = _reference_snf(a)
        assert s == ref_s
        assert la.mat_mul(la.mat_mul(u, a), v) == s
        assert abs(la.det_int(u)) == abs(la.det_int(v)) == 1
        assert la.cokernel(a)[:2] == _reference_cokernel(a)[:2]
        rank = sum(1 for i in range(min(len(s), len(s[0]))) if s[i][i])
        sat, ref = la.saturation_basis(a), la.inverse_int(ref_v)[:rank]
        assert len(sat) == rank
        assert all(la.lattice_coords(ref, x) is not None for x in sat)
        assert all(la.lattice_coords(sat, x) is not None for x in ref)


def test_cox_data_degrees_match_the_reference_up_to_an_automorphism(monkeypatch):
    """On moment cones (1, a, a^2) moved by seeded unimodular maps, Cl is the
    reference's, and some automorphism of Cl carries the reference's degrees
    onto today's; on several cones the two presentations differ."""
    from coxtools.cones import Cone
    from coxtools.gradings import _degree_automorphism
    from coxtools.toric import cox_data
    rng = random.Random(17)
    changed = 0
    for _ in range(20):
        u = [list(row) for row in la.identity(3)]
        for _step in range(6):  # elementary row operations: det u == 1
            i, j = rng.sample(range(3), 2)
            k = rng.choice((-1, 1))
            u[i] = [x + k * y for x, y in zip(u[i], u[j])]
        cone = Cone(3, [la.vec_mat((1, a, a * a), u) for a in range(rng.randint(4, 6))])
        new = cox_data(cone)
        with monkeypatch.context() as patch:
            patch.setattr(la, "cokernel", _reference_cokernel)
            old = cox_data(cone)
        assert old.cl_group == new.cl_group
        pairs = list(zip(old.var_degrees, new.var_degrees))
        assert _degree_automorphism(new.cl_group, pairs) is not None
        changed += old.var_degrees != new.var_degrees
    assert changed >= 3


# -- compositions ----------------------------------------------------------------

def test_compositions_order_and_count():
    assert list(la.compositions(2, 2)) == [(2, 0), (1, 1), (0, 2)]
    assert list(la.compositions(3, 1)) == [(3,)]
    parts = list(la.compositions(4, 3))
    assert len(parts) == 15 and parts == sorted(parts, reverse=True)
    assert all(sum(p) == 4 for p in parts)
