"""Exact integer and rational linear algebra.

Vectors are tuples of Python ints, matrices are tuples of row tuples.
Python ints give arbitrary precision for free; nothing here ever touches
a float.  Row/column conventions: a lattice basis is a matrix whose ROWS
are the basis vectors, and ``coords . basis == ambient vector``.
"""

from fractions import Fraction
from math import gcd, lcm


def _exact_int(e):
    """``e`` as an int: ints pass, an integral Fraction gives its numerator,
    and anything else (a non-integral Fraction, a float, a string) raises."""
    if isinstance(e, int):
        return int(e)
    if isinstance(e, Fraction) and e.denominator == 1:
        return e.numerator
    raise ValueError(f"not an integer: {e!r}")


def vec(entries):
    return tuple([e if type(e) is int else _exact_int(e) for e in entries])


def mat(rows):
    out = tuple([vec(r) for r in rows])
    if out and any(len(r) != len(out[0]) for r in out):
        raise ValueError("ragged matrix")
    return out


def identity(n):
    return tuple([tuple([1 if i == j else 0 for j in range(n)]) for i in range(n)])


def transpose(a):
    return tuple(zip(*a)) if a else ()


def mat_mul(a, b):
    bt = transpose(b)
    return tuple([tuple([sum(x * y for x, y in zip(row, col)) for col in bt]) for row in a])


def mat_vec(a, v):
    """Matrix times column vector."""
    return tuple([sum(x * y for x, y in zip(row, v)) for row in a])


def vec_mat(v, a):
    """Row vector times matrix."""
    if not a:
        return ()
    return tuple([sum(v[i] * a[i][j] for i in range(len(v))) for j in range(len(a[0]))])


def dot(u, v):
    return sum(x * y for x, y in zip(u, v))


def vec_sub(u, v):
    return tuple([x - y for x, y in zip(u, v)])


def vec_scale(u, c):
    return tuple([c * x for x in u])


def vec_gcd(v):
    g = 0
    for x in v:
        g = gcd(g, abs(x))
    return g


def primitive(v):
    """Divide out the content; the zero vector is returned unchanged."""
    g = vec_gcd(v)
    return v if g in (0, 1) else tuple([x // g for x in v])


def is_zero_vec(v):
    return all(x == 0 for x in v)


def compositions(total, parts):
    """Nonnegative vectors of length ``parts`` summing to ``total``, lazily,
    in lexicographically descending order."""
    if parts == 1:
        yield (total,)
        return
    for first in range(total, -1, -1):
        for rest in compositions(total - first, parts - 1):
            yield (first,) + rest


# ---------------------------------------------------------------------------
# Hermite and Smith normal forms with transformation matrices.
# ---------------------------------------------------------------------------

def hnf(a):
    """Row Hermite normal form.

    Returns (H, U) with U unimodular and U.a == H.  Pivots are positive,
    entries above a pivot are reduced into [0, pivot), zero rows sink to
    the bottom.
    """
    a = mat(a)
    if not a:
        raise ValueError("empty matrix")
    m, n = len(a), len(a[0])
    h = [list(r) for r in a]
    u = [list(r) for r in identity(m)]

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
    return mat(h), mat(u)


def snf(a):
    """Smith normal form.

    Returns (S, U, V) with U, V unimodular, U.a.V == S, S diagonal with
    nonnegative entries s1 | s2 | ... .
    """
    a = mat(a)
    if not a:
        raise ValueError("empty matrix")
    m, n = len(a), len(a[0])
    s = [list(r) for r in a]
    u = [list(r) for r in identity(m)]
    v = [list(r) for r in identity(n)]

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
    return mat(s), mat(u), mat(v)


def cokernel(a):
    """ZZ^m modulo the column span of an m x n integer matrix ``a``.

    Returns ``(free_rank, torsion, classes)``: ``torsion`` holds the
    invariant factors above 1, and ``classes[i]`` is the class of e_i as
    (free coordinates, torsion residues).  With U.a.V == S the Smith form,
    x -> U.x carries the column span of ``a`` onto that of S, so the class
    of e_i is column i of U read modulo the diagonal of S.
    """
    s, u, _v = snf(a)
    diag = [s[i][i] for i in range(min(len(s), len(s[0])))]
    r = sum(1 for d in diag if d)  # the nonzero entries lead the diagonal
    tors = [i for i in range(r) if diag[i] >= 2]
    classes = tuple([(col[r:], tuple([col[i] % diag[i] for i in tors])) for col in zip(*u)])
    return len(s) - r, tuple([diag[i] for i in tors]), classes


# ---------------------------------------------------------------------------
# Fraction-free elimination of integer and rational matrices.
# ---------------------------------------------------------------------------

def bareiss(rows, ncols=None):
    """Fraction-free Gauss-Jordan elimination of an integer matrix (Bareiss).

    ``rows`` is a list of integer lists, reduced in place.  Only the first
    ``ncols`` columns (default: all) are pivot candidates, which leaves
    augmented columns as passengers.  A step with pivot p in row r replaces
    every other row i by (p*row_i - f*row_r) // prev, f being row i's entry
    in the pivot column and prev the previous pivot (initially 1); the
    division is exact because every entry is a minor of the input.  Returns
    ``(rows, pivots, sign)``: the first ``len(pivots)`` rows are the nonzero
    echelon rows, each with the last pivot d at its pivot column and zeros
    in the other pivot columns (so row / d is the reduced row echelon form),
    and ``sign`` is the parity of the row swaps.  For a nonsingular square
    matrix d * sign is the determinant.
    """
    if ncols is None:
        ncols = len(rows[0]) if rows else 0
    pivots = []
    sign = prev = 1
    r = 0
    for c in range(ncols):
        if r == len(rows):
            break
        piv = next((i for i in range(r, len(rows)) if rows[i][c]), None)
        if piv is None:
            continue
        if piv != r:
            rows[r], rows[piv] = rows[piv], rows[r]
            sign = -sign
        top = rows[r]
        p = top[c]
        for i in range(len(rows)):
            f = rows[i][c]
            if i != r and (f or p != prev):  # otherwise the step leaves row i as it is
                rows[i] = [(p * x - f * y) // prev for x, y in zip(rows[i], top)]
        prev = p
        pivots.append(c)
        r += 1
    return rows, pivots, sign


def _int_rows(a):
    """Rows of an integer or Fraction matrix as integer lists, scaled by the
    common denominator of all entries (which changes no row space)."""
    # a set, not a generator: a starred generator builds an argument tuple
    # as long as the matrix by resizing, and CPython's tuple free list for
    # that length then keeps it (up to 2000 per length)
    den = lcm(*{x.denominator for row in a for x in row})
    return [[int(x * den) for x in row] for row in a]


def det_int(a):
    """Determinant of a square integer matrix (Bareiss, exact)."""
    a = mat(a)
    n = len(a)
    if any(len(r) != n for r in a):
        raise ValueError("determinant of a non-square matrix")
    rows, pivots, sign = bareiss([list(r) for r in a])
    if len(pivots) < n:
        return 0
    return sign * rows[-1][-1] if n else 1


def adjugate(a):
    """(d, m) with m / d == a^-1 for a nonsingular square integer or
    Fraction matrix ``a``; for an integer matrix d is the determinant and m
    the adjugate.  Raises ValueError for a singular matrix."""
    n = len(a)
    rows, pivots, sign = bareiss(_int_rows(
        [[*row, *(int(i == j) for j in range(n))] for i, row in enumerate(a)]), n)
    if len(pivots) < n:
        raise ValueError("singular matrix")
    d = sign * rows[-1][n - 1] if n else 1
    return d, tuple([tuple([sign * x for x in row[n:]]) for row in rows])


def rank(a):
    return len(bareiss(_int_rows(a))[1])


def solve(a, b):
    """One exact solution x of a.x == b over the rationals, or None.

    ``a`` is an m x n integer or Fraction matrix, ``b`` a length-m vector.
    If the system is underdetermined an arbitrary (but deterministic)
    solution is returned; if inconsistent, None.
    """
    if not a:
        return () if is_zero_vec(tuple(b)) else None
    n = len(a[0])
    rows, pivots, _ = bareiss(_int_rows([[*row, b[i]] for i, row in enumerate(a)]), n)
    if any(row[n] for row in rows[len(pivots):]):
        return None
    x = [Fraction(0)] * n
    for row, c in zip(rows, pivots):
        x[c] = Fraction(row[n], row[c])
    return tuple(x)


def nullspace(a):
    """Basis (tuple of Fraction tuples) of the right kernel of a."""
    if not a:
        return ()
    n = len(a[0])
    rows, pivots, _ = bareiss(_int_rows(a))
    basis = []
    for fc in range(n):
        if fc in pivots:
            continue
        v = [Fraction(0)] * n
        v[fc] = Fraction(1)
        for row, c in zip(rows, pivots):
            v[c] = Fraction(-row[fc], row[c])
        basis.append(tuple(v))
    return tuple(basis)


def inverse_frac(a):
    """Exact inverse of a square matrix as Fraction rows."""
    d, m = adjugate(a)
    return tuple([tuple([Fraction(x, d) for x in row]) for row in m])


def inverse_int(a):
    """Inverse of a unimodular integer matrix, as integers."""
    d, m = adjugate(a)
    if abs(d) != 1:
        raise ValueError("matrix is not unimodular")
    return tuple([tuple([d * x for x in row]) for row in m])


def lattice_coords(basis, v):
    """Integer coordinates c with c.basis == v, or None.

    ``basis`` rows must be linearly independent.
    """
    if not basis:
        return () if is_zero_vec(tuple(v)) else None
    x = solve(transpose(basis), v)
    if x is None:
        return None
    if any(f.denominator != 1 for f in x):
        return None
    return tuple([int(f) for f in x])


def saturation_basis(a):
    """Basis rows of the saturation of the row space of ``a``.

    The result spans rowspace_Q(a) and generates ZZ^n intersected with
    that span (a saturated sublattice).
    """
    a = mat(a)
    s, _u, v = snf(a)
    r = sum(1 for i in range(min(len(s), len(s[0]))) if s[i][i] != 0)
    vinv = inverse_int(v)
    return vinv[:r]

