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
# Hermite and Smith normal forms: one row-Hermite kernel with passengers.
# ---------------------------------------------------------------------------

def _hermite(rows, ncols):
    """Row Hermite normal form of the first ``ncols`` columns, in place.

    ``rows`` is a list of integer lists; the columns from ``ncols`` on are
    passengers, carried along by every row operation (as in ``bareiss``).
    Column by column, the rows from the next pivot row down run Euclid's
    algorithm on their entries until one is nonzero; it becomes a positive
    pivot, and the entries above it are reduced into [0, pivot).  Zero rows
    sink to the bottom.  Returns the rank.
    """
    m = len(rows)
    r = 0
    for c in range(ncols):
        live = [i for i in range(r, m) if rows[i][c]]
        if not live:
            continue
        while len(live) > 1:
            i0 = min(live, key=lambda i: abs(rows[i][c]))
            top = rows[i0]
            for i in live:
                q = rows[i][c] // top[c]
                if i != i0 and q:
                    rows[i] = [x - q * y for x, y in zip(rows[i], top)]
            live = [i for i in live if rows[i][c]]
        rows[r], rows[live[0]] = rows[live[0]], rows[r]
        if rows[r][c] < 0:
            rows[r] = [-x for x in rows[r]]
        top = rows[r]
        for i in range(r):
            q = rows[i][c] // top[c]
            if q:
                rows[i] = [x - q * y for x, y in zip(rows[i], top)]
        r += 1
    return r


def hnf(a):
    """Row Hermite normal form: ``_hermite`` on [a | I].

    Returns (H, U) with U unimodular and U.a == H.  Pivots are positive,
    entries above a pivot are reduced into [0, pivot), zero rows sink to
    the bottom.
    """
    a = mat(a)
    if not a:
        raise ValueError("empty matrix")
    n = len(a[0])
    rows = [[*row, *e] for row, e in zip(a, identity(len(a)))]
    _hermite(rows, n)
    return tuple([tuple(r[:n]) for r in rows]), tuple([tuple(r[n:]) for r in rows])


def snf(a):
    """Smith normal form by alternating row and column Hermite forms
    (Kannan and Bachem, SIAM J. Comput. 8, 1979), which keeps every entry
    reduced.

    Returns (S, U, V) with U, V unimodular, U.a.V == S, S diagonal with
    nonnegative entries s1 | s2 | ... .  The block matrix [[S, U], [V, 0]]
    is transposed after each pass, so a row pass runs ``_hermite`` over
    [S | U] and a column pass over [S^T | V^T].  A matrix in row and in
    column Hermite form is diagonal.  Where s_i does not divide s_{i+1},
    column i+1 is added to column i, and the next row pass puts their gcd
    at (i, i).
    """
    a = mat(a)
    if not a:
        raise ValueError("empty matrix")
    m, n = len(a), len(a[0])
    t = [[*row, *e] for row, e in zip(a, identity(m))] + [[*e, *[0] * m] for e in identity(n)]
    while True:
        for k, width in ((m, n), (n, m)):
            head = t[:k]
            _hermite(head, width)
            t = [list(col) for col in zip(*head, *t[k:])]
        if any(t[i][j] for i in range(m) for j in range(n) if i != j):
            continue
        diag = [t[i][i] for i in range(min(m, n)) if t[i][i]]
        i = next((i for i in range(len(diag) - 1) if diag[i + 1] % diag[i]), None)
        if i is None:
            return (tuple([tuple(row[:n]) for row in t[:m]]),
                    tuple([tuple(row[n:]) for row in t[:m]]),
                    tuple([tuple(row[:n]) for row in t[m:]]))
        for row in t:
            row[i] += row[i + 1]


def cokernel(a):
    """ZZ^m modulo the column span of an m x n integer matrix ``a``.

    Returns ``(free_rank, torsion, classes)``: ``torsion`` holds the
    invariant factors above 1, and ``classes[i]`` is the class of e_i as
    (free coordinates, torsion residues).  The columns of ``a`` are first
    reduced to their Hermite basis (no transform kept), an m x r matrix B
    with the same column span and r <= m.  With U.B.V == S the Smith form,
    x -> U.x carries that span onto the column span of S, so the class of
    e_i is column i of U read modulo the diagonal of S.
    """
    a = mat(a)
    m = len(a)
    cols = [list(col) for col in zip(*a)]
    r = _hermite(cols, m)
    s, u, _v = snf([[col[i] for col in cols[:r]] for i in range(m)])
    diag = [s[i][i] for i in range(r)]  # B has full column rank r
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

    ``a`` is an m x n integer or Fraction matrix, ``b`` a length-m vector
    (for m > 0 another length raises ValueError).  If the system is
    underdetermined an arbitrary (but deterministic) solution is returned;
    if inconsistent, None.
    """
    if not a:
        return () if is_zero_vec(tuple(b)) else None
    if len(b) != len(a):
        raise ValueError(f"right-hand side of length {len(b)} for {len(a)} equations")
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

