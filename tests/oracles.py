"""Removed implementations kept once, as oracles for the code that
replaced them, and the test-only helpers that more than one test module
uses."""

from coxtools.cyclotomic import CycloNum
from coxtools.polynomials import NonSquareError, Poly, _fold


def rref(rows, ncols=None):
    """The earlier ``intlinalg.rref`` verbatim: dense Gauss-Jordan over an
    exact field, kept as the oracle of the sparse elimination and of the
    singular test."""
    if ncols is None:
        ncols = len(rows[0]) if rows else 0
    pivots = []
    r = 0
    for c in range(ncols):
        if r == len(rows):
            break
        piv = next((i for i in range(r, len(rows)) if rows[i][c]), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        inv = 1 / rows[r][c]
        rows[r] = [x * inv if x else x for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c]:
                f = rows[i][c]
                rows[i] = [x - f * y if y else x for x, y in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
    return rows, pivots


def reference_det(matrix):
    """The earlier ``polynomials.poly_det`` verbatim: every cofactor product
    a ``Poly`` from ``__mul__``, folded into the minor's terms, kept as the
    oracle of the in-place expansion."""
    n = len(matrix)
    if any(len(row) != n for row in matrix):
        raise NonSquareError("determinant of a non-square matrix")
    if n == 0:
        raise NonSquareError("empty matrix")
    num_vars = matrix[0][0].num_vars
    cache = {}

    def minor(rows, colmask):
        key = (rows, colmask)
        if key in cache:
            return cache[key]
        cols = [j for j in range(n) if colmask >> j & 1]
        if len(rows) == 1:
            result = matrix[rows[0]][cols[0]]
        else:
            terms = {}
            sign = 1
            for j in cols:
                entry = matrix[rows[0]][j]
                if entry.terms:
                    _fold(terms, entry * minor(rows[1:], colmask & ~(1 << j)), sign)
                sign = -sign
            result = Poly._trusted(num_vars, terms)
        cache[key] = result
        return result

    det = minor(tuple(range(n)), (1 << n) - 1)
    del minor  # its closure refers to it: leave no cycle for the collector
    return det


def degree_in(p, var_subset):
    """The earlier ``Poly.degree_in``: smallest total degree of any term of
    ``p`` in the selected variables."""
    if not p.terms:
        return None
    return min(sum(e[i] for i in var_subset) for e in p.terms)


# -- generating sets of finite groups, as (generators, conductor) -------------

def power(z, k):
    acc = CycloNum.rational(z.conductor, 1)
    for _ in range(k):
        acc = acc * z
    return acc


def gmp(m, p):
    """The imprimitive reflection group G(m, p, 2)."""
    z = CycloNum.zeta(m)
    zero, one = CycloNum(m), CycloNum.rational(m, 1)
    gens = [[[zero, one], [one, zero]], [[zero, z.inverse()], [z, zero]]]
    if p < m:
        gens.append([[power(z, p), zero], [zero, one]])
    return gens, m


def binary_dihedral(n):
    z = CycloNum.zeta(n)
    zero, one = CycloNum(n), CycloNum.rational(n, 1)
    return [[[z, zero], [zero, z.inverse()]], [[zero, one], [-one, zero]]], n
