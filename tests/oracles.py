"""Removed implementations kept once, as oracles for the code that
replaced them, and the test-only helpers that more than one test module
uses."""

from coxtools import intlinalg as la
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
                    _fold(terms, (entry * minor(rows[1:], colmask & ~(1 << j))).terms, sign)
                sign = -sign
            result = Poly._trusted(num_vars, terms)
        cache[key] = result
        return result

    det = minor(tuple(range(n)), (1 << n) - 1)
    del minor  # its closure refers to it: leave no cycle for the collector
    return det


def substitute(p, m):
    """The earlier ``polynomials.substitute`` verbatim, but for ``_fold``
    taking a term dict: each monomial's image a ``Poly``, multiplied out of
    per-variable power tables of ``Poly`` products."""
    if p.num_vars != m.source_vars:
        raise ValueError("polynomial/map variable mismatch")
    one = Poly._trusted(m.target_vars, {(0,) * m.target_vars: 1})
    powers = [[one] for _ in range(m.source_vars)]  # powers[i][k] is images[i]^k
    terms = {}
    for e, c in p.terms.items():
        term = None
        for i, k in enumerate(e):
            if k:
                known = powers[i]
                while len(known) <= k:
                    known.append(known[-1] * m.images[i])
                term = known[k] if term is None else term * known[k]
        _fold(terms, (one if term is None else term).terms, c)
    return Poly._trusted(m.target_vars, terms)


def poly_mul(p, q):
    """The earlier ``quotients._poly_mul`` verbatim: the product of
    polynomials held as dicts from exponent tuples."""
    out = {}
    for a, x in p.items():
        for b, y in q.items():
            key = tuple([s + t for s, t in zip(a, b)])
            z = out.get(key)
            out[key] = x * y if z is None else z + x * y
    return {k: v for k, v in out.items() if v}


def monomial_images(group, a):
    """The earlier ``quotients._monomial_images`` verbatim, on ``poly_mul``."""
    one = {(0,) * group.dim: CycloNum.rational(group.conductor, 1)}
    units = la.identity(group.dim)
    powers = [[one, {u: x for u, x in zip(units, row) if x}] for row in a]

    def image(expo):
        acc = one
        for table, e in zip(powers, expo):
            if e:
                while len(table) <= e:
                    table.append(poly_mul(table[-1], table[1]))
                acc = table[e] if acc is one else poly_mul(acc, table[e])
        return acc
    return image


def render_invariant(form, names):
    """The earlier ``cli._render_invariant`` verbatim, with its own
    monomial loop."""
    parts = []
    for expo in sorted(form, key=lambda e: (sum(e), e), reverse=True):
        factors = []
        for i, k in enumerate(expo):
            if k == 1:
                factors.append(names[i])
            elif k > 1:
                factors.append(f"{names[i]}^{k}")
        mono = "*".join(factors) if factors else "1"
        coeff = form[expo]
        if coeff.is_one():
            parts.append(mono)
        else:
            parts.append(f"({coeff.render()})*{mono}")
    return " + ".join(parts)


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
