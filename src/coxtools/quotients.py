"""Finite matrix groups over cyclotomic fields and their quotient data.

The pipeline: close a generating set of matrices to the full group,
find the pseudoreflections (rank(A - I) = 1), take the normal subgroup
they generate, and analyze the quotient: its commutator subgroup, the
preimage of that commutator, and the abelian invariants of the final
abelianization (via a Smith normal form of harvested relations).  The
quotient space of the original linear action is toric exactly when the
quotient group by the reflections is abelian.

A Reynolds operator (averaging) computes exact bases of invariant forms
degree by degree.
"""

import itertools
from dataclasses import dataclass

from . import intlinalg as la
from .cyclotomic import CycloNum


class ClosureCapExceededError(RuntimeError):
    pass


class NotInvertibleError(ValueError):
    pass


DEFAULT_CAP = 10000


# -- matrices over a cyclotomic field ----------------------------------------

def cmat(conductor, rows):
    out = []
    for row in rows:
        r = []
        for x in row:
            if isinstance(x, CycloNum):
                if x.conductor != conductor:
                    raise ValueError("mixed conductors in a matrix")
                r.append(x)
            else:
                r.append(CycloNum.rational(conductor, x))
        out.append(tuple(r))
    return tuple(out)


def c_identity(conductor, n):
    one = CycloNum.rational(conductor, 1)
    zero = CycloNum(conductor)
    return tuple(tuple(one if i == j else zero for j in range(n)) for i in range(n))


def c_mul(a, b):
    n = len(a)
    m = len(b[0])
    k = len(b)
    out = []
    for i in range(n):
        row = []
        for j in range(m):
            acc = CycloNum(a[0][0].conductor)
            for t in range(k):
                acc = acc + a[i][t] * b[t][j]
            row.append(acc)
        out.append(tuple(row))
    return tuple(out)


def c_sub(a, b):
    return tuple(tuple(x - y for x, y in zip(ra, rb)) for ra, rb in zip(a, b))


# -- group closure ------------------------------------------------------------

class MatGroup:
    """A finite matrix group as an explicitly closed element list.

    Elements are listed in breadth-first discovery order from the
    identity, multiplying by the generators in their given order, so the
    listing is deterministic.
    """

    def __init__(self, dim, conductor, generators, elements):
        self.dim = dim
        self.conductor = conductor
        self.generators = generators
        self.elements = elements
        self._index = {m: i for i, m in enumerate(elements)}

    @property
    def order(self):
        return len(self.elements)

    def identity(self):
        return c_identity(self.conductor, self.dim)

    def index_of(self, m):
        return self._index[m]


def close_group(generators, conductor=None, cap=DEFAULT_CAP):
    """Breadth-first closure of matrix generators into a finite group."""
    gens = list(generators)
    if not gens:
        raise ValueError("at least one generator required")
    if conductor is None:
        conductor = gens[0][0][0].conductor
    gens = [cmat(conductor, g) for g in gens]
    dim = len(gens[0])
    for g in gens:
        if len(g) != dim or any(len(row) != dim for row in g):
            raise ValueError("generators must be square of equal size")
        if len(la.rref(list(g))[1]) < dim:
            raise NotInvertibleError("singular generator")
    elements = _closure(c_identity(conductor, dim), gens, cap)
    return MatGroup(dim, conductor, tuple(gens), tuple(elements))


def _closure(ident, gens, cap=None):
    """Breadth-first closure of ``gens`` from ``ident``: each listed
    element in turn is multiplied on the right by every generator."""
    elements = [ident]
    seen = {ident}
    for a in elements:
        for g in gens:
            b = c_mul(a, g)
            if b not in seen:
                if cap is not None and len(elements) >= cap:
                    raise ClosureCapExceededError(f"closure exceeded cap {cap}")
                seen.add(b)
                elements.append(b)
    return elements


def pseudoreflections(group):
    """Elements fixing a hyperplane pointwise: rank(A - I) == 1, exactly."""
    ident = group.identity()
    return tuple(a for a in group.elements if len(la.rref(list(c_sub(a, ident)))[1]) == 1)


@dataclass(frozen=True)
class QuotientReport:
    order_g: int
    order_h: int
    order_h_tilde: int
    f_abelian: bool
    commutant_order: int
    n_invariants: tuple
    is_toric: bool


def quotient_report(group):
    """Reflection / commutator analysis of a finite linear group.

    H: normal subgroup generated by the pseudoreflections; F = G/H;
    the commutant [F, F]; H-tilde: its preimage in G; N = F/[F, F] with
    abelian invariant factors from a Smith normal form of harvested
    relations.  ``is_toric`` is F's commutativity.
    """
    # rank(xAx^-1 - I) == rank(A - I): the pseudoreflections are already
    # closed under conjugation, so they generate a normal subgroup
    h_elements = _closure(group.identity(), pseudoreflections(group))
    for x in group.generators:
        if {c_mul(x, h) for h in h_elements} != {c_mul(h, x) for h in h_elements}:
            raise AssertionError("reflection subgroup failed normality")

    # cosets of H in G
    coset_of = {}
    coset_reps = []
    for a in group.elements:
        if a in coset_of:
            continue
        cid = len(coset_reps)
        coset_reps.append(a)
        for h in h_elements:
            coset_of[c_mul(a, h)] = cid
    f_order = len(coset_reps)

    def f_mul(i, j):
        return coset_of[c_mul(coset_reps[i], coset_reps[j])]

    f_inv = {}
    for i in range(f_order):
        for j in range(f_order):
            if f_mul(i, j) == 0:
                f_inv[i] = j
                break

    f_abelian = all(f_mul(i, j) == f_mul(j, i)
                    for i in range(f_order) for j in range(i + 1, f_order))

    commutators = sorted({f_mul(f_mul(i, j), f_mul(f_inv[i], f_inv[j]))
                          for i in range(f_order) for j in range(f_order)})
    cc = {0}
    frontier = [0]
    while frontier:
        a = frontier.pop(0)
        for c in commutators:
            b = f_mul(a, c)
            if b not in cc:
                cc.add(b)
                frontier.append(b)
    commutant_order = len(cc)
    order_h_tilde = commutant_order * len(h_elements)

    # N = F/[F,F]: abelian invariants from generator relations
    gen_cosets = [coset_of[g] for g in group.generators]
    n_of = {}
    n_reps = []
    for i in range(f_order):
        if i in n_of:
            continue
        nid = len(n_reps)
        n_reps.append(i)
        for c in cc:
            n_of[f_mul(i, c)] = nid

    def n_word(expo):
        acc = 0
        for g, e in zip(gen_cosets, expo):
            for _ in range(e):
                acc = f_mul(acc, g)
        return n_of[acc]

    orders = []
    for g in gen_cosets:
        k = 1
        acc = g
        while n_of[acc] != n_of[0]:
            acc = f_mul(acc, g)
            k += 1
        orders.append(k)
    relations = [tuple(o if i == j else 0 for j in range(len(orders)))
                 for i, o in enumerate(orders)]
    for expo in itertools.product(*(range(o) for o in orders)):
        if any(expo) and n_word(expo) == n_of[0]:
            relations.append(expo)
    s, _u, _v = la.snf(relations)
    diag = [s[i][i] for i in range(min(len(s), len(s[0])))]
    if len(s[0]) > len(diag) or any(d == 0 for d in diag):
        raise AssertionError("abelianization presentation was not finite")
    invariants = tuple(d for d in diag if d >= 2)
    n_order = 1
    for d in diag:
        n_order *= d
    if n_order * commutant_order != f_order:
        raise AssertionError("invariant factors do not multiply to |N|")

    return QuotientReport(
        order_g=group.order,
        order_h=len(h_elements),
        order_h_tilde=order_h_tilde,
        f_abelian=f_abelian,
        commutant_order=commutant_order,
        n_invariants=invariants,
        is_toric=f_abelian)


# -- Reynolds averaging --------------------------------------------------------

def _apply_matrix_to_monomial(group, a, expo):
    """Image of x^expo under x_j -> sum_i a[j][i] x_i, as an exponent dict."""
    conductor = group.conductor
    acc = {(0,) * group.dim: CycloNum.rational(conductor, 1)}
    for j, e in enumerate(expo):
        for _ in range(e):
            nxt = {}
            for mono, coeff in acc.items():
                for i in range(group.dim):
                    entry = a[j][i]
                    if entry.is_zero():
                        continue
                    key = tuple(m + (1 if t == i else 0) for t, m in enumerate(mono))
                    cur = nxt.get(key)
                    nxt[key] = entry * coeff if cur is None else cur + entry * coeff
            acc = {k: v for k, v in nxt.items() if not v.is_zero()}
    return acc


def reynolds_invariants(group, degree):
    """Exact basis of the degree-d invariant forms of the linear action.

    Averages every degree-d monomial over the group and row-reduces the
    results over the cyclotomic field; the echelon rows (leading
    coefficient 1) form the returned basis, each a dict from exponent
    tuples to CycloNum coefficients.
    """
    degree = int(degree)
    if degree < 1:
        raise ValueError("degree must be at least 1")
    monos = tuple(la.compositions(degree, group.dim))
    index = {m: i for i, m in enumerate(monos)}
    conductor = group.conductor
    scale = CycloNum.rational(conductor, 1) / CycloNum.rational(conductor, group.order)
    zero = CycloNum(conductor)

    vectors = []
    for m in monos:
        acc = {}
        for a in group.elements:
            for mono, coeff in _apply_matrix_to_monomial(group, a, m).items():
                cur = acc.get(mono)
                acc[mono] = coeff if cur is None else cur + coeff
        row = [zero] * len(monos)
        for mono, coeff in acc.items():
            val = coeff * scale
            if not val.is_zero():
                row[index[mono]] = val
        vectors.append(row)

    vectors, pivots = la.rref(vectors)
    return [{monos[j]: v for j, v in enumerate(row) if v}
            for row in vectors[:len(pivots)]]


def symmetric_power_trace_dimension(group, degree):
    """Independent invariant-dimension count: average of the traces of
    the symmetric-power action (exact, over the cyclotomic field)."""
    monos = tuple(la.compositions(degree, group.dim))
    total = CycloNum(group.conductor)
    for a in group.elements:
        tr = CycloNum(group.conductor)
        for m in monos:
            img = _apply_matrix_to_monomial(group, a, m)
            coeff = img.get(m)
            if coeff is not None:
                tr = tr + coeff
        total = total + tr
    avg = total / CycloNum.rational(group.conductor, group.order)
    if not avg.is_rational():
        raise AssertionError("trace average must be rational")
    value = avg.coeffs[0]
    if value.denominator != 1:
        raise AssertionError("trace average must be an integer")
    return int(value)
