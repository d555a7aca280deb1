"""Finite matrix groups over cyclotomic fields and their quotient data.

The pipeline: close a generating set of matrices to the full group (as
permutations of the orbit of the identity's rows, so the closure makes
row products only, and past ``cap`` elements it raises), find the
pseudoreflections (rank(A - I) = 1, screened by tr A - det A = n - 1),
take the normal subgroup they generate, and analyze the quotient: its
commutator subgroup, the preimage of that commutator, and the abelian
invariants of the final abelianization (via a Smith normal form of its
Schreier relations).  The quotient space of the original linear action
is toric exactly when the quotient group by the reflections is abelian.

Exact bases of invariant forms, degree by degree, are the generators'
common fixed space (the image of the Reynolds operator).  ``_echelon``
is the only elimination: of the generators, and of the invariant forms.
"""

import functools
import math
from dataclasses import dataclass

from . import intlinalg as la
from .cyclotomic import CycloNum
from .errors import ClosureCapExceededError


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
    """The matrix product a @ b over a cyclotomic field, one ``_row_times``
    per row of a."""
    x = a[0][0]
    zeros = (CycloNum._make(x.conductor, (0,) * len(x.num), 1),) * len(b[0])
    rows = _sparse_rows(b)
    return tuple([_row_times(row, rows, zeros) for row in a])


def _sparse_rows(b):
    """Each row of b as the (column, entry) pairs of its nonzero entries."""
    return tuple(tuple((j, y) for j, y in enumerate(row) if y) for row in b)


def _row_times(v, rows, zeros):
    """v @ b for b in ``_sparse_rows`` form, ``zeros`` one shared zero per
    column of b: one product per nonzero pair (v[t], b[t][j]), each sum
    started from its first product, so a monomial b costs one product per
    nonzero entry of v."""
    zero = zeros[0]
    out = list(zeros)
    for x, row in zip(v, rows):
        if x:
            for j, y in row:
                s = out[j]
                out[j] = x * y if s is zero else s + x * y
    return tuple(out)


# -- group closure ------------------------------------------------------------

class MatGroup:
    """A finite matrix group as an explicitly closed element list.

    Elements are listed in breadth-first discovery order from the
    identity, multiplying by the generators in their given order, so the
    listing is deterministic.  The walk is kept as the right Cayley graph
    (``right[i][k]`` indexes ``elements[i] @ generators[k]``) with each
    element's breadth-first generator word, so products of elements are
    integer walks (the regular representation).  ``gen_dets`` holds the
    generators' determinants, as ``close_group`` finds them.
    """

    def __init__(self, dim, conductor, generators, elements, right, words, gen_dets=None):
        self.dim = dim
        self.conductor = conductor
        self.generators = generators
        self.elements = elements
        self.right = right
        self.words = words
        self.gen_dets = gen_dets
        self._index = None

    @property
    def order(self):
        return len(self.elements)

    def index_of(self, m):
        if self._index is None:  # built on demand: reynolds never asks
            self._index = {m: i for i, m in enumerate(self.elements)}
        return self._index[m]

    def mul(self, i, j):
        """Index of ``elements[i] @ elements[j]``: j's word walked from i."""
        for k in self.words[j]:
            i = self.right[i][k]
        return i


def close_group(generators, conductor=None, cap=DEFAULT_CAP):
    """Breadth-first closure of matrix generators into a finite group.

    Without ``conductor``, the field is that of the first ``CycloNum``
    entry of any generator, else the rationals (conductor 1).

    A matrix is fixed by its rows, so the group acts faithfully on the
    orbit O of the identity's rows under v -> v @ g.  The closure reads
    each generator once into sparse rows and lists O first, with one
    ``_row_times`` per orbit vector and generator, then closes the
    generators as permutations of O: each element is the tuple of its
    rows' orbit indices, and its matrix is read off O.  Each row's
    orbit has at most |G| vectors, so over ``cap`` vectors reached from
    one row already mean over ``cap`` elements; either closure past its
    bound raises ``closure exceeded cap {cap}``, and ``cap=None`` bounds
    neither.
    """
    gens = list(generators)
    if not gens:
        raise ValueError("at least one generator required")
    if conductor is None:
        conductor = next((x.conductor for g in gens for row in g for x in row
                          if isinstance(x, CycloNum)), 1)
    gens = [cmat(conductor, g) for g in gens]
    dim = len(gens[0])
    dets = []
    for g in gens:
        if len(g) != dim or any(len(row) != dim for row in g):
            raise ValueError("generators must be square of equal size")
        dets.append(_det(conductor, g))
        if not dets[-1]:
            raise NotInvertibleError("singular generator")
    if not dim:
        raise ValueError("generators must have at least one row")
    # no words for the orbit: along the chain of an infinite-order
    # generator they would grow quadratically up to the cap
    row_times = functools.partial(_row_times, zeros=(CycloNum(conductor),) * dim)
    orbit, moves, _ = _closure(c_identity(conductor, dim), [_sparse_rows(g) for g in gens],
                               row_times, cap, keep_words=False)
    # perms[k][x] is the index of orbit[x] @ gens[k]
    perms = list(zip(*moves))
    indices, right, words = _closure((tuple(range(dim)),), perms, _permute, cap)
    elements = tuple([tuple([orbit[x] for x in a]) for a in indices])
    return MatGroup(dim, conductor, tuple(gens), elements, tuple(right), tuple(words), tuple(dets))


def _det(conductor, a):
    """det a from one ``_echelon`` pass, 0 when a is singular: the pivot
    values before scaling, signed by the order of their columns."""
    pivots = _echelon([{j: x for j, x in enumerate(row) if x} for row in a])[1]
    swaps = sum(p > q for i, (p, _) in enumerate(pivots) for q, _ in pivots[i + 1:])
    det = math.prod([x for _, x in pivots], start=CycloNum.rational(conductor, (-1) ** swaps))
    return det if len(pivots) == len(a) else CycloNum(conductor)


def _permute(a, perm):
    return tuple([perm[x] for x in a])


def _closure(seeds, gens, mul, cap=None, keep_words=True):
    """Breadth-first closure of ``gens`` from ``seeds`` under ``mul``: each
    listed element in turn is multiplied on the right by every generator.
    Returns the elements, the Cayley graph (``right[i][k]`` is the index
    of ``mul(elements[i], gens[k])``) and each element's generator word
    from its seed (``None`` without ``keep_words``).  A seed's orbit under
    a group is at most the group's order, so past ``cap`` elements
    reached from one seed the group has over ``cap``."""
    elements = list(seeds)
    words = [()] * len(elements) if keep_words else None
    right = []
    index = {s: i for i, s in enumerate(elements)}
    # seed_of[i] is the seed elements[i] was reached from; sizes[s] counts them
    seed_of = list(range(len(elements)))
    sizes = [1] * len(elements)
    for i, a in enumerate(elements):
        row = []
        for k, g in enumerate(gens):
            b = mul(a, g)
            j = index.get(b)
            if j is None:
                s = seed_of[i]
                if cap is not None and sizes[s] >= cap:
                    raise ClosureCapExceededError(f"closure exceeded cap {cap}")
                sizes[s] += 1
                seed_of.append(s)
                j = index[b] = len(elements)
                elements.append(b)
                if keep_words:
                    words.append(words[i] + (k,))
            row.append(j)
        right.append(tuple(row))
    return elements, right, words


def _element_dets(group):
    """det(a g_k) == det(a) det(g_k) on the Cayley edge first reaching a g_k."""
    dets = [CycloNum.rational(group.conductor, 1)] + [None] * (group.order - 1)
    for i, row in enumerate(group.right):
        for j, d in zip(row, group.gen_dets):
            if dets[j] is None:
                dets[j] = dets[i] * d
    return dets


def pseudoreflections(group):
    """Elements fixing a hyperplane pointwise: rank(A - I) == 1, exactly.

    A = I + u v^T has det A = 1 + v.u = tr A - (n - 1).  Elements passing
    that screen (in dimensions 2 and 3, only these and I) get the minor
    test, with no elimination: for b = A - I with first nonzero entry
    b[p][q], rank 1 means every 2x2 minor of b through (p, q) vanishes.
    """
    one = CycloNum.rational(group.conductor, 1)
    shift = CycloNum.rational(group.conductor, 1 - group.dim)
    out = []
    for a, det in zip(group.elements, _element_dets(group)):
        if sum([row[i] for i, row in enumerate(a)], shift) != det:
            continue
        b = [[x - one if i == j else x for j, x in enumerate(row)] for i, row in enumerate(a)]
        p, q = next(((i, j) for i, row in enumerate(b) for j, x in enumerate(row) if x), (0, 0))
        if b[p][q] and all(x * b[p][q] == row[q] * b[p][j]
                           for row in b[p + 1:] for j, x in enumerate(row)):
            out.append(a)
    return tuple(out)


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
    abelian invariant factors from a Smith normal form of F's
    abelianized Schreier relations.  ``is_toric`` is F's commutativity.
    After the pseudoreflection test all work is walks on the Cayley graph.
    """
    right = group.right
    ngens = len(group.generators)
    # rank(xAx^-1 - I) == rank(A - I): the pseudoreflections are already
    # closed under conjugation, so they generate a normal subgroup, closed
    # over each reflection that it lacks so far (each at least doubles it)
    h_gens, h_elements, in_h = [], [0], {0}
    for r in map(group.index_of, pseudoreflections(group)):
        if r not in in_h:
            h_gens.append(r)
            h_elements = _closure((0,), h_gens, group.mul, keep_words=False)[0]
            in_h = set(h_elements)
    for k in range(ngens):
        if {group.mul(right[0][k], h) for h in h_elements} != {right[h][k] for h in h_elements}:
            raise AssertionError("reflection subgroup failed normality")

    # cosets of H, breadth-first: xH.g == xgH, as H is normal.  Each
    # coset edge c -> c.g_k gives the abelianized Schreier relation
    # word(c) + e_k - word(c.g_k) of F on the group's generators.
    coset_of = dict.fromkeys(h_elements, 0)
    cosets = [h_elements]
    exps = [(0,) * ngens]
    relations = set()
    for c, members in enumerate(cosets):
        for k in range(ngens):
            d = coset_of.get(right[members[0]][k])
            if d is None:
                d = len(cosets)
                cosets.append([right[y][k] for y in members])
                coset_of.update(dict.fromkeys(cosets[d], d))
                exps.append(tuple(e + (t == k) for t, e in enumerate(exps[c])))
            relations.add(tuple(e + (t == k) - f
                                for t, (e, f) in enumerate(zip(exps[c], exps[d]))))
    f_order = len(cosets)
    f_abelian = all(coset_of[right[right[0][j]][k]] == coset_of[right[right[0][k]][j]]
                    for j in range(ngens) for k in range(j + 1, ngens))

    # N is ZZ^ngens modulo the relations, the columns of this matrix
    rels = sorted(relations)
    free_rank, n_invariants = la.cokernel([[r[k] for r in rels] for k in range(ngens)])[:2]
    if free_rank:
        raise AssertionError("abelianization presentation was not finite")
    n_order = math.prod(n_invariants)
    if f_order % n_order or (n_order == f_order) != f_abelian:
        raise AssertionError("|N| disagrees with F's generator commutators")
    commutant_order = f_order // n_order

    return QuotientReport(
        order_g=group.order,
        order_h=len(h_elements),
        order_h_tilde=commutant_order * len(h_elements),
        f_abelian=f_abelian,
        commutant_order=commutant_order,
        n_invariants=n_invariants,
        is_toric=f_abelian)


# -- invariant forms --------------------------------------------------------

def _poly_mul(p, q):
    """Product of polynomials held as dicts from exponent tuples."""
    out = {}
    for a, x in p.items():
        for b, y in q.items():
            key = tuple([s + t for s, t in zip(a, b)])
            z = out.get(key)
            out[key] = x * y if z is None else z + x * y
    return {k: v for k, v in out.items() if v}


def _monomial_images(group, a):
    """x^expo -> its image under x_j -> sum_i a[j][i] x_i, an exponent dict
    not to be changed: one product per variable, of powers of the variable
    images tabled as they are first asked for."""
    one = {(0,) * group.dim: CycloNum.rational(group.conductor, 1)}
    units = la.identity(group.dim)
    powers = [[one, {u: x for u, x in zip(units, row) if x}] for row in a]

    def image(expo):
        acc = one
        for table, e in zip(powers, expo):
            if e:
                while len(table) <= e:
                    table.append(_poly_mul(table[-1], table[1]))
                acc = table[e] if acc is one else _poly_mul(acc, table[e])
        return acc
    return image


def _echelon(rows):
    """Reduced echelon form of sparse rows over a cyclotomic field, with
    pivots taken from the last column to the first.

    ``rows`` are dicts from column to nonzero ``CycloNum``, reduced in
    place.  Returns a dict from each pivot column p to its row scaled to 1
    at p, stored without p: its other entries sit at non-pivot columns
    below p (that form of a row space is unique, so the row order does
    not matter); and each pivot's column and value before scaling, in row
    order.  A row is reduced by the pivot rows it meets, which adds
    entries at non-pivot columns only, pivots on its last column, and is
    subtracted from the pivot rows holding that column.
    """
    solved, pivots = {}, []
    for row in rows:
        for c in [c for c in row if c in solved]:
            _subtract(row, row.pop(c), solved[c])
        row = {j: x for j, x in row.items() if x}
        if not row:
            continue
        p = max(row)
        pivots.append((p, row.pop(p)))
        inv = pivots[-1][1].inverse()
        row = {j: x * inv for j, x in row.items()}
        for c, other in solved.items():
            if p in other:
                _subtract(other, other.pop(p), row)
                solved[c] = {j: x for j, x in other.items() if x}
        solved[p] = row
    return solved, pivots


def _subtract(row, f, other):
    """row -= f * other for sparse rows, in place; zeros are left in."""
    f = -f
    for j, y in other.items():
        x = row.get(j)
        row[j] = f * y if x is None else x + f * y


def reynolds_invariants(group, degree):
    """Exact basis of the degree-d invariant forms of the linear action.

    A form is invariant exactly when every generator fixes it, so the
    invariants are the common kernel of S^d(g) - I over the generators
    (the image of the Reynolds operator).  The equations are sparse rows,
    and one ``_echelon`` of them leaves free columns only below each
    pivot, so the kernel vector of free column f (1 at f, minus the rows'
    f entries at their pivots) leads with f: these vectors are the reduced
    row echelon basis (leading coefficient 1), each form a dict from
    exponent tuples to CycloNum coefficients.
    """
    if isinstance(degree, bool) or not isinstance(degree, int):
        raise ValueError(f"degree must be an int, got {degree!r}")
    if degree < 1:
        raise ValueError("degree must be at least 1")
    monos = tuple(la.compositions(degree, group.dim))
    index = {m: i for i, m in enumerate(monos)}
    one = CycloNum.rational(group.conductor, 1)

    # row t of generator g: sum_m c_m * ([x^t] g.x^m - [m == t]) == 0
    equations = []
    for g in group.generators:
        image = _monomial_images(group, g)
        block = {}
        for col, m in enumerate(monos):
            for t, x in image(m).items():
                block.setdefault(index[t], {})[col] = x
            row = block.setdefault(col, {})
            row[col] = row[col] - one if col in row else -one
        equations += [{c: x for c, x in row.items() if x} for row in block.values()]

    solved = _echelon(equations)[0]
    kernel = {f: {monos[f]: one} for f in range(len(monos)) if f not in solved}
    for p in sorted(solved):
        for f, x in solved[p].items():
            kernel[f][monos[p]] = -x
    return list(kernel.values())


def symmetric_power_trace_dimension(group, degree):
    """Independent invariant-dimension count: average of the traces of
    the symmetric-power action (exact, over the cyclotomic field)."""
    monos = tuple(la.compositions(degree, group.dim))
    zero = total = CycloNum(group.conductor)
    for a in group.elements:
        image = _monomial_images(group, a)
        total = sum((image(m).get(m, zero) for m in monos), total)
    avg = total / CycloNum.rational(group.conductor, group.order)
    if not avg.is_rational():
        raise AssertionError("trace average must be rational")
    value = avg.coeffs[0]
    if value.denominator != 1:
        raise AssertionError("trace average must be an integer")
    return int(value)
