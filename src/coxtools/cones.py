"""Rational polyhedral cones over an explicit ambient lattice.

A :class:`Cone` is given by generator vectors inside a lattice ``L``
(rows of ``lattice`` form a basis of ``L`` inside ZZ^ambient_rank; the
default is the full integer lattice).  Construction canonicalizes: rays
are made primitive with respect to ``L``, deduplicated, reduced to the
extreme rays, and sorted lexicographically.

All cone computations happen in coordinates of the saturated sublattice
``L ∩ span(rays)``, so non-full-dimensional input is handled by
restricting to its span first.  Facet normals come from an integer double
description with the combinatorial adjacency test.  Every ray carries its
tight set, the facets (or halfspaces so far) vanishing on it, and tight
sets decide pointedness, extremality and the faces of the one pulling
triangulation whose parallelepipeds give the Hilbert basis candidates, so
no rank test decides a face.  Candidates are reduced by comparing facet
values, each only against the basis elements of at most half its value
sum.  A Cone is immutable and keeps its Hilbert basis once computed.
"""

import bisect
import itertools
import operator

from . import intlinalg as la


class NonPointedError(ValueError):
    """The cone contains a line where a pointed cone was required."""


class NotFullDimensionalError(ValueError):
    """The cone does not span its ambient lattice."""


_MAX_RANK = 8
# bound on the summed simplex volumes, i.e. the Hilbert basis candidates
_VOLUME_CAP = 100000


def _int_rank(n):
    """``n`` if it is an int; anything else, a bool included, raises ValueError."""
    if isinstance(n, bool) or not isinstance(n, int):
        raise ValueError(f"ambient rank must be an int, got {n!r}")
    return n


def _inside(dual, x):
    """Is x in the cone {x : d.x >= 0 for every row d of ``dual``}?"""
    return all(la.dot(d, x) >= 0 for d in dual)


def _dual_extreme_rays(normals, dim):
    """Extreme rays of {x : n.x >= 0 for all n}, assuming the normals span.

    Incremental double description with the combinatorial adjacency test
    (Fukuda-Prodon, "Double description method revisited", 1996).  Seed
    with a simplicial cone cut out by ``dim`` independent normals, then
    clip by the remaining halfspaces.  Each ray carries its tight set: the
    indices of the normals processed so far that vanish on it.  Clipping
    by n keeps the rays with n.r >= 0 and joins each pair n.r+ > 0 > n.r-
    that spans a 2-face, which holds exactly when no third ray's tight set
    contains the pair's common one Z (so |Z| >= dim - 2); the joins are
    the new extreme rays, so no ray is ever tested or deduplicated.
    """
    # the simplicial seed: the first dim independent normals, which are the
    # pivot columns of the normals written as columns
    pivots = la.bareiss([list(col) for col in zip(*normals)])[1]
    if len(pivots) < dim:
        raise NotFullDimensionalError("normals do not span the space")
    seed = [normals[i] for i in pivots]
    rest = [n for i, n in enumerate(normals) if i not in pivots]

    # {x : B x >= 0} for invertible B is spanned by the columns of
    # B^{-1} = adj / det, positive multiples of the columns of sign(det) adj;
    # column j is tight on every seed normal but the j-th
    det, adj = la.adjugate(seed)
    s = 1 if det > 0 else -1
    rays = [(la.primitive(tuple(s * x for x in col)), frozenset(range(dim)) - {j})
            for j, col in enumerate(la.transpose(adj))]

    for k, n in enumerate(rest, dim):
        vals = [(r, t, la.dot(n, r)) for r, t in rays]
        pos = [x for x in vals if x[2] > 0]
        neg = [x for x in vals if x[2] < 0]
        rays = [(r, t | {k} if v == 0 else t) for r, t, v in vals if v >= 0]
        for (rp, tp, vp), (rn, tn, vn) in itertools.product(pos, neg):
            z = tp & tn
            if len(z) >= dim - 2 and sum(z <= t for _r, t, _v in vals) == 2:
                rays.append((la.primitive(tuple(vp * x - vn * y for x, y in zip(rn, rp))), z | {k}))
    return tuple(sorted(r for r, _t in rays))


class Cone:
    """Pointedness-aware rational cone with canonical extreme rays."""

    _hilbert = None  # the Hilbert basis, once hilbert_basis has computed it

    def __init__(self, ambient_rank, generators, lattice=None):
        if _int_rank(ambient_rank) < 1 or ambient_rank > _MAX_RANK:
            raise ValueError(f"ambient rank must be in 1..{_MAX_RANK}")
        gens = [la.vec(g) for g in generators]
        if any(len(g) != ambient_rank for g in gens):
            raise ValueError("generator dimension mismatch")
        gens = [g for g in gens if not la.is_zero_vec(g)]
        if lattice is None:
            lattice = la.identity(ambient_rank)
        else:
            lattice = la.mat(lattice)
            if any(len(row) != ambient_rank for row in lattice):
                raise ValueError("lattice basis rows must have length ambient_rank")
            if la.rank(lattice) != len(lattice):
                raise ValueError("lattice basis rows must be independent")
        self.ambient_rank = ambient_rank
        self.lattice = lattice

        # both coordinate solves are skipped when their basis is the identity
        coords = gens
        if lattice != la.identity(ambient_rank):
            coords = [la.lattice_coords(lattice, g) for g in gens]
            if None in coords:
                raise ValueError(f"generator {gens[coords.index(None)]} is not in the lattice")

        # restrict to the saturated span lattice inside L; a full-dimensional
        # cone keeps L's own basis so functionals stay in ambient coordinates
        if la.rank(coords) == len(lattice):
            span = la.identity(len(lattice))
            sub = coords
        else:
            span = la.saturation_basis(coords) if coords else ()
            sub = [la.lattice_coords(span, c) for c in coords]
            if None in sub:
                raise AssertionError("saturation failed to contain a generator")
        dim = len(span)
        # rows of span_basis are ambient vectors: a basis of L ∩ span(rays)
        self.span_basis = tuple(la.vec_mat(s, lattice) for s in span)
        self._gen_coords = tuple(sub)  # the nonzero generators on span_basis

        kept = list(dict.fromkeys(la.primitive(c) for c in sub))
        dual = _dual_extreme_rays(kept, dim)
        self._dual = dual
        tight = [frozenset(i for i, d in enumerate(dual) if la.dot(d, c) == 0) for c in kept]
        # the lineality space, the face on every facet, is spanned by the
        # generators in it; c spans an extreme ray of a pointed cone exactly
        # when no other generator lies on every facet that c lies on
        self.pointed = all(len(t) < len(dual) for t in tight)
        if self.pointed:
            kept = [c for c, t in zip(kept, tight) if sum(t <= u for u in tight) == 1]
        pairs = sorted((la.vec_mat(c, self.span_basis), c) for c in kept)
        self.rays = tuple(p[0] for p in pairs)
        self._coords = tuple(p[1] for p in pairs)

    # -- basic structure ----------------------------------------------------

    @property
    def dim(self):
        """Dimension of the linear span of the cone."""
        return len(self.span_basis)

    def facet_normals(self):
        """Facet normals in coordinates dual to ``span_basis`` rows."""
        self._require_pointed()
        return self._dual

    def _require_pointed(self):
        if not self.pointed:
            raise NonPointedError("cone contains a line")

    def __eq__(self, other):
        return (isinstance(other, Cone)
                and self.ambient_rank == other.ambient_rank
                and self.lattice == other.lattice
                and self.rays == other.rays)

    def __hash__(self):
        return hash((self.ambient_rank, self.lattice, self.rays))

    def __repr__(self):
        return f"Cone(rank={self.ambient_rank}, rays={list(self.rays)})"


def dual_cone(c):
    """Extreme rays of the dual cone as primitive functionals on c's lattice.

    The result is a Cone of ambient rank ``c.dim`` over the standard
    lattice; its rays are the facet normals of ``c`` written in the basis
    dual to ``c.span_basis``.  For a full-dimensional cone over the
    standard lattice these are honest integer covectors on ZZ^n.  Its facet
    normals are c's rays written on ``c.span_basis``: no double description.
    """
    c._require_pointed()
    if c.dim == 0:
        raise NonPointedError("dual of the zero cone is not pointed")
    d = object.__new__(Cone)
    d.ambient_rank, d.pointed = c.dim, True
    d.lattice = d.span_basis = la.identity(c.dim)
    d.rays = d._coords = d._gen_coords = c._dual
    d._dual = tuple(sorted(c._coords))
    return d


def cone_contains(c, v):
    """Exact membership of v in the rational cone spanned by c's rays."""
    c._require_pointed()
    v = la.vec(v)
    if len(v) != c.ambient_rank:
        raise ValueError("dimension mismatch")
    x = la.solve(la.transpose(c.span_basis), v)
    return x is not None and _inside(c._dual, x)


def _parallelepiped_points(rows, det, adj):
    """Nonzero lattice points of the half-open parallelepiped of ``rows``.

    ``rows`` are linearly independent integer vectors in ZZ^dim with
    dim == len(rows), and ``(det, adj)`` is their ``la.adjugate``; points x
    satisfy x = sum t_i rows_i, 0 <= t_i < 1.  The Hermite normal form of
    ``rows`` is upper triangular with a positive diagonal, so the box
    0 <= x_i < h_ii holds one point of each class modulo the row lattice;
    each is moved into the parallelepiped by subtracting floor(t_i) rows_i,
    where t = x . adj / det.
    """
    h, _u = la.hnf(rows)
    adj_cols = list(zip(*adj))
    row_cols = list(zip(*rows))
    points = []
    for x in itertools.product(*(range(h[i][i]) for i in range(len(rows)))):
        q = [sum(map(operator.mul, x, col)) // det for col in adj_cols]
        y = tuple([xj - sum(map(operator.mul, q, col)) for xj, col in zip(x, row_cols)])
        if any(y):
            points.append(y)
    return points


def _pulling_triangulation(rays, dual):
    return list(_pulling_simplices(rays, dual))


def _pulling_simplices(rays, dual):
    """Simplices of the pulling triangulation of a full-dimensional pointed
    cone, yielded one at a time as sorted tuples of indices into ``rays``
    (its extreme rays; the rows of ``dual`` are its facet normals).

    A face F is triangulated by pulling its lowest-index ray v: v is coned
    over the simplices of every facet of F that misses v.  The facets of F
    are the maximal sets F ∩ tight(d) over the facets d with F ⊄ tight(d),
    and a face with as many rays as its rank is a simplex.  Each face is
    pulled at its own lowest ray, so a face shared by two facets is
    triangulated alike in both and the simplices fit together
    (De Loera-Rambau-Santos, *Triangulations*, 2010, section 4.3).
    """
    tight = [frozenset(i for i, r in enumerate(rays) if la.dot(d, r) == 0) for d in dual]
    return _pull(frozenset(range(len(rays))), len(rays[0]), tight, {})


def _pull(face, rank, tight, done):
    """Yield the simplices of ``face``; ``done`` keeps those of each face
    pulled to the end, for the faces shared by several facets."""
    if len(face) == rank:
        yield tuple(sorted(face))
    elif face in done:
        yield from done[face]
    else:
        v = min(face)
        faces = {face & t for t in tight if not face <= t}
        facets = [g for g in faces if v not in g and not any(g < h for h in faces)]
        out = []
        for g in sorted(facets, key=sorted):
            for s in _pull(g, rank - 1, tight, done):
                out.append((v, *s))
                yield out[-1]
        done[face] = out


def hilbert_basis(c):
    """Minimal generating set of ``cone ∩ L`` (ambient vectors, sorted).

    Candidates are the rays and the half-open parallelepiped points of the
    simplices of one pulling triangulation (they cover the cone, so by
    Caratheodory every irreducible element is among them).  Each candidate
    x is read by its facet values v(x) = (d.x for each facet normal d):
    x - h lies in the cone exactly when v(x) >= v(h) componentwise, so the
    reduction to irreducible elements compares values only, each x with
    the basis elements of value sum at most half of x's.  The result is
    kept on the cone.  Simplices come in one at a time, and past
    ``_VOLUME_CAP`` summed simplex volumes it raises ValueError before
    building the next simplex or walking any box.
    """
    c._require_pointed()
    if c._hilbert is not None:
        return c._hilbert
    coords, dual = c._coords, c._dual
    if not coords:
        return ()
    boxes, volume = [], 0
    for rows in ([coords[i] for i in s] for s in _pulling_simplices(coords, dual)):
        boxes.append((rows, *la.adjugate(rows)))
        volume += abs(boxes[-1][1])
        if volume > _VOLUME_CAP:
            raise ValueError("Hilbert basis candidate space too large")
    candidates = set(coords)
    for box in boxes:
        candidates.update(_parallelepiped_points(*box))
    values = {x: [sum(map(operator.mul, d, x)) for d in dual] for x in candidates}
    # the value sum is additive and positive on the nonzero points of the
    # pointed cone, so a reducible x = y + z has an irreducible summand h of
    # sum at most sum(v(x)) // 2, accepted before x as candidates come in
    # increasing sum: reducing against that prefix of the basis is exact
    basis, sums = [], []
    for s, x, v in sorted((sum(v), x, v) for x, v in values.items()):
        prefix = itertools.islice(basis, bisect.bisect_right(sums, s // 2))
        if not any(all(map(operator.ge, v, h)) for h, _b in prefix):
            basis.append((v, x))
            sums.append(s)
    c._hilbert = tuple(sorted(la.vec_mat(b, c.span_basis) for _v, b in basis))
    return c._hilbert
