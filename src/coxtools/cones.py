"""Rational polyhedral cones over an explicit ambient lattice.

A :class:`Cone` is given by generator vectors inside a lattice ``L``
(rows of ``lattice`` form a basis of ``L`` inside ZZ^ambient_rank; the
default is the full integer lattice).  Construction canonicalizes: rays
are made primitive with respect to ``L``, deduplicated, reduced to the
extreme rays, and sorted lexicographically.

All cone computations happen in coordinates of the saturated sublattice
``L ∩ span(rays)``, so non-full-dimensional input is handled by
restricting to its span first.  Facet normals are computed with the
double description method using exact integer pivots.  Hilbert bases
come from the parallelepipeds of one pulling triangulation, built from
the facets' tight sets, and are reduced by comparing facet values.
"""

import functools
import itertools
import operator

from . import intlinalg as la


class NonPointedError(ValueError):
    """The cone contains a line where a pointed cone was required."""


class NotFullDimensionalError(ValueError):
    """The cone does not span its ambient lattice."""


_MAX_RANK = 8


def _inside(dual, x):
    """Is x in the cone {x : d.x >= 0 for every row d of ``dual``}?"""
    return all(la.dot(d, x) >= 0 for d in dual)


def _is_extreme(r, normals, dim):
    """Is r tight on dim - 1 independent normals (an extreme ray)?"""
    return la.rank([n for n in normals if la.dot(n, r) == 0]) == dim - 1


def _dual_extreme_rays(normals, dim):
    """Extreme rays of {x : n.x >= 0 for all n}, assuming the normals span.

    Incremental double description: seed with a simplicial cone cut out
    by ``dim`` independent normals, then clip by the remaining halfspaces,
    keeping only extreme rays (tight-set rank dim-1) after each step.
    """
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
            if _is_extreme(r, processed, dim):
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


class Cone:
    """Pointedness-aware rational cone with canonical extreme rays."""

    def __init__(self, ambient_rank, generators, lattice=None):
        ambient_rank = int(ambient_rank)
        if ambient_rank < 1 or ambient_rank > _MAX_RANK:
            raise ValueError(f"ambient rank must be in 1..{_MAX_RANK}")
        gens = [la.vec(g) for g in generators]
        if any(len(g) != ambient_rank for g in gens):
            raise ValueError("generator dimension mismatch")
        gens = [g for g in gens if not la.is_zero_vec(g)]
        if lattice is None:
            lattice = la.identity(ambient_rank)
        else:
            lattice = la.mat(lattice)
            if la.rank(lattice) != len(lattice):
                raise ValueError("lattice basis rows must be independent")
        self.ambient_rank = ambient_rank
        self.lattice = lattice

        if not gens:
            self.rays = ()
            self.span_basis = ()
            self._coords = ()
            self._dual = ()
            self.pointed = True
            return

        coords = []
        for g in gens:
            c = la.lattice_coords(lattice, g)
            if c is None:
                raise ValueError(f"generator {g} is not in the lattice")
            coords.append(c)

        # restrict to the saturated span lattice inside L; a full-dimensional
        # cone keeps L's own basis so functionals stay in ambient coordinates
        if la.rank(coords) == len(lattice):
            span = la.identity(len(lattice))
        else:
            span = la.saturation_basis(coords)
        sub = []
        for c in coords:
            cc = la.lattice_coords(span, c)
            if cc is None:
                raise AssertionError("saturation failed to contain a generator")
            sub.append(la.primitive(cc))
        dim = len(span)
        # rows of span_basis are ambient vectors: a basis of L ∩ span(rays)
        self.span_basis = tuple(la.vec_mat(s, lattice) for s in span)

        normals = list(dict.fromkeys(sub))
        dual = _dual_extreme_rays(normals, dim)
        self.pointed = la.rank(dual) == dim if dual else dim == 0
        self._dual = dual

        kept = [c for c in dict.fromkeys(sub) if not self.pointed or _is_extreme(c, dual, dim)]
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

    def __repr__(self):
        return f"Cone(rank={self.ambient_rank}, rays={list(self.rays)})"


def dual_cone(c):
    """Extreme rays of the dual cone as primitive functionals on c's lattice.

    The result is a Cone of ambient rank ``c.dim`` over the standard
    lattice; its rays are the facet normals of ``c`` written in the basis
    dual to ``c.span_basis``.  For a full-dimensional cone over the
    standard lattice these are honest integer covectors on ZZ^n.
    """
    c._require_pointed()
    if c.dim == 0:
        raise NonPointedError("dual of the zero cone is not pointed")
    return Cone(c.dim, c._dual)


def cone_contains(c, v):
    """Exact membership of v in the rational cone spanned by c's rays."""
    c._require_pointed()
    v = la.vec(v)
    if len(v) != c.ambient_rank:
        raise ValueError("dimension mismatch")
    if not c.rays:
        return la.is_zero_vec(v)
    x = la.solve(la.transpose(c.span_basis), v)
    return x is not None and _inside(c._dual, x)


def _parallelepiped_points(rows):
    """Nonzero lattice points of the half-open parallelepiped of ``rows``.

    ``rows`` are linearly independent integer vectors in ZZ^dim with
    dim == len(rows); points x satisfy
    x = sum t_i rows_i, 0 <= t_i < 1.  The Hermite normal form of
    ``rows`` is upper triangular with a positive diagonal, so the box
    0 <= x_i < h_ii holds one point of each class modulo the row lattice;
    each is moved into the parallelepiped by subtracting floor(t_i) rows_i,
    where t = x . adj / det with the integral adjugate adj = det rows^{-1}.
    """
    h, _u = la.hnf(rows)
    det, adj = la.adjugate(rows)
    points = []
    for x in itertools.product(*(range(h[i][i]) for i in range(len(rows)))):
        for i, ti in enumerate(la.vec_mat(x, adj)):
            q = ti // det
            if q:
                x = la.vec_sub(x, la.vec_scale(rows[i], q))
        if not la.is_zero_vec(x):
            points.append(x)
    return points


def _pulling_triangulation(rays, dual):
    """Simplices of the pulling triangulation of a full-dimensional pointed
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


def hilbert_basis(c):
    """Minimal generating set of ``cone ∩ L`` (ambient vectors, sorted).

    Candidates are the rays and the half-open parallelepiped points of the
    simplices of one pulling triangulation (they cover the cone, so by
    Caratheodory every irreducible element is among them).  Each candidate
    x is read by its facet values v(x) = (d.x for each facet normal d):
    x - h lies in the cone exactly when v(x) >= v(h) componentwise, so the
    reduction to irreducible elements compares values only.
    """
    c._require_pointed()
    coords = c._coords
    if c.dim == 0 or not coords:
        return ()
    candidates = set(coords)
    for simplex in _pulling_triangulation(coords, c._dual):
        candidates.update(_parallelepiped_points([coords[i] for i in simplex]))
    # the sum of the facet values is positive on the nonzero points of the
    # pointed cone, so a reducible x = y + z has an irreducible summand of
    # smaller sum, accepted before x: reducing against the basis so far is exact
    values = {x: tuple([la.dot(d, x) for d in c._dual]) for x in candidates}
    basis, basis_values = [], []
    for x in sorted(candidates, key=lambda x: (sum(values[x]), x)):
        v = values[x]
        if not any(all(map(operator.ge, v, h)) for h in basis_values):
            basis.append(x)
            basis_values.append(v)
    return tuple(sorted(la.vec_mat(b, c.span_basis) for b in basis))
