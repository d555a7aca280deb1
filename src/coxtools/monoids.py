"""Affine monoids, divisor theories, and embedding extension.

An affine monoid is given by generator vectors in an integer lattice.
Its *divisor theory* is the embedding into a free commutative monoid
ZZ^r_{>=0} whose coordinates are the primitive functionals on the edges
of the dual cone; it exists exactly when the monoid is saturated (equal
to the lattice points of its own cone).

``extend_embedding`` takes another embedding ``alpha`` of the monoid
into a free monoid and either extends it to the divisor theory or
returns a finite witness violating one of the two extension conditions:

  (*)  whenever alpha(a) = alpha(b) + s with s in the free monoid,
       s must itself be an alpha-image;
  (**) a subset with no common divisor in the divisor theory must have
       no common prime in the target.

Both are decided exactly, as is ``verify_divisor_axioms``, which only
echoes its ``depth``.  For a saturated monoid M = cone ∩ G each
condition is a linear test on the facet functionals, and a witness is
read off the first extreme ray of a cone that fails it.
"""

from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from math import gcd, lcm
from operator import mul

from . import intlinalg as la
from .cones import (Cone, NonPointedError, _dual_extreme_rays, _inside, _int_rank, cone_contains,
                    hilbert_basis)
from .errors import NotSaturatedError


class AffineMonoid:
    """Finitely generated submonoid of ZZ^n with a pointed cone.

    ``group_basis`` rows span the monoid's group: by default the integer
    span of the generators, but a larger ambient group may be supplied
    (saturation is always judged inside ``group_basis``'s lattice).
    """

    def __init__(self, ambient_rank, generators, group_basis=None):
        self.ambient_rank = _int_rank(ambient_rank)
        gens = tuple(la.vec(g) for g in generators)
        if not gens:
            raise ValueError("a monoid needs at least one generator")
        if any(len(g) != self.ambient_rank for g in gens):
            raise ValueError("generator dimension mismatch")
        if any(la.is_zero_vec(g) for g in gens):
            raise ValueError("zero generator")
        self.generators = gens
        # Cone checks the basis rows' independence and each generator's membership
        self.group_basis = _generated_group(gens) if group_basis is None else la.mat(group_basis)
        self.cone = Cone(self.ambient_rank, gens, lattice=self.group_basis)
        if not self.cone.pointed:
            raise NonPointedError("monoid has nontrivial units (cone is not pointed)")
        self._gen_coords = self.cone._gen_coords

    def contains(self, v):
        """Exact membership: is v a nonnegative integer combination of
        the generators?  Decided by depth-first search pruned by cone
        membership; the strictly positive facet-sum functional bounds
        the search."""
        target = la.lattice_coords(self.cone.span_basis, la.vec(v))
        dual = self.cone.facet_normals()

        # termination: subtracting a generator strictly decreases the sum
        # of all facet values, which stays nonnegative inside the cone
        in_cone = partial(_inside, dual)
        return target is not None and in_cone(target) and _represents(
            target, self._gen_coords, in_cone)


def _generated_group(gens):
    """Basis of the group the generators span: the nonzero rows of their
    Hermite normal form."""
    return tuple(r for r in la.hnf(gens)[0] if not la.is_zero_vec(r))


def _represents(t, vectors, inside):
    """Is t a nonnegative integer combination of ``vectors``?

    Depth-first subtraction on an explicit stack, each remainder visited
    once.  ``inside`` must hold on every such combination; remainders
    failing it are pruned, and the caller guarantees finitely many pass.
    """
    if la.is_zero_vec(t):
        return True
    seen = {t}
    stack = [t]
    while stack:
        t = stack.pop()
        # pushed in reverse, so the first vector is subtracted first
        for v in reversed(vectors):
            rest = la.vec_sub(t, v)
            if rest not in seen and inside(rest):
                if la.is_zero_vec(rest):
                    return True
                seen.add(rest)
                stack.append(rest)
    return False


def is_saturated(m):
    """(True, None) if the monoid equals the lattice points of its cone,
    else (False, witness) with the first Hilbert basis element that is
    not a generator.  A Hilbert basis element is irreducible among the
    cone's lattice points, which contain the generators, so it is a
    generator combination exactly when it is a generator."""
    gens = set(m.generators)
    witness = next((h for h in hilbert_basis(m.cone) if h not in gens), None)
    return witness is None, witness


class DivisorTheory:
    """An embedding of a monoid into ZZ^r_{>=0} by integer functionals.

    ``functionals`` rows are written in the basis dual to ``lattice_basis``
    rows (the monoid's group: its cone's ``span_basis``).  Rows produced by
    :func:`divisor_theory` are primitive, pairwise distinct, and are the
    edge generators of the dual cone in canonical (lexicographic) order.
    Hand-built instances may violate primitivity; only nonnegativity on
    the generators and full rank are enforced here, so that defective
    embeddings can be fed to :func:`verify_divisor_axioms`.
    """

    def __init__(self, monoid, functionals):
        self.monoid = monoid
        self.lattice_basis = monoid.cone.span_basis
        self.functionals = la.mat(functionals)
        k = len(self.lattice_basis)
        if any(len(row) != k for row in self.functionals):
            raise ValueError("functional row length must match the group rank")
        if la.rank(self.functionals) != k:
            raise ValueError("functionals must have full rank (injective embedding)")
        self._images = tuple(tuple(la.dot(f, c) for f in self.functionals)
                             for c in monoid._gen_coords)
        if any(x < 0 for im in self._images for x in im):
            raise ValueError("a generator has a negative image coordinate")

    @classmethod
    def from_ambient_functionals(cls, monoid, rows):
        """Build from integer covectors on the ambient lattice."""
        basis = monoid.cone.span_basis
        return cls(monoid, tuple(tuple(la.dot(row, b) for b in basis) for row in rows))

    @property
    def free_rank(self):
        return len(self.functionals)

    def image(self, v):
        """Image of a group element in ZZ^r."""
        c = la.lattice_coords(self.lattice_basis, v)
        if c is None:
            raise ValueError(f"{v} is not in the monoid's group")
        return tuple(la.dot(f, c) for f in self.functionals)

    def generator_images(self):
        return self._images

    def preimage(self, d):
        """The group element mapping to d, or None (the embedding is
        injective on the group, so a preimage is unique)."""
        sol = la.lattice_coords(la.transpose(self.functionals), d)
        return None if sol is None else la.vec_mat(sol, self.lattice_basis)

    def class_group(self):
        """Invariant factors of (free monoid group) / (monoid group):
        the cokernel of the embedding on groups.  Returns (free_rank, torsion)."""
        return la.cokernel(self.functionals)[:2]

    def ambient_functionals(self):
        """Rational covector representatives on the ambient space.

        Unique when the group is full-dimensional; otherwise the
        representative vanishing on the orthogonal complement of the
        group's span is chosen.
        """
        return _span_covectors(self.lattice_basis, self.functionals)


def _span_covectors(basis, values):
    """For each row v of ``values``, the rational covector in the row span
    of ``basis`` whose pairing with basis row i is v_i: lam . basis with
    lam = v . (basis basis^T)^{-1}."""
    ginv = la.inverse_frac(la.mat_mul(basis, la.transpose(basis)))
    return tuple(la.vec_mat(la.vec_mat(v, ginv), basis) for v in values)


def divisor_theory(m):
    """The canonical divisor theory of a saturated affine monoid.

    Functionals are the primitive generators of the dual cone's edges,
    written on the monoid's group and ordered lexicographically.
    Raises NotSaturatedError (with witness) when none exists.
    """
    sat, witness = is_saturated(m)
    if not sat:
        raise NotSaturatedError(witness)
    return DivisorTheory(m, m.cone.facet_normals())


# ---------------------------------------------------------------------------
# Axiom verification (exact; no enumeration).
# ---------------------------------------------------------------------------

def _first_point_outside(m, functionals, basis):
    """The first point of m's group on the first extreme ray of
    {x : F.x >= 0} that lies outside m's cone, or None if there is none.
    F is ``functionals`` on the rows of ``basis`` and must have full rank."""
    rays = (la.vec_mat(ray, basis) for ray in _dual_extreme_rays(functionals, len(basis)))
    x = next((v for v in rays if not cone_contains(m.cone, v)), None)
    if x is None:
        return None
    coords = la.solve(la.transpose(m.group_basis), x)
    return la.vec_scale(x, lcm(*(c.denominator for c in coords)))


@dataclass(frozen=True)
class AxiomReport:
    ok: bool
    failed_axiom: int = 0
    witness: tuple = ()
    depth: int = 0


def verify_divisor_axioms(dt, depth):
    """Exact check of the two divisor-theory axioms for tau = ``dt``.

    Axiom 1: if tau(a) = tau(b) + c with c in the free monoid, c is a
    tau-image; tau being injective, every x in the generators' group
    G = M - M with tau(x) >= 0 lies in M.  It holds exactly when the
    extreme rays of {tau >= 0} lie in M's cone (a multiple of each ray
    is in G) and M is saturated in G.  A failure is reported as
    (x, tau(x)): x is the first point of G on the first ray outside M's
    cone, else the saturation witness.

    Axiom 2: distinct d in the free monoid have distinct divisibility
    sets {a in M : tau(a) >= d}.  Given axiom 1 it holds exactly when,
    for every coordinate j, the images vanishing at j cover every other
    coordinate and the j-th entries of the images have gcd 1.  If i is
    left uncovered, e_i and e_i + e_j have the same divisibility set,
    reported as (e_i, e_i + e_j); if the gcd g is not 1, so do e_j and
    g e_j (reported with 2 e_j for g = 0).  Conversely, let d_j < d'_j.
    Axiom 1 gives tau(M) = tau(G) ∩ ZZ^r_{>=0}, the gcd an x0 in G with
    tau(x0)_j = d_j, and x0 plus N times the generators vanishing at j
    is, for large N, divisible by d but not by d'.  ``depth`` is only echoed.
    """
    # axiom 1 ranges over M - M, which may be smaller than the monoid's group
    m = dt.monoid
    own = m if m.group_basis == _generated_group(m.generators) else AffineMonoid(
        m.ambient_rank, m.generators)
    x = _first_point_outside(own, dt.functionals, dt.lattice_basis)
    if x is None:
        _sat, x = is_saturated(own)
    if x is not None:
        return AxiomReport(False, 1, (x, dt.image(x)), depth)
    images = dt.generator_images()
    unit = la.identity(dt.free_rank)
    for j in range(dt.free_rank):
        zero_at_j = [im for im in images if im[j] == 0]
        for i in range(dt.free_rank):
            if i != j and not any(im[i] for im in zero_at_j):
                both = tuple(x + y for x, y in zip(unit[i], unit[j]))
                return AxiomReport(False, 2, (unit[i], both), depth)
        g = gcd(*(im[j] for im in images))
        if g != 1:
            return AxiomReport(False, 2, (unit[j], la.vec_scale(unit[j], g or 2)), depth)
    return AxiomReport(True, 0, (), depth)


# ---------------------------------------------------------------------------
# Embedding extension (conditions (*) and (**)).
# ---------------------------------------------------------------------------

class MonoidHom:
    """Linear map into the exponent lattice of a free monoid.

    Entries may be rational: a monoid map defined on the monoid's group
    need not extend integrally to the ambient lattice.  Images of actual
    group elements must come out integral; ``image`` enforces that.  The
    map is kept as one integer matrix over the common denominator of
    ``matrix``, so an image is integer dot products, each divided once.
    """

    def __init__(self, matrix):
        self.matrix = tuple(tuple(Fraction(x) for x in row) for row in matrix)
        if not self.matrix:
            raise ValueError("empty matrix")
        if any(len(row) != len(self.matrix[0]) for row in self.matrix):
            raise ValueError("matrix rows must have equal length")
        self.target_rank = len(self.matrix)
        self._den = lcm(*(x.denominator for row in self.matrix for x in row))
        self._num = tuple(tuple([x.numerator * (self._den // x.denominator) for x in row])
                          for row in self.matrix)

    @classmethod
    def from_generator_images(cls, monoid, images):
        """Rational matrix sending each generator to its given image
        (vanishing on the orthogonal complement of the group's span).
        Row r solves ``_gen_coords . y == (entry r of each image)`` on the
        span coordinates, whose full column rank makes y unique; raises if
        the images are inconsistent with generator relations.
        """
        images = [la.vec(i) for i in images]
        if len(images) != len(monoid.generators):
            raise ValueError("one image per generator required")
        if any(len(im) != len(images[0]) for im in images):
            raise ValueError("generator images must have equal lengths")
        rows = [la.solve(monoid._gen_coords, col) for col in zip(*images)]
        if None in rows:
            raise ValueError("images are inconsistent with generator relations")
        return cls(_span_covectors(monoid.cone.span_basis, rows))

    def image(self, v):
        if len(v) != len(self.matrix[0]):
            raise ValueError(f"vector of length {len(v)} for a map of width {len(self.matrix[0])}")
        out = [divmod(sum(map(mul, row, v)), self._den) for row in self._num]
        if any(r for _, r in out):
            raise ValueError(f"image of {tuple(v)} is not integral")
        return tuple(q for q, _ in out)


@dataclass(frozen=True)
class Beta:
    """Unique extension of alpha to the divisor theory: a nonnegative
    integer matrix with Beta . (tau images) == (alpha images)."""

    matrix: tuple


@dataclass(frozen=True)
class ViolationStar:
    """alpha(a) = alpha(b) + s but s has no alpha-preimage."""

    a: tuple
    b: tuple
    s: tuple


@dataclass(frozen=True)
class ViolationStarStar:
    """witness_set (divisor-theory images) is coprime in the divisor
    theory but every member's alpha-image shares the common prime.
    ``common_prime_index`` is 1-based, matching prime numbering."""

    witness_set: tuple
    common_prime_index: int


@dataclass(frozen=True)
class NotAnEmbedding:
    """Two distinct monoid elements with equal alpha-images."""

    a: tuple
    b: tuple


def _lift(dt, x):
    """(x + b, b) for the first generator b that puts x + b in the monoid,
    else for the least positive multiple b of the generators' sum that
    does.  ``dt`` is a canonical divisor theory: membership is tau >= 0."""
    t = dt.image(x)
    gens, images = dt.monoid.generators, dt.generator_images()
    b = next((g for g, im in zip(gens, images) if all(u + v >= 0 for u, v in zip(t, im))), None)
    if b is None:
        # x is outside the monoid, so some tau_j(x) < 0 and n >= 1; the
        # sum's images are positive, as every facet misses a generator
        n = max(-(u // v) for u, v in zip(t, map(sum, zip(*images))))
        b = tuple(n * sum(col) for col in zip(*gens))
    return tuple(u + v for u, v in zip(x, b)), b


def extend_embedding(dt, alpha):
    """Extend ``alpha`` through the divisor theory, or find a violation.

    ``dt`` must be a divisor theory as :func:`divisor_theory` returns it:
    the monoid is M = cone ∩ G for its group G, and tau lists the cone's
    primitive facet functionals.  A is alpha on the rows of
    ``dt.lattice_basis``.  Every check is exact; in order:

    - a generator with image zero is reported with the unit.
    - injectivity: alpha is injective on M exactly when it is on G, when
      A has no kernel.  Else x is the primitive kernel element of the
      first nullspace vector, reported as (x + b, b) with b the first
      generator that puts x + b in M, else the least positive multiple
      of the generators' sum that does.
    - (*): alpha being injective, alpha(a) - alpha(b) = alpha(a - b), so
      (*) says that every x in G with A x >= 0 lies in M: the extreme rays
      of {A y >= 0} lie in M's cone.  Else x is the first point of G on
      the first ray outside, reported as (x + b, b, alpha(x)) with b as
      above.
    - (**): each row of A is nonnegative on M's cone.  The elements it
      makes positive share a prime of the divisor theory exactly when the
      row is a multiple of some tau_j.  Else no facet lies in the row's
      zero face, and as each facet is spanned by generators, the
      generators the row makes positive are coprime.
    - otherwise row p of A is c tau_j, and the extension has beta[p][j] = c.
    """
    if len(alpha.matrix[0]) != dt.monoid.ambient_rank:
        raise ValueError("alpha's row length must match the monoid's ambient rank")
    gens, gen_images = dt.monoid.generators, []
    for g in gens:
        gen_images.append(alpha.image(g))
        if not any(gen_images[-1]):
            return NotAnEmbedding(g, (0,) * dt.monoid.ambient_rank)
        if min(gen_images[-1]) < 0:
            raise ValueError("alpha must map generators into the free monoid")

    basis = dt.lattice_basis
    rows = la.transpose([alpha.image(b) for b in basis])
    kernel = la.nullspace(rows)
    if kernel:
        y = kernel[0]
        d = lcm(*(c.denominator for c in y))
        return NotAnEmbedding(*_lift(dt, la.vec_mat(la.primitive([int(c * d) for c in y]), basis)))
    x = _first_point_outside(dt.monoid, rows, basis)
    if x is not None:
        return ViolationStar(*_lift(dt, x), alpha.image(x))

    beta = [[0] * dt.free_rank for _ in rows]
    for p, row in enumerate(rows):
        if la.is_zero_vec(row):
            continue
        tau = la.primitive(row)
        if tau not in dt.functionals:
            return ViolationStarStar(tuple(dict.fromkeys(
                im for a, im in zip(gen_images, dt.generator_images()) if a[p] > 0)), p + 1)
        beta[p][dt.functionals.index(tau)] = la.vec_gcd(row)
    return Beta(la.mat(beta))
