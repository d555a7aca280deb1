"""Gradings by finitely generated abelian groups and graded endomorphisms.

A grading group is ZZ^a + ZZ/d1 + ... + ZZ/dt with d1 | d2 | ... ; group
elements are (free tuple, torsion residue tuple).  A graded ring fixes a
degree for every polynomial variable.  Endomorphisms given by variable
images are *graded* when every image is homogeneous; they *normalize*
the grading when the induced degree assignment extends to a group
automorphism, and *preserve* it when that automorphism is the identity.

The wildness machinery at the bottom follows the linear-part replacement
argument: freeze the last two quadric variables, compare the frozen
composition with the two-shear map it should equal, and certify the
contradiction through the Jacobian determinant.
"""

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

from . import intlinalg as la
from .polynomials import (Poly, PolyMap, compose, compose_chain, jacobian,
                          poly_det, in_ideal_power)


class NotHomogeneousError(ValueError):
    """A polynomial mixes two distinct degrees; carries witness terms."""

    def __init__(self, term1, term2):
        super().__init__(f"terms {term1} and {term2} have different degrees")
        self.witnesses = (term1, term2)


class ImagesNotHomogeneousError(ValueError):
    def __init__(self, variable):
        super().__init__(f"image of variable {variable} is not homogeneous")
        self.variable = variable


class DependsOnTargetError(ValueError):
    pass


class NotHomogeneousShearError(ValueError):
    pass


class SingularLinearError(ValueError):
    pass


class NotElementaryError(ValueError):
    pass


class ZeroDegree:
    """Sentinel degree of the zero polynomial (homogeneous of every degree)."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self):
        return "ZERO_DEGREE"


ZERO_DEGREE = ZeroDegree()


@dataclass(frozen=True)
class GroupElem:
    free: tuple
    torsion: tuple


@dataclass(frozen=True)
class AbGroup:
    """ZZ^free_rank + sum of ZZ/d with the d's a divisibility chain."""

    free_rank: int
    torsion: tuple = ()

    def __post_init__(self):
        object.__setattr__(self, "torsion", tuple(int(d) for d in self.torsion))
        if any(d < 2 for d in self.torsion):
            raise ValueError("torsion orders must be >= 2")
        for a, b in zip(self.torsion, self.torsion[1:]):
            if b % a != 0:
                raise ValueError("torsion orders must form a divisibility chain")

    def element(self, free=(), torsion=()):
        free = tuple(int(x) for x in free)
        torsion = tuple(int(x) for x in torsion)
        if len(free) != self.free_rank or len(torsion) != len(self.torsion):
            raise ValueError("element shape mismatch")
        return GroupElem(free, tuple(r % d for r, d in zip(torsion, self.torsion)))

    def zero(self):
        return GroupElem((0,) * self.free_rank, (0,) * len(self.torsion))

    def combination(self, coeffs, elems):
        """The reduced element sum k_i * x_i over paired ``coeffs`` and ``elems``."""
        free, tors = [0] * self.free_rank, [0] * len(self.torsion)
        for k, x in zip(coeffs, elems):
            if k:
                for j, v in enumerate(x.free):
                    free[j] += k * v
                for j, v in enumerate(x.torsion):
                    tors[j] += k * v
        return GroupElem(tuple(free), tuple([r % d for r, d in zip(tors, self.torsion)]))

    @property
    def torsion_order(self):
        n = 1
        for d in self.torsion:
            n *= d
        return n


@dataclass(frozen=True)
class DegreeEndo:
    """Endomorphism of an AbGroup: free matrix, free-to-torsion and
    torsion-to-torsion residue matrices (torsion never maps to free)."""

    group: AbGroup
    free_matrix: tuple
    mixed: tuple
    torsion_matrix: tuple


@dataclass(frozen=True)
class GradedRing:
    group: AbGroup
    var_degrees: tuple

    def __post_init__(self):
        object.__setattr__(self, "var_degrees", tuple(self.var_degrees))

    @property
    def num_vars(self):
        return len(self.var_degrees)


def degree_of(p, ring):
    """Common degree of all terms, ZERO_DEGREE for 0, or raise."""
    if p.num_vars != ring.num_vars:
        raise ValueError("variable count mismatch")
    if p.is_zero():
        return ZERO_DEGREE
    combination, var_degrees = ring.group.combination, ring.var_degrees
    terms = sorted(p.terms)
    deg = combination(terms[0], var_degrees)
    for e in terms[1:]:
        if combination(e, var_degrees) != deg:
            raise NotHomogeneousError(terms[0], e)
    return deg


class GradedEndo:
    """Endomorphism of a graded polynomial ring by homogeneous images;
    ``image_degrees`` holds each image's degree (ZERO_DEGREE for 0)."""

    def __init__(self, ring, polymap, elementary=None):
        if polymap.source_vars != ring.num_vars or polymap.target_vars != ring.num_vars:
            raise ValueError("map must be an endomorphism of the ring's variables")
        self.ring = ring
        self.map = polymap
        self.elementary = elementary
        degrees = []
        for i, img in enumerate(polymap.images):
            try:
                degrees.append(degree_of(img, ring))
            except NotHomogeneousError:
                raise ImagesNotHomogeneousError(i) from None
        self.image_degrees = tuple(degrees)

    @classmethod
    def _trusted(cls, ring, polymap, image_degrees, elementary=None):
        """A GradedEndo with ``image_degrees`` as given: the caller vouches
        that ``polymap`` is an endomorphism of the ring's variables and that
        each image is homogeneous of its listed degree (ZERO_DEGREE for 0)."""
        e = object.__new__(cls)
        e.ring, e.map, e.elementary, e.image_degrees = ring, polymap, elementary, image_degrees
        return e

    def __eq__(self, other):
        return (isinstance(other, GradedEndo) and self.ring == other.ring
                and self.map == other.map)

    def __repr__(self):
        return f"GradedEndo({[p.render() for p in self.map.images]})"


@dataclass(frozen=True)
class NormalizationResult:
    kind: str  # "preserves" | "normalizes" | "neither"
    phi0: DegreeEndo = None


_CANDIDATE_CAP = 20000


def _free_block(a, pairs):
    """Decide the free block: an a x a integer F with F.u == w on the free
    parts of the pairs (source GroupElem u, target GroupElem w).

    Returns None when no integer F exists, False when integer F exist but
    none is unimodular, and a unimodular F otherwise.  Let A and W have the
    free parts of the sources and targets as columns, P.A.Q = S the Smith
    form and r its rank.  For X = F.P^-1, F.A == W reads X.S == W.Q, so an
    integer F exists exactly when s_j divides column j of W.Q for j < r and
    the columns from r on vanish; X is unimodular exactly when F is, and its
    first r columns C = (column j of W.Q) / s_j are fixed.  C extends to a
    unimodular X exactly when every invariant factor of C is 1: with
    P2.C.Q2 = S2, X = P2^-1.diag(Q2^-1, I) has first columns C.
    """
    if a == 0:
        return ()
    s, p, q = la.snf([[u.free[i] for u, _ in pairs] for i in range(a)])
    wq = la.mat_mul([[w.free[i] for _, w in pairs] for i in range(a)], q)
    diag = [s[j][j] for j in range(min(a, len(pairs))) if s[j][j]]
    r = len(diag)
    if any(x % diag[j] if j < r else x for row in wq for j, x in enumerate(row)):
        return None
    s2, p2, q2 = la.snf([[x // d for x, d in zip(row, diag)] for row in wq])
    if any(s2[j][j] != 1 for j in range(r)):
        return False
    completion = [row + (0,) * (a - r) for row in la.inverse_int(q2)] + list(la.identity(a)[r:])
    return la.mat_mul(la.mat_mul(la.inverse_int(p2), completion), p)


def _torsion_bijective(torsion, tm):
    """A homomorphism T of ZZ/d_1 + ... + ZZ/d_t is bijective exactly when
    it is onto, that is when the cokernel of [T | diag(d)] is trivial."""
    t = len(torsion)
    return not t or la.cokernel([row + tuple([d if j == i else 0 for j in range(t)])
                                 for i, (row, d) in enumerate(zip(tm, torsion))])[:2] == (0, ())


def _degree_automorphism(group, pairs):
    """The first group automorphism phi0 with phi0(u) == w on every pair, or None.

    phi0 is an automorphism exactly when its free block F is unimodular and
    its torsion block T bijective.  F is constrained only by the free parts
    of the pairs and the blocks (M, T) only by the torsion parts, so the two
    halves are decided apart, the free half first and exactly (``_free_block``).
    Row i of (M | T) lives mod d_i and meets only the i-th torsion coordinates
    of the pairs, and T[i][j] * d_j == 0 mod d_i exactly when d_i / gcd(d_i, d_j)
    divides T[i][j].  So each row's solutions are listed once, in ascending
    order, and their product is walked for the first bijective T: the walk is
    the row-major order of all blocks (M, T), so phi0 is the first match in it.
    Before the walk, None is returned when a row has no candidate, or when a
    torsion column j is 0 mod d_i in every candidate of every row i: then
    T.e_j == 0 for every block, and no T is bijective.
    ValueError means more than ``_CANDIDATE_CAP`` row candidates or matching blocks.
    """
    a, torsion = group.free_rank, group.torsion
    fm = _free_block(a, pairs)
    if fm is None or fm is False:
        return None
    ranges = [[range(d)] * a + [range(0, d, d // math.gcd(d, e)) for e in torsion] for d in torsion]
    if sum(math.prod(map(len, rng)) for rng in ranges) > _CANDIDATE_CAP:
        raise ValueError("torsion search space too large")
    rows = [[r for r in itertools.product(*rng)
             if all((la.dot(r, u.free + u.torsion) - w.torsion[i]) % d == 0 for u, w in pairs)]
            for i, (d, rng) in enumerate(zip(torsion, ranges))]
    if not all(rows) or any(all(r[a + j] % d == 0 for d, row in zip(torsion, rows) for r in row)
                            for j in range(len(torsion))):
        return None
    if math.prod(map(len, rows)) > _CANDIDATE_CAP:
        raise ValueError("torsion search space too large")
    for block in itertools.product(*rows):
        tm = tuple(r[a:] for r in block)
        if _torsion_bijective(torsion, tm):
            return DegreeEndo(group, fm, tuple(r[:a] for r in block), tm)
    return None


def check_normalizes(e):
    """Classify a graded endomorphism against the grading.

    Returns ``preserves`` when every image has its variable's degree,
    ``normalizes`` with the induced group automorphism when one exists,
    and ``neither`` otherwise.  Raises ValueError when the torsion half has
    more than ``_CANDIDATE_CAP`` row candidates or matching blocks.
    """
    ring = e.ring
    pairs = [(vd, d) for vd, d in zip(ring.var_degrees, e.image_degrees) if d is not ZERO_DEGREE]
    if all(vd == d for vd, d in pairs):
        return NormalizationResult("preserves", _identity_endo(ring.group))
    phi0 = _degree_automorphism(ring.group, pairs)
    if phi0 is None:
        return NormalizationResult("neither")
    return NormalizationResult("normalizes", phi0)


def _identity_endo(group):
    a, t = group.free_rank, len(group.torsion)
    return DegreeEndo(group, la.identity(a),
                      tuple((0,) * a for _ in range(t)),
                      la.identity(t) if t else ())


# -- elementary automorphisms ------------------------------------------------

def elementary_shear(ring, index, f):
    """The shear sending variable ``index`` to itself plus ``f``.

    ``f`` must not involve the sheared variable and must be homogeneous
    of that variable's degree (the zero polynomial is allowed).
    """
    if 0 <= index < f.num_vars and f.involves(index):
        raise DependsOnTargetError(f"shear polynomial may not involve variable {index}")
    return shear_map(ring, index, f)


def shear_map(ring, index, f):
    """Additive single-variable modification, for the replacement machinery.

    Unlike :func:`elementary_shear` this allows ``f`` to involve the
    modified variable, so the result need not be invertible (the frozen
    compositions studied by the certificate are exactly of this shape).
    Homogeneity of ``f`` is still required.
    """
    n = ring.num_vars
    if not 0 <= index < n:
        raise ValueError("shear index out of range")
    if f.num_vars != n:
        raise ValueError("shear polynomial variable count mismatch")
    d = degree_of(f, ring)
    if d is not ZERO_DEGREE and d != ring.var_degrees[index]:
        raise NotHomogeneousShearError(
            "shear polynomial degree differs from the sheared variable's degree")
    images = [Poly.variable(n, i) for i in range(n)]
    images[index] = images[index] + f
    # each other image is its own variable; y_i + f has y_i's degree unless f cancels it
    degrees = list(ring.var_degrees)
    if images[index].is_zero():
        degrees[index] = ZERO_DEGREE
    return GradedEndo._trusted(ring, PolyMap(tuple(images)), tuple(degrees),
                               ("shear", index, f))


def elementary_linear(ring, matrix):
    """A linear substitution from an invertible coefficient matrix."""
    n = ring.num_vars
    rows = tuple(tuple(Fraction(x) for x in row) for row in matrix)
    if len(rows) != n or any(len(r) != n for r in rows):
        raise ValueError("linear matrix must be square of the ring size")
    if la.rank(rows) < n:
        raise SingularLinearError("linear part is singular")
    images = tuple(
        Poly(n, {tuple(1 if j == k else 0 for k in range(n)): rows[i][j]
                 for j in range(n) if rows[i][j] != 0})
        for i in range(n))
    return GradedEndo(ring, PolyMap(images), elementary=("linear", rows))


def elementary_inverse(e):
    """Inverse of an elementary endomorphism (negated shear / inverted matrix)."""
    if e.elementary is None:
        raise NotElementaryError("not an elementary endomorphism")
    kind = e.elementary[0]
    if kind == "shear":
        _, index, f = e.elementary
        return elementary_shear(e.ring, index, -f)
    _, rows = e.elementary
    return elementary_linear(e.ring, la.inverse_frac(rows))


def verify_inverse(e, e_inv):
    """Exact two-sided inverse check by symbolic composition."""
    if e.ring != e_inv.ring:
        raise ValueError("endomorphisms live on different rings")
    return (compose(e.map, e_inv.map).is_identity()
            and compose(e_inv.map, e.map).is_identity())


# -- linear-part replacement and the wildness certificate --------------------

def linear_part(e):
    """Elementary endomorphism with the shear truncated to its linear part."""
    if e.elementary is None:
        raise NotElementaryError("not an elementary endomorphism")
    if e.elementary[0] == "linear":
        return e
    _, index, f = e.elementary
    return elementary_shear(e.ring, index, f.homogeneous_part(1))


def rho_replace(seq, frozen_vars, num_vars=None):
    """Compose ``seq`` after replacing nonlinear shears on frozen variables
    by their linear parts.  Variable indices are 0-based.  An empty
    sequence composes to the identity (``num_vars`` must then be given)."""
    frozen = set(frozen_vars)
    replaced = []
    for e in seq:
        if e.elementary is None:
            raise NotElementaryError("sequence contains a non-elementary endomorphism")
        if e.elementary[0] == "shear" and e.elementary[1] in frozen \
                and e.elementary[2] != e.elementary[2].homogeneous_part(1):
            replaced.append(linear_part(e))
        else:
            replaced.append(e)
    if not replaced:
        if num_vars is None:
            raise ValueError("an empty sequence needs an explicit variable count")
        return PolyMap.identity(num_vars)
    return compose_chain([e.map for e in replaced])


def quadric_grading(extra_zero_vars=0):
    """ZZ-graded polynomial ring with degrees (1, 1, -1, -1, 0, ..., 0)."""
    g = AbGroup(1, ())
    degs = [g.element((1,)), g.element((1,)), g.element((-1,)), g.element((-1,))]
    degs += [g.element((0,))] * extra_zero_vars
    return GradedRing(g, tuple(degs))


def anick_automorphism(ring=None):
    """The two-shear automorphism y2 += y1*D, y4 += y3*D with D = y1*y4 - y2*y3,
    extended identically on any extra degree-zero variables."""
    ring = ring or quadric_grading()
    n = ring.num_vars
    if n < 4:
        raise ValueError("need at least four variables")
    y = [Poly.variable(n, i) for i in range(n)]
    delta = y[0] * y[3] - y[1] * y[2]
    images = list(y)
    images[1] = y[1] + y[0] * delta
    images[3] = y[3] + y[2] * delta
    return GradedEndo(ring, PolyMap(tuple(images)))


def transpose_map(ring=None):
    """The grading-reversing swap (y1, y2, y3, y4) -> (y3, y4, y1, y2)."""
    ring = ring or quadric_grading()
    if ring.num_vars != 4:
        raise ValueError("transpose map is defined on four variables")
    perm = (2, 3, 0, 1)
    images = tuple(Poly.variable(4, perm[i]) for i in range(4))
    return GradedEndo(ring, PolyMap(images))


def nagata_polymap():
    """The three-variable map (y1 - 2*y2*w - y3*w^2, y2 + y3*w, y3), w = y1*y3 + y2^2."""
    y = [Poly.variable(3, i) for i in range(3)]
    w = y[0] * y[2] + y[1] * y[1]
    return PolyMap((y[0] - 2 * y[1] * w - y[2] * w * w, y[1] + y[2] * w, y[2]))


@dataclass(frozen=True)
class NotZeta:
    """The sequence does not compose to the two-shear target map."""

    variable: int


@dataclass(frozen=True)
class WildnessCertificate:
    f: Poly
    g: Poly
    det_jacobian: Poly
    residual: Poly


@dataclass(frozen=True)
class WildnessMachinery:
    """Raw quantities of the linear-part replacement argument."""

    rho: PolyMap
    f: Poly
    g: Poly
    det_jacobian: Poly
    residual: Poly
    f_in_i3: bool
    g_in_i3: bool
    residual_in_i2: bool
    rho_fixes_frozen: bool
    det_is_constant: bool


def wildness_machinery(seq, ring=None):
    """Compute rho (frozen variables 2, 3), the deviations from the
    two-shear map, and the Jacobian determinant data, without requiring
    the sequence to compose to that map."""
    ring = ring or (seq[0].ring if seq else quadric_grading())
    zeta = anick_automorphism(ring)
    rho = rho_replace(seq, frozen_vars=(2, 3), num_vars=ring.num_vars)
    f = zeta.map.images[0] - rho.images[0]
    g = zeta.map.images[1] - rho.images[1]
    det_j = poly_det(jacobian(rho))
    n = ring.num_vars
    one_minus = Poly.constant(n, 1) - Poly.variable(n, 0) * Poly.variable(n, 2)
    residual = det_j - one_minus
    ideal = (0, 1)
    fixes = (rho.images[2] == Poly.variable(n, 2) and rho.images[3] == Poly.variable(n, 3))
    return WildnessMachinery(
        rho=rho, f=f, g=g, det_jacobian=det_j, residual=residual,
        f_in_i3=in_ideal_power(f, ideal, 3),
        g_in_i3=in_ideal_power(g, ideal, 3),
        residual_in_i2=in_ideal_power(residual, ideal, 2),
        rho_fixes_frozen=fixes,
        det_is_constant=det_j.total_degree() <= 0)


def wildness_certificate(seq, ring=None):
    """Check a claimed elementary decomposition of the two-shear map.

    If the composition differs from the target, returns NotZeta with the
    first differing variable.  Otherwise runs the linear-part replacement
    argument and returns the certificate whose non-constant Jacobian
    determinant contradicts the decomposition's existence.
    """
    ring = ring or (seq[0].ring if seq else quadric_grading())
    if ring.num_vars != 4:
        raise ValueError("the certificate machinery works on the four-variable ring")
    for e in seq:
        if e.elementary is None:
            raise NotElementaryError("sequence contains a non-elementary endomorphism")
        if check_normalizes(e).kind != "preserves":
            raise ValueError("sequence elements must preserve the grading")
    zeta = anick_automorphism(ring)
    chain = compose_chain([e.map for e in seq]) if seq else PolyMap.identity(4)
    for i in range(4):
        if chain.images[i] != zeta.map.images[i]:
            return NotZeta(i)
    m = wildness_machinery(seq, ring)
    if not (m.f_in_i3 and m.g_in_i3 and m.residual_in_i2 and m.rho_fixes_frozen):
        raise AssertionError("linear-part replacement invariants failed")
    return WildnessCertificate(m.f, m.g, m.det_jacobian, m.residual)


def shear_family(ring, index, f, h, k):
    """The grading-preserving shear variable_index += f * h^k.

    ``f`` must be homogeneous of the sheared variable's degree and ``h``
    homogeneous of degree zero; neither may involve the sheared variable.
    """
    k = int(k)
    if k < 0:
        raise ValueError("exponent must be nonnegative")
    if h.involves(index):
        raise DependsOnTargetError("h may not involve the sheared variable")
    dh = degree_of(h, ring)
    if dh is not ZERO_DEGREE and dh != ring.group.zero():
        raise NotHomogeneousShearError("h must be homogeneous of degree zero")
    return elementary_shear(ring, index, f * h ** k)


def search_tame_decomposition(target, ring=None, max_len=3, max_h_degree=1):
    """Bounded search for an elementary grading-preserving decomposition
    of ``target`` over the quadric ring.

    The catalog holds the four shear shapes with monomial coefficients
    +/-1 up to the given degree in the two degree-zero products.  Each
    state s carries its residual target o s^-1, and s reaches the target
    in one more step exactly when that residual is a catalog map: each
    level is one dict lookup per state, and a residual of the next level
    is one composition with an inverse shear.  Returns the breadth-first
    answer (the first hit in state, then catalog, order; never for the
    identity), or None when the caps are exhausted.  This is a
    desk-scale search, not a decision procedure.
    """
    ring = ring or quadric_grading()
    n = ring.num_vars
    if n != 4:
        raise ValueError("search is implemented for the four-variable quadric ring")
    if target.source_vars != 4 or target.target_vars != 4 or target.is_identity():
        return None
    y = [Poly.variable(4, i) for i in range(4)]
    shapes = {
        0: (y[1], (y[1] * y[2], y[1] * y[3])),
        1: (y[0], (y[0] * y[2], y[0] * y[3])),
        2: (y[3], (y[0] * y[3], y[1] * y[3])),
        3: (y[2], (y[0] * y[2], y[1] * y[2])),
    }
    catalog = []
    for index, (front, (u, v)) in shapes.items():
        for l in range(max_h_degree + 1):
            for r in range(max_h_degree + 1 - l):
                for sign in (1, -1):
                    f = sign * front * u ** l * v ** r
                    catalog.append(elementary_shear(ring, index, f))
    first = {e.map.images: i for i, e in enumerate(catalog)}
    frontier = [(target, ())]
    seen = {target.images}
    for depth in range(max_len):
        if depth:
            next_frontier = []
            for residual, seq in frontier:
                for i, e in enumerate(catalog):
                    # the shears come in sign pairs: catalog[i ^ 1] inverts e
                    new = compose(residual, catalog[i ^ 1].map)
                    if new.images not in seen:
                        seen.add(new.images)
                        next_frontier.append((new, seq + (e,)))
            frontier = next_frontier
        for residual, seq in frontier:
            hit = first.get(residual.images)
            if hit is not None:
                return [*seq, catalog[hit]]
    return None
