"""Cox grading data of affine toric varieties from cone input.

The input cone lives in the cocharacter lattice ZZ^n (standard lattice).
Its primitive ray generators define the map ZZ^n -> ZZ^rays by pairing;
the divisor class group is the cokernel, computed by Smith normal form,
and each polynomial variable (one per ray) is graded by the class of its
ray's divisor.  Coordinates on the variety itself are the Hilbert basis
characters of the dual cone; ``pullback`` realizes a character as the
monomial prod y_i^{<u, v_i>}.

Normalization: rays are in the cone's canonical (lexicographic) order;
the free part of the class group is sign-fixed so that the first
variable degree with a nonzero free part has positive first entry.
"""

from dataclasses import dataclass
from functools import cached_property

from . import intlinalg as la
from .cones import Cone, NonPointedError, NotFullDimensionalError, dual_cone, hilbert_basis
from .gradings import AbGroup, GradedRing, GradedEndo, check_normalizes
from .polynomials import Poly, PolyMap, substitute


class NotInDualConeError(ValueError):
    pass


class DimensionMismatchError(ValueError):
    pass


@dataclass(frozen=True)
class CoxData:
    cone: Cone
    rays: tuple
    cl_group: AbGroup
    var_degrees: tuple
    ray_pairing: tuple

    @cached_property
    def graded_ring(self):
        """The polynomial ring with one variable per ray, graded by the
        divisor class group."""
        return GradedRing(self.cl_group, self.var_degrees)

    @cached_property
    def characters(self):
        """Hilbert basis of the dual cone: the canonical coordinates of
        the underlying variety, in lexicographic order."""
        return hilbert_basis(dual_cone(self.cone))

    @cached_property
    def pullback_map(self):
        """Substitution sending coordinate j to its pullback monomial."""
        return PolyMap(tuple(pullback(self, u) for u in self.characters),
                       source_vars=len(self.characters))


def cox_data(c):
    """Divisor class group and variable degrees for a pointed,
    full-dimensional cone over the standard lattice."""
    if c.lattice != la.identity(c.ambient_rank):
        raise ValueError("cox data expects a cone over the standard lattice")
    if not c.pointed:
        raise NonPointedError("cone must be pointed")
    n = c.ambient_rank
    if c.dim != n:
        raise NotFullDimensionalError("cone must be full-dimensional")
    rays = c.rays
    r = len(rays)
    # pairing matrix as a map ZZ^n -> ZZ^r (columns indexed by characters)
    pairing = la.mat(rays)  # row i = ray v_i; column j = <e_j, v_i>
    s, u, _v = la.snf(pairing)
    diag = [s[i][i] for i in range(min(r, n))]
    if any(d == 0 for d in diag):
        raise NotFullDimensionalError("cone must be full-dimensional")
    torsion_positions = [i for i, d in enumerate(diag) if d >= 2]
    free_positions = list(range(n, r))
    group = AbGroup(len(free_positions), tuple(diag[i] for i in torsion_positions))

    cols = la.transpose(u)  # column i of u = image data of basis vector e_i of ZZ^r
    degrees = []
    for i in range(r):
        w = cols[i]
        free = [w[p] for p in free_positions]
        tors = [w[p] % diag[p] for p in torsion_positions]
        degrees.append((free, tors))
    # sign normalization per free coordinate
    for fpos in range(len(free_positions)):
        lead = next((d for d in degrees if d[0][fpos] != 0), None)
        if lead is not None and lead[0][fpos] < 0:
            for d in degrees:
                d[0][fpos] = -d[0][fpos]
    var_degrees = tuple(group.element(tuple(f), tuple(t)) for f, t in degrees)
    return CoxData(cone=c, rays=rays, cl_group=group, var_degrees=var_degrees,
                   ray_pairing=la.transpose(la.mat(rays)))


def pullback(cd, u):
    """The monomial prod y_i^{<u, v_i>} for a character u of the dual cone."""
    u = la.vec(u)
    if len(u) != cd.cone.ambient_rank:
        raise DimensionMismatchError("character dimension mismatch")
    exps = tuple(la.dot(u, v) for v in cd.rays)
    if any(e < 0 for e in exps):
        raise NotInDualConeError(f"character {u} pairs negatively with a ray")
    return Poly.monomial(exps)


def degree_of_monomial(cd, exponents):
    """Class-group degree of a monomial in the ray variables."""
    return cd.cl_group.combination(exponents, cd.var_degrees)


def verify_lift(cd, psi_images, phi):
    """Exact check that ``phi`` on the graded ray-variable ring lifts the
    coordinate substitution ``psi`` on the variety.

    ``psi_images`` are polynomials in the canonical coordinates (one per
    Hilbert basis character); ``phi`` must be a graded endomorphism of
    the Cox ring that normalizes the grading.  Returns True iff pulling
    back psi's images equals applying phi to the pullbacks, for every
    coordinate.
    """
    chars = cd.characters
    if len(psi_images) != len(chars):
        raise DimensionMismatchError("one image per canonical coordinate required")
    if any(p.num_vars != len(chars) for p in psi_images):
        raise DimensionMismatchError("psi images must live in the coordinate variables")
    if not isinstance(phi, GradedEndo) or phi.ring != cd.graded_ring:
        phi = GradedEndo(cd.graded_ring, phi.map if isinstance(phi, GradedEndo) else phi)
    if check_normalizes(phi).kind == "neither":
        return False
    pull = cd.pullback_map
    for j in range(len(chars)):
        lhs = substitute(psi_images[j], pull)
        rhs = substitute(pull.images[j], phi.map)
        if lhs != rhs:
            return False
    return True


def respects_relations(cd, psi_images, relations):
    """Check psi against relation polynomials of the coordinate ring:
    each relation must pull back to the zero polynomial after psi."""
    pull = cd.pullback_map
    psi = PolyMap(tuple(psi_images), source_vars=len(psi_images))
    for rel in relations:
        if not substitute(substitute(rel, psi), pull).is_zero():
            return False
    return True
