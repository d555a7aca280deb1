"""Cox grading data of affine toric varieties from cone input.

The input cone lives in the cocharacter lattice ZZ^n (standard lattice).
Its primitive ray generators define the map ZZ^n -> ZZ^rays by pairing;
the divisor class group is the cokernel, read off a Smith normal form,
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
        return PolyMap(tuple(pullback(self, u) for u in self.characters))


def cox_data(c):
    """Divisor class group and variable degrees for a pointed,
    full-dimensional cone over the standard lattice."""
    if c.lattice != la.identity(c.ambient_rank):
        raise ValueError("cox data expects a cone over the standard lattice")
    if not c.pointed:
        raise NonPointedError("cone must be pointed")
    if c.dim != c.ambient_rank:
        raise NotFullDimensionalError("cone must be full-dimensional")
    rays = c.rays
    # ZZ^n -> ZZ^rays pairs a character with each ray; it is injective
    # because the cone is full-dimensional, and Cl is its cokernel
    free_rank, torsion, classes = la.cokernel(rays)
    group = AbGroup(free_rank, torsion)
    # sign normalization per free coordinate
    signs = [next((1 if f[k] > 0 else -1 for f, _t in classes if f[k]), 1)
             for k in range(free_rank)]
    var_degrees = tuple(group.element([s * x for s, x in zip(signs, f)], t)
                        for f, t in classes)
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
    psi = PolyMap(tuple(psi_images))
    for rel in relations:
        if not substitute(substitute(rel, psi), pull).is_zero():
            return False
    return True
