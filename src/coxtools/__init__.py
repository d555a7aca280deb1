"""coxtools: exact computations with affine monoids, divisor theories,
toric Cox gradings, graded polynomial automorphisms, and finite linear
quotients.

Everything is exact: arbitrary-precision integers, rationals, and
cyclotomic numbers; no floating point anywhere.

The package import is lazy (PEP 562): an exported name loads its
submodule on first access, so ``import coxtools`` loads none of them.
"""

import importlib

_EXPORTS = {
    "intlinalg": ("hnf", "snf"),
    "cones": ("Cone", "NonPointedError", "NotFullDimensionalError", "cone_contains", "dual_cone",
              "hilbert_basis"),
    "monoids": ("AffineMonoid", "Beta", "DivisorTheory", "MonoidHom", "NotAnEmbedding",
                "NotSaturatedError", "ViolationStar", "ViolationStarStar", "divisor_theory",
                "extend_embedding", "is_saturated", "verify_divisor_axioms"),
    "polynomials": ("Poly", "PolyMap", "PolyParseError", "UnknownVariableError", "compose",
                    "compose_chain", "in_ideal_power", "jacobian", "parse_map", "parse_poly",
                    "poly_det", "substitute"),
    "gradings": ("AbGroup", "GradedEndo", "GradedRing", "GroupElem", "ZERO_DEGREE",
                 "anick_automorphism", "check_normalizes", "degree_of", "elementary_linear",
                 "elementary_shear", "elementary_inverse", "nagata_polymap", "quadric_grading",
                 "rho_replace", "shear_family", "shear_map", "search_tame_decomposition",
                 "transpose_map", "verify_inverse", "wildness_certificate",
                 "wildness_machinery"),
    "toric": ("CoxData", "cox_data", "pullback", "respects_relations", "verify_lift"),
    "cyclotomic": ("CycloNum", "cyclotomic_polynomial"),
    "quotients": ("MatGroup", "QuotientReport", "close_group", "pseudoreflections",
                  "quotient_report", "reynolds_invariants"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_MODULE_OF)
__version__ = "0.1.0"


def __getattr__(name):
    # nothing is cached here: every access reads the submodule's current
    # attribute, so the package never holds a second reference to it
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f".{module}", __name__), name)


def __dir__():
    return sorted(set(globals()) | set(__all__))
