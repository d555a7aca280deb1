"""Command-line front end: one JSON document in, one JSON document out.

Every subcommand reads a JSON file (either a raw payload or a fixture
wrapper carrying a ``payload`` field) and hands the library's own result
values (tuples, Fractions, ints, result records read through ``vars``)
to ``encode``; ``emit`` prints the result as canonical JSON: sorted
keys, and every integer or rational rendered as a string so arbitrary
precision survives transport.  Exit codes: 0 success (a found
violation is a success), 1 domain error, 2 malformed input, usage errors
included.

Each handler and decoder imports the library modules it uses when it
runs, so a cold process loads only its subcommand's modules.
"""

import argparse
import json
import sys
from fractions import Fraction
from math import comb

from .errors import DOMAIN_ERRORS, NotSaturatedError

# CycloNum builds the n-th cyclotomic polynomial by dividing x^n - 1 through
# every lower cyclotomic factor; the fixtures and tests use conductors <= 24
MAX_CONDUCTOR = 1000
# reynolds_invariants eliminates sparse rows over the N = C(degree + dim - 1,
# dim - 1) monomials of the degree.  For diag(-1, 1, 1) at degree 40 in
# dimension 3 (N = 861), `reynolds` in a fresh Python 3.11 process takes
# about 0.11 s and peaks at 17.3 MB RSS on a 2-vCPU Xeon.  A dense
# generator fills its rows, and the elimination then dominates: a
# conjugated 3-cycle at degree 20 (N = 231) takes about 11 s.  So the cap
# bounds the size of the answer, not the time.  Raising the cap turns
# exit-2 refusals into answers.
MAX_MONOMIALS = 1000


class InputError(Exception):
    pass


# -- canonical encoding -------------------------------------------------------

def encode(value):
    if isinstance(value, bool):
        return value
    if isinstance(value, (int, Fraction)):
        return str(value)
    if isinstance(value, (list, tuple)):
        return [encode(v) for v in value]
    if isinstance(value, dict):
        return {k: encode(v) for k, v in value.items()}
    if value is None or isinstance(value, str):
        return value
    raise TypeError(f"cannot encode {type(value)!r}")


def emit(doc, pretty=False):
    if pretty:
        text = json.dumps(encode(doc), sort_keys=True, indent=2)
    else:
        text = json.dumps(encode(doc), sort_keys=True, separators=(",", ":"))
    sys.stdout.write(text + "\n")


# -- input decoding -----------------------------------------------------------

def _as_int(x):
    if isinstance(x, bool):
        raise InputError("expected an integer")
    if isinstance(x, int):
        return x
    if isinstance(x, str):
        try:
            return int(x)
        except ValueError as exc:
            raise InputError(f"bad integer {x!r}") from exc
    raise InputError(f"expected an integer, got {type(x).__name__}")


def _as_fraction(x):
    if isinstance(x, bool):
        raise InputError("expected a number")
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, str):
        try:
            return Fraction(x)
        except (ValueError, ZeroDivisionError) as exc:
            raise InputError(f"bad rational {x!r}") from exc
    raise InputError(f"expected a rational, got {type(x).__name__}")


def _list(x, what="a vector"):
    if not isinstance(x, list):
        raise InputError(f"expected {what} (JSON array)")
    return x


def _int_vector(x):
    return tuple(_as_int(e) for e in _list(x))


def _matrix(x, width, entry=_as_int):
    """Nonempty matrix of ``entry`` values whose every row has length ``width``."""
    if not isinstance(x, list) or not x:
        raise InputError("expected a nonempty matrix (array of arrays)")
    rows = tuple(tuple(entry(e) for e in _list(row)) for row in x)
    if any(len(row) != width for row in rows):
        raise InputError(f"expected rows of length {width}")
    return rows


def _load(path):
    # ValueError covers bad JSON, bad UTF-8 and a number past Python's digit
    # limit; RecursionError covers arrays nested past the recursion limit
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except (OSError, ValueError, RecursionError) as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc
    if isinstance(doc, dict) and "payload" in doc:
        doc = doc["payload"]
    if not isinstance(doc, dict):
        raise InputError("the payload must be a JSON object")
    return doc


def _require(doc, key):
    if not isinstance(doc, dict) or key not in doc:
        raise InputError(f"missing required field {key!r}")
    return doc[key]


def _decode_monoid(doc):
    from .monoids import AffineMonoid
    rank = _as_int(_require(doc, "ambient_rank"))
    gens = _matrix(_require(doc, "generators"), rank)
    basis = _matrix(doc["group_basis"], rank) if doc.get("group_basis") else None
    return AffineMonoid(rank, gens, group_basis=basis)


def _decode_cone(doc):
    from .cones import Cone
    rank = _as_int(_require(doc, "ambient_rank"))
    rays = _matrix(_require(doc, "rays"), rank)
    lattice = _matrix(doc["lattice"], rank) if doc.get("lattice") else None
    return Cone(rank, rays, lattice=lattice)


def _decode_grading(doc):
    from .gradings import AbGroup, GradedRing, quadric_grading
    if doc is None:
        return quadric_grading()
    rank = _at_least(_as_int(_require(doc, "free_rank")), 0, "free_rank")
    torsion = _int_vector(doc.get("torsion", []))
    degs = []
    for d in _list(_require(doc, "var_degrees"), "a list of degrees"):
        if not isinstance(d, dict):
            raise InputError("each variable degree must be an object")
        degs.append((_int_vector(d.get("free", [])), _int_vector(d.get("torsion", []))))
    try:  # the torsion orders, and each degree's shape
        group = AbGroup(rank, torsion)
        return GradedRing(group, tuple(group.element(free, tors) for free, tors in degs))
    except ValueError as exc:
        raise InputError(f"grading: {exc}") from exc


def _var_names(doc, count=None):
    """The payload's ``var_names``: a list of strings, one per variable when
    ``count`` is given.  Without ``count`` the field is required; otherwise
    it defaults to y1, ..., y<count>."""
    if count is None:
        names = _require(doc, "var_names")
    else:
        names = doc.get("var_names")
        if names is None:
            return [f"y{i + 1}" for i in range(count)]
    if not isinstance(names, list) or (count is not None and len(names) != count) \
            or not all(isinstance(n, str) for n in names):
        raise InputError("var_names must list one name per variable")
    if len(set(names)) != len(names):
        raise InputError("var_names must be distinct")
    return names


def _poly_text(text):
    if not isinstance(text, str):
        raise InputError(f"expected a polynomial string, got {type(text).__name__}")
    return text


def _polys(texts, names):
    from .polynomials import parse_poly
    # the parser recurses once per parenthesis level, so nesting past the
    # recursion limit is malformed input, as it is for JSON arrays in _load
    try:
        return [parse_poly(_poly_text(t), names) for t in _list(texts, "a list of polynomials")]
    except RecursionError as exc:
        raise InputError("polynomial nested too deeply") from exc


def _poly(text, names):
    return _polys([text], names)[0]


def _variable(x, index_of):
    if not isinstance(x, str) or x not in index_of:
        raise InputError(f"unknown variable {x!r}")
    return index_of[x]


def _at_least(value, least, name):
    if value < least:
        raise InputError(f"{name} must be at least {least}")
    return value


def _depth(args, doc):
    depth = _as_int(doc.get("depth", 6)) if args.depth is None else args.depth
    return _at_least(depth, 0, "depth")


def _cap(args):
    from .quotients import DEFAULT_CAP
    return _at_least(DEFAULT_CAP if args.cap is None else args.cap, 1, "cap")


def _is_square(x, dim):
    return isinstance(x, list) and len(x) == dim and \
        all(isinstance(row, list) and len(row) == dim for row in x)


def _decode_group(doc):
    from .cyclotomic import CycloNum
    dim = _at_least(_as_int(_require(doc, "dim")), 1, "dim")
    conductor = _at_least(_as_int(_require(doc, "conductor")), 1, "conductor")
    if conductor > MAX_CONDUCTOR:
        raise InputError(f"conductor must be at most {MAX_CONDUCTOR}")
    gmats = _require(doc, "generators")
    if not isinstance(gmats, list) or not gmats or not all(_is_square(g, dim) for g in gmats):
        raise InputError("group generators must be a nonempty list of dim x dim matrices")

    def entry(value):
        if isinstance(value, list):
            return CycloNum(conductor, tuple(_as_fraction(c) for c in value))
        return CycloNum.rational(conductor, _as_fraction(value))

    return conductor, [tuple(tuple(entry(e) for e in row) for row in gmat) for gmat in gmats]


def _render_invariant(form, names):
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


# -- subcommands ----------------------------------------------------------------

def cmd_parse_poly(doc, args):
    names = _var_names(doc)
    p = _poly(_require(doc, "text"), names)
    return {
        "canonical": p.render(names),
        "num_terms": len(p.terms),
        "terms": [{"coefficient": c, "exponents": e} for e, c in p.sorted_terms()],
    }


def cmd_saturate(doc, args):
    from .monoids import is_saturated
    sat, witness = is_saturated(_decode_monoid(doc))
    return {"saturated": sat, "witness": witness}


def cmd_divisor_theory(doc, args):
    from .monoids import divisor_theory
    dt = divisor_theory(_decode_monoid(doc))
    return {
        "free_rank": dt.free_rank,
        "group_basis": dt.lattice_basis,
        "functionals": dt.functionals,
        "ambient_functionals": dt.ambient_functionals(),
        "images": dt.generator_images(),
    }


def cmd_check_axioms(doc, args):
    from .monoids import DivisorTheory, divisor_theory, verify_divisor_axioms
    m = _decode_monoid(_require(doc, "monoid"))
    depth = _depth(args, doc)
    if doc.get("ambient_functionals"):
        dt = DivisorTheory.from_ambient_functionals(
            m, _matrix(doc["ambient_functionals"], m.ambient_rank))
    else:
        dt = divisor_theory(m)
    rep = verify_divisor_axioms(dt, depth)
    out = {"ok": rep.ok, "depth": rep.depth}  # the fixtures keep this key order
    return out if rep.ok else {**out, **vars(rep)}


def cmd_extend(doc, args):
    from .monoids import MonoidHom, divisor_theory, extend_embedding
    m = _decode_monoid(_require(doc, "monoid"))
    dt = divisor_theory(m)
    alpha = MonoidHom(_matrix(_require(_require(doc, "alpha"), "matrix"), m.ambient_rank,
                              _as_fraction))
    result = extend_embedding(dt, alpha)
    # Beta, ViolationStar, ... -> beta, violation_star, ...
    kind = "".join("_" + c.lower() if c.isupper() else c for c in type(result).__name__)
    return {"kind": kind[1:], **vars(result)}


def cmd_cox_data(doc, args):
    from .toric import cox_data
    cd = cox_data(_decode_cone(doc))
    return {
        "rays": cd.rays,
        "cl_free_rank": cd.cl_group.free_rank,
        "cl_torsion": cd.cl_group.torsion,
        "var_degrees": [vars(d) for d in cd.var_degrees],
        "ray_pairing": cd.ray_pairing,
        "characters": cd.characters,
        "pullbacks": [p.render() for p in cd.pullback_map.images],
    }


def cmd_pullback(doc, args):
    from .toric import cox_data, pullback
    c = _decode_cone(_require(doc, "cone"))
    u = _int_vector(_require(doc, "character"))
    if len(u) != c.ambient_rank:
        raise InputError(f"expected a character of length {c.ambient_rank}")
    cd = cox_data(c)
    return {"monomial": pullback(cd, u).render()}


def cmd_verify_lift(doc, args):
    from .gradings import GradedEndo
    from .polynomials import PolyMap
    from .toric import cox_data, verify_lift
    cd = cox_data(_decode_cone(_require(doc, "cone")))
    k = len(cd.characters)
    xnames = [f"x{i + 1}" for i in range(k)]
    ynames = [f"y{i + 1}" for i in range(len(cd.rays))]
    psi = _polys(_require(doc, "psi"), xnames)
    phi_images = _polys(_require(doc, "phi"), ynames)
    if len(psi) != k or len(phi_images) != len(ynames):
        raise InputError("verify-lift needs one psi image per character and one phi image per ray")
    phi = GradedEndo(cd.graded_ring, PolyMap(tuple(phi_images)))
    return {"ok": verify_lift(cd, psi, phi)}


def cmd_compose(doc, args):
    from .polynomials import PolyMap, compose_chain
    n = _at_least(_as_int(_require(doc, "num_vars")), 1, "num_vars")
    names = _var_names(doc, n)
    maps = [_polys(images, names) for images in _list(_require(doc, "maps"), "a list of maps")]
    if not maps:
        raise InputError("compose needs at least one map")
    if any(len(m) != n for m in maps):
        raise InputError("each map needs one image per variable")
    result = compose_chain([PolyMap(tuple(m)) for m in maps])
    return {"images": [p.render(names) for p in result.images]}


def cmd_jacobian(doc, args):
    from .polynomials import PolyMap, jacobian, poly_det
    images = _list(_require(doc, "images"), "a list of polynomials")
    if not images:
        raise InputError("a map needs at least one image")
    n = len(images)
    names = _var_names(doc, n)
    m = PolyMap(tuple(_polys(images, names)))
    jac = jacobian(m)
    return {
        "matrix": [[p.render(names) for p in row] for row in jac],
        "det": poly_det(jac).render(names),
    }


def cmd_wildness_cert(doc, args):
    from .gradings import NotZeta, shear_map, wildness_certificate
    ring = _decode_grading(doc.get("grading"))
    names = _var_names(doc, ring.num_vars)
    index_of = {n: i for i, n in enumerate(names)}
    seq = []
    for step in _list(_require(doc, "sequence"), "a list of shears"):
        var = _variable(_require(step, "variable"), index_of)
        seq.append(shear_map(ring, var, _poly(_require(step, "poly"), names)))
    result = wildness_certificate(seq, ring)
    if isinstance(result, NotZeta):
        return {"kind": "not_zeta", "variable": names[result.variable]}
    return {
        "kind": "certificate",
        "f": result.f.render(names),
        "g": result.g.render(names),
        "det_jacobian": result.det_jacobian.render(names),
        "residual": result.residual.render(names),
    }


def cmd_shear_family(doc, args):
    from .gradings import shear_family
    ring = _decode_grading(doc.get("grading"))
    names = _var_names(doc, ring.num_vars)
    index_of = {n: i for i, n in enumerate(names)}
    var = _variable(_require(doc, "variable"), index_of)
    f = _poly(_require(doc, "f"), names)
    h = _poly(_require(doc, "h"), names)
    k = _as_int(_require(doc, "k"))
    endo = shear_family(ring, var, f, h, k)
    return {"images": [p.render(names) for p in endo.map.images]}


def cmd_quotient_report(doc, args):
    from .quotients import close_group, quotient_report
    conductor, gens = _decode_group(doc)
    return vars(quotient_report(close_group(gens, conductor=conductor, cap=_cap(args))))


def cmd_reynolds(doc, args):
    from .quotients import close_group, reynolds_invariants
    conductor, gens = _decode_group(_require(doc, "group"))
    degree = _at_least(_as_int(_require(doc, "degree")), 1, "degree")
    dim = len(gens[0])
    if comb(degree + dim - 1, dim - 1) > MAX_MONOMIALS:
        raise InputError(f"degree {degree} has over {MAX_MONOMIALS} monomials in dimension {dim}")
    group = close_group(gens, conductor=conductor, cap=_cap(args))
    basis = reynolds_invariants(group, degree)
    names = [f"x{i + 1}" for i in range(group.dim)]
    return {
        "dimension": len(basis),
        "basis": [_render_invariant(form, names) for form in basis],
    }


COMMANDS = {
    "parse-poly": cmd_parse_poly,
    "saturate": cmd_saturate,
    "divisor-theory": cmd_divisor_theory,
    "check-axioms": cmd_check_axioms,
    "extend": cmd_extend,
    "cox-data": cmd_cox_data,
    "pullback": cmd_pullback,
    "verify-lift": cmd_verify_lift,
    "compose": cmd_compose,
    "jacobian": cmd_jacobian,
    "wildness-cert": cmd_wildness_cert,
    "shear-family": cmd_shear_family,
    "quotient-report": cmd_quotient_report,
    "reynolds": cmd_reynolds,
}


class _Parser(argparse.ArgumentParser):
    """Usage errors raise InputError, so they print one JSON document and
    exit 2 like any other malformed input, and never raise SystemExit."""

    def error(self, message):
        raise InputError(message)


def main(argv=None):
    # no -h/--help: it would print text, not JSON, so it is an unknown flag
    parser = _Parser(prog="coxtools", add_help=False)
    parser.add_argument("command", choices=sorted(COMMANDS))
    parser.add_argument("input")
    parser.add_argument("--depth", type=int, default=None)
    parser.add_argument("--cap", type=int, default=None)
    parser.add_argument("--pretty", action="store_true")
    pretty = False
    try:
        args = parser.parse_args(argv)
        pretty = args.pretty
        result = COMMANDS[args.command](_load(args.input), args)
    except InputError as exc:
        emit({"error": "malformed_input", "detail": str(exc)}, pretty)
        return 2
    except NotSaturatedError as exc:
        emit({"error": "not_saturated", "witness": exc.witness,
              "detail": str(exc)}, pretty)
        return 1
    except DOMAIN_ERRORS as exc:
        emit({"error": type(exc).__name__, "detail": str(exc)}, pretty)
        return 1
    emit(result, pretty)
    return 0


def entry():
    raise SystemExit(main())


if __name__ == "__main__":
    raise SystemExit(main())
