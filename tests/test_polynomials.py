import contextlib
import gc
import io
import json
import pathlib
import random
from fractions import Fraction

import pytest
import sympy

from coxtools.cli import encode, main
from coxtools.gradings import (elementary_inverse, elementary_linear, elementary_shear,
                               quadric_grading, verify_inverse)
from coxtools.polynomials import (NonSquareError, Poly, PolyMap, PolyParseError,
                                  UnknownVariableError, compose, compose_chain,
                                  in_ideal_power, jacobian, parse_map, parse_poly,
                                  poly_det, substitute, _drop_zeros, _mul_into)

from conftest import XS, YS, TAU_STRS
import oracles
from oracles import degree_in, reference_det

FIXTURE_DIR = pathlib.Path(__file__).resolve().parent.parent / "fixtures"


def test_parse_two_term():
    p = parse_poly("y1*y4 - y2*y3", YS)
    assert len(p.terms) == 2
    assert p.terms[(1, 0, 0, 1)] == 1
    assert p.terms[(0, 1, 1, 0)] == -1


def test_parse_quartic_entry_expansion():
    # independently verified via sympy below; six distinct monomials
    p = parse_poly(TAU_STRS[3], XS)
    x1, x2, x3, x4 = sympy.symbols("x1 x2 x3 x4")
    expected = sympy.expand(x4 + (x3 + x2) * (x3 - x2) + x1 * (x3 - x2) ** 2)
    assert len(p.terms) == len(expected.as_ordered_terms()) == 6
    assert _to_sympy(p, [x1, x2, x3, x4]) == expected


def test_parse_zero():
    assert parse_poly("0", YS).is_zero()


def test_parse_roundtrip():
    for text in [TAU_STRS[3], "1/2*x1^3 - x2 + 7", "-3/2*x1*x2 + x3^4 - 1"]:
        p = parse_poly(text, XS)
        assert parse_poly(p.render(XS), XS) == p


def test_parse_errors():
    with pytest.raises(UnknownVariableError):
        parse_poly("z9", YS)
    for bad in ["y1 y2", "y1*", "2y1", "--y1", "-", "-+y1", "3/0", "(y1", "y1^", "y1^-2",
                "(-y1)", "y1+-y2", "y1*-y2"]:
        with pytest.raises(PolyParseError):
            parse_poly(bad, YS)


def test_leading_minus_negates_the_first_term():
    y1, y2 = Poly.variable(4, 0), Poly.variable(4, 1)
    assert parse_poly("-y1", YS) == -y1
    assert parse_poly("-y1^2*y2 + y2", YS) == y2 - y1 ** 2 * y2
    assert parse_poly("- (y1 + y2)^2", YS) == -((y1 + y2) ** 2)
    # before digits the minus is the sign of the number, as it always was
    assert parse_poly("-2^2", YS) == Poly.constant(4, 4)
    assert parse_poly("-2*y1", YS) == -2 * y1


@pytest.mark.parametrize("lead", [Fraction(-1), Fraction(-5), Fraction(-3, 7)],
                         ids=["minus_one", "minus_k", "minus_p_over_q"])
def test_render_parse_roundtrip_with_negative_leading_coefficient(lead):
    rng = random.Random(f"lead:{lead}")
    starts = set()
    for _ in range(60):
        p = _random_poly(rng, 4, max_terms=6, max_deg=3)
        if p.is_zero():
            continue
        top = p.sorted_terms()[0][0]
        q = Poly(4, {**p.terms, top: lead})
        text = q.render(YS)
        assert text.startswith("-")
        starts.add(text[1])
        assert parse_poly(text, YS) == q
    # only -1 is written as a bare minus before a variable
    assert ("y" in starts) == (lead == -1)


def test_implicit_multiplication_rejected():
    with pytest.raises(PolyParseError):
        parse_poly("2(y1+y2)", YS)


def test_parser_never_crashes_on_token_soup():
    rng = random.Random(31337)
    atoms = ["y1", "y2", "+", "-", "*", "^", "(", ")", "3", "1/2", " ", "z", "/"]
    for _ in range(300):
        text = "".join(rng.choice(atoms) for _ in range(rng.randint(1, 12)))
        try:
            p = parse_poly(text, YS)
        except PolyParseError:
            continue
        # anything accepted must round-trip through canonical printing
        assert parse_poly(p.render(YS), YS) == p


def test_substitute_quadric_invariance(zeta_map, delta):
    assert substitute(delta, zeta_map) == delta


def test_substitute_identity():
    p = parse_poly("y1", YS)
    assert substitute(p, PolyMap.identity(4)) == p


def test_substitute_pullback():
    # x1 evaluated through the monomial dictionary gives a degree-2 monomial
    pull = parse_map(["y1*y3", "y1*y4", "y2*y3", "y2*y4"], XS, YS)
    assert substitute(parse_poly("x1", XS), pull) == parse_poly("y1*y3", YS)


def test_substitute_power_past_the_recursion_limit():
    t = Poly.variable(1, 0)
    high = Poly.monomial((1500,))
    assert substitute(high, PolyMap((2 * t,))) == Poly.monomial((1500,), 2 ** 1500)


def test_compose_tau_tauinv_is_identity(tau_map, tau_inv_map):
    assert compose(tau_map, tau_inv_map).is_identity()
    assert compose(tau_inv_map, tau_map).is_identity()


def test_compose_with_identity(tau_map):
    ident = PolyMap.identity(4)
    assert compose(ident, tau_map) == tau_map
    assert compose(tau_map, ident) == tau_map


def test_five_variable_chain(zeta_map):
    steps = [
        ["y1", "y2", "y3", "y4", "y5+(y1*y4-y2*y3)"],
        ["y1", "y2+y1*y5", "y3", "y4", "y5"],
        ["y1", "y2", "y3", "y4+y3*y5", "y5"],
        ["y1", "y2", "y3", "y4", "y5-(y1*y4-y2*y3)"],
        ["y1", "y2-y1*y5", "y3", "y4", "y5"],
        ["y1", "y2", "y3", "y4-y3*y5", "y5"],
    ]
    names = ["y1", "y2", "y3", "y4", "y5"]
    chain = compose_chain([parse_map(s, names) for s in steps])
    expected = parse_map([
        "y1", "y2+y1*(y1*y4-y2*y3)", "y3", "y4+y3*(y1*y4-y2*y3)", "y5"], names)
    assert chain == expected


def test_jacobian_identity():
    j = jacobian(PolyMap.identity(3))
    assert poly_det(j) == Poly.constant(3, 1)
    for i in range(3):
        for k in range(3):
            assert j[i][k] == Poly.constant(3, 1 if i == k else 0)


def test_jacobian_det_zeta(zeta_map):
    assert poly_det(jacobian(zeta_map)) == Poly.constant(4, 1)


def test_jacobian_det_single_shear():
    m = parse_map(["y1", "y2+y1*(y1*y4-y2*y3)", "y3", "y4"], YS)
    assert poly_det(jacobian(m)) == parse_poly("1-y1*y3", YS)


def test_poly_det_nonsquare():
    with pytest.raises(NonSquareError):
        poly_det(((Poly.variable(2, 0), Poly.variable(2, 1)),))


def test_power_builds_nothing_above_the_result(monkeypatch):
    p = parse_poly("y1 + 2*y2 - 1", YS)
    powers = [Poly.constant(4, 1)]
    while len(powers) < 7:
        powers.append(powers[-1] * p)
    degrees, mul = [], Poly.__mul__

    def recording_mul(a, b):
        product = mul(a, b)
        degrees.append(product.total_degree())
        return product

    monkeypatch.setattr(Poly, "__mul__", recording_mul)
    for k, expected in enumerate(powers):
        degrees.clear()
        assert p ** k == expected
        assert max(degrees, default=0) <= k


def test_in_ideal_power():
    p = parse_poly("y1^2*y4 - y1*y2*y3", YS)
    assert in_ideal_power(p, (0, 1), 2)
    assert not in_ideal_power(p, (0, 1), 3)
    assert in_ideal_power(Poly.zero(4), (0, 1), 7)


def test_ideal_power_multiplicativity():
    rng = random.Random(7)
    for _ in range(50):
        p = _random_poly(rng, 3)
        q = _random_poly(rng, 3)
        subset = (0, 1)
        kp = degree_in(p, subset)
        kq = degree_in(q, subset)
        if kp is None or kq is None:
            continue
        assert in_ideal_power(p * q, subset, kp + kq)


def _to_sympy(p, symbols):
    expr = sympy.Integer(0)
    for e, c in p.terms.items():
        term = sympy.Rational(c.numerator, c.denominator)
        for s, k in zip(symbols, e):
            term *= s ** k
        expr += term
    return sympy.expand(expr)


def _random_poly(rng, num_vars, max_terms=4, max_deg=3):
    terms = {}
    for _ in range(rng.randint(1, max_terms)):
        e = tuple(rng.randint(0, max_deg) for _ in range(num_vars))
        terms[e] = Fraction(rng.randint(-4, 4), rng.choice([1, 1, 2, 3]))
    return Poly(num_vars, terms)


def test_substitution_against_sympy_oracle():
    rng = random.Random(11)
    syms = sympy.symbols("t1 t2")
    for _ in range(10):
        p = _random_poly(rng, 2)
        images = tuple(_random_poly(rng, 2, max_terms=2, max_deg=2) for _ in range(2))
        # p minus its mirror image, under a map with equal images, cancels to zero
        mirror = Poly(2, {e[::-1]: c for e, c in p.terms.items()})
        for q, m in [(p, PolyMap(images)), (p - mirror, PolyMap(images[:1] * 2))]:
            ours = substitute(q, m)
            theirs = sympy.expand(_to_sympy(q, syms).subs(
                [(syms[i], _to_sympy(m.images[i], syms)) for i in range(2)],
                simultaneous=True))
            assert _to_sympy(ours, syms) == theirs
        assert ours.terms == {}


def test_jacobian_against_sympy_oracle():
    rng = random.Random(13)
    syms = sympy.symbols("t1 t2")
    for _ in range(10):
        images = tuple(_random_poly(rng, 2, max_terms=3, max_deg=2) for _ in range(2))
        m = PolyMap(images)
        ours = poly_det(jacobian(m))
        mat = sympy.Matrix([[sympy.diff(_to_sympy(images[i], syms), syms[j])
                             for j in range(2)] for i in range(2)])
        assert _to_sympy(ours, syms) == sympy.expand(mat.det())


# -- coefficients and the public constructor ------------------------------------

def test_public_constructor_validates_and_drops_zeros():
    for bad in [(1,), (1, 0, 0), (1, -1)]:
        with pytest.raises(ValueError):
            Poly(2, {bad: 1})
    p = Poly(2, {(1, 0): 0, (0, 1): Fraction(0), (0, 0): Fraction(6, 3), (2, 0): Fraction(1, 2)})
    assert p.terms == {(0, 0): 2, (2, 0): Fraction(1, 2)}
    assert type(p.terms[(0, 0)]) is int
    assert Poly(2, {(1, 0): 0}).terms == {}


def test_total_cancellation_stores_no_zero():
    p = parse_poly("y1*y2 - 3/2*y3 + 7", YS)
    for zero in [p + (-p), p - p, p * 0, p * Fraction(0), p * Poly.zero(4), 0 * p]:
        assert zero.terms == {}
    # the cross terms of (y1 + y2)(y1 - y2) cancel
    assert (parse_poly("y1 + y2", YS) * parse_poly("y1 - y2", YS)).terms == {
        (2, 0, 0, 0): 1, (0, 2, 0, 0): -1}
    t = Poly.variable(1, 0)
    assert substitute(parse_poly("y1*y4 - y2*y3", YS), PolyMap((t, t, t, t))).terms == {}
    y1, y2 = Poly.variable(2, 0), Poly.variable(2, 1)
    assert poly_det(((y1, y2), (y1, y2))).terms == {}


def test_int_and_fraction_coefficients_behave_alike():
    def doc(p):
        return [{"coefficient": c, "exponents": list(e)} for e, c in p.sorted_terms()]

    built = [Poly(2, {(1, 0): 3, (0, 0): -1}), Poly(2, {(1, 0): Fraction(3), (0, 0): Fraction(-1)})]
    assert [type(c) for p in built for c in p.terms.values()] == [int] * 4
    # arithmetic may leave an integral value as a Fraction
    mixed = Poly(2, {(1, 0): Fraction(3, 2), (0, 0): Fraction(-1, 2)}) * 2
    assert [type(c) for c in mixed.terms.values()] == [Fraction] * 2
    for p in built + [mixed]:
        assert p == built[0] and hash(p) == hash(built[0])
        assert p.render() == "3*y1 - 1"
        assert json.dumps(encode(doc(p))) == json.dumps(encode(doc(built[0])))


@pytest.fixture
def made(monkeypatch):
    """Every Poly built while the test runs, by either constructor."""
    made = []
    init, trusted = Poly.__init__, Poly._trusted.__func__

    def recording_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        made.append(self)

    def recording_trusted(cls, num_vars, terms):
        made.append(trusted(cls, num_vars, terms))
        return made[-1]

    monkeypatch.setattr(Poly, "__init__", recording_init)
    monkeypatch.setattr(Poly, "_trusted", classmethod(recording_trusted))
    return made


# the variable a shear of y_i multiplies, and the two degree-zero products it may use
SHEAR_SHAPES = {0: (1, (1, 2), (1, 3)), 1: (0, (0, 2), (0, 3)),
                2: (3, (0, 3), (1, 3)), 3: (2, (0, 2), (1, 2))}


def _random_shear(rng, ring):
    index = rng.randrange(4)
    front, u, v = SHEAR_SHAPES[index]
    y = [Poly.variable(4, i) for i in range(4)]
    f = Poly.zero(4)
    while f.is_zero():
        for l in range(2):
            for r in range(2 - l):
                c = Fraction(rng.randint(-2, 2), rng.choice((1, 1, 2)))
                f = f + c * y[front] * (y[u[0]] * y[u[1]]) ** l * (y[v[0]] * y[v[1]]) ** r
    return elementary_shear(ring, index, f)


def test_coefficients_are_never_float_or_bool(made):
    for path in sorted(FIXTURE_DIR.glob("*.json")):
        doc = json.loads(path.read_text())
        with contextlib.redirect_stdout(io.StringIO()):
            assert main([doc["command"], str(path)]) == 0
    rng = random.Random(41)
    ring = quadric_grading()
    one = Poly.constant(4, 1)
    for _ in range(8):
        shears = [_random_shear(rng, ring) for _ in range(rng.randint(2, 4))]
        inverses = [elementary_inverse(e) for e in reversed(shears)]
        chain = compose_chain([e.map for e in shears])
        assert poly_det(jacobian(chain)) == one
        assert compose_chain([chain] + [e.map for e in inverses]).is_identity()
        assert all(verify_inverse(e, e_inv) for e, e_inv in zip(shears, reversed(inverses)))
        p = chain.images[rng.randrange(4)]
        q = parse_poly(p.render(YS), YS)
        assert q == p and (p - q).terms == {} and p + q == 2 * p and p * q == q ** 2
        assert p.derivative(0) * 3 == (3 * p).derivative(0) and p * True == p
        assert substitute(p * Fraction(2, 3), chain) == substitute(p, chain) * Fraction(2, 3)
    linear = elementary_linear(ring, [[2, 0, 0, 0], [1, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]])
    assert verify_inverse(linear, elementary_inverse(linear))
    kinds = {type(c) for p in made for c in p.terms.values()}
    assert kinds == {int, Fraction}


def test_poly_det_leaves_no_reference_cycle():
    """The memoized cofactor expansion leaves nothing for the cycle
    collector, on the Jacobian of a six-shear chain."""
    rng = random.Random(7)
    chain = compose_chain([_random_shear(rng, quadric_grading()).map for _ in range(6)])
    j = jacobian(chain)
    assert sum(len(p.terms) for row in j for p in row) > 80
    gc.collect()
    gc.disable()
    try:
        assert poly_det(j) == Poly.constant(4, 1)
        assert gc.collect() == 0
    finally:
        gc.enable()


@pytest.mark.parametrize("bad", [0.1, 1.0, 0.0, "1/2", None, 1j],
                         ids=["float", "integral_float", "zero_float", "str", "none", "complex"])
def test_public_constructors_take_exact_coefficients_only(bad):
    for build in (lambda: Poly(1, {(1,): bad}), lambda: Poly.constant(1, bad),
                  lambda: Poly.monomial((1,), bad)):
        with pytest.raises(ValueError, match="ints or Fractions"):
            build()


@pytest.mark.parametrize("bad", [0.5, 2.0, "1", None, 1j],
                         ids=["float", "integral_float", "str", "none", "complex"])
def test_ring_operators_refuse_inexact_operands(bad):
    p = Poly.variable(2, 0)
    for op in (lambda: p * bad, lambda: bad * p, lambda: p + bad, lambda: bad + p,
               lambda: p - bad, lambda: bad - p, lambda: p ** bad):
        with pytest.raises(TypeError):
            op()


def test_bool_stays_an_int_coefficient():
    p = Poly.variable(2, 0)
    assert p * True == p and p + False == p and p ** True == p
    assert Poly(2, {(1, 0): True}) == p and type(Poly(2, {(1, 0): True}).terms[(1, 0)]) is int


def _reference_mul(p, q):
    """The product as a plain loop over exponent tuples."""
    terms = {}
    for e1, c1 in p.terms.items():
        for e2, c2 in q.terms.items():
            e = tuple(a + b for a, b in zip(e1, e2))
            terms[e] = terms.get(e, 0) + c1 * c2
    return {e: c for e, c in terms.items() if c}


def _snapshot(polys):
    return [(p.terms, dict(p.terms)) for p in polys]


def _assert_untouched(snapshot, result):
    for terms, copy in snapshot:
        assert terms == copy
        assert result.terms is not terms


def _seeded_matrices(rng):
    """Square matrices of size 1-5 over 1-3 variables: random Fraction and
    int entries, zero rows and columns, repeated and summed rows, constant
    entries, entries that cancel to 0 and rows that cancel in the expansion."""
    cases = []
    for k in range(200):
        n = 1 + k % 5
        nv = rng.randint(1, 3)
        kind = k // 5 % 8

        def entry():
            if kind == 3:
                return Poly.constant(nv, Fraction(rng.randint(-3, 3), rng.choice((1, 2))))
            if kind == 4:  # int coefficients only
                return Poly(nv, {tuple(rng.randint(0, 2) for _ in range(nv)): rng.randint(-3, 3)
                                 for _ in range(rng.randint(1, 3))})
            return _random_poly(rng, nv, max_terms=3, max_deg=2)

        rows = [[entry() for _ in range(n)] for _ in range(n)]
        i, j = rng.randrange(n), rng.randrange(n)
        if kind == 0:
            rows[i] = [Poly.zero(nv)] * n
        elif kind == 1:
            for row in rows:
                row[j] = Poly.zero(nv)
        elif kind == 2 and n > 1:
            rows[(i + 1) % n] = list(rows[i])
        elif kind == 5 and n > 2:  # a row that is the sum of two others
            rows[2] = [a + b for a, b in zip(rows[0], rows[1])]
        elif kind == 6:  # an entry p - p, and a row that is minus the one before it
            rows[i][j] = rows[i][j] - rows[i][j]
            if n > 1:
                rows[(i + 1) % n] = [-p for p in rows[i]]
        cases.append(tuple(tuple(row) for row in rows))
    return cases


def test_poly_det_matches_the_reference_expansion():
    """The in-place expansion against the one that built a Poly per
    cofactor product, on 200 seeded matrices and the Jacobians of seeded
    shear chains.  No input changes and no result shares an input's dict."""
    rng = random.Random(32)
    cases = _seeded_matrices(rng)
    ring = quadric_grading()
    for k in range(24):
        chain = compose_chain([_random_shear(rng, ring).map for _ in range(1 + k % 4)])
        cases.append(jacobian(chain))
    seen = {"zero": 0, "fraction": 0}
    for matrix in cases:
        snapshot = _snapshot([p for row in matrix for p in row])
        want = reference_det(matrix)
        got = poly_det(matrix)
        assert got == want and got.num_vars == want.num_vars
        assert all(c for c in got.terms.values())
        _assert_untouched(snapshot, got)
        seen["zero"] += got.is_zero()
        seen["fraction"] += any(c.denominator != 1 for c in got.terms.values())
    assert len(cases) == 224 and seen["zero"] >= 30 and seen["fraction"] >= 30
    assert all(poly_det(j) == Poly.constant(4, 1) for j in cases[200:])


def test_one_by_one_determinant_is_a_copy():
    p = parse_poly("y1 - 1/2*y2", YS)
    det = poly_det(((p,),))
    assert det == p and det.terms is not p.terms


def test_product_matches_the_tuple_loop_reference():
    rng = random.Random(33)
    zero = Poly.zero(3)
    for _ in range(150):
        p = _random_poly(rng, 3, max_terms=5)
        q = _random_poly(rng, 3, max_terms=5)
        for a, b in ((p, q), (q, p), (p, p), (p, zero), (zero, q), (p, -p)):
            snapshot = _snapshot((a, b))
            product = a * b
            assert product.terms == _reference_mul(a, b)
            _assert_untouched(snapshot, product)
        # the kernel adds into what the dict holds: -1 * p * q cancels p * q
        terms = dict((p * q).terms)
        _mul_into(terms, p.terms, q.terms, -1)
        assert _drop_zeros(terms) == {}
    assert (Poly.variable(3, 0) * zero).terms == {}


def test_substitute_matches_the_poly_product_reference():
    """The shared power table against the earlier ``substitute``, which
    multiplied ``Poly`` objects: on 300 seeded maps with zero images,
    constant images, ``Fraction`` coefficients and polynomials whose images
    cancel.  The terms match key for key, in order, and no input changes."""
    rng = random.Random(34)
    seen = {"zero": 0, "fraction": 0}
    for k in range(300):
        nv, nt = 1 + k % 3, rng.randint(1, 3)
        images = [_random_poly(rng, nt, max_terms=3, max_deg=2) for _ in range(nv)]
        kind = k % 5
        if kind == 1:
            images[rng.randrange(nv)] = Poly.zero(nt)
        elif kind == 2:
            images[rng.randrange(nv)] = Poly.constant(nt, Fraction(rng.randint(-3, 3), 2))
        elif kind == 3 and nv > 1:  # equal images: p minus its mirror cancels
            images[1] = images[0]
        m = PolyMap(tuple(images))
        p = _random_poly(rng, nv, max_terms=5)
        if kind == 3 and nv > 1:
            p = p - Poly(nv, {(e[1], e[0], *e[2:]): c for e, c in p.terms.items()})
        snapshot = _snapshot([p, *images])
        want = oracles.substitute(p, m)
        got = substitute(p, m)
        assert list(got.terms.items()) == list(want.terms.items())
        assert got.num_vars == want.num_vars == nt
        _assert_untouched(snapshot, got)
        seen["zero"] += got.is_zero()
        seen["fraction"] += any(c.denominator != 1 for c in got.terms.values())
    assert seen["zero"] >= 30 and seen["fraction"] >= 100


def test_subtraction_builds_no_negated_copy(monkeypatch):
    rng = random.Random(35)
    pairs = [(_random_poly(rng, 3), _random_poly(rng, 3)) for _ in range(40)]
    want = [(p + (-q), p + (-p), p + Fraction(-1, 2)) for p, q in pairs]
    monkeypatch.setattr(Poly, "__neg__", None)
    assert [(p - q, p - p, p - Fraction(1, 2)) for p, q in pairs] == want
    assert all(not (p - p).terms for p, _ in pairs)
