import functools
import itertools
import math
import operator
import random
import time
import tracemalloc
from fractions import Fraction
from math import lcm

import pytest
import sympy

from coxtools import intlinalg as la
from coxtools import quotients
from coxtools.cli import _render_invariant
from coxtools.cones import Cone, hilbert_basis
from coxtools.cyclotomic import CycloNum, _reduce, cyclotomic_polynomial, euler_phi
from coxtools.monoids import AffineMonoid, divisor_theory
from coxtools.polynomials import _drop_zeros, _mul_into, _product
from coxtools.quotients import (ClosureCapExceededError, MatGroup, NotInvertibleError,
                                QuotientReport, _echelon, _monomial_images, c_mul,
                                close_group, pseudoreflections, quotient_report,
                                reynolds_invariants, symmetric_power_trace_dimension)
import oracles
from oracles import power as _power
from oracles import rref as _rref


def _i():
    return CycloNum.zeta(4)


def _q8():
    i = _i()
    return close_group([[[i, 0], [0, -i]], [[0, 1], [-1, 0]]], conductor=4)


def _reference_inverse(self):
    """The earlier ``CycloNum.inverse`` verbatim: a*x == 1 as one dense
    fraction-free elimination over the integers, column j being a*zeta^j."""
    if self.is_zero():
        raise ZeroDivisionError("inverse of zero")
    deg = len(self.num)
    cs = self.coeffs
    # a positive first coefficient keeps 1 - zeta^k's pivots at 1 (sparse)
    den = lcm(*{c.denominator for c in cs})
    if next(c for c in cs if c) < 0:
        den = -den
    num = [int(c * den) for c in cs]
    cols = [_reduce([0] * j + num, self.conductor) for j in range(deg)]
    rows = la.bareiss([[*row, int(i == 0)] for i, row in enumerate(zip(*cols))], deg)[0]
    # num * y == 1 with x == den * y; row i holds the pivot d at column i
    return CycloNum(self.conductor, [Fraction(den * row[deg], row[i])
                                     for i, row in enumerate(rows)])


# -- cyclotomic arithmetic ------------------------------------------------------

def test_cyclotomic_polynomials():
    assert cyclotomic_polynomial(1) == (-1, 1)
    # QQ(zeta_1) is QQ: reducing x modulo Phi_1 = x - 1 gives 1
    assert CycloNum.zeta(1) == CycloNum(1, (1,))
    assert cyclotomic_polynomial(4) == (1, 0, 1)
    assert cyclotomic_polynomial(3) == (1, 1, 1)
    assert cyclotomic_polynomial(12) == (1, 0, -1, 0, 1)
    assert euler_phi(12) == 4


def test_cyclotomic_field_ops():
    i = _i()
    assert i * i == CycloNum.rational(4, -1)
    z = CycloNum.zeta(5)
    acc = CycloNum.rational(5, 1)
    for _ in range(5):
        acc = acc * z
    assert acc.is_one()
    assert (z * z.inverse()).is_one()
    half = CycloNum.rational(4, Fraction(1, 2))
    assert (half + half).is_one()


def test_cyclonum_zero_test_and_reciprocal(monkeypatch):
    for m in (1, 3, 4, 5, 12):
        assert not CycloNum(m)
        assert CycloNum.zeta(m)
    calls = []
    inverse = CycloNum.inverse

    def counted(self):
        calls.append(self)
        return inverse(self)

    monkeypatch.setattr(CycloNum, "inverse", counted)
    for x in (CycloNum.zeta(5), CycloNum(5, (1, 2, 0, -3)), CycloNum.rational(12, 7)):
        calls.clear()
        assert 1 / x == inverse(x)
        assert len(calls) == 1


def _random_cyclonum(rng, n, density=0.7):
    return CycloNum(n, [Fraction(rng.randint(-6, 6), rng.randint(1, 5))
                        if rng.random() < density else 0 for _ in range(euler_phi(n))])


def test_inverse_of_random_elements():
    """x * x.inverse() is one for seeded rational-coefficient elements of
    every conductor 1..30 (phi(1) == phi(2) == 1)."""
    rng = random.Random(11)
    checked = 0
    for n in range(1, 31):
        for _ in range(11):
            x = _random_cyclonum(rng, n)
            if x:
                assert (x * x.inverse()).is_one()
                checked += 1
    assert checked >= 300


def test_inverse_matches_the_bareiss_reference():
    """The Euclid inverse equals the dense elimination's, in normal form,
    on seeded elements of every conductor 1..60 and sparse ones at 420
    and 1000 (at 1000 only where the elimination has unit pivots)."""
    rng = random.Random(24)
    cases = []
    for n in range(1, 61):
        cases += [_random_cyclonum(rng, n, density) for density in (0.3, 0.7, 1.0)]
        cases += [CycloNum.zeta(n), 1 - CycloNum.zeta(n), CycloNum.rational(n, Fraction(-5, 3))]
    z = CycloNum.zeta(420)
    cases += [CycloNum(420, [1, 2, 0, 0, 0, Fraction(1, 3)]), 2 - z, CycloNum.rational(420, -7)]
    z = CycloNum.zeta(1000)
    cases += [_power(z, 7), 1 - _power(z, 3), 1 + z - _power(z, 9), CycloNum.rational(1000, -1)]
    checked = 0
    for x in cases:
        if x:
            got = x.inverse()
            assert got == _reference_inverse(x) and (x * got).is_one()
            assert math.gcd(got.den, *got.num) == 1 and got.den > 0
            checked += 1
    assert checked >= 350


def test_inverse_at_the_largest_conductor_is_fast():
    """Conductor 1000 is the CLI's largest; the dense elimination took
    seconds on this element."""
    x = CycloNum(1000, [1, 2, 0, 0, 0, Fraction(1, 3)])
    start = time.perf_counter()
    y = x.inverse()
    assert time.perf_counter() - start < 0.5
    assert (x * y).is_one()


def test_subtraction_from_a_rational():
    for n in (1, 3, 4, 5, 12):
        z = CycloNum.zeta(n)
        for c in (1, -3, Fraction(2, 7)):
            assert c - z == CycloNum.rational(n, c) - z
            assert (c - z) + z == c
        assert Fraction(1, 2) - CycloNum(n) == CycloNum.rational(n, Fraction(1, 2))


def test_arithmetic_results_hold_the_constructor_invariant():
    """+, -, unary - and * build their results without the public
    constructor; each must equal its rebuilt value, with phi(n) Fraction
    coefficients and the same hash.  The products are also checked
    against sympy's remainder modulo Phi_n."""
    x = sympy.Symbol("x")
    rng = random.Random(18)
    for n in range(1, 31):
        deg = euler_phi(n)
        phi = sympy.Poly(sympy.cyclotomic_poly(n, x), x)
        elements = [CycloNum(n), CycloNum.rational(n, Fraction(-3, 4)), CycloNum.zeta(n)]
        elements += [_random_cyclonum(rng, n, density) for density in (0.2, 0.7, 1.0)]
        for a, b in itertools.product(elements, repeat=2):
            prod = a * b
            for r in (a + b, a - b, -a, prod):
                rebuilt = CycloNum(n, r.coeffs)
                assert r == rebuilt and hash(r) == hash(rebuilt)
                assert len(r.coeffs) == deg
                assert all(isinstance(c, Fraction) for c in r.coeffs)
            full = sympy.Poly(a.coeffs[::-1], x) * sympy.Poly(b.coeffs[::-1], x)
            want = [Fraction(str(c)) for c in full.rem(phi).all_coeffs()[::-1]]
            assert list(prod.coeffs) == want + [0] * (deg - len(want))


def test_arithmetic_results_are_in_normal_form():
    """Every +, -, unary - and * result is ``num / den`` with int entries,
    den > 0 and gcd(den, *num) == 1; zero is all zeros over 1; and the
    hash is that of the element rebuilt from its coefficients."""
    rng = random.Random(18)
    for n in range(1, 31):
        deg = euler_phi(n)
        elements = [CycloNum(n), CycloNum.rational(n, Fraction(-3, 4)), CycloNum.zeta(n)]
        elements += [_random_cyclonum(rng, n, density) for density in (0.2, 0.7, 1.0)]
        for a, b in itertools.product(elements, repeat=2):
            for r in (a + b, a - b, -a, a * b):
                assert len(r.num) == deg and all(type(c) is int for c in r.num)
                assert type(r.den) is int and r.den > 0
                assert math.gcd(r.den, *r.num) == 1
                if not r:
                    assert (r.num, r.den) == ((0,) * deg, 1)
                assert hash(r) == hash(CycloNum(n, r.coeffs))


def test_integral_arithmetic_creates_no_fraction(monkeypatch):
    """+, -, *, /, inverse and rational of elements with integral
    coefficients work on the integer numerators alone: not one Fraction is
    created."""
    rng = random.Random(5)
    pairs = []
    for n in (1, 3, 4, 5, 7, 8, 12, 15, 24):
        elements = [CycloNum(n), CycloNum.zeta(n)]
        elements += [CycloNum(n, [rng.randint(-6, 6) for _ in range(euler_phi(n))])
                     for _ in range(4)]
        pairs += itertools.product(elements, repeat=2)
    created = []
    new = Fraction.__new__

    def counting_new(cls, *args, **kwargs):
        created.append(args)
        return new(cls, *args, **kwargs)

    ops = (operator.add, operator.sub, operator.mul)
    monkeypatch.setattr(Fraction, "__new__", counting_new)
    results = [op(a, b) for a, b in pairs for op in ops]
    inverses = [(b.inverse(), a / b, 1 / b) for a, b in pairs if b]
    rationals = [CycloNum.rational(n, k) for n in (1, 5, 12) for k in (-3, 0, 1, 7)]
    assert created == []
    CycloNum(5, [1])  # the public constructor still coerces: the count sees it
    assert created
    monkeypatch.undo()
    assert results == [op(CycloNum(a.conductor, a.coeffs), CycloNum(b.conductor, b.coeffs))
                       for a, b in pairs for op in ops]
    assert inverses == [(_reference_inverse(b), a * _reference_inverse(b), _reference_inverse(b))
                        for a, b in pairs if b]
    assert rationals == [CycloNum(n, [k]) for n in (1, 5, 12) for k in (-3, 0, 1, 7)]


@pytest.mark.parametrize("conductor", [4.9, 0, -4, Fraction(4), "4", None, True, False])
def test_cyclonum_refuses_a_conductor_that_is_not_a_positive_int(conductor):
    with pytest.raises(ValueError):
        CycloNum(conductor, [1, 1])
    with pytest.raises(ValueError):
        CycloNum.rational(conductor, 1)


@pytest.mark.parametrize("coeff", [0.1, 1.0, "1/2", None, 1j])
def test_cyclonum_refuses_coefficients_that_are_not_int_or_fraction(coeff):
    with pytest.raises(ValueError):
        CycloNum(3, [1, coeff])
    with pytest.raises(ValueError):
        CycloNum.rational(3, coeff)


def _gmp(m, p):
    """The imprimitive reflection group G(m, p, 2), closed."""
    return close_group(*oracles.gmp(m, p))


# (m, p) -> (|G|, |H|, |H~|, F abelian, |[F, F]|, N invariants, toric,
#            number of pseudoreflections)
GMP_REPORTS = {
    (1, 1): (2, 2, 2, True, 1, (), True, 1),
    (2, 1): (8, 8, 8, True, 1, (), True, 4),
    (2, 2): (4, 4, 4, True, 1, (), True, 2),
    (3, 1): (18, 18, 18, True, 1, (), True, 7),
    (3, 3): (6, 6, 6, True, 1, (), True, 3),
    (4, 1): (32, 32, 32, True, 1, (), True, 10),
    (4, 2): (16, 16, 16, True, 1, (), True, 6),
    (4, 4): (8, 8, 8, True, 1, (), True, 4),
    (5, 1): (50, 50, 50, True, 1, (), True, 13),
    (5, 5): (10, 10, 10, True, 1, (), True, 5),
    (6, 1): (72, 72, 72, True, 1, (), True, 16),
    (6, 2): (36, 36, 36, True, 1, (), True, 10),
    (6, 3): (24, 24, 24, True, 1, (), True, 8),
    (6, 6): (12, 12, 12, True, 1, (), True, 6),
}


# -- closure ---------------------------------------------------------------------

def test_q8_closure_order():
    assert _q8().order == 8


def test_closure_of_identity():
    g = close_group([[[1, 0], [0, 1]]], conductor=1)
    assert g.order == 1


def test_closure_of_cube_root_diagonal():
    z = CycloNum.zeta(3)
    zero = CycloNum(3)
    g = close_group([[[z, zero], [zero, z.inverse()]]], conductor=3)
    assert g.order == 3


def test_closure_cap():
    z = CycloNum.zeta(5)
    zero = CycloNum(5)
    with pytest.raises(ClosureCapExceededError):
        close_group([[[z, zero], [zero, z]]], conductor=5, cap=3)


def _reference_c_mul(a, b):
    """The dense product: every entry pair multiplied, each sum from zero."""
    n = len(a)
    m = len(b[0])
    k = len(b)
    out = []
    for i in range(n):
        row = []
        for j in range(m):
            acc = CycloNum(a[0][0].conductor)
            for t in range(k):
                acc = acc + a[i][t] * b[t][j]
            row.append(acc)
        out.append(tuple(row))
    return tuple(out)


def _random_matrix(rng, n, rows, cols, kind):
    zero = CycloNum(n)
    if kind == "dense":
        return tuple(tuple(_random_cyclonum(rng, n) for _ in range(cols)) for _ in range(rows))
    if kind == "monomial":
        cs = rng.sample(range(cols), rows) if rows <= cols else \
            [rng.randrange(cols) for _ in range(rows)]
        return tuple(tuple(_random_cyclonum(rng, n, 1.0) if c == cs[r] else zero
                           for c in range(cols)) for r in range(rows))
    zero_row = rng.randrange(rows)
    return tuple(tuple(zero if r == zero_row else _random_cyclonum(rng, n, 0.5)
                       for _ in range(cols)) for r in range(rows))


def test_c_mul_matches_the_dense_product():
    rng = random.Random(3)
    kinds = ("dense", "monomial", "zero-row")
    for n in (1, 3, 4, 5, 8, 12):
        for _ in range(12):
            rows, inner, cols = (rng.randint(1, 4) for _ in range(3))
            for ka, kb in itertools.product(kinds, repeat=2):
                a = _random_matrix(rng, n, rows, inner, ka)
                b = _random_matrix(rng, n, inner, cols, kb)
                assert c_mul(a, b) == _reference_c_mul(a, b)


def test_closure_multiplies_only_orbit_rows(monkeypatch):
    """G(4,1,2) is monomial: the orbit of the identity's rows is the 8
    vectors zeta^k e_i, the rows of the 32 elements.  The closure makes one
    row product per orbit vector and generator (24), each a single entry
    multiplication, and no matrix product."""
    z = CycloNum.zeta(4)
    zero, one = CycloNum(4), CycloNum.rational(4, 1)
    gens = [[[zero, one], [one, zero]], [[zero, z.inverse()], [z, zero]], [[z, zero], [zero, one]]]
    products, counts = [], {"mul": 0, "c_mul": 0}
    inside = [False]
    mul, row_times = CycloNum.__mul__, quotients._row_times

    def counting_mul(self, other):
        counts["mul"] += inside[0]
        return mul(self, other)

    def counting_row_times(v, rows, zeros):
        before = counts["mul"]
        inside[0] = True
        out = row_times(v, rows, zeros)
        inside[0] = False
        products.append(counts["mul"] - before)
        return out

    def counting_c_mul(a, b):
        counts["c_mul"] += 1
        return c_mul(a, b)

    monkeypatch.setattr(CycloNum, "__mul__", counting_mul)
    monkeypatch.setattr(quotients, "_row_times", counting_row_times)
    monkeypatch.setattr(quotients, "c_mul", counting_c_mul)
    group = close_group(gens, conductor=4)
    orbit = {row for e in group.elements for row in e}
    assert group.order == 32 and len(orbit) == 8
    assert products == [1] * 24 and counts["mul"] == 24 and counts["c_mul"] == 0


def test_conductor_inferred_from_any_cyclotomic_entry():
    i = _i()
    g = close_group([[[0, 1], [-1, 0]], [[i, 0], [0, -i]]])
    assert g.conductor == 4 and g.order == 8
    assert close_group([[[0, 1], [1, 0]]]).conductor == 1


def test_singular_generator_rejected():
    with pytest.raises(NotInvertibleError):
        close_group([[[1, 1], [1, 1]]], conductor=1)


def test_lagrange_order_divides():
    g = _q8()
    rep = quotient_report(g)
    assert rep.order_g % rep.order_h == 0
    assert rep.order_g % rep.order_h_tilde == 0
    assert rep.order_h_tilde % rep.order_h == 0


# -- pseudoreflections -------------------------------------------------------------

def test_q8_has_no_pseudoreflections():
    assert pseudoreflections(_q8()) == ()


def test_single_reflection():
    g = close_group([[[-1, 0], [0, 1]]], conductor=1)
    assert len(pseudoreflections(g)) == 1


def test_swap_is_pseudoreflection():
    g = close_group([[[0, 1], [1, 0]]], conductor=1)
    assert len(pseudoreflections(g)) == 1


def _test_groups():
    i, z3, z5 = _i(), CycloNum.zeta(3), CycloNum.zeta(5)
    groups = [
        _q8(),
        close_group([[[z3, 0], [0, z3.inverse()]]], conductor=3),
        close_group([[[z5 * z5 * z5, 0, 0], [0, z5, 0], [0, 0, z5.inverse()]]], conductor=5),
        close_group([[[-1, 0], [0, 1]]], conductor=1),
        close_group([[[0, 1], [1, 0]]], conductor=1),
        close_group([[[0, -1], [1, 0]], [[0, 1], [1, 0]]], conductor=1),
        close_group([[[-1, 0], [0, 1]], [[i, 0], [0, i]]], conductor=4),
    ]
    return groups + [_gmp(m, p) for m, p in GMP_REPORTS]


def test_pseudoreflections_are_closed_under_conjugation():
    """x R x^-1 == R, checked as x R == R x for every element x."""
    for g in _test_groups():
        refl = pseudoreflections(g)
        for x in g.elements:
            assert {c_mul(x, p) for p in refl} == {c_mul(p, x) for p in refl}


def _binary_dihedral(n):
    return close_group(*oracles.binary_dihedral(n))


def _reference_pseudoreflections(group):
    """The elimination test: rank(A - I) == 1 by row reduction."""
    one = CycloNum.rational(group.conductor, 1)
    return [i for i, a in enumerate(group.elements)
            if len(_rref([[x - one if r == c else x for c, x in enumerate(row)]
                          for r, row in enumerate(a)])[1]) == 1]


def test_pseudoreflections_match_elimination_reference(monkeypatch):
    groups = _test_groups() + [_binary_dihedral(n) for n in range(3, 9)]
    expected = [_reference_pseudoreflections(g) for g in groups]
    monkeypatch.setattr(quotients, "_echelon", None)  # the minor test needs no elimination
    for g, want in zip(groups, expected):
        assert [g.index_of(a) for a in pseudoreflections(g)] == want


def _monomial_matrix(n, perm, exps):
    """Row r holds zeta_n^exps[r] at column perm[r]."""
    z = CycloNum.zeta(n)
    return [[_power(z, exps[r] % n) if c == perm[r] else CycloNum(n) for c in range(len(perm))]
            for r in range(len(perm))]


def _gmpn_generators(m, p, dim):
    """G(m, p, dim): the adjacent transpositions, the first one twisted by
    diag(z^-1, z), and diag(z^p, 1, ..., 1) when p < m."""
    swaps = [[*range(i), i + 1, i, *range(i + 2, dim)] for i in range(dim - 1)]
    gens = [_monomial_matrix(m, perm, [0] * dim) for perm in swaps]
    gens.append(_monomial_matrix(m, swaps[0], [-1, 1] + [0] * (dim - 2)))
    if p < m:
        gens.append(_monomial_matrix(m, range(dim), [p] + [0] * (dim - 1)))
    return gens


def _padded(g, n, dim):
    """g on the first coordinates and the identity on the rest."""
    k = len(g)
    return [[g[r][c] if r < k and c < k else CycloNum.rational(n, int(r == c))
             for c in range(dim)] for r in range(dim)]


def _unimodular(rng, dim):
    """A unit lower times a unit upper triangular integer matrix."""
    low = [[1 if i == j else rng.randint(-1, 1) if j < i else 0 for j in range(dim)]
           for i in range(dim)]
    up = [[1 if i == j else rng.randint(-1, 1) if j > i else 0 for j in range(dim)]
          for i in range(dim)]
    return la.mat_mul(low, up)


def _conjugated_by(gens, n, p):
    p, pinv = quotients.cmat(n, p), quotients.cmat(n, la.inverse_int(p))
    return [c_mul(c_mul(p, quotients.cmat(n, g)), pinv) for g in gens]


def _screen_groups():
    """Groups in dimensions 2-4, each as given and conjugated by a seeded
    unimodular integer matrix: G(m, p, dim), binary dihedral groups with
    fixed coordinates added, and seeded monomial groups."""
    rng = random.Random(29)
    cases = [(_gmpn_generators(m, p, dim), m)
             for m, p, dim in ((6, 2, 2), (3, 1, 3), (4, 2, 3), (3, 3, 3), (6, 6, 3), (2, 1, 4),
                               (2, 2, 4), (3, 3, 4))]
    for n, dim in ((5, 3), (6, 3), (8, 3), (4, 4), (6, 4)):
        cases.append(([_padded(g, n, dim) for g in _binary_dihedral(n).generators], n))
    for dim, conductors in ((2, (5, 12)), (3, (2, 3, 4, 6)), (4, (1, 2))):
        cases += [(_seeded_generators(rng, dim, n)[0], n) for n in conductors]
    for gens, n in cases:
        yield close_group(gens, conductor=n)
        yield close_group(_conjugated_by(gens, n, _unimodular(rng, len(gens[0]))), conductor=n)


def test_screened_pseudoreflections_match_elimination_on_conjugated_groups():
    """The screen tr A - det A == n - 1 holds for every pseudoreflection
    and for I.  In dimensions 2 and 3 nothing else of finite order passes
    it: with eigenvalues a, b, c, the sum a + b + c - abc - 1 - 1 of roots
    of unity vanishes only when two of them are 1, as no minimal vanishing
    sum of weight <= 6 holds -1 twice (Poonen and Rubinstein, 1998).  On
    these groups the screen passes nothing else in dimension 4 either."""
    for g in _screen_groups():
        want = _reference_pseudoreflections(g)
        assert [g.index_of(a) for a in pseudoreflections(g)] == want
        zero = CycloNum(g.conductor)
        passed = [k for k, (a, det) in enumerate(zip(g.elements, quotients._element_dets(g)))
                  if sum([row[i] for i, row in enumerate(a)], zero) - det == g.dim - 1]
        assert passed == sorted({0, *want})


def _elimination_det(a):
    """det a by dense Gaussian elimination with row swaps."""
    rows = [list(row) for row in a]
    det = CycloNum.rational(rows[0][0].conductor, 1)
    for c in range(len(rows)):
        piv = next((i for i in range(c, len(rows)) if rows[i][c]), None)
        if piv is None:
            return det - det
        if piv != c:
            rows[c], rows[piv], det = rows[piv], rows[c], -det
        det = det * rows[c][c]
        for i in range(c + 1, len(rows)):
            f = rows[i][c] / rows[c][c]
            rows[i] = [x - f * y for x, y in zip(rows[i], rows[c])]
    return det


def test_cayley_graph_determinants_match_elimination():
    groups = _test_groups() + [_binary_dihedral(n) for n in range(3, 9)] + \
        [_diagonal_3gen(), _q8_with_reflection(), _alternating_4()]
    for g in groups:
        want = [_elimination_det(a) for a in g.elements]
        assert quotients._element_dets(g) == want
        assert [quotients._det(g.conductor, a) for a in g.elements] == want
        assert list(g.gen_dets) == [_elimination_det(a) for a in g.generators]


def test_determinant_of_a_singular_or_permuted_matrix():
    for rows, det in [([[1, 2], [2, 4]], 0), ([[0, 0], [0, 0]], 0), ([[0, 1], [1, 0]], -1),
                      ([[0, 1, 0], [0, 0, 1], [1, 0, 0]], 1), ([[0, 0, 2], [0, 3, 0], [5, 0, 0]], -30),
                      ([[2, 1, 1], [1, 3, 2], [1, 0, 0]], -1), ([[1, 2, 3], [4, 5, 6], [7, 8, 9]], 0)]:
        a = quotients.cmat(3, rows)
        assert quotients._det(3, a) == _elimination_det(a) == det


def _diagonal_3gen():
    """<diag(-1,1,1), diag(z^2,1,1), diag(z,z,z^5)> over Q(zeta_6): order
    36, H = {diag(z^a,1,1)} of order 6 generated by reflections of orders
    2 and 3, and F cyclic of order 6."""
    z = CycloNum.zeta(6)
    zero, one = CycloNum(6), CycloNum.rational(6, 1)
    diags = [(-one, one, one), (z * z, one, one), (z, z, z.inverse())]
    return close_group([[[d[r] if r == c else zero for c in range(3)] for r in range(3)]
                        for d in diags], conductor=6)


def _q8_with_reflection():
    """Q8 on the first two coordinates and a reflection on the third:
    H has order 2 and F = Q8, whose third generator is the first not to
    commute with the others."""
    i = _i()
    return close_group([[[1, 0, 0], [0, 1, 0], [0, 0, -1]],
                        [[i, 0, 0], [0, -i, 0], [0, 0, 1]],
                        [[0, 1, 0], [-1, 0, 0], [0, 0, 1]]], conductor=4)


def _alternating_4():
    """A4 permuting four coordinates: no reflections, [F, F] = V4."""
    perms = [(1, 2, 0, 3), (0, 2, 3, 1)]
    return close_group([[[int(p[r] == c) for c in range(4)] for r in range(4)] for p in perms])


@functools.lru_cache(maxsize=None)
def _oracle_groups():
    """Groups with their multiplication tables from matrix products."""
    groups = _test_groups() + [_binary_dihedral(n) for n in range(3, 9)] + \
        [_diagonal_3gen(), _q8_with_reflection(), _alternating_4()]
    return tuple((g, [[g.index_of(c_mul(a, b)) for b in g.elements] for a in g.elements])
                 for g in groups)


def _reference_report(group, table):
    """The quotient analysis on coset representatives and the matrix
    multiplication table: the commutator subgroup of F by closure, and
    N's relations from every exponent vector of the generators' orders."""
    refl = [group.index_of(a) for a in pseudoreflections(group)]
    h_elements = [0]
    for a in h_elements:
        h_elements += [b for b in dict.fromkeys(table[a][r] for r in refl)
                       if b not in h_elements]
    coset_of = {}
    coset_reps = []
    for a in range(group.order):
        if a not in coset_of:
            coset_of.update((table[a][h], len(coset_reps)) for h in h_elements)
            coset_reps.append(a)
    f_order = len(coset_reps)

    def f_mul(i, j):
        return coset_of[table[coset_reps[i]][coset_reps[j]]]

    f_inv = {i: next(j for j in range(f_order) if f_mul(i, j) == 0) for i in range(f_order)}
    f_abelian = all(f_mul(i, j) == f_mul(j, i)
                    for i in range(f_order) for j in range(i + 1, f_order))
    commutators = {f_mul(f_mul(i, j), f_mul(f_inv[i], f_inv[j]))
                   for i in range(f_order) for j in range(f_order)}
    cc = [0]
    for a in cc:
        cc += [b for b in dict.fromkeys(f_mul(a, c) for c in commutators) if b not in cc]
    n_of = {}
    for i in range(f_order):
        if i not in n_of:
            n_of.update((f_mul(i, c), i) for c in cc)
    gen_cosets = [coset_of[group.index_of(g)] for g in group.generators]

    def n_word(expo):
        acc = 0
        for g, e in zip(gen_cosets, expo):
            for _ in range(e):
                acc = f_mul(acc, g)
        return n_of[acc]

    orders = []
    for g in gen_cosets:
        k, acc = 1, g
        while n_of[acc] != n_of[0]:
            acc, k = f_mul(acc, g), k + 1
        orders.append(k)
    relations = [tuple(o if i == j else 0 for j in range(len(orders)))
                 for i, o in enumerate(orders)]
    relations += [e for e in itertools.product(*(range(o) for o in orders))
                  if any(e) and n_word(e) == n_of[0]]
    s = la.snf(relations)[0]
    diag = [s[i][i] for i in range(len(orders))]
    return QuotientReport(
        order_g=group.order, order_h=len(h_elements),
        order_h_tilde=len(cc) * len(h_elements), f_abelian=f_abelian,
        commutant_order=len(cc), n_invariants=tuple(d for d in diag if d >= 2),
        is_toric=f_abelian)


def test_index_product_is_the_matrix_product():
    for g, table in _oracle_groups():
        assert [[g.mul(i, j) for j in range(g.order)] for i in range(g.order)] == table


def test_quotient_report_matches_matrix_reference():
    for g, table in _oracle_groups():
        assert quotient_report(g) == _reference_report(g, table)
    assert quotient_report(_q8_with_reflection()) == QuotientReport(16, 2, 4, False, 2, (2, 2), False)
    assert quotient_report(_alternating_4()) == QuotientReport(12, 1, 4, False, 4, (3,), False)


def test_quotient_report_repr_and_value_semantics():
    """The groups benchmark hashes ``repr`` of reports: it is pinned here,
    with field access, equality, hashing and immutability."""
    rep = quotient_report(_q8_with_reflection())
    assert repr(rep) == ("QuotientReport(order_g=16, order_h=2, order_h_tilde=4, "
                         "f_abelian=False, commutant_order=2, n_invariants=(2, 2), "
                         "is_toric=False)")
    assert (rep.order_g, rep.n_invariants, rep.is_toric) == (16, (2, 2), False)
    same = QuotientReport(16, 2, 4, False, 2, (2, 2), False)
    assert rep == same and hash(rep) == hash(same)
    assert rep != QuotientReport(16, 1, 4, False, 2, (2, 2), False)
    with pytest.raises(AttributeError):
        rep.order_g = 8


@pytest.mark.parametrize("m,p", [(m, p) for m in range(2, 9) for p in range(1, m + 1)
                                 if m % p == 0])
def test_reflection_subgroup_closes_over_the_reflections_it_lacks(monkeypatch, m, p):
    """G(m,p,2) is generated by its pseudoreflections, and none of them
    alone generates it.  The report closes H once per reflection that the
    subgroup built so far lacks, each closure at least doubling it, and
    agrees with the matrix reference."""
    g = _gmp(m, p)
    table = [[g.index_of(c_mul(a, b)) for b in g.elements] for a in g.elements]
    refl = [g.index_of(a) for a in pseudoreflections(g)]
    closures = []
    closure = quotients._closure

    def recorded(seeds, gens, *args, **kwargs):
        out = closure(seeds, gens, *args, **kwargs)
        closures.append((list(gens), len(out[0])))
        return out

    monkeypatch.setattr(quotients, "_closure", recorded)
    rep = quotient_report(g)
    assert rep == _reference_report(g, table)
    used = closures[-1][0]
    assert rep.order_h == g.order and len(used) >= 2
    assert used == [r for r in refl if r in used]
    assert [gens for gens, _ in closures] == [used[:k] for k in range(1, len(used) + 1)]
    orders = [1] + [order for _, order in closures]
    assert all(2 * a <= b for a, b in zip(orders, orders[1:]))


def test_quotient_report_makes_no_matrix_products(monkeypatch):
    calls = []

    def counted(a, b):
        calls.append(1)
        return c_mul(a, b)

    groups = [g for g, _ in _oracle_groups()]
    monkeypatch.setattr(quotients, "c_mul", counted)
    for g in groups:
        quotient_report(g)
    assert not calls


# -- quotient reports ----------------------------------------------------------------

def test_q8_report():
    rep = quotient_report(_q8())
    assert rep.order_g == 8
    assert rep.order_h == 1
    assert rep.order_h_tilde == 2
    assert not rep.f_abelian
    assert rep.commutant_order == 2
    assert rep.n_invariants == (2, 2)
    assert not rep.is_toric


def test_cyclic_weight_action_reports():
    for n in (2, 3, 5):
        z = CycloNum.zeta(n)
        zero = CycloNum(n)
        gen = [[z * z * z, zero, zero], [zero, z, zero], [zero, zero, z.inverse()]]
        rep = quotient_report(close_group([gen], conductor=n))
        assert rep.order_g == n
        assert rep.order_h == 1
        assert rep.f_abelian and rep.is_toric
        assert rep.n_invariants == (n,)


def test_reflection_group_report():
    rep = quotient_report(close_group([[[-1, 0], [0, 1]]], conductor=1))
    assert rep.order_h == rep.order_g == 2
    assert rep.is_toric
    assert rep.n_invariants == ()


def test_proper_nontrivial_reflection_subgroup():
    """A reflection plus a scalar of order 4.  The scalar's square turns
    the reflection into a second one (diag(1,-1)), so the reflection
    subgroup has order 4 and the quotient is cyclic of order 2; the
    presentation must also handle the generator that dies in the
    quotient."""
    i = _i()
    zero = CycloNum(4)
    g = close_group([[[-1, 0], [0, 1]], [[i, zero], [zero, i]]], conductor=4)
    assert g.order == 8
    assert len(pseudoreflections(g)) == 2
    rep = quotient_report(g)
    assert rep.order_h == 4
    assert rep.f_abelian and rep.is_toric
    assert rep.commutant_order == 1
    assert rep.order_h_tilde == 4
    assert rep.n_invariants == (2,)


@pytest.mark.parametrize("m,p", sorted(GMP_REPORTS))
def test_gmp2_reports_are_pinned(m, p):
    g = _gmp(m, p)
    rep = quotient_report(g)
    assert (rep.order_g, rep.order_h, rep.order_h_tilde, rep.f_abelian, rep.commutant_order,
            rep.n_invariants, rep.is_toric, len(pseudoreflections(g))) == GMP_REPORTS[(m, p)]


def test_coset_multiplication_is_associative():
    """Spot check: quotient multiplication through representatives is
    associative (well-definedness of the coset group)."""
    g = close_group([[[0, -1], [1, 0]], [[0, 1], [1, 0]]], conductor=1)  # dihedral
    refl = pseudoreflections(g)
    assert refl  # the swap and friends
    rep = quotient_report(g)
    assert rep.order_g == 8 and rep.is_toric
    # associativity of the underlying matrix product on a sample
    els = g.elements
    for a in els[:4]:
        for b in els[:4]:
            for c in els[:4]:
                assert c_mul(c_mul(a, b), c) == c_mul(a, c_mul(b, c))


def test_invariants_multiply_to_quotient_order():
    for gens, conductor in [
        ([[[_i(), 0], [0, -_i()]], [[0, 1], [-1, 0]]], 4),
        ([[[0, 1], [1, 0]]], 1),
        ([[[0, -1], [1, 0]]], 1),
    ]:
        g = close_group(gens, conductor=conductor)
        rep = quotient_report(g)
        n_order = 1
        for d in rep.n_invariants:
            n_order *= d
        assert n_order * rep.order_h_tilde == rep.order_g


# -- Reynolds invariants ----------------------------------------------------------------

def _reference_apply_matrix_to_monomial(group, a, expo):
    """The earlier ``_apply_matrix_to_monomial`` verbatim: one variable's
    image multiplied in at a time, term by term."""
    conductor = group.conductor
    acc = {(0,) * group.dim: CycloNum.rational(conductor, 1)}
    for j, e in enumerate(expo):
        for _ in range(e):
            nxt = {}
            for mono, coeff in acc.items():
                for i in range(group.dim):
                    entry = a[j][i]
                    if entry.is_zero():
                        continue
                    key = tuple(m + (1 if t == i else 0) for t, m in enumerate(mono))
                    cur = nxt.get(key)
                    nxt[key] = entry * coeff if cur is None else cur + entry * coeff
            acc = {k: v for k, v in nxt.items() if not v.is_zero()}
    return acc


def _reference_reynolds(group, degree):
    """The Reynolds operator by averaging every degree-d monomial over all
    of G, then the reduced row echelon basis of the averages."""
    monos = tuple(la.compositions(degree, group.dim))
    index = {m: i for i, m in enumerate(monos)}
    conductor = group.conductor
    scale = CycloNum.rational(conductor, 1) / CycloNum.rational(conductor, group.order)
    zero = CycloNum(conductor)

    vectors = []
    for m in monos:
        acc = {}
        for a in group.elements:
            for mono, coeff in _reference_apply_matrix_to_monomial(group, a, m).items():
                cur = acc.get(mono)
                acc[mono] = coeff if cur is None else cur + coeff
        row = [zero] * len(monos)
        for mono, coeff in acc.items():
            val = coeff * scale
            if not val.is_zero():
                row[index[mono]] = val
        vectors.append(row)

    vectors, pivots = _rref(vectors)
    return [{monos[j]: v for j, v in enumerate(row) if v}
            for row in vectors[:len(pivots)]]


def _reference_reynolds_dense(group, degree):
    """The earlier ``reynolds_invariants`` verbatim: a dense N x N block per
    generator, one elimination of the stacked equations, and a second one
    that brings the kernel basis to reduced echelon form."""
    if not isinstance(degree, int):
        raise ValueError(f"degree must be an int, got {degree!r}")
    if degree < 1:
        raise ValueError("degree must be at least 1")
    monos = tuple(la.compositions(degree, group.dim))
    index = {m: i for i, m in enumerate(monos)}
    one, zero = CycloNum.rational(group.conductor, 1), CycloNum(group.conductor)

    # row t of generator g: sum_m c_m * ([x^t] g.x^m - [m == t]) == 0
    equations = []
    for g in group.generators:
        block = [[zero] * len(monos) for _ in monos]
        for col, m in enumerate(monos):
            for t, coeff in _reference_apply_matrix_to_monomial(group, g, m).items():
                block[index[t]][col] = coeff
            block[col][col] -= one
        equations += [row for row in block if any(row)]

    rows, pivots = _rref(equations, len(monos))
    solved = dict(zip(pivots, rows))
    # free column f spans the kernel vector with 1 at f and -row[f] at each
    # pivot column; these are not echelon rows, so reduce them once more
    kernel = [[-solved[c][f] if c in solved else one if c == f else zero
               for c in range(len(monos))] for f in range(len(monos)) if f not in solved]
    kernel, pivots = _rref(kernel, len(monos))
    return [{monos[j]: v for j, v in enumerate(row) if v} for row in kernel[:len(pivots)]]


def _permutation_group(n, perms):
    return close_group([[[int(p[r] == c) for c in range(n)] for r in range(n)] for p in perms])


def _reynolds_oracle_cases():
    """(group, degrees) pairs for the comparison with the averaging reference."""
    z3, z5 = CycloNum.zeta(3), CycloNum.zeta(5)
    zero3, zero5 = CycloNum(3), CycloNum(5)
    cases = [(_gmp(m, p), range(1, 5)) for m in range(1, 9) for p in range(1, m + 1)
             if m % p == 0]
    cases += [(_binary_dihedral(n), range(1, 5)) for n in range(3, 7)]
    cases.append((_permutation_group(3, [(1, 0, 2), (1, 2, 0)]), range(1, 7)))
    cases.append((close_group([[[z3 if r == c else zero3 for c in range(3)] for r in range(3)]],
                              conductor=3), range(1, 7)))
    cases.append((close_group([[[z5 * z5 * z5, zero5, zero5], [zero5, z5, zero5],
                                [zero5, zero5, z5.inverse()]]], conductor=5), range(1, 6)))
    return cases


def test_reynolds_matches_averaging_reference():
    for group, degrees in _reynolds_oracle_cases():
        for d in degrees:
            assert reynolds_invariants(group, d) == _reference_reynolds(group, d)


def test_reynolds_reads_only_the_generators():
    """The invariant forms are the generators' common fixed space: a group
    object holding the generators and no element list gives the same basis."""
    g = _binary_dihedral(4)
    bare = MatGroup(g.dim, g.conductor, g.generators, (), (), ())
    for d in (2, 4):
        assert reynolds_invariants(bare, d) == reynolds_invariants(g, d)


def test_reynolds_plus_minus_identity():
    pm = close_group([[[-1, 0], [0, -1]]], conductor=1)
    assert len(reynolds_invariants(pm, 2)) == 3
    assert len(reynolds_invariants(pm, 1)) == 0


def test_reynolds_trivial_group():
    triv = close_group([[[1, 0], [0, 1]]], conductor=1)
    basis = reynolds_invariants(triv, 3)
    assert len(basis) == 4  # all cubic monomials in two variables


@pytest.mark.parametrize("degree", [2.5, 2.0, Fraction(5, 2), "2", True, False, -1])
def test_reynolds_refuses_a_degree_that_is_not_an_int(degree):
    """And so does the trace formula, which takes degree 0 (answer 1)."""
    triv = close_group([[[1, 0], [0, 1]]], conductor=1)
    with pytest.raises(ValueError):
        reynolds_invariants(triv, degree)
    for group in (triv, close_group([[[-1]]], conductor=1)):
        with pytest.raises(ValueError, match="degree"):
            symmetric_power_trace_dimension(group, degree)
        assert symmetric_power_trace_dimension(group, 0) == 1


def test_reynolds_cube_root_weights():
    z = CycloNum.zeta(3)
    zero = CycloNum(3)
    g = close_group([[[z, zero], [zero, z.inverse()]]], conductor=3)
    basis = reynolds_invariants(g, 2)
    assert len(basis) == 1
    assert list(basis[0].keys()) == [(1, 1)]


def test_reynolds_invariance_under_action():
    """The invariant forms really are fixed by every group element."""
    g = _q8()
    for form in reynolds_invariants(g, 2):
        for a in g.elements:
            acc = {}
            for expo, coeff in form.items():
                for mono, c in _reference_apply_matrix_to_monomial(g, a, expo).items():
                    cur = acc.get(mono)
                    val = coeff * c
                    acc[mono] = val if cur is None else cur + val
            acc = {k: v for k, v in acc.items() if not v.is_zero()}
            assert acc == form


def test_reynolds_dimension_matches_trace_formula():
    z3 = CycloNum.zeta(3)
    z5 = CycloNum.zeta(5)
    zero3, zero5 = CycloNum(3), CycloNum(5)
    cases = [
        (close_group([[[-1, 0], [0, -1]]], conductor=1), [1, 2, 3, 4]),
        (_q8(), [1, 2, 3, 4]),
        (close_group([[[z3, zero3], [zero3, z3.inverse()]]], conductor=3), [1, 2, 3]),
        # a dimension-3 action
        (close_group([[[z5 * z5 * z5, zero5, zero5], [zero5, z5, zero5],
                       [zero5, zero5, z5.inverse()]]], conductor=5), [1, 2, 3, 4]),
    ]
    for group, degrees in cases:
        for d in degrees:
            assert len(reynolds_invariants(group, d)) == \
                symmetric_power_trace_dimension(group, d)


def _seeded_generators(rng, dim, n):
    """One to three monomial generators (a permutation times roots of
    unity) of a finite group, and the same generators conjugated by a
    unimodular integer matrix, which makes them dense."""
    z, zero = CycloNum.zeta(n), CycloNum(n)
    gens = []
    for _ in range(rng.randint(1, 3)):
        perm = rng.sample(range(dim), dim)
        gens.append(tuple(tuple(_power(z, rng.randrange(n)) if c == perm[r] else zero
                                for c in range(dim)) for r in range(dim)))
    low = [[1 if i == j else rng.randint(-1, 1) if j < i else 0 for j in range(dim)]
           for i in range(dim)]
    up = [[1 if i == j else rng.randint(-1, 1) if j > i else 0 for j in range(dim)]
          for i in range(dim)]
    p = la.mat_mul(low, up)
    p, pinv = quotients.cmat(n, p), quotients.cmat(n, la.inverse_int(p))
    return gens, [c_mul(c_mul(p, g), pinv) for g in gens]


def test_reynolds_matches_the_dense_two_elimination_solve():
    """The sparse one-pass solve returns the dense solve's list, form for
    form and key for key, on seeded groups of dimensions 1-3 and
    conductors up to 12, monomial and conjugated dense, at degrees 1-8."""
    rng = random.Random(9)
    checked = 0
    for dim, conductors in ((1, (1, 5, 12)), (2, (1, 3, 4, 6, 8, 12)), (3, (2, 3, 4))):
        for n in conductors:
            for gens in _seeded_generators(rng, dim, n):
                group = MatGroup(dim, n, tuple(gens), (), (), ())
                for d in range(1, 9):
                    got = reynolds_invariants(group, d)
                    want = _reference_reynolds_dense(group, d)
                    assert got == want
                    assert [list(f) for f in got] == [list(f) for f in want]
                    checked += 1
    assert checked > 150


def test_monomial_images_match_the_reference():
    rng = random.Random(4)
    for dim, n in ((1, 5), (2, 4), (2, 12), (3, 3)):
        for g in _seeded_generators(rng, dim, n)[1]:
            group = MatGroup(dim, n, (g,), (), (), ())
            image = _monomial_images(group, g)
            for d in range(6):
                for m in la.compositions(d, dim):
                    assert image(m) == _reference_apply_matrix_to_monomial(group, g, m)


def test_power_tables_match_the_dense_solve_at_high_degree():
    """An involution whose second and third variables have dense images:
    its power tables fill to degree 12, and are asked for out of order."""
    g = close_group([[[1, 0, 0], [1, -1, 0], [2, 0, -1]]])
    for d in range(9, 13):
        got = reynolds_invariants(g, d)
        want = _reference_reynolds_dense(g, d)
        assert got == want
        assert [list(f) for f in got] == [list(f) for f in want]
    image = _monomial_images(g, g.generators[0])
    for d in (12, 3, 9):
        for m in la.compositions(d, 3):
            assert image(m) == _reference_apply_matrix_to_monomial(g, g.generators[0], m)


def test_reynolds_memory_follows_the_nonzeros():
    """<diag(-1,1,1), 3-cycle> at degree 40 (N = 861 monomials): the dense
    blocks took 23.5 MB traced; the sparse rows hold about 2N entries."""
    g = close_group([[[-1, 0, 0], [0, 1, 0], [0, 0, 1]], [[0, 1, 0], [0, 0, 1], [1, 0, 0]]])
    assert reynolds_invariants(g, 12) == _reference_reynolds_dense(g, 12)
    peaks, dims = {}, {}
    for d in (20, 40):
        tracemalloc.start()
        try:
            dims[d] = len(reynolds_invariants(g, d))
            peaks[d] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert dims == {20: 22, 40: 77}  # as the dense solve found
    # N grows 231 -> 861 (3.7x), N^2 by 13.9x
    assert peaks[40] < 6 * peaks[20] and peaks[40] < 4_000_000


def test_closure_builds_no_element_index():
    g = _q8()
    reynolds_invariants(g, 2)
    assert g._index is None
    assert [g.index_of(a) for a in g.elements] == list(range(g.order))


def test_echelon_matches_the_dense_reference_on_reversed_columns():
    """L * B * C * U over QQ(zeta_5), where B = [I_r; X] and C = [I_r | Y]
    have rank r and L, U are unitriangular, so the product has rank r.
    The sparse pass takes pivots from the last column, so it equals the
    dense reduced form of the matrix with its columns reversed."""
    rng = random.Random(5)
    z = CycloNum.zeta(5)
    one, zero = CycloNum.rational(5, 1), CycloNum(5)

    def rand():
        return CycloNum(5, [rng.randint(-2, 2) for _ in range(4)])

    def mul(a, b):
        return [[sum((a[i][t] * b[t][j] for t in range(len(b))), zero)
                 for j in range(len(b[0]))] for i in range(len(a))]

    for _ in range(8):
        n = rng.randint(2, 4)
        r = rng.randint(0, n)
        b = [[one if i == j else zero for j in range(r)] if i < r else [rand() for _ in range(r)]
             for i in range(n)]
        c = [[one if i == j else zero for j in range(r)] + [rand() for _ in range(n - r)]
             for i in range(r)]
        low = [[one if i == j else (rand() if j < i else zero) for j in range(n)] for i in range(n)]
        up = [[one if i == j else (rand() * z if j > i else zero) for j in range(n)]
              for i in range(n)]
        a = mul(mul(low, b), mul(c, up)) if r else [[zero] * n for _ in range(n)]
        solved, _ = _echelon([{j: x for j, x in enumerate(row) if x} for row in a])
        rows, pivots = _rref([row[::-1] for row in a])
        assert len(solved) == len(pivots) == r
        assert solved == {n - 1 - p: {n - 1 - j: x for j, x in enumerate(row) if x and j != p}
                          for row, p in zip(rows, pivots)}


# -- the term-dict helpers that quotients shares with polynomials -------------

def _random_form(rng, n, dim, max_terms=4, max_deg=3):
    """A term dict over QQ(zeta_n) with nonzero coefficients."""
    form = {}
    for _ in range(rng.randint(1, max_terms)):
        c = CycloNum(n, [Fraction(rng.randint(-2, 2), rng.choice((1, 1, 2))) for _ in range(4)])
        if c:
            form[tuple(rng.randint(0, max_deg) for _ in range(dim))] = c
    return form


def test_cyclotomic_products_match_the_earlier_product():
    """``polynomials._product`` on ``CycloNum`` term dicts against the
    earlier ``quotients._poly_mul``, key for key and in order, at
    conductors 1, 3, 4, 5 and 12: zero factors, p(x) * p(-x) (whose odd
    terms cancel), and ``_mul_into`` sums that cancel to {}.  No input
    changes and no result is an input."""
    rng = random.Random(36)
    cancelled = 0
    for n in (1, 3, 4, 5, 12):
        minus_one = CycloNum.rational(n, -1)
        for k in range(40):
            dim = 1 + k % 3
            p, q = _random_form(rng, n, dim), _random_form(rng, n, dim)
            mirror = {e: -c if sum(e) % 2 else c for e, c in p.items()}
            for a, b in ((p, q), (q, p), (p, p), (p, {}), ({}, q), (p, mirror)):
                copies = (dict(a), dict(b))
                got = _product(a, b)
                want = oracles.poly_mul(a, b)
                assert list(got.items()) == list(want.items())
                assert (a, b) == copies and got is not a and got is not b
                cancelled += len(got) < len(a) * len(b) and bool(a) and bool(b)
            terms = _product(p, q)
            _mul_into(terms, p, q, minus_one)
            assert _drop_zeros(terms) == {}
            terms = dict(_product(p, q))
            _mul_into(terms, q, p, -1)
            assert _drop_zeros(terms) == {}
    assert cancelled >= 100


def test_monomial_images_match_the_earlier_tables():
    """The shared power table against the earlier ``_monomial_images``,
    key for key and in order, asked for out of order; an answer stays as it
    was while later ones fill the tables."""
    rng = random.Random(37)
    cases = [(g, a) for g in _test_groups() for a in g.generators]
    for dim, n in ((1, 5), (2, 4), (2, 12), (3, 3), (3, 12)):
        for g in _seeded_generators(rng, dim, n)[1]:
            cases.append((MatGroup(dim, n, (g,), (), (), ()), g))
    for group, a in cases:
        image, want = _monomial_images(group, a), oracles.monomial_images(group, a)
        monos = [m for d in (3, 0, 6, 1, 4) for m in la.compositions(d, group.dim)]
        answers = [(image(m), dict(image(m))) for m in monos]
        for m, (got, copy) in zip(monos, answers):
            assert list(got.items()) == list(want(m).items())
            assert got == copy


def test_rendered_reynolds_bases_match_the_earlier_printer():
    """On ``_test_groups()`` and binary dihedral groups, and on each of
    those of conductor n >= 3 conjugated by a shear by zeta_n, whose
    invariant forms have coefficients outside QQ."""
    groups = _test_groups() + [_binary_dihedral(n) for n in (3, 5, 8)]
    for g in [g for g in groups if g.conductor >= 3]:
        n, z = g.conductor, CycloNum.zeta(g.conductor)
        shear, inverse = (quotients.cmat(n, [[1 if i == j else c if (i, j) == (0, 1) else 0
                                              for j in range(g.dim)] for i in range(g.dim)])
                          for c in (z, -z))
        groups.append(close_group([c_mul(c_mul(shear, a), inverse) for a in g.generators]))
    irrational = 0
    for group in groups:
        names = [f"x{i + 1}" for i in range(group.dim)]
        for d in range(1, 5):
            for form in reynolds_invariants(group, d):
                copy = dict(form)
                assert _render_invariant(form, names) == oracles.render_invariant(form, names)
                assert form == copy
                irrational += not all(c.is_rational() for c in form.values())
    assert irrational >= 10


# -- the class-group theorem as a cross-layer oracle ---------------------------

def _diagonal_groups(rng, count):
    """(dim, conductor, weights): diag(zeta^a_1, ..., zeta^a_dim) for each
    weight vector a, in dimension 2-3, conductor 2-12, one or two of them."""
    for k in range(count):
        dim, m = 2 + k % 2, rng.randint(2, 12)
        yield dim, m, [tuple(rng.randrange(m) for _ in range(dim)) for _ in range(1 + k // 2 % 2)]


def _invariant_lattice(dim, m, weights):
    """A basis of {e : sum_i e_i a_i == 0 mod m for each weight vector a}:
    the first dim coordinates of the integer kernel of [A | -m I]."""
    b = [[*a, *(-m if t == j else 0 for t in range(len(weights)))] for j, a in enumerate(weights)]
    h, u = la.hnf(la.transpose(b))
    return [row[:dim] for row, hrow in zip(u, h) if not any(hrow)]


def test_class_group_theorem_on_diagonal_groups():
    """Cl(C^n/G) is the character group of G/H, H the reflection subgroup
    (Benson, Polynomial Invariants of Finite Groups, 1993).  For a diagonal
    G the quotient is the toric variety of the invariant monomials, so the
    quotient report's abelian invariants (closure, pseudoreflections,
    Schreier relations) must be the class group of the monoid of lattice
    points of the orthant (Hilbert basis, divisor theory), with free rank
    0.  And the degree-d invariant forms are exactly the invariant
    monomials, each with coefficient 1."""
    rng = random.Random(13)
    nontrivial_h = nontrivial_cl = 0
    for dim, m, weights in _diagonal_groups(rng, 48):
        z, zero = CycloNum.zeta(m), CycloNum(m)
        gens = [[[_power(z, a[i]) if i == j else zero for j in range(dim)] for i in range(dim)]
                for a in weights]
        group = close_group(gens, conductor=m)
        rep = quotient_report(group)
        lattice = _invariant_lattice(dim, m, weights)
        cone = Cone(dim, [[m if i == j else 0 for j in range(dim)] for i in range(dim)],
                    lattice=lattice)
        monoid = AffineMonoid(dim, hilbert_basis(cone))
        assert divisor_theory(monoid).class_group() == (0, rep.n_invariants), (dim, m, weights)
        nontrivial_h += rep.order_h > 1
        nontrivial_cl += bool(rep.n_invariants)

        one = CycloNum.rational(m, 1)
        for d in range(1, 5):
            invariant = [e for e in la.compositions(d, dim)
                         if all(la.dot(e, a) % m == 0 for a in weights)]
            assert reynolds_invariants(group, d) == [{e: one} for e in invariant]
    assert nontrivial_h >= 10 and nontrivial_cl >= 10
