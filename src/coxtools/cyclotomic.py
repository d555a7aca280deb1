"""Exact arithmetic in cyclotomic number fields.

Elements of QQ(zeta_n) are represented by rational coefficient vectors
of length phi(n), reduced modulo the n-th cyclotomic polynomial, which
is computed by recursively dividing x^n - 1 by the lower-order factors.

The public constructor coerces to ``Fraction`` and reduces; ``+``, ``-``
and ``*`` keep their reduced ``Fraction`` tuples through ``_trusted``.
``*`` multiplies only nonzero coefficient pairs, and the reduction reads
only the nonzero coefficients of Phi_n.
"""

from fractions import Fraction
from functools import lru_cache
from math import lcm

from . import intlinalg as la


def euler_phi(n):
    result = n
    p = 2
    m = n
    while p * p <= m:
        if m % p == 0:
            while m % p == 0:
                m //= p
            result -= result // p
        p += 1
    if m > 1:
        result -= result // m
    return result


def _poly_divmod(num, den):
    """Exact division of integer polynomials (coefficient lists, low first)."""
    num = list(num)
    out = [0] * (len(num) - len(den) + 1)
    for i in range(len(num) - len(den), -1, -1):
        if num[i + len(den) - 1] == 0:
            continue
        q, r = divmod(num[i + len(den) - 1], den[-1])
        if r:
            raise ArithmeticError("non-exact polynomial division")
        out[i] = q
        for j, d in enumerate(den):
            num[i + j] -= q * d
    if any(num):
        raise ArithmeticError("non-exact polynomial division")
    return out


@lru_cache(maxsize=None)
def cyclotomic_polynomial(n):
    """Integer coefficients of Phi_n, lowest degree first."""
    if n == 1:
        return (-1, 1)
    poly = [-1] + [0] * (n - 1) + [1]  # x^n - 1
    for d in range(1, n):
        if n % d == 0:
            poly = _poly_divmod(poly, cyclotomic_polynomial(d))
    return tuple(poly)


class CycloNum:
    """An element of QQ(zeta_n) in reduced representation."""

    __slots__ = ("conductor", "coeffs")

    def __init__(self, conductor, coeffs=()):
        self.conductor = int(conductor)
        deg = euler_phi(self.conductor)
        cs = [Fraction(c) for c in coeffs]
        if len(cs) > deg:
            cs = _reduce(cs, self.conductor)
        cs += [Fraction(0)] * (deg - len(cs))
        self.coeffs = tuple(cs[:deg])

    @classmethod
    def _trusted(cls, conductor, coeffs):
        """A CycloNum holding ``coeffs``: phi(conductor) reduced ``Fraction``s."""
        x = object.__new__(cls)
        x.conductor = conductor
        x.coeffs = coeffs
        return x

    @classmethod
    def rational(cls, conductor, value):
        return cls(conductor, (Fraction(value),))

    @classmethod
    def zeta(cls, conductor):
        """A primitive conductor-th root of unity."""
        if conductor == 1:
            return cls(1, (1,))
        return cls(conductor, (0, 1))

    def _check(self, other):
        if not isinstance(other, CycloNum):
            other = CycloNum.rational(self.conductor, other)
        if other.conductor != self.conductor:
            raise ValueError("mixed conductors")
        return other

    def __add__(self, other):
        other = self._check(other)
        return self._trusted(self.conductor, tuple(a + b for a, b in zip(self.coeffs, other.coeffs)))

    __radd__ = __add__

    def __neg__(self):
        return self._trusted(self.conductor, tuple(-a for a in self.coeffs))

    def __sub__(self, other):
        return self + (-self._check(other))

    def __rsub__(self, other):
        return -self + other

    def __mul__(self, other):
        other = self._check(other)
        prod = [_ZERO] * (2 * len(self.coeffs) - 1)
        terms = [(j, b) for j, b in enumerate(other.coeffs) if b]
        for i, a in enumerate(self.coeffs):
            if a:
                for j, b in terms:
                    c = prod[i + j]  # a slot no product reached yet takes it as it is
                    prod[i + j] = a * b if c is _ZERO else c + a * b
        return self._trusted(self.conductor, tuple(_reduce(prod, self.conductor)))

    __rmul__ = __mul__

    def inverse(self):
        """Multiplicative inverse: a*x == 1 as one fraction-free elimination
        over the integers, column j of the system being a*zeta^j."""
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero")
        deg = len(self.coeffs)
        # a positive first coefficient keeps 1 - zeta^k's pivots at 1 (sparse)
        den = lcm(*{c.denominator for c in self.coeffs})
        if next(c for c in self.coeffs if c) < 0:
            den = -den
        num = [int(c * den) for c in self.coeffs]
        cols = [_reduce([0] * j + num, self.conductor) for j in range(deg)]
        rows = la.bareiss([[*row, int(i == 0)] for i, row in enumerate(zip(*cols))], deg)[0]
        # num * y == 1 with x == den * y; row i holds the pivot d at column i
        return CycloNum(self.conductor, [Fraction(den * row[deg], row[i])
                                         for i, row in enumerate(rows)])

    def __truediv__(self, other):
        return self * self._check(other).inverse()

    def __rtruediv__(self, other):
        return self._check(other) * self.inverse()

    def is_zero(self):
        return not any(self.coeffs)

    def __bool__(self):
        return not self.is_zero()

    def is_one(self):
        return self.coeffs[0] == 1 and not any(self.coeffs[1:])

    def is_rational(self):
        return not any(self.coeffs[1:])

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = CycloNum.rational(self.conductor, other)
        return (isinstance(other, CycloNum) and self.conductor == other.conductor
                and self.coeffs == other.coeffs)

    def __hash__(self):
        return hash((self.conductor, self.coeffs))

    def __lt__(self, other):
        other = self._check(other)
        return self.coeffs < other.coeffs

    def __repr__(self):
        return f"CycloNum({self.conductor}, {self.render()})"

    def render(self):
        if self.is_zero():
            return "0"
        parts = []
        for i, c in enumerate(self.coeffs):
            if c == 0:
                continue
            mag = abs(c)
            coeff = "" if (mag == 1 and i > 0) else str(mag)
            var = "" if i == 0 else ("z" if i == 1 else f"z^{i}")
            body = coeff + ("*" if coeff and var else "") + var
            if not parts:
                parts.append(body if c > 0 else f"-{body}")
            else:
                parts.append(f" + {body}" if c > 0 else f" - {body}")
        return "".join(parts)


_ZERO = Fraction(0)


@lru_cache(maxsize=None)
def _phi_tail(n):
    """phi(n) and (j, -c_j) for each nonzero c_j, j < phi(n), of Phi_n."""
    phi = cyclotomic_polynomial(n)
    return len(phi) - 1, tuple((j, -c) for j, c in enumerate(phi[:-1]) if c)


def _reduce(coeffs, n):
    deg, tail = _phi_tail(n)
    cs = list(coeffs)
    for i in range(len(cs) - 1, deg - 1, -1):
        c = cs[i]
        if c:
            for j, t in tail:
                cs[i - deg + j] += c * t
    return cs[:deg]
