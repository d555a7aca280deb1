"""Exact arithmetic in cyclotomic number fields.

Elements of QQ(zeta_n) are integer numerator vectors of length phi(n)
over one positive denominator, reduced modulo the n-th cyclotomic
polynomial, which is computed by recursively dividing x^n - 1 by the
lower-order factors.

The public constructor takes an int conductor >= 1 and int or
``Fraction`` coefficients, and reduces.  ``rational``, ``+``, ``-``,
``*``, ``inverse`` and ``/`` work on the numerators and build their
results through ``_make``.  ``*`` multiplies only nonzero coefficient
pairs, and the reduction reads only the nonzero coefficients of Phi_n,
which is monic, so no division is needed.
"""

from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm


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
    poly = [-1] + [0] * (n - 1) + [1]  # x^n - 1
    for d in range(1, n):
        if n % d == 0:
            poly = _poly_divmod(poly, cyclotomic_polynomial(d))
    return tuple(poly)


class CycloNum:
    """An element of QQ(zeta_n) in reduced representation: ``num / den``
    with ``num`` phi(n) ints, ``den`` a positive int and
    ``gcd(den, *num) == 1`` (zero is all zeros over 1)."""

    __slots__ = ("conductor", "num", "den")

    def __init__(self, conductor, coeffs=()):
        deg = _degree(conductor)
        cs = list(coeffs)
        if not all(isinstance(c, (int, Fraction)) for c in cs):
            raise ValueError(f"coefficients must be ints or Fractions, got {cs!r}")
        cs = _reduce([Fraction(c) for c in cs], conductor)
        cs += [_ZERO] * (deg - len(cs))
        den = lcm(*(c.denominator for c in cs))
        self.conductor = conductor
        self.num = tuple(c.numerator * (den // c.denominator) for c in cs)
        self.den = den

    @classmethod
    def _make(cls, conductor, num, den):
        """``num / den``: phi(conductor) reduced ints over ``den > 0``; a
        common factor is divided out only when there is one."""
        if den != 1:
            g = gcd(den, *num)
            if g != 1:
                num, den = tuple(c // g for c in num), den // g
        x = object.__new__(cls)
        x.conductor, x.num, x.den = conductor, num, den
        return x

    @property
    def coeffs(self):
        """The phi(n) coefficients as ``Fraction``s."""
        return tuple(Fraction(c, self.den) for c in self.num)

    @classmethod
    def rational(cls, conductor, value):
        """``value`` in QQ(zeta_conductor); an int or ``Fraction`` is read
        off its numerator and denominator, with no coercion."""
        if not isinstance(value, (int, Fraction)):
            return cls(conductor, (value,))  # which raises
        num = (value.numerator,) + (0,) * (_degree(conductor) - 1)
        return cls._make(conductor, num, value.denominator)

    @classmethod
    def zeta(cls, conductor):
        """A primitive conductor-th root of unity."""
        return cls(conductor, (0, 1))

    def _check(self, other):
        if not isinstance(other, CycloNum):
            other = CycloNum.rational(self.conductor, other)
        if other.conductor != self.conductor:
            raise ValueError("mixed conductors")
        return other

    def __add__(self, other):
        other = self._check(other)
        den = lcm(self.den, other.den)
        p, q = den // self.den, den // other.den
        return self._make(self.conductor,
                          tuple(a * p + b * q for a, b in zip(self.num, other.num)), den)

    __radd__ = __add__

    def __neg__(self):
        return self._make(self.conductor, tuple(-a for a in self.num), self.den)

    def __sub__(self, other):
        return self + (-self._check(other))

    def __rsub__(self, other):
        return -self + other

    def __mul__(self, other):
        other = self._check(other)
        prod = [0] * (2 * len(self.num) - 1)
        terms = [(j, b) for j, b in enumerate(other.num) if b]
        for i, a in enumerate(self.num):
            if a:
                for j, b in terms:
                    prod[i + j] += a * b
        return self._make(self.conductor, tuple(_reduce(prod, self.conductor)),
                          self.den * other.den)

    __rmul__ = __mul__

    def inverse(self):
        """Multiplicative inverse by a fraction-free extended Euclid of the
        numerator a against Phi_n (a primitive PRS, Brown, J. ACM 18, 1971).

        Each remainder r keeps its cofactor s, r == s*a mod Phi_n: a step
        scales r0 by r1's leading coefficient and subtracts a monomial
        multiple of r1, and s0 follows.  After each pseudo-division the
        pair's common content is divided out.  Phi_n is irreducible, so the
        remainders end in an integer c, and a^-1 == s / c."""
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero")
        r0, s0 = list(cyclotomic_polynomial(self.conductor)), []
        r1, s1 = list(self.num), [1]
        while not r1[-1]:
            r1.pop()
        while len(r1) > 1:
            lead = r1[-1]
            while len(r0) >= len(r1):
                g = gcd(lead, r0[-1])
                p, q, k = lead // g, r0[-1] // g, len(r0) - len(r1)
                if p != 1:
                    r0, s0 = [p * x for x in r0], [p * x for x in s0]
                s0 += [0] * (k + len(s1) - len(s0))
                for j, y in enumerate(r1):
                    if y:
                        r0[k + j] -= q * y
                for j, y in enumerate(s1):
                    if y:
                        s0[k + j] -= q * y
                while not r0[-1]:
                    r0.pop()
            g = gcd(*r0, *s0)
            r0, s0, r1, s1 = r1, s1, [x // g for x in r0], [x // g for x in s0]
        c = r1[0]
        if c < 0:
            c, s1 = -c, [-x for x in s1]
        s1 += [0] * (len(self.num) - len(s1))
        return self._make(self.conductor, tuple([self.den * x for x in s1]), c)

    def __truediv__(self, other):
        return self * self._check(other).inverse()

    def __rtruediv__(self, other):
        return self._check(other) * self.inverse()

    def is_zero(self):
        return not any(self.num)

    def __bool__(self):
        return any(self.num)

    def is_one(self):
        return self.den == 1 and self.num[0] == 1 and not any(self.num[1:])

    def is_rational(self):
        return not any(self.num[1:])

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = CycloNum.rational(self.conductor, other)
        return (isinstance(other, CycloNum) and self.conductor == other.conductor
                and self.num == other.num and self.den == other.den)

    def __hash__(self):
        return hash((self.conductor, self.num, self.den))

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


def _degree(conductor):
    """phi(conductor) for an int conductor >= 1; anything else, a bool
    included, raises ValueError."""
    if isinstance(conductor, bool) or not isinstance(conductor, int) or conductor < 1:
        raise ValueError(f"conductor must be an int >= 1, got {conductor!r}")
    return euler_phi(conductor)


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
