"""Sparse multivariate polynomials with exact rational coefficients.

Terms live in a dict mapping exponent tuples to nonzero coefficients:
an ``int`` when the coefficient is integral and a ``Fraction`` otherwise,
so integer polynomials multiply and add on Python ints.  Arithmetic may
leave an integral value as a ``Fraction`` (``2 * Fraction(1, 2)``);
``3`` and ``Fraction(3)`` compare and hash alike, so equality, hashing
and ``render`` do not see the difference.  No coefficient is divided
with ``/`` and none is ever a float.

``Poly(num_vars, terms)`` validates and cleans its input, and refuses
a coefficient that is not an ``int`` or a ``Fraction`` (a ``bool`` is an
``int``) with ``ValueError``; the ring operators return ``NotImplemented``
for such an operand, so it raises ``TypeError``.  The ring operations,
``derivative``, ``homogeneous_part``, ``substitute``, ``poly_det`` and
the parser build their results with ``Poly._trusted``, which takes a
dict that is already clean (every coefficient a nonzero ``int`` or
``Fraction``, every key a tuple of ``num_vars`` non-negative ints) and
keeps it as is, without a copy or a check.  Term dicts with ``CycloNum``
coefficients (``quotients``, the CLI) share the helpers below.  Every
product of two term dicts runs one loop, ``_mul_into``, which adds each
term product straight into one dict: ``_product`` fills an empty one,
and ``poly_det`` sums each cofactor expansion in its minor's dict.
``_power_products`` tables powers for ``substitute`` and the monomial
images of a matrix; ``_render_monomial`` prints a monomial.

Canonical printing and equality use graded lexicographic term order
(total degree first, then exponents, descending).  Polynomials are
treated as immutable values: no method mutates ``terms`` after
construction.
"""

import re
from fractions import Fraction
from operator import add


class PolyParseError(ValueError):
    def __init__(self, message, position):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class UnknownVariableError(PolyParseError):
    def __init__(self, name, position):
        PolyParseError.__init__(self, f"unknown variable '{name}'", position)
        self.name = name


class Poly:
    __slots__ = ("num_vars", "terms")

    def __init__(self, num_vars, terms=None):
        self.num_vars = int(num_vars)
        clean = {}
        for expo, c in (terms or {}).items():
            if not isinstance(c, (int, Fraction)):
                raise ValueError(f"coefficients must be ints or Fractions, got {c!r}")
            if not c:
                continue
            expo = tuple(int(e) for e in expo)
            if len(expo) != self.num_vars or any(e < 0 for e in expo):
                raise ValueError(f"bad exponent vector {expo}")
            clean[expo] = c.numerator if c.denominator == 1 else c
        self.terms = clean

    @classmethod
    def _trusted(cls, num_vars, terms):
        """A Poly holding ``terms`` itself: the dict must already be clean
        (see the module docstring), and the caller must not touch it again."""
        p = object.__new__(cls)
        p.num_vars = num_vars
        p.terms = terms
        return p

    # -- constructors -------------------------------------------------------

    @classmethod
    def zero(cls, num_vars):
        return cls(num_vars, {})

    @classmethod
    def constant(cls, num_vars, value):
        return cls(num_vars, {(0,) * num_vars: value})

    @classmethod
    def variable(cls, num_vars, index):
        if not 0 <= index < num_vars:
            raise ValueError("variable index out of range")
        expo = tuple([1 if i == index else 0 for i in range(num_vars)])
        return cls._trusted(num_vars, {expo: 1})

    @classmethod
    def monomial(cls, exponents, coeff=1):
        exponents = tuple(int(e) for e in exponents)
        return cls(len(exponents), {exponents: coeff})

    # -- ring operations ----------------------------------------------------

    def _check(self, other):
        if self.num_vars != other.num_vars:
            raise ValueError("mixed variable counts")

    def _plus(self, other, sign):
        """self + sign * other, added into a copy of self's terms."""
        if isinstance(other, (int, Fraction)):
            other = Poly.constant(self.num_vars, other)
        elif not isinstance(other, Poly):
            return NotImplemented
        self._check(other)
        terms = dict(self.terms)
        _fold(terms, other.terms, sign)
        return Poly._trusted(self.num_vars, terms)

    def __add__(self, other):
        return self._plus(other, 1)

    def __neg__(self):
        return Poly._trusted(self.num_vars, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        return self._plus(other, -1)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            if not other:
                return Poly.zero(self.num_vars)
            if other.denominator == 1:
                other = other.numerator
            return Poly._trusted(self.num_vars, {e: c * other for e, c in self.terms.items()})
        if not isinstance(other, Poly):
            return NotImplemented
        self._check(other)
        return Poly._trusted(self.num_vars, _product(self.terms, other.terms))

    __rmul__ = __mul__
    __radd__ = __add__

    def __pow__(self, k):
        if not isinstance(k, int):
            return NotImplemented
        if k < 0:
            raise ValueError("negative power")
        result = Poly.constant(self.num_vars, 1)
        base = self
        while k:
            if k & 1:
                result = result * base
            k >>= 1
            if k:
                base = base * base
        return result

    def __eq__(self, other):
        return (isinstance(other, Poly) and self.num_vars == other.num_vars
                and self.terms == other.terms)

    def __hash__(self):
        return hash((self.num_vars, frozenset(self.terms.items())))

    # -- queries ------------------------------------------------------------

    def is_zero(self):
        return not self.terms

    def total_degree(self):
        """Largest term degree; -1 for the zero polynomial."""
        return max((sum(e) for e in self.terms), default=-1)

    def involves(self, index):
        return any(e[index] for e in self.terms)

    def sorted_terms(self):
        """Terms in descending graded lexicographic order."""
        return sorted(self.terms.items(), key=lambda t: (sum(t[0]), t[0]), reverse=True)

    def derivative(self, index):
        # e -> de is one-to-one on the terms with e[index] > 0, so nothing collects
        terms = {}
        for e, c in self.terms.items():
            k = e[index]
            if k:
                terms[e[:index] + (k - 1,) + e[index + 1:]] = c * k
        return Poly._trusted(self.num_vars, terms)

    def homogeneous_part(self, degree):
        return Poly._trusted(self.num_vars,
                             {e: c for e, c in self.terms.items() if sum(e) == degree})

    def render(self, var_names=None):
        """Canonical string; round-trips through parse_poly."""
        if not self.terms:
            return "0"
        names = var_names or [f"y{i + 1}" for i in range(self.num_vars)]
        parts = []
        for e, c in self.sorted_terms():
            mono = _render_monomial(e, names)
            mag = abs(c)
            if not mono:
                body = str(mag)
            elif mag == 1:
                body = mono
            else:
                body = str(mag) + "*" + mono
            if not parts:
                parts.append(body if c > 0 else f"-{body}")
            else:
                parts.append(f" + {body}" if c > 0 else f" - {body}")
        return "".join(parts)

    def __repr__(self):
        return f"Poly({self.render()})"


def _render_monomial(expo, names):
    """x^expo as ``y1^2*y3`` over ``names``; the empty string for 1."""
    return "*".join([names[i] if k == 1 else f"{names[i]}^{k}" for i, k in enumerate(expo) if k])


class PolyMap:
    """A polynomial substitution rule: one image per source variable.

    ``images[i]`` is the image of source variable i, written in the
    target variables.  Composition follows function application:
    ``compose(f, g)`` substitutes ``g``'s images into ``f``'s, i.e. it
    is "f after g" on points.
    """

    __slots__ = ("source_vars", "target_vars", "images")

    def __init__(self, images):
        images = tuple(images)
        if not images:
            raise ValueError("a map needs at least one image")
        self.images = images
        self.source_vars = len(images)
        self.target_vars = images[0].num_vars
        if any(p.num_vars != self.target_vars for p in images):
            raise ValueError("images must share a variable count")

    @classmethod
    def identity(cls, num_vars):
        return cls(tuple(Poly.variable(num_vars, i) for i in range(num_vars)))

    def is_identity(self):
        return (self.source_vars == self.target_vars
                and all(p == Poly.variable(self.target_vars, i)
                        for i, p in enumerate(self.images)))

    def __eq__(self, other):
        return isinstance(other, PolyMap) and self.images == other.images

    def __repr__(self):
        return f"PolyMap({[p.render() for p in self.images]})"


def substitute(p, m):
    """Exact simultaneous substitution of m's images into p."""
    if p.num_vars != m.source_vars:
        raise ValueError("polynomial/map variable mismatch")
    image = _power_products([q.terms for q in m.images], {(0,) * m.target_vars: 1})
    terms = {}
    for e, c in p.terms.items():
        _fold(terms, image(e), c)
    return Poly._trusted(m.target_vars, terms)


def _power_products(images, one):
    """expo -> prod_i images[i]^expo[i], a term dict the caller must not
    change (``one`` the unit): one ``_product`` per variable past the first,
    of powers tabled as they are first asked for."""
    powers = [[one, q] for q in images]

    def image(expo):
        acc = one
        for table, k in zip(powers, expo):
            if k:
                while len(table) <= k:
                    table.append(_product(table[-1], table[1]))
                acc = table[k] if acc is one else _product(acc, table[k])
        return acc
    return image


def _fold(terms, other, c):
    """terms += c * other on term dicts, in place, dropping new zeros."""
    for e, x in other.items():
        s = terms.get(e, 0) + c * x
        if s:
            terms[e] = s
        else:
            del terms[e]


def _mul_into(terms, left, right, scale):
    """terms += scale * left * right on term dicts, in place: each product
    goes straight into ``terms``, a new key starting from its first product,
    so ``CycloNum`` coefficients work too.  A ``scale`` of 1 is skipped.
    Zeros stay in ``terms`` for the caller to drop."""
    get = terms.get
    right = right.items()
    for e1, c1 in left.items():
        if scale != 1:
            c1 *= scale
        for e2, c2 in right:
            e = tuple(map(add, e1, e2))
            s = get(e)
            terms[e] = c1 * c2 if s is None else s + c1 * c2


def _product(left, right):
    """left * right as a new term dict without zeros."""
    terms = {}
    _mul_into(terms, left, right, 1)
    return _drop_zeros(terms)


def _drop_zeros(terms):
    """Delete the zero coefficients ``_mul_into`` left; return ``terms``."""
    for e in [e for e, c in terms.items() if not c]:
        del terms[e]
    return terms


def compose(f, g):
    """The map v -> f(g(v)): g's images substituted into f's."""
    if f.target_vars != g.source_vars:
        raise ValueError("composition dimension mismatch")
    return PolyMap(tuple(substitute(p, g) for p in f.images))


def compose_chain(maps):
    """Compose a sequence applied left to right (maps[0] acts first)."""
    maps = list(maps)
    if not maps:
        raise ValueError("empty chain")
    acc = maps[0]
    for m in maps[1:]:
        acc = compose(m, acc)
    return acc


def jacobian(m):
    """Matrix of partial derivatives: entry (i, j) = d(image_i)/d(var_j)."""
    return tuple(tuple(p.derivative(j) for j in range(m.target_vars)) for p in m.images)


class NonSquareError(ValueError):
    pass


def poly_det(matrix):
    """Cofactor expansion along the rows as given.  The minor on rows
    ``row..n-1`` and the columns in ``colmask`` is a term dict memoized by
    ``colmask``; ``_mul_into`` sums its cofactor products in place."""
    n = len(matrix)
    if any(len(row) != n for row in matrix):
        raise NonSquareError("determinant of a non-square matrix")
    if n == 0:
        raise NonSquareError("empty matrix")
    cache = {}

    def minor(row, colmask):
        if colmask in cache:
            return cache[colmask]
        cols = [j for j in range(n) if colmask >> j & 1]
        if row == n - 1:
            terms = matrix[row][cols[0]].terms
        else:
            terms = {}
            sign = 1
            for j in cols:
                entry = matrix[row][j].terms
                if entry:
                    _mul_into(terms, entry, minor(row + 1, colmask & ~(1 << j)), sign)
                sign = -sign
            _drop_zeros(terms)
        cache[colmask] = terms
        return terms

    det = minor(0, (1 << n) - 1)
    del minor  # its closure refers to it: leave no cycle for the collector
    return Poly._trusted(matrix[0][0].num_vars, dict(det) if n == 1 else det)


def in_ideal_power(p, var_subset, k):
    """True iff every term of p has total degree >= k in the chosen variables.

    This is the exact membership criterion for the k-th power of the
    prime ideal generated by those variables.  Indices are 0-based.
    """
    k = int(k)
    subset = tuple(var_subset)
    for e in p.terms:
        if sum(e[i] for i in subset) < k:
            return False
    return True


# ---------------------------------------------------------------------------
# Recursive descent parser for the fixed grammar:
#   text     := ('-' term | term) (('+'|'-') term)*
#   expr     := term (('+'|'-') term)*
#   term     := factor ('*' factor)*
#   factor   := base ('^' nat)?
#   base     := rational | ident | '(' expr ')'
#   rational := int ('/' nat)?
# Only at the start of the text does a '-' before a term negate that term
# (render writes a leading coefficient -1 as "-y1*y2").  A '-' before
# digits is the sign of an int, so "-2^2" is (-2)^2.
# Whitespace is insignificant; implicit multiplication is rejected.
# ---------------------------------------------------------------------------

_TOKEN = re.compile(r"\s*(?:(?P<nat>\d+)|(?P<ident>[A-Za-z_][A-Za-z_0-9]*)|(?P<op>[-+*/^()])"
                    r"|(?P<bad>\S))")


def _tokenize(text):
    """(kind, value, position) triples ending in ("end", "", len(text)).
    An operator's value is its own character, so one comparison of the
    value tests for it."""
    tokens = []
    for m in _TOKEN.finditer(text):
        i = m.lastindex
        at = m.start(i)
        if m.lastgroup == "bad":
            raise PolyParseError(f"unexpected character '{text[at]}'", at)
        tokens.append((m.lastgroup, m.group(i), at))
    tokens.append(("end", "", len(text)))
    return tokens


class _Parser:
    """One pass over the tokens.  The numbers and variables of a term,
    with their powers, collect into one coefficient and one exponent
    list; only a parenthesised factor of more than one term is a Poly
    multiplied in.  Each term is added into the expression's dict as it
    ends."""

    def __init__(self, text, var_names):
        self.tokens = _tokenize(text)
        self.pos = 0
        names = list(var_names)
        self.num_vars = len(names)
        self.index = {n: i for i, n in enumerate(names)}

    def parse(self):
        p = self.expr(text=True)
        kind, val, at = self.tokens[self.pos]
        if kind != "end":
            raise PolyParseError(f"trailing input '{val}'", at)
        return p

    def expr(self, text=False):
        tokens = self.tokens
        sign = 1
        if text and tokens[0][1] == "-" and (tokens[1][0] == "ident" or tokens[1][1] == "("):
            self.pos = 1
            sign = -1
        terms = {}
        while True:
            self.term(terms, sign)
            op = tokens[self.pos][1]
            if op == "+":
                sign = 1
            elif op == "-":
                sign = -1
            else:
                return Poly._trusted(self.num_vars, terms)
            self.pos += 1

    def term(self, terms, coeff):
        """Parse a term and add ``coeff`` times it into ``terms``."""
        tokens = self.tokens
        expo = [0] * self.num_vars
        polys = []
        while True:
            kind, val, at = tokens[self.pos]
            if kind == "ident":
                self.pos += 1
                i = self.index.get(val)
                if i is None:
                    raise UnknownVariableError(val, at)
                expo[i] += self.power()
            elif kind == "nat" or val == "-":
                x = self.rational()
                coeff *= x ** self.power()
            elif val == "(":
                self.pos += 1
                p = self.expr()
                kind, val, at = tokens[self.pos]
                if val != ")":
                    raise PolyParseError("expected ')'", at)
                self.pos += 1
                k = self.power()
                if not k:
                    pass  # p^0 == 1, also for p == 0
                elif len(p.terms) > 1:
                    polys.append(p if k == 1 else p ** k)
                elif p.terms:
                    ((e, c),) = p.terms.items()
                    coeff *= c ** k
                    expo = [a + b * k for a, b in zip(expo, e)]
                else:
                    coeff = 0
            else:
                raise PolyParseError("expected a number, variable or '('", at)
            if tokens[self.pos][1] != "*":
                break
            self.pos += 1
        if not coeff:
            return
        if coeff.denominator == 1:
            coeff = coeff.numerator
        p = Poly._trusted(self.num_vars, {tuple(expo): coeff})
        for q in polys:
            p = p * q
        _fold(terms, p.terms, 1)

    def power(self):
        """The exponent after a base: the nat of a following '^', else 1."""
        if self.tokens[self.pos][1] != "^":
            return 1
        kind, val, at = self.tokens[self.pos + 1]
        if kind != "nat":
            raise PolyParseError("exponent must be a natural number", at)
        self.pos += 2
        return int(val)

    def rational(self):
        """An int, or int/nat, with an optional leading '-'."""
        tokens = self.tokens
        kind, val, at = tokens[self.pos]
        negated = val == "-"
        if negated:
            kind, val, at = tokens[self.pos + 1]
            if kind != "nat":
                raise PolyParseError("expected digits after sign", at)
            self.pos += 1
        self.pos += 1
        x = int(val)
        if tokens[self.pos][1] == "/":
            kind, val, at = tokens[self.pos + 1]
            if kind != "nat":
                raise PolyParseError("expected digits after '/'", at)
            self.pos += 2
            if int(val) == 0:
                raise PolyParseError("zero denominator", at)
            x = Fraction(x, int(val))
        return -x if negated else x


def parse_poly(text, var_names):
    """Parse ``text`` into a Poly over the declared variables."""
    return _Parser(text, var_names).parse()


def parse_map(texts, var_names, target_var_names=None):
    """Parse one polynomial per source variable into a PolyMap."""
    target = target_var_names or var_names
    return PolyMap(tuple(parse_poly(t, target) for t in texts))
