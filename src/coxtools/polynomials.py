"""Sparse multivariate polynomials with exact rational coefficients.

Terms live in a dict mapping exponent tuples to nonzero coefficients:
an ``int`` when the coefficient is integral and a ``Fraction`` otherwise,
so integer polynomials multiply and add on Python ints.  Arithmetic may
leave an integral value as a ``Fraction`` (``2 * Fraction(1, 2)``);
``3`` and ``Fraction(3)`` compare and hash alike, so equality, hashing
and ``render`` do not see the difference.  No coefficient is divided
with ``/`` and none is ever a float.

``Poly(num_vars, terms)`` validates and cleans its input.  The ring
operations, ``derivative``, ``homogeneous_part``, ``substitute`` and
``poly_det`` build their results with ``Poly._trusted``, which takes a
dict that is already clean (every coefficient a nonzero ``int`` or
``Fraction``, every key a tuple of ``num_vars`` non-negative ints) and
keeps it as is, without a copy or a check.

Canonical printing and equality use graded lexicographic term order
(total degree first, then exponents, descending).  Polynomials are
treated as immutable values: no method mutates ``terms`` after
construction.
"""

import re
from fractions import Fraction


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
        for expo, coeff in (terms or {}).items():
            c = Fraction(coeff)
            if c == 0:
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

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            other = Poly.constant(self.num_vars, other)
        self._check(other)
        terms = dict(self.terms)
        for e, c in other.terms.items():
            s = terms.get(e, 0) + c
            if s:
                terms[e] = s
            else:
                del terms[e]
        return Poly._trusted(self.num_vars, terms)

    def __neg__(self):
        return Poly._trusted(self.num_vars, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        if isinstance(other, (int, Fraction)):
            other = Poly.constant(self.num_vars, other)
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            if not other:
                return Poly.zero(self.num_vars)
            if other.denominator == 1:
                other = other.numerator
            return Poly._trusted(self.num_vars, {e: c * other for e, c in self.terms.items()})
        self._check(other)
        terms = {}
        get = terms.get
        right = other.terms.items()
        for e1, c1 in self.terms.items():
            for e2, c2 in right:
                e = tuple([a + b for a, b in zip(e1, e2)])
                terms[e] = get(e, 0) + c1 * c2
        for e in [e for e, c in terms.items() if not c]:
            del terms[e]
        return Poly._trusted(self.num_vars, terms)

    __rmul__ = __mul__
    __radd__ = __add__

    def __pow__(self, k):
        k = int(k)
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

    def degree_in(self, var_subset):
        """Smallest total degree of any term in the selected variables."""
        if not self.terms:
            return None
        return min(sum(e[i] for i in var_subset) for e in self.terms)

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
            factors = []
            for i, k in enumerate(e):
                if k == 1:
                    factors.append(names[i])
                elif k > 1:
                    factors.append(f"{names[i]}^{k}")
            mag = abs(c)
            if not factors:
                body = str(mag)
            elif mag == 1:
                body = "*".join(factors)
            else:
                body = "*".join([str(mag)] + factors)
            if not parts:
                parts.append(body if c > 0 else f"-{body}")
            else:
                parts.append(f" + {body}" if c > 0 else f" - {body}")
        return "".join(parts)

    def __repr__(self):
        return f"Poly({self.render()})"


class PolyMap:
    """A polynomial substitution rule: one image per source variable.

    ``images[i]`` is the image of source variable i, written in the
    target variables.  Composition follows function application:
    ``compose(f, g)`` substitutes ``g``'s images into ``f``'s, i.e. it
    is "f after g" on points.
    """

    __slots__ = ("source_vars", "target_vars", "images")

    def __init__(self, images, source_vars=None):
        images = tuple(images)
        if not images:
            raise ValueError("a map needs at least one image")
        self.images = images
        self.source_vars = len(images) if source_vars is None else int(source_vars)
        if self.source_vars != len(images):
            raise ValueError("one image per source variable required")
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
    one = Poly._trusted(m.target_vars, {(0,) * m.target_vars: 1})
    powers = [[one] for _ in range(m.source_vars)]  # powers[i][k] is images[i]^k
    terms = {}
    for e, c in p.terms.items():
        term = None
        for i, k in enumerate(e):
            if k:
                known = powers[i]
                while len(known) <= k:
                    known.append(known[-1] * m.images[i])
                term = known[k] if term is None else term * known[k]
        _fold(terms, one if term is None else term, c)
    return Poly._trusted(m.target_vars, terms)


def _fold(terms, p, c):
    """terms += c * p.terms in place, dropping the zeros that appear."""
    for e, x in p.terms.items():
        s = terms.get(e, 0) + c * x
        if s:
            terms[e] = s
        else:
            del terms[e]


def compose(f, g):
    """The map v -> f(g(v)): g's images substituted into f's."""
    if f.target_vars != g.source_vars:
        raise ValueError("composition dimension mismatch")
    return PolyMap(tuple(substitute(p, g) for p in f.images), source_vars=f.source_vars)


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
    """Determinant by cofactor expansion with minor memoization."""
    n = len(matrix)
    if any(len(row) != n for row in matrix):
        raise NonSquareError("determinant of a non-square matrix")
    if n == 0:
        raise NonSquareError("empty matrix")
    num_vars = matrix[0][0].num_vars
    cache = {}

    def minor(rows, colmask):
        key = (rows, colmask)
        if key in cache:
            return cache[key]
        cols = [j for j in range(n) if colmask >> j & 1]
        if len(rows) == 1:
            result = matrix[rows[0]][cols[0]]
        else:
            terms = {}
            sign = 1
            for j in cols:
                entry = matrix[rows[0]][j]
                if entry.terms:
                    _fold(terms, entry * minor(rows[1:], colmask & ~(1 << j)), sign)
                sign = -sign
            result = Poly._trusted(num_vars, terms)
        cache[key] = result
        return result

    return minor(tuple(range(n)), (1 << n) - 1)


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

_TOKEN = re.compile(r"\s*(?:(\d+)|([A-Za-z_][A-Za-z_0-9]*)|([-+*/^()]))")


def _tokenize(text):
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if m is None or m.end() == pos:
            stripped = text[pos:].lstrip()
            if not stripped:
                break
            bad = len(text) - len(stripped)
            raise PolyParseError(f"unexpected character '{text[bad]}'", bad)
        kind = "nat" if m.group(1) else ("ident" if m.group(2) else "op")
        tokens.append((kind, m.group(1) or m.group(2) or m.group(3), m.start() + len(m.group(0)) - len((m.group(1) or m.group(2) or m.group(3)))))
        pos = m.end()
    tokens.append(("end", "", len(text)))
    return tokens


class _Parser:
    def __init__(self, text, var_names):
        self.tokens = _tokenize(text)
        self.pos = 0
        self.var_names = list(var_names)
        self.num_vars = len(self.var_names)
        self.index = {n: i for i, n in enumerate(self.var_names)}

    def peek(self):
        return self.tokens[self.pos]

    def advance(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect_op(self, op):
        kind, val, at = self.peek()
        if kind != "op" or val != op:
            raise PolyParseError(f"expected '{op}'", at)
        return self.advance()

    def parse(self):
        p = self.expr(text=True)
        kind, val, at = self.peek()
        if kind != "end":
            raise PolyParseError(f"trailing input '{val}'", at)
        return p

    def expr(self, text=False):
        lead = self.tokens[self.pos:self.pos + 2]
        if text and lead[0][1] == "-" and (lead[1][0] == "ident" or lead[1][1] == "("):
            self.advance()
            p = -self.term()
        else:
            p = self.term()
        while True:
            kind, val, _ = self.peek()
            if kind == "op" and val in "+-":
                self.advance()
                q = self.term()
                p = p + q if val == "+" else p - q
            else:
                return p

    def term(self):
        p = self.factor()
        while True:
            kind, val, _ = self.peek()
            if kind == "op" and val == "*":
                self.advance()
                p = p * self.factor()
            else:
                return p

    def factor(self):
        p = self.base()
        kind, val, _ = self.peek()
        if kind == "op" and val == "^":
            self.advance()
            nkind, nval, nat = self.peek()
            if nkind != "nat":
                raise PolyParseError("exponent must be a natural number", nat)
            self.advance()
            p = p ** int(nval)
        return p

    def base(self):
        kind, val, at = self.peek()
        if kind == "op" and val == "-":
            self.advance()
            return -self.rational(negated=True)
        if kind == "nat":
            return self.rational()
        if kind == "ident":
            self.advance()
            if val not in self.index:
                raise UnknownVariableError(val, at)
            return Poly.variable(self.num_vars, self.index[val])
        if kind == "op" and val == "(":
            self.advance()
            p = self.expr()
            self.expect_op(")")
            return p
        raise PolyParseError(f"expected a number, variable or '('", at)

    def rational(self, negated=False):
        kind, val, at = self.peek()
        if kind != "nat":
            raise PolyParseError("expected digits" + (" after sign" if negated else ""), at)
        self.advance()
        num = int(val)
        kind, op, _ = self.peek()
        if kind == "op" and op == "/":
            self.advance()
            dkind, dval, dat = self.peek()
            if dkind != "nat":
                raise PolyParseError("expected digits after '/'", dat)
            self.advance()
            if int(dval) == 0:
                raise PolyParseError("zero denominator", dat)
            return Poly.constant(self.num_vars, Fraction(num, int(dval)))
        return Poly.constant(self.num_vars, num)


def parse_poly(text, var_names):
    """Parse ``text`` into a Poly over the declared variables."""
    return _Parser(text, var_names).parse()


def parse_map(texts, var_names, target_var_names=None):
    """Parse one polynomial per source variable into a PolyMap."""
    target = target_var_names or var_names
    return PolyMap(tuple(parse_poly(t, target) for t in texts), source_vars=len(texts))
