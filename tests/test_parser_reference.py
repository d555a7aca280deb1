"""The one-pass parser against the recursive-descent parser it replaced.

``_TOKEN``, ``_tokenize`` and ``_Parser`` below are that parser, kept
verbatim as the reference: on every seeded text both must give equal
polynomials with identical ``render``, or raise the same exception class
with the same message and position.
"""

import random
import re
from fractions import Fraction

from coxtools.polynomials import Poly, PolyParseError, UnknownVariableError, parse_poly

from conftest import YS

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


def _reference_parse(text, var_names):
    return _Parser(text, var_names).parse()


def _outcome(parse, text):
    try:
        p = parse(text, YS)
    except PolyParseError as exc:
        return type(exc), str(exc), exc.position, getattr(exc, "name", None)
    return p, p.render(YS)


def _assert_same(text):
    want, got = _outcome(_reference_parse, text), _outcome(parse_poly, text)
    assert got == want, text
    return want


def _number(rng):
    num = str(rng.choice([0, 1, 2, 3, 4, 7, 12]))
    if rng.random() < 0.3:
        num += "/" + str(rng.choice([1, 2, 3, 4]))  # includes 4/2 and 0/1
    return num


def _factor(rng, depth):
    r = rng.random()
    if r < 0.4:
        base = rng.choice(YS + ["z"] if rng.random() < 0.05 else YS)
    elif r < 0.65:
        base = _number(rng)
    elif r < 0.75:
        base = "-" + _number(rng)  # "-2^2" is (-2)^2
    elif depth < 2:
        # nested parentheses, with powers kept small so products stay small
        base = "(" + _expr(rng, depth + 1, top=False) + ")"
        return base + rng.choice(["", "", "^0", "^1", "^2"])
    else:
        base = rng.choice(YS)
    if rng.random() < 0.35:
        base += "^" + str(rng.choice([0, 1, 2, 3]))
    return base


def _term(rng, depth):
    return rng.choice(["*", " * "]).join(_factor(rng, depth) for _ in range(rng.randint(1, 3)))


def _expr(rng, depth, top=True):
    text = ("-" if top and rng.random() < 0.3 else "") + _term(rng, depth)
    for _ in range(rng.randint(0, 2)):
        text += rng.choice(["+", " + ", "-", " - "]) + _term(rng, depth)
    return text


def test_one_pass_parser_matches_the_reference_on_grammar_texts():
    rng = random.Random(2208)
    parsed = 0
    for _ in range(2500):
        want = _assert_same(_expr(rng, 0))
        parsed += isinstance(want[0], Poly)
    assert parsed > 2000


def test_one_pass_parser_matches_the_reference_on_named_cases():
    for text in ["-2^2", "-(y1 + y2)^2", "4/2", "4/2*y1", "1/2*4", "0/1", "0/1*y1 + y2",
                 "y1^0", "(y1 - y1)^0", "(y1 + y2)^0", "0^0", "(0)^2*y1", "((y1 + y2)*(y1 - y2))",
                 "(((y1)))^2", "(2*y1)^3*y2", "y1*(y2 + y3)*(y2 - y3)^2*3/5", "-y1 + y1",
                 "z1", "y1 + z", "(y1 + y2", "y1^y2", "y1^-2", "-", "", "   ", "y1 )", "2(y1)",
                 "3/0", "3/-1", "--y1", "(-y1)", "y1*-y2", "-3/2*y1*y2 + y3^4 - 1", "y1 y2",
                 "y1 $ y2", "y1 é", "٣*y1", "y1\t+\ny2 ", "+y1", "*y1", "y1+", "()"]:
        _assert_same(text)
    # an integral coefficient is stored as an int
    assert [type(c) for c in parse_poly("4/2*y1 + 1/2*4*y2", YS).terms.values()] == [int, int]


def test_one_pass_parser_matches_the_reference_on_malformed_texts():
    rng = random.Random(2209)
    atoms = ["y1", "y2", "z", "_a", "+", "-", "*", "^", "(", ")", "/", "0", "3", "12", " ",
             "\t", "$", "é", "y1y2", "2y1"]
    errors = 0
    for _ in range(3000):
        if rng.random() < 0.5:
            text = "".join(rng.choice(atoms) for _ in range(rng.randint(0, 12)))
        else:
            chars = list(_expr(rng, 0))
            for _ in range(rng.randint(1, 2)):
                i = rng.randrange(len(chars) + 1)
                if rng.random() < 0.5 and i < len(chars):
                    del chars[i]
                else:
                    chars.insert(i, rng.choice("+-*/^() 0y"))
            text = "".join(chars)
        errors += not isinstance(_assert_same(text)[0], Poly)
    assert errors > 1500
