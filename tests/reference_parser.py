"""The expression parser of twistcert.laurent as it was while its values
took three forms, kept here unchanged as the reference the tests compare
today's parser with: a term of literals and variable powers is a
(numerator, denominator, exponents) monomial, a parenthesised factor or a
power is a LaurentPoly multiplied by LaurentPoly products, and a sum is
a term map of (numerator, denominator) pairs.  Its tokenizer is frozen
with it, so the reference reads the token stream it was written for."""

from __future__ import annotations

import re
from collections.abc import Mapping
from math import gcd
from operator import add

from twistcert.laurent import (
    _DENOMINATOR_LIMIT,
    MAX_DENOMINATOR_DIGITS,
    MAX_DIGITS,
    MAX_EXPONENT,
    MAX_NESTING,
    MAX_TERMS,
    ExponentVector,
    LaurentPoly,
    LaurentRing,
    ParseError,
    _make,
    oversized_term,
)

# each match skips whitespace, then takes one token or one stray character;
# a literal is ASCII digits only, so a digit of another script is refused
_TOKEN_RE = re.compile(r"\s*(?:([0-9]+)|([A-Za-z][A-Za-z0-9]*)|([-+*/^()])|(\S))")


def _tokenize(text: str):
    tokens = []
    for m in _TOKEN_RE.finditer(text):
        digits, name, op, other = m.groups()
        if digits is not None:
            if len(digits) > MAX_DIGITS:
                raise ParseError(f"integer literal has more than "
                                 f"{MAX_DIGITS} digits", m.start(1))
            tokens.append(("int", int(digits), m.start(1)))
        elif name is not None:
            tokens.append(("name", name, m.start(2)))
        elif op is not None:
            tokens.append(("op", op, m.start(3)))
        else:
            raise ParseError(f"unexpected character {other!r}", m.start(4))
    tokens.append(("end", None, len(text)))
    return tokens


class ReferenceParser:
    """Recursive-descent parser for the documented expression grammar.

    Grammar: sums and differences of products of signed atoms; an atom is
    an integer literal, a rational literal p/q, a variable, or a
    parenthesized expression, optionally raised to an integer power via ^.

    Work is bounded: parentheses nest at most MAX_NESTING deep, which
    keeps the descent well inside Python's recursion limit, and a
    power's exponent is at most MAX_EXPONENT in absolute value.  Every
    sum and product built along the way, including each step of a
    power, has at most MAX_TERMS terms, exponents at most MAX_EXPONENT
    in absolute value, coefficients whose numerators and denominators
    in lowest terms have at most MAX_DIGITS digits, and a common
    denominator of at most MAX_DENOMINATOR_DIGITS digits; so nested
    powers such as (t^100)^20 are refused too.  A product is refused before it is formed when its operands'
    term counts multiply to more than MAX_TERMS, the size it has before
    like terms combine, so each step costs at most MAX_TERMS term
    products on operands of bounded size.
    """

    def __init__(self, text: str, ring: LaurentRing):
        self.tokens = _tokenize(text)
        self.ring = ring
        self.origin = (0,) * ring.nvars  # the exponents of a literal
        self.i = 0
        self.depth = 0

    def peek(self):
        return self.tokens[self.i]

    def advance(self):
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect_op(self, op: str):
        kind, val, pos = self.peek()
        if kind != "op" or val != op:
            raise ParseError(f"expected {op!r}", pos)
        self.advance()

    def parse(self) -> LaurentPoly:
        poly = self.expr()
        kind, val, pos = self.peek()
        if kind != "end":
            raise ParseError(f"trailing input {val!r}", pos)
        return poly

    def expr(self) -> LaurentPoly:
        # one running term map of coefficients in lowest terms, as
        # (numerator, denominator) pairs: each + or - checks only the
        # terms it changes, since every term is within limits when it is
        # parsed, and the sum is put over one denominator once, at the end
        total = self.pairs(self.term())
        while True:
            kind, val, pos = self.peek()
            if not (kind == "op" and val in "+-"):
                return self.over_one_denominator(total, pos)
            self.advance()
            touched = []
            for exps, (n, d) in self.pairs(
                    self.term(1 if val == "+" else -1)).items():
                if exps in total:
                    n0, d0 = total[exps]
                    n, d = n0 * d + n * d0, d0 * d
                    g = gcd(n, d)
                    n, d = n // g, d // g
                if n:
                    total[exps] = n, d
                    touched.append(exps)
                else:
                    del total[exps]
            if len(total) > MAX_TERMS:
                raise ParseError(
                    f"expression has more than {MAX_TERMS} terms", pos)
            for exps in touched:
                n, d = total[exps]
                self.check_size({exps: n}, d, pos)

    @staticmethod
    def pairs(poly: LaurentPoly) -> dict:
        """The terms of a polynomial as (numerator, denominator) pairs in
        lowest terms."""
        den = poly.den
        return {e: (c // (g := gcd(c, den)), den // g)
                for e, c in poly.num.items()}

    def over_one_denominator(self, terms: dict, pos: int) -> LaurentPoly:
        """The polynomial of (numerator, denominator) pairs in lowest
        terms: its denominator is their lcm, refused past the limit before
        any numerator is scaled to it."""
        den = 1
        for _, d in terms.values():
            if den % d:
                den = den // gcd(den, d) * d
                if den >= _DENOMINATOR_LIMIT:
                    raise ParseError("common denominator has more than "
                                     f"{MAX_DENOMINATOR_DIGITS} digits", pos)
        return _make(self.ring, {e: n * (den // d)
                                 for e, (n, d) in terms.items()}, den)

    def term(self, sign: int = 1) -> LaurentPoly:
        """One term, times sign.  While its factors are literals and
        variable powers the term is one (numerator, denominator,
        exponents) monomial in lowest terms, and each * checks it; from
        its first factor that is a parenthesised expression or a power of
        a constant on, the term is a polynomial, and each * is a
        product."""
        term = self.factor(sign)
        while True:
            kind, val, pos = self.peek()
            if not (kind == "op" and val == "*"):
                return self.as_poly(term)
            self.advance()
            factor = self.factor()
            if type(term) is tuple and type(factor) is tuple:
                (n, d, exps), (n2, d2, exps2) = term, factor
                if n2 != 1 or d2 != 1:
                    n, d = n * n2, d * d2
                    if d != 1:
                        g = gcd(n, d)
                        n, d = n // g, d // g
                term = n, d, tuple(map(add, exps, exps2))
                if n:
                    self.check_size({term[2]: n}, d, pos)
            else:
                term = self.product(self.as_poly(term), self.as_poly(factor),
                                    pos)

    def as_poly(self, term) -> LaurentPoly:
        """A polynomial, or a (numerator, denominator, exponents)
        monomial as one."""
        if type(term) is not tuple:
            return term
        n, d, exps = term
        return _make(self.ring, {exps: n}, d) if n \
            else self.ring.zero()

    def product(self, f: LaurentPoly, g: LaurentPoly, pos: int) -> LaurentPoly:
        if len(f.num) * len(g.num) > MAX_TERMS:
            raise ParseError(
                f"product of {len(f.num)} by {len(g.num)} terms exceeds "
                f"the limit of {MAX_TERMS} terms", pos)
        out = f * g
        self.check_size(out.num, out.den, pos)
        return out

    @staticmethod
    def check_size(num: Mapping[ExponentVector, int], den: int, pos: int):
        """Refuse terms of num / den whose exponents or coefficients
        exceed the limits: the first such term in num's order, its
        exponents checked before its coefficient; then a denominator
        past the limit."""
        oversized = oversized_term(num, den)
        for exps in num:
            for e in exps:
                if abs(e) > MAX_EXPONENT:
                    raise ParseError(f"exponent {e} exceeds the limit of "
                                     f"{MAX_EXPONENT} in absolute value", pos)
            if exps is oversized:
                raise ParseError(f"coefficient has more than {MAX_DIGITS} "
                                 "digits", pos)
        if den >= _DENOMINATOR_LIMIT:
            raise ParseError("common denominator has more than "
                             f"{MAX_DENOMINATOR_DIGITS} digits", pos)

    def factor(self, sign: int = 1):
        while True:
            kind, val, _ = self.peek()
            if kind == "op" and val in "+-":
                self.advance()
                if val == "-":
                    sign = -sign
            else:
                break
        atom = self.atom()
        if sign == 1:
            return atom
        return (-atom[0], *atom[1:]) if type(atom) is tuple else -atom

    def integer(self) -> int:
        sign = 1
        kind, val, pos = self.peek()
        if kind == "op" and val in "+-":
            self.advance()
            if val == "-":
                sign = -1
            kind, val, pos = self.peek()
        if kind != "int":
            raise ParseError("expected an integer", pos)
        self.advance()
        return sign * val

    def atom(self):
        """A literal or a variable power as a (numerator, denominator,
        exponents) monomial in lowest terms; a power of a constant or a
        parenthesised expression as a polynomial."""
        kind, val, pos = self.peek()
        if kind == "int":
            self.advance()
            den = 1
            nkind, nval, npos = self.peek()
            if nkind == "op" and nval == "/":
                self.advance()
                kind2, val2, pos2 = self.peek()
                if kind2 != "int":
                    raise ParseError("expected a denominator", pos2)
                self.advance()
                if self.ring.domain != "Q":
                    raise ParseError("rational literal in an integer ring", pos)
                if val2 == 0:
                    raise ParseError("zero denominator", pos2)
                g = gcd(val, val2)
                val, den = val // g, val2 // g
            if self.peek()[1] != "^":
                return val, den, self.origin
            return self.power(self.as_poly((val, den, self.origin)))
        if kind == "name":
            if val not in self.ring.names:
                raise ParseError(
                    f"unknown variable {val!r} (ring has {', '.join(self.ring.names)})",
                    pos,
                )
            self.advance()
            # a variable and its power are one monomial: n is its exponent
            n, _ = self.exponent()
            exps = [0] * self.ring.nvars
            exps[self.ring.names.index(val)] = 1 if n is None else n
            return 1, 1, tuple(exps)
        if kind == "op" and val == "(":
            if self.depth == MAX_NESTING:
                raise ParseError(f"parentheses nest deeper than {MAX_NESTING}", pos)
            self.advance()
            self.depth += 1
            inner = self.expr()
            self.depth -= 1
            self.expect_op(")")
            return self.power(inner)
        found = "the end of the input" if kind == "end" else repr(val)
        raise ParseError(f"expected a value, found {found}", pos)

    def exponent(self) -> tuple[int | None, int]:
        """The checked n of a following ^n (None without ^), and its place."""
        kind, val, pos = self.peek()
        if not (kind == "op" and val == "^"):
            return None, pos
        self.advance()
        exponent = self.integer()
        if abs(exponent) > MAX_EXPONENT:
            raise ParseError(f"exponent {exponent} exceeds the limit of "
                             f"{MAX_EXPONENT} in absolute value", pos)
        return exponent, pos

    def power(self, base: LaurentPoly) -> LaurentPoly:
        exponent, pos = self.exponent()
        if exponent is not None:
            if exponent < 0:
                try:
                    base = base.unit_inverse()
                except ValueError as exc:
                    raise ParseError(str(exc), pos) from None
                exponent = -exponent
            # square and multiply, every product checked against the
            # limits; the result starts at the first power it takes, so
            # no product by one is formed
            result = None
            while exponent:
                if exponent & 1:
                    result = base if result is None \
                        else self.product(result, base, pos)
                exponent >>= 1
                if exponent:
                    base = self.product(base, base, pos)
            return self.ring.one() if result is None else result
        return base
