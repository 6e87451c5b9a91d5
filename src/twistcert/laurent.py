"""Exact multivariate Laurent polynomial arithmetic over Z or Q.

Everything in this module is immutable and exact.  A ring is a tuple of
variable names plus a coefficient domain ("Z" for Python ints, "Q" for
fractions.Fraction); a polynomial is a term map from exponent vectors
(tuples of ints, one slot per variable, negatives allowed) to nonzero
coefficients.  Term maps are unordered: arithmetic never sorts, and
equality and hashing ignore insertion order.  Order is imposed only
where it shows, when a polynomial is printed or serialized.

There is one ring object per signature (single_variable_ring,
surface_ring and as_domain hand out the same object for the same names
and domain), so ring checks are identity checks in the common case.
A product by a single term moves and scales the other operand's terms;
every other product is one integer convolution, _convolve: over Q, of
the numerators left once each operand's denominators are cleared, with
one Fraction built per surviving term.

The text format round-trips: parse_poly(str(f), f.ring) == f.  Terms are
printed in ascending lexicographic exponent order, e.g.

    >>> R = single_variable_ring()
    >>> str(parse_poly("(t-1)*(t^-1-1)", R))
    '-t^-1 + 2 - t'
"""

from __future__ import annotations

import re
from collections.abc import Mapping, Sequence
from fractions import Fraction
from functools import cache
from math import lcm
from operator import add, attrgetter

Coeff = int | Fraction
ExponentVector = tuple[int, ...]


class RingMismatchError(ValueError):
    """Two operands (or a hom and its argument) live in different rings."""


class ValuationError(ArithmeticError):
    """The zero polynomial has no valuation."""


class ParseError(ValueError):
    """Malformed polynomial text; carries the offending position."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


def _exponent_vector(exponents: Sequence[int]) -> ExponentVector:
    """The exponents as a tuple; anything but an int (a bool, a float,
    a string) is refused, not truncated."""
    exps = tuple(exponents)
    for e in exps:
        if type(e) is not int:
            raise TypeError(f"exponent {e!r} is not an integer")
    return exps


class _Value:
    """Base of the immutable value classes.  A subclass names its fields
    in __slots__, in the order of its __init__ parameters, and sets each
    once in __init__ through object.__setattr__; two instances of one
    class are equal when their fields are, and hash, print and copy by
    their fields."""

    __slots__ = ()

    def __init_subclass__(cls):
        super().__init_subclass__()
        cls._values = attrgetter(*cls.__slots__)

    def __setattr__(self, *name_and_value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    __delattr__ = __setattr__

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values(self) == other._values(other)

    def __hash__(self):
        return hash(self._values(self))

    def __reduce__(self):
        return type(self), self._values(self)

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}"
                           for name in self.__slots__)
        return f"{type(self).__qualname__}({fields})"


class LaurentRing(_Value):
    """A Laurent polynomial ring signature: variable names and domain."""

    __slots__ = ("names", "domain")

    def __init__(self, names: Sequence[str], domain: str = "Z"):
        if domain not in ("Z", "Q"):
            raise ValueError(f"unknown coefficient domain {domain!r}")
        names = tuple(names)
        for name in names:
            if not isinstance(name, str):
                raise TypeError(f"variable name {name!r} is not a string")
        if not names or len(set(names)) != len(names):
            raise ValueError("variable names must be nonempty and distinct")
        object.__setattr__(self, "names", names)
        object.__setattr__(self, "domain", domain)

    @property
    def nvars(self) -> int:
        return len(self.names)

    def coerce_coeff(self, c: Coeff) -> Coeff:
        if isinstance(c, bool):
            raise TypeError("bool is not a coefficient")
        if self.domain == "Z":
            if isinstance(c, int):
                return c
            if isinstance(c, Fraction) and c.denominator == 1:
                return int(c)
            raise TypeError(f"coefficient {c!r} does not lie in Z")
        if isinstance(c, (int, Fraction)):
            return Fraction(c)
        raise TypeError(f"coefficient {c!r} does not lie in Q")

    def zero(self) -> "LaurentPoly":
        return LaurentPoly._make(self, {})

    def one(self) -> "LaurentPoly":
        return self.constant(1)

    def constant(self, c: Coeff) -> "LaurentPoly":
        c = self.coerce_coeff(c)
        if not c:
            return self.zero()
        return LaurentPoly._make(self, {(0,) * self.nvars: c})

    def monomial(self, exponents: Sequence[int], coeff: Coeff = 1) -> "LaurentPoly":
        exps = _exponent_vector(exponents)
        if len(exps) != self.nvars:
            raise RingMismatchError(
                f"exponent vector of length {len(exps)} in a {self.nvars}-variable ring"
            )
        c = self.coerce_coeff(coeff)
        if not c:
            return self.zero()
        return LaurentPoly._make(self, {exps: c})

    def variable(self, name_or_index: str | int) -> "LaurentPoly":
        if isinstance(name_or_index, str):
            if name_or_index not in self.names:
                raise ValueError(f"no variable {name_or_index!r} in ring {self.names}")
            idx = self.names.index(name_or_index)
        else:
            idx = name_or_index
            if not 0 <= idx < self.nvars:
                raise ValueError(f"variable index {idx} out of range")
        exps = [0] * self.nvars
        exps[idx] = 1
        return self.monomial(exps)


@cache
def _ring(names: tuple[str, ...], domain: str) -> LaurentRing:
    # the one shared ring object per signature
    return LaurentRing(names, domain)


def _same_ring(r1: LaurentRing, r2: LaurentRing) -> bool:
    return r1 is r2 or r1 == r2


def single_variable_ring(name: str = "t", domain: str = "Z") -> LaurentRing:
    return _ring((name,), domain)


@cache
def surface_ring(genus: int, domain: str = "Z") -> LaurentRing:
    """The 2g-2 variable ring with the fixed ordering (s2..sg, t2..tg)."""
    if genus < 2:
        raise ValueError(f"genus must be at least 2, got {genus}")
    s_names = tuple(f"s{i}" for i in range(2, genus + 1))
    t_names = tuple(f"t{i}" for i in range(2, genus + 1))
    return _ring(s_names + t_names, domain)


def _convolve(f, g) -> dict:
    """The product of two term sequences of (exponents, integer) pairs,
    as its nonzero sums by exponent vector."""
    out: dict = {}
    for e1, c1 in f:
        for e2, c2 in g:
            key = tuple(map(add, e1, e2))
            s = out.get(key, 0) + c1 * c2
            if s:
                out[key] = s
            else:
                out.pop(key, None)
    return out


def _numerators(terms: dict) -> tuple[int, list[tuple[ExponentVector, int]]]:
    """The lcm d of the Fraction coefficients' denominators, and the
    terms as (exponents, integer numerator over d) pairs."""
    den = lcm(*{c.denominator for c in terms.values()})
    if den == 1:
        return 1, [(e, c.numerator) for e, c in terms.items()]
    return den, [(e, c.numerator * (den // c.denominator))
                 for e, c in terms.items()]


class LaurentPoly:
    """An immutable Laurent polynomial: a map exponents -> coefficient.

    The term map holds nonzero coefficients only and has no meaningful
    order; __str__ prints terms by ascending exponent vector, and
    __eq__ and __hash__ ignore the order.
    """

    __slots__ = ("ring", "terms", "_hash")

    def __init__(self, ring: LaurentRing, terms: Mapping[Sequence[int], Coeff]):
        cleaned = {}
        for exps, c in terms.items():
            key = _exponent_vector(exps)
            if len(key) != ring.nvars:
                raise RingMismatchError(
                    f"exponent vector {key} in a {ring.nvars}-variable ring"
                )
            c = ring.coerce_coeff(c)
            if c:
                cleaned[key] = cleaned.get(key, ring.coerce_coeff(0)) + c
        object.__setattr__(self, "ring", ring)
        object.__setattr__(self, "terms", {k: c for k, c in cleaned.items() if c})
        object.__setattr__(self, "_hash", None)

    @classmethod
    def _make(cls, ring: LaurentRing, clean_terms: dict) -> "LaurentPoly":
        # Internal fast path: caller guarantees coerced, nonzero coefficients.
        self = object.__new__(cls)
        object.__setattr__(self, "ring", ring)
        object.__setattr__(self, "terms", clean_terms)
        object.__setattr__(self, "_hash", None)
        return self

    def __setattr__(self, name, value):
        raise AttributeError("LaurentPoly is immutable")

    # -- basic queries ------------------------------------------------

    def coeff(self, exponents: Sequence[int]) -> Coeff:
        return self.terms.get(_exponent_vector(exponents),
                              self.ring.coerce_coeff(0))

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __eq__(self, other) -> bool:
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        return _same_ring(self.ring, other.ring) and self.terms == other.terms

    def __hash__(self):
        if self._hash is None:
            object.__setattr__(
                self, "_hash", hash((self.ring, frozenset(self.terms.items())))
            )
        return self._hash

    def _check_ring(self, other: "LaurentPoly"):
        if not _same_ring(self.ring, other.ring):
            raise RingMismatchError(
                f"mixed rings: {self.ring.names}/{self.ring.domain} "
                f"vs {other.ring.names}/{other.ring.domain}"
            )

    # -- ring operations ----------------------------------------------

    def __add__(self, other: "LaurentPoly") -> "LaurentPoly":
        self._check_ring(other)
        out = dict(self.terms)
        for exps, c in other.terms.items():
            s = out.get(exps, 0) + c
            if s:
                out[exps] = s
            else:
                out.pop(exps, None)
        return LaurentPoly._make(self.ring, out)

    def __neg__(self) -> "LaurentPoly":
        return LaurentPoly._make(self.ring, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other: "LaurentPoly") -> "LaurentPoly":
        self._check_ring(other)
        out = dict(self.terms)
        for exps, c in other.terms.items():
            s = out.get(exps, 0) - c
            if s:
                out[exps] = s
            else:
                out.pop(exps, None)
        return LaurentPoly._make(self.ring, out)

    def __mul__(self, other) -> "LaurentPoly":
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        self._check_ring(other)
        # an operand c x^e of at most one term moves the other's exponents
        # by e and scales by c: in a domain no two terms meet, none vanishes
        if len(other.terms) <= 1:
            return self._times_term(other)
        if len(self.terms) <= 1:
            return other._times_term(self)
        if self.ring.domain == "Z":
            return LaurentPoly._make(
                self.ring, _convolve(self.terms.items(), other.terms.items()))
        # over Q each operand is integers n_e over the lcm d of its
        # denominators, and one Fraction is built per surviving sum
        (d1, n1), (d2, n2) = _numerators(self.terms), _numerators(other.terms)
        return LaurentPoly._make(self.ring, {
            e: Fraction(s, d1 * d2) for e, s in _convolve(n1, n2).items()})

    def _times_term(self, term: "LaurentPoly") -> "LaurentPoly":
        if not term.terms:
            return self.ring.zero()
        (shift, c), = term.terms.items()
        items = self.terms.items()
        if any(shift):
            items = [(tuple(map(add, e, shift)), v) for e, v in items]
        elif c == 1:
            return self
        if c == 1:
            return LaurentPoly._make(self.ring, dict(items))
        if c == -1:
            return LaurentPoly._make(self.ring, {e: -v for e, v in items})
        return LaurentPoly._make(self.ring, {e: c * v for e, v in items})

    def __rmul__(self, other) -> "LaurentPoly":
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        return NotImplemented

    def scale(self, c: Coeff) -> "LaurentPoly":
        c = self.ring.coerce_coeff(c)
        if not c:
            return self.ring.zero()
        return LaurentPoly._make(self.ring, {e: c * v for e, v in self.terms.items()})

    def __pow__(self, n: int) -> "LaurentPoly":
        if not isinstance(n, int):
            raise TypeError("exponent must be an integer")
        if n < 0:
            return self.unit_inverse() ** (-n)
        result = self.ring.one()
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def unit_inverse(self) -> "LaurentPoly":
        """Inverse of a unit (a single invertible term); error otherwise."""
        if len(self.terms) != 1:
            raise ValueError(f"{self} is not a unit in {self.ring.names}")
        (exps, c), = self.terms.items()
        if self.ring.domain == "Z":
            if c not in (1, -1):
                raise ValueError(f"coefficient {c} is not invertible over Z")
            inv = c
        else:
            inv = Fraction(1) / c
        return LaurentPoly._make(self.ring, {tuple(-e for e in exps): inv})

    # -- structure maps -----------------------------------------------

    def involution(self) -> "LaurentPoly":
        """The ring automorphism sending every variable to its inverse."""
        return LaurentPoly._make(
            self.ring, {tuple(-e for e in exps): c for exps, c in self.terms.items()}
        )

    def evaluate_at_one(self) -> Coeff:
        """The coefficient sum, i.e. the value at (1, ..., 1)."""
        return sum(self.terms.values(), self.ring.coerce_coeff(0))

    def is_balanced(self) -> bool:
        """Zero coefficient sum and symmetric under exponent negation."""
        return self.evaluate_at_one() == 0 and self.involution() == self

    def valuation(self) -> int:
        """Lowest exponent of a univariate polynomial; errors on zero."""
        if self.ring.nvars != 1:
            raise ValueError("valuation is only defined for univariate polynomials")
        if not self.terms:
            raise ValuationError("the zero polynomial has no valuation")
        return min(e[0] for e in self.terms)

    def degree(self) -> int:
        """Highest exponent of a nonzero univariate polynomial."""
        if self.ring.nvars != 1:
            raise ValueError("degree is only defined for univariate polynomials")
        if not self.terms:
            raise ValuationError("the zero polynomial has no degree")
        return max(e[0] for e in self.terms)

    def is_polynomial(self) -> bool:
        """True when no variable appears with a negative exponent."""
        return all(all(e >= 0 for e in exps) for exps in self.terms)

    def as_domain(self, domain: str) -> "LaurentPoly":
        """The same polynomial viewed in the ring with the given domain."""
        target = _ring(self.ring.names, domain)
        if target is self.ring:
            return self
        return LaurentPoly(target, self.terms)

    # -- printing -------------------------------------------------------

    def __str__(self) -> str:
        names, terms = self.ring.names, self.terms
        return signed_terms([(monomial_text(names, exps), terms[exps])
                             for exps in sorted(terms)])

    def __repr__(self) -> str:
        return f"<LaurentPoly {self} over {'/'.join(self.ring.names)};{self.ring.domain}>"


def monomial_text(names: Sequence[str], exps: ExponentVector) -> str:
    """The printed variable part of a term, "" for the constant term."""
    parts = []
    for name, e in zip(names, exps):
        if e:
            parts.append(name if e == 1 else f"{name}^{e}")
    return "*".join(parts)


def signed_terms(terms) -> str:
    """The printed sum of terms (monomial_text, nonzero coefficient) in
    the given order: "0" for no terms, signs spaced apart, and a unit
    coefficient written only on the constant term."""
    chunks = []
    for var, c in terms:
        if c < 0:
            sign, c = " - ", -c
        else:
            sign = " + "
        chunks.append(f"{sign}{c}" if not var else f"{sign}{var}" if c == 1
                      else f"{sign}{c}*{var}")
    text = "".join(chunks)
    return (text[3:] if text[1] == "+" else "-" + text[3:]) if text else "0"


class RingHom(_Value):
    """A ring homomorphism fixed by per-variable image polynomials."""

    __slots__ = ("source", "target", "images")

    def __init__(self, source: LaurentRing, target: LaurentRing,
                 images: tuple[LaurentPoly, ...]):
        if len(images) != source.nvars:
            raise RingMismatchError(
                f"{len(images)} images for {source.nvars} variables"
            )
        for im in images:
            if not _same_ring(im.ring, target):
                raise RingMismatchError("image polynomial outside the target ring")
        object.__setattr__(self, "source", source)
        object.__setattr__(self, "target", target)
        object.__setattr__(self, "images", images)

    def apply(self, f: LaurentPoly) -> LaurentPoly:
        if not _same_ring(f.ring, self.source):
            raise RingMismatchError("argument does not live in the source ring")
        total = self.target.zero()
        for exps, c in f.terms.items():
            term = self.target.constant(c)
            for im, e in zip(self.images, exps):
                if e:
                    term = term * (im ** e)
            total = total + term
        return total


@cache
def _keep_one(ring: LaurentRing, index: int, name: str) -> RingHom:
    """The map sending every variable but the index-th (0-based) to 1
    and that one to the variable name; built once per ring and slot."""
    target = single_variable_ring(name, ring.domain)
    images = [target.one()] * ring.nvars
    images[index] = target.variable(0)
    return RingHom(ring, target, tuple(images))


def phi_hom(ring: LaurentRing) -> RingHom:
    """The specialization s_i -> 1, t_2 -> t, t_i -> 1 (i >= 3).

    The source must be a 2g-2 variable ring in the fixed ordering
    (s2..sg, t2..tg); positionally, slot g-1 (the first t-variable) is
    the one kept alive.  The map is a constant of the ring, built once.
    """
    n = ring.nvars
    if n < 2 or n % 2 != 0:
        raise RingMismatchError(f"specialization needs a 2g-2 variable "
                                f"ring, got {n} variables")
    return _keep_one(ring, n // 2, "t")


def specialize_phi(f: LaurentPoly) -> LaurentPoly:
    return phi_hom(f.ring).apply(f)


def specialize_single(f: LaurentPoly, keep: int) -> LaurentPoly:
    """Send every variable except the keep-th (1-based) to 1."""
    ring = f.ring
    if not 1 <= keep <= ring.nvars:
        raise ValueError(f"variable index {keep} out of range 1..{ring.nvars}")
    return _keep_one(ring, keep - 1, ring.names[keep - 1]).apply(f)


# -- parsing ------------------------------------------------------------

# each match skips whitespace, then takes one token or one stray character;
# a literal is ASCII digits only, so a digit of another script is refused
_TOKEN_RE = re.compile(r"\s*(?:([0-9]+)|([A-Za-z][A-Za-z0-9]*)|([-+*/^()])|(\S))")


def _tokenize(text: str):
    tokens = []
    for m in _TOKEN_RE.finditer(text):
        digits, name, op, other = m.groups()
        if digits is not None:
            if len(digits) > _MAX_DIGITS:
                raise ParseError(f"integer literal has more than "
                                 f"{_MAX_DIGITS} digits", m.start(1))
            tokens.append(("int", int(digits), m.start(1)))
        elif name is not None:
            tokens.append(("name", name, m.start(2)))
        elif op is not None:
            tokens.append(("op", op, m.start(3)))
        else:
            raise ParseError(f"unexpected character {other!r}", m.start(4))
    tokens.append(("end", None, len(text)))
    return tokens


MAX_NESTING = 200
MAX_EXPONENT = 1000
MAX_TERMS = 1000
# the most digits Python converts between an int and its text by default
_MAX_DIGITS = 4300
_COEFF_LIMIT = 10 ** _MAX_DIGITS


class _Parser:
    """Recursive-descent parser for the documented expression grammar.

    Grammar: sums and differences of products of signed atoms; an atom is
    an integer literal, a rational literal p/q, a variable, or a
    parenthesized expression, optionally raised to an integer power via ^.

    Work is bounded: parentheses nest at most MAX_NESTING deep, which
    keeps the descent well inside Python's recursion limit, and a
    power's exponent is at most MAX_EXPONENT in absolute value.  Every
    sum and product built along the way, including each step of a
    power, has at most MAX_TERMS terms, exponents at most MAX_EXPONENT
    in absolute value, and numerators and denominators of at most
    _MAX_DIGITS digits; so nested powers such as (t^100)^20 are refused
    too.  A product is refused before it is formed when its operands'
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
        # one running term map: each + or - checks only the terms it
        # changes, since every term is within limits when it is parsed
        total = self.term()
        while True:
            kind, val, pos = self.peek()
            if not (kind == "op" and val in "+-"):
                return LaurentPoly._make(self.ring, total)
            self.advance()
            touched = {}
            for exps, c in self.term(1 if val == "+" else -1).items():
                s = total[exps] + c if exps in total else c
                if s:
                    total[exps] = touched[exps] = s
                else:
                    del total[exps]
            if len(total) > MAX_TERMS:
                raise ParseError(
                    f"expression has more than {MAX_TERMS} terms", pos)
            self.check_size(touched, pos)

    def term(self, sign: int = 1) -> dict:
        """The term map of one term, times sign.  While its factors are
        literals and variable powers the term is one (coefficient,
        exponents) monomial, and each * checks it; from its first factor
        that is a parenthesised expression or a power of a constant on,
        the term is a polynomial, and each * is a product."""
        term = self.factor(sign)
        while True:
            kind, val, pos = self.peek()
            if not (kind == "op" and val == "*"):
                return self.as_poly(term).terms
            self.advance()
            factor = self.factor()
            if type(term) is tuple and type(factor) is tuple:
                c = term[0] if factor[0] == 1 else term[0] * factor[0]
                term = c, tuple(map(add, term[1], factor[1]))
                if c:
                    self.check_size({term[1]: c}, pos)
            else:
                term = self.product(self.as_poly(term), self.as_poly(factor),
                                    pos)

    def as_poly(self, term) -> LaurentPoly:
        """A polynomial, or a (coefficient, exponents) monomial as one,
        its coefficient coerced into the ring."""
        if type(term) is not tuple:
            return term
        c, exps = term
        return LaurentPoly._make(
            self.ring, {exps: self.ring.coerce_coeff(c)} if c else {})

    def product(self, f: LaurentPoly, g: LaurentPoly, pos: int) -> LaurentPoly:
        if len(f.terms) * len(g.terms) > MAX_TERMS:
            raise ParseError(
                f"product of {len(f.terms)} by {len(g.terms)} terms exceeds "
                f"the limit of {MAX_TERMS} terms", pos)
        out = f * g
        self.check_size(out.terms, pos)
        return out

    @staticmethod
    def check_size(terms: Mapping[ExponentVector, Coeff], pos: int):
        """Refuse terms whose exponents or coefficients exceed the limits."""
        for exps, c in terms.items():
            for e in exps:
                if abs(e) > MAX_EXPONENT:
                    raise ParseError(f"exponent {e} exceeds the limit of "
                                     f"{MAX_EXPONENT} in absolute value", pos)
            if abs(c.numerator) >= _COEFF_LIMIT \
                    or c.denominator >= _COEFF_LIMIT:
                raise ParseError(f"coefficient has more than {_MAX_DIGITS} "
                                 "digits", pos)

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
        return (-atom[0], atom[1]) if type(atom) is tuple else -atom

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
        """A literal or a variable power as a (coefficient, exponents)
        monomial; a power of a constant or a parenthesised expression as a
        polynomial."""
        kind, val, pos = self.peek()
        if kind == "int":
            self.advance()
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
                val = Fraction(val, val2)
            if self.peek()[1] != "^":
                return val, self.origin
            return self.power(self.ring.constant(val))
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
            return 1, tuple(exps)
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


def parse_poly(text: str, ring: LaurentRing, part: str = "") -> LaurentPoly:
    """Parse the documented text format into a polynomial of the ring; a
    parse error names the part of a larger input that text is, if any."""
    try:
        return _Parser(text, ring).parse()
    except ParseError as exc:
        if part:
            exc.args = (f"{part}: {exc}",)
        raise
