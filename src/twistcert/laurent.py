"""Exact multivariate Laurent polynomial arithmetic over Z or Q.

Everything in this module is immutable and exact.  A ring is a tuple of
variable names plus a coefficient domain ("Z" for Python ints, "Q" for
fractions.Fraction).  A polynomial is integer numerators over one
denominator, as FLINT's fmpq_poly keeps it: a term map from exponent
vectors (tuples of ints, one slot per variable, negatives allowed) to
nonzero integers, and a positive denominator coprime to their content.
Over Z the denominator is 1, so both domains share one representation
and one code path.  Term maps are unordered: arithmetic never sorts, and
equality and hashing ignore insertion order.  Order is imposed only
where it shows, when a polynomial is printed or serialized.

There is one ring object per signature: the LaurentRing constructor,
and so single_variable_ring, surface_ring and as_domain, hand out the
one shared ring for the same names and domain, so every ring check is
an identity check.
A product by a single term moves and scales the other operand's terms;
every other product is one integer convolution of the numerators,
_convolve, over the product of the denominators, once each operand's
denominator is cancelled against the other's numerators; by Gauss's
lemma that leaves the product in lowest terms.  A sum or difference,
_sum, adds numerators over the lcm of the denominators and is reduced
once, by one gcd of its denominator and every numerator.
Sums, products, parsing and printing build no Fraction: one is built
only where a Q coefficient is read, through terms or coeff.

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
from math import gcd, lcm
from operator import add, attrgetter
from types import MappingProxyType

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


def _exponent_vector(exponents: Sequence[int],
                     ring: LaurentRing) -> ExponentVector:
    """The exponents as a tuple, one per variable of the ring; anything
    but an int (a bool, a float, a string) is refused, not truncated."""
    exps = tuple(exponents)
    for e in exps:
        if type(e) is not int:
            raise TypeError(f"exponent {e!r} is not an integer")
    if len(exps) != ring.nvars:
        raise RingMismatchError(f"exponent vector of length {len(exps)} "
                                f"in a {ring.nvars}-variable ring")
    return exps


class _Value:
    """Base of the immutable value classes.  A subclass names its fields
    in __slots__, in the order of its constructor's parameters, and sets
    each once, in __init__ (in __new__ for the shared LaurentRing),
    through object.__setattr__; two instances of one
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
    """A Laurent polynomial ring signature: variable names and domain.
    The constructor hands out the one shared ring of each signature."""

    __slots__ = ("names", "domain")

    def __new__(cls, names: Sequence[str], domain: str = "Z"):
        if domain not in ("Z", "Q"):
            raise ValueError(f"unknown coefficient domain {domain!r}")
        names = tuple(names)
        for name in names:
            if not isinstance(name, str):
                raise TypeError(f"variable name {name!r} is not a string")
        if not names or len(set(names)) != len(names):
            raise ValueError("variable names must be nonempty and distinct")
        ring = _RINGS.get((names, domain))
        if ring is None:
            ring = object.__new__(cls)
            object.__setattr__(ring, "names", names)
            object.__setattr__(ring, "domain", domain)
            _RINGS[names, domain] = ring
        return ring

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
        return _make(self, {}, 1)

    def one(self) -> "LaurentPoly":
        return self.constant(1)

    def constant(self, c: Coeff) -> "LaurentPoly":
        if type(c) is not int:  # an int lies in either domain as it is
            c = self.coerce_coeff(c)
        if not c:
            return self.zero()
        return _make(self, {(0,) * len(self.names): c.numerator},
                     c.denominator)

    def monomial(self, exponents: Sequence[int], coeff: Coeff = 1) -> "LaurentPoly":
        exps = _exponent_vector(exponents, self)
        c = self.coerce_coeff(coeff)
        if not c:
            return self.zero()
        return _make(self, {exps: c.numerator}, c.denominator)

    def variable(self, name_or_index: str | int) -> "LaurentPoly":
        if isinstance(name_or_index, str):
            if name_or_index not in self.names:
                raise ValueError(f"no variable {name_or_index!r} in ring {self.names}")
            idx = self.names.index(name_or_index)
        elif type(name_or_index) is not int:
            raise TypeError(f"variable index {name_or_index!r} is not "
                            "an integer")
        else:
            idx = name_or_index
            if not 0 <= idx < self.nvars:
                raise ValueError(f"variable index {idx} out of range")
        exps = [0] * self.nvars
        exps[idx] = 1
        return self.monomial(exps)


# the one ring per (names, domain)
_RINGS: dict[tuple[tuple[str, ...], str], LaurentRing] = {}


def single_variable_ring(name: str = "t", domain: str = "Z") -> LaurentRing:
    return LaurentRing((name,), domain)


@cache
def surface_ring(genus: int, domain: str = "Z") -> LaurentRing:
    """The 2g-2 variable ring with the fixed ordering (s2..sg, t2..tg)."""
    if genus < 2:
        raise ValueError(f"genus must be at least 2, got {genus}")
    s_names = tuple(f"s{i}" for i in range(2, genus + 1))
    t_names = tuple(f"t{i}" for i in range(2, genus + 1))
    return LaurentRing(s_names + t_names, domain)


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


def _cancel(items, numerators, den: int):
    """items (exponents, numerator) and den, each divided by the gcd of
    den and the numerators."""
    g = gcd(den, *numerators)
    if g == 1:
        return items, den
    return [(e, c // g) for e, c in items], den // g


def _sum(f: "LaurentPoly", g, sign: int):
    """f + sign * g, NotImplemented when g is not a polynomial: the
    numerators are added over the lcm of the denominators, and the sum
    is reduced by one gcd of its denominator and every numerator."""
    if not isinstance(g, LaurentPoly):
        return NotImplemented
    f._check_ring(g)
    den = f.den
    if den == g.den:
        out = dict(f.num)
    else:
        den = lcm(den, g.den)
        scale = den // f.den
        out = {e: c * scale for e, c in f.num.items()}
        sign *= den // g.den
    for exps, c in g.num.items():
        s = out.get(exps, 0) + sign * c
        if s:
            out[exps] = s
        else:
            del out[exps]
    if den != 1:
        content = gcd(den, *out.values())
        if content != 1:
            out = {e: c // content for e, c in out.items()}
            den //= content
    return _make(f.ring, out, den)


class _FractionTerms(Mapping):
    """The terms of a polynomial over Q: each coefficient is built as a
    Fraction in lowest terms when it is read, and the length, iteration
    and membership are the numerator dict's."""

    __slots__ = ("_num", "_den")

    def __init__(self, num: dict, den: int):
        self._num, self._den = num, den

    def __getitem__(self, exps):
        return Fraction(self._num[exps], self._den)

    def __len__(self):
        return len(self._num)

    def __iter__(self):
        return iter(self._num)

    def __contains__(self, exps):  # with no Fraction built
        return exps in self._num

    def __repr__(self):
        return repr(dict(self.items()))


class LaurentPoly(_Value):
    """An immutable Laurent polynomial: integer numerators over one
    denominator.

    num maps exponent vectors to nonzero integers and den is a positive
    integer coprime to their content, so the form is unique: zero is
    ({}, 1), and over Z den is 1.  terms is the read-only map exponents
    -> coefficient (int over Z, Fraction over Q).  The term map has no
    meaningful order; __str__ prints terms by ascending exponent
    vector, and __eq__ and __hash__ ignore the order.
    """

    __slots__ = ("ring", "num", "den")

    def __init__(self, ring: LaurentRing, terms: Mapping[Sequence[int], Coeff]):
        cleaned = {}
        for exps, c in terms.items():
            key = _exponent_vector(exps, ring)
            c = ring.coerce_coeff(c)
            if c:
                cleaned[key] = cleaned.get(key, 0) + c
        den = lcm(*(c.denominator for c in cleaned.values()))
        object.__setattr__(self, "ring", ring)
        object.__setattr__(self, "num", {k: c.numerator * (den // c.denominator)
                                         for k, c in cleaned.items() if c})
        object.__setattr__(self, "den", den)

    # -- basic queries ------------------------------------------------

    @property
    def terms(self) -> Mapping[ExponentVector, Coeff]:
        """The read-only map exponents -> coefficient, as cheap to measure
        and iterate as num: num itself over Z, Fractions over Q."""
        if self.ring.domain == "Z":
            return MappingProxyType(self.num)
        return _FractionTerms(self.num, self.den)

    def coeff(self, exponents: Sequence[int]) -> Coeff:
        c = self.num.get(_exponent_vector(exponents, self.ring), 0)
        return c if self.ring.domain == "Z" else Fraction(c, self.den)

    def __bool__(self) -> bool:
        return bool(self.num)

    def __hash__(self):  # num is a dict, hashed by its items
        return hash((frozenset(self.num.items()), self.den))

    def __reduce__(self):
        return LaurentPoly, (self.ring, dict(self.terms))

    def _check_ring(self, other: "LaurentPoly"):
        if other.ring is not self.ring:
            raise RingMismatchError(
                f"mixed rings: {self.ring.names}/{self.ring.domain} "
                f"vs {other.ring.names}/{other.ring.domain}"
            )

    # -- ring operations ----------------------------------------------
    # With every denominator 1, as over Z, a result is in lowest terms as
    # formed, and no gcd is taken.

    def __add__(self, other: "LaurentPoly") -> "LaurentPoly":
        return _sum(self, other, 1)

    def __neg__(self) -> "LaurentPoly":
        return _make(
            self.ring, {e: -c for e, c in self.num.items()}, self.den)

    def __sub__(self, other: "LaurentPoly") -> "LaurentPoly":
        return _sum(self, other, -1)

    def __mul__(self, other) -> "LaurentPoly":
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        self._check_ring(other)
        # an operand c x^e of at most one term moves the other's exponents
        # by e and scales by c: in a domain no two terms meet, none vanishes
        if len(other.num) <= 1:
            return self._times_term(other)
        if len(self.num) <= 1:
            return other._times_term(self)
        # by Gauss's lemma the content of a product is the product of the
        # contents, so the result is in lowest terms once each operand's
        # denominator is cancelled against the other's numerators
        f, g = self.num.items(), other.num.items()
        d1, d2 = self.den, other.den
        if d1 != 1:
            g, d1 = _cancel(g, other.num.values(), d1)
        if d2 != 1:
            f, d2 = _cancel(f, self.num.values(), d2)
        return _make(self.ring, _convolve(f, g), d1 * d2)

    def _times_term(self, term: "LaurentPoly") -> "LaurentPoly":
        if not term.num:
            return self.ring.zero()
        (shift, c), = term.num.items()
        items = self.num.items()
        if any(shift):
            items = [(tuple(map(add, e, shift)), v) for e, v in items]
        elif c == 1 and term.den == 1:
            return self
        # c / d times num / den, cancelled as in __mul__
        den, d = self.den, term.den
        if den != 1:
            g = gcd(c, den)
            c, den = c // g, den // g
        if d != 1:
            items, d = _cancel(items, self.num.values(), d)
        if c == 1:
            num = dict(items)
        elif c == -1:
            num = {e: -v for e, v in items}
        else:
            num = {e: c * v for e, v in items}
        return _make(self.ring, num, den * d)

    def __rmul__(self, other) -> "LaurentPoly":
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        return NotImplemented

    def scale(self, c: Coeff) -> "LaurentPoly":
        return self._times_term(self.ring.constant(c))

    def __pow__(self, n: int) -> "LaurentPoly":
        if type(n) is not int:
            raise TypeError(f"exponent {n!r} is not an integer")
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
        if len(self.num) != 1:
            raise ValueError(f"{self} is not a unit in {self.ring.names}")
        (exps, c), = self.num.items()
        if self.ring.domain == "Z" and c not in (1, -1):
            raise ValueError(f"coefficient {c} is not invertible over Z")
        # c / den inverts to den / c, still in lowest terms
        return _make(self.ring, {tuple(-e for e in exps): (
            self.den if c > 0 else -self.den)}, abs(c))

    # -- structure maps -----------------------------------------------

    def involution(self) -> "LaurentPoly":
        """The ring automorphism sending every variable to its inverse."""
        return _make(self.ring, {
            tuple(-e for e in exps): c for exps, c in self.num.items()},
            self.den)

    def evaluate_at_one(self) -> Coeff:
        """The coefficient sum, i.e. the value at (1, ..., 1)."""
        s = sum(self.num.values())
        return s if self.ring.domain == "Z" else Fraction(s, self.den)

    def is_balanced(self) -> bool:
        """Zero coefficient sum and symmetric under exponent negation."""
        return not sum(self.num.values()) and self.involution() == self

    def valuation(self) -> int:
        """Lowest exponent of a univariate polynomial; errors on zero."""
        if self.ring.nvars != 1:
            raise ValueError("valuation is only defined for univariate polynomials")
        if not self.num:
            raise ValuationError("the zero polynomial has no valuation")
        return min(e[0] for e in self.num)

    def degree(self) -> int:
        """Highest exponent of a nonzero univariate polynomial."""
        if self.ring.nvars != 1:
            raise ValueError("degree is only defined for univariate polynomials")
        if not self.num:
            raise ValuationError("the zero polynomial has no degree")
        return max(e[0] for e in self.num)

    def is_polynomial(self) -> bool:
        """True when no variable appears with a negative exponent."""
        return all(all(e >= 0 for e in exps) for exps in self.num)

    def as_domain(self, domain: str) -> "LaurentPoly":
        """The same polynomial viewed in the ring with the given domain."""
        target = LaurentRing(self.ring.names, domain)
        if target is self.ring:
            return self
        if self.den != 1:  # over Q, with a coefficient outside Z
            return LaurentPoly(target, self.terms)
        return _make(target, dict(self.num), 1)

    # -- printing -------------------------------------------------------

    def __str__(self) -> str:
        names, num = self.ring.names, self.num
        return signed_terms([(monomial_text(names, exps), num[exps])
                             for exps in sorted(num)], self.den)

    def __repr__(self) -> str:
        return f"<LaurentPoly {self} over {'/'.join(self.ring.names)};{self.ring.domain}>"


_set_ring, _set_num, _set_den = (
    LaurentPoly.ring.__set__, LaurentPoly.num.__set__, LaurentPoly.den.__set__)


def _make(ring: LaurentRing, num: dict, den: int) -> LaurentPoly:
    """The polynomial num / den, with no check: the caller guarantees
    nonzero integer numerators and a positive den coprime to their
    content.  The slots are set through their descriptors, the cheapest
    way past _Value's __setattr__."""
    poly = object.__new__(LaurentPoly)
    _set_ring(poly, ring)
    _set_num(poly, num)
    _set_den(poly, den)
    return poly


def monomial_text(names: Sequence[str], exps: ExponentVector) -> str:
    """The printed variable part of a term, "" for the constant term."""
    parts = []
    for name, e in zip(names, exps):
        if e:
            parts.append(name if e == 1 else f"{name}^{e}")
    return "*".join(parts)


def signed_terms(terms, den: int = 1) -> str:
    """The printed sum of terms (monomial_text, nonzero numerator over
    den) in the given order: "0" for no terms, signs spaced apart, each
    coefficient in lowest terms, and a unit coefficient written only on
    the constant term."""
    chunks = []
    for var, c in terms:
        if c < 0:
            sign, c = " - ", -c
        else:
            sign = " + "
        if den != 1:
            g = gcd(c, den)
            c = c // g if g == den else f"{c // g}/{den // g}"
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
            if im.ring is not target:
                raise RingMismatchError("image polynomial outside the target ring")
        object.__setattr__(self, "source", source)
        object.__setattr__(self, "target", target)
        object.__setattr__(self, "images", images)

    def apply(self, f: LaurentPoly) -> LaurentPoly:
        if f.ring is not self.source:
            raise RingMismatchError("argument does not live in the source ring")
        total, den = self.target.zero(), f.den
        for exps, c in f.num.items():
            term = self.target.constant(c if den == 1 else Fraction(c, den))
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
# a common denominator of two coefficients at the digit limit; each term
# printed reduces its numerator by one gcd with it, so its size bounds
# what printing and each parser check cost
MAX_DENOMINATOR_DIGITS = 2 * _MAX_DIGITS
_DENOMINATOR_LIMIT = 10 ** MAX_DENOMINATOR_DIGITS


def oversized_term(num: Mapping[ExponentVector, int],
                   den: int) -> ExponentVector | None:
    """The exponents of the first term of num / den whose coefficient, in
    lowest terms, has more than _MAX_DIGITS digits above or below its
    fraction bar, past what Python prints; None when there is none.  Each
    term is reduced only when the largest numerator or den is over."""
    if den < _COEFF_LIMIT and max(map(abs, num.values()),
                                  default=0) < _COEFF_LIMIT:
        return None
    for exps, c in num.items():
        g = gcd(c, den)
        if abs(c) // g >= _COEFF_LIMIT or den // g >= _COEFF_LIMIT:
            return exps
    return None


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
    in absolute value, coefficients whose numerators and denominators
    in lowest terms have at most _MAX_DIGITS digits, and a common
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
                raise ParseError(f"coefficient has more than {_MAX_DIGITS} "
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


def parse_poly(text: str, ring: LaurentRing, part: str = "") -> LaurentPoly:
    """Parse the documented text format into a polynomial of the ring; a
    parse error names the part of a larger input that text is, if any."""
    try:
        return _Parser(text, ring).parse()
    except ParseError as exc:
        if part:
            exc.args = (f"{part}: {exc}",)
        raise
