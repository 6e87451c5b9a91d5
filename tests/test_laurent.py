from __future__ import annotations

import copy
import json
import pickle
import random
import re
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    assert_normal_form,
    fraction_terms,
    oracle_involution,
    oracle_product,
    oracle_scale,
    oracle_sum,
    oracle_text,
    oracle_unit_inverse,
    oracle_value_at_one,
)
from twistcert import laurent
from twistcert.laurent import (
    LaurentPoly,
    LaurentRing,
    ParseError,
    RingHom,
    RingMismatchError,
    ValuationError,
    parse_poly,
    phi_hom,
    single_variable_ring,
    specialize_phi,
    specialize_single,
    surface_ring,
)

T = single_variable_ring()
TQ = single_variable_ring(domain="Q")
L2 = surface_ring(2)
L3 = surface_ring(3)


def poly_st(ring: LaurentRing, max_exp: int = 3):
    exps = st.tuples(*([st.integers(-max_exp, max_exp)] * ring.nvars))
    return st.dictionaries(exps, st.integers(-5, 5), max_size=4).map(
        lambda d: LaurentPoly(ring, d)
    )


# -- frozen expansions ---------------------------------------------------


def test_product_expansion_univariate():
    f = parse_poly("t-1", T) * parse_poly("t^-1-1", T)
    assert f == parse_poly("2 - t - t^-1", T)
    assert str(f) == "-t^-1 + 2 - t"


def test_product_expansion_in_surface_ring():
    # (t2-1)*(t2^-1-1) = 2 - t2 - t2^-1, inside the genus-3 ring.
    f = parse_poly("(t2-1)*(t2^-1-1)", L3)
    expected = LaurentPoly(
        L3,
        {
            (0, 0, 0, 0): 2,
            (0, 0, 1, 0): -1,
            (0, 0, -1, 0): -1,
        },
    )
    assert f == expected
    assert f.is_balanced()


def test_binomial_cube():
    f = parse_poly("(1+t)^3", T)
    assert f == parse_poly("1 + 3*t + 3*t^2 + t^3", T)
    assert f.coeff((0,)) == 1


# -- constructors and canonical form ------------------------------------


def test_zero_terms_are_dropped():
    f = LaurentPoly(T, {(1,): 2, (0,): 0, (2,): -2})
    assert list(f.terms) == [(1,), (2,)]
    assert not (f - f).terms


def test_duplicate_keys_accumulate():
    f = LaurentPoly(T, {(1,): 3}) + LaurentPoly(T, {(1,): -3})
    assert f == T.zero()
    assert str(f) == "0"


def test_term_order_is_ascending():
    f = parse_poly("t + t^-2 + 5", T)
    assert str(f) == "t^-2 + 5 + t"
    g = parse_poly("s2*t2 - t2 - s2 + 1", L2)
    assert str(g) == "1 - t2 - s2 + s2*t2"


def test_coeff_lookup():
    f = parse_poly("3*s2^2*t2^-1 - 7", L2)
    assert f.coeff((2, -1)) == 3
    assert f.coeff((0, 0)) == -7
    assert f.coeff((5, 5)) == 0


def test_domain_coercion():
    with pytest.raises(TypeError):
        LaurentPoly(T, {(0,): Fraction(1, 2)})
    f = LaurentPoly(TQ, {(0,): 1})
    assert isinstance(f.coeff((0,)), Fraction)
    assert f == TQ.one()


@pytest.mark.parametrize("bad", [1.5, 2.7, True, "2"])
def test_exponents_are_refused_not_truncated(bad):
    # refused, not read through int() as t^1, t^2, t and t^2
    with pytest.raises(TypeError, match="exponent"):
        LaurentPoly(T, {(bad,): 1})
    with pytest.raises(TypeError, match="exponent"):
        T.monomial((bad,), 3)
    with pytest.raises(TypeError, match="exponent"):
        parse_poly("t + 2*t^2", T).coeff((bad,))


def test_ring_mismatch_errors():
    with pytest.raises(RingMismatchError):
        T.one() + TQ.one()
    with pytest.raises(RingMismatchError):
        parse_poly("t", T) * parse_poly("s2", L2)
    with pytest.raises(RingMismatchError):
        T.monomial((1, 2))
    # a vector of another length names no term: refused, not read as 0
    for exps in ((), (0,), (0, 0, 0)):
        with pytest.raises(RingMismatchError, match="length"):
            parse_poly("s2*t2 - 7", L2).coeff(exps)


# -- units, powers, involution -------------------------------------------


def test_negative_powers_of_monomials():
    assert parse_poly("t^-3", T) == T.variable("t") ** -3
    f = LaurentPoly(TQ, {(1,): 2}) ** -1
    assert f == LaurentPoly(TQ, {(-1,): Fraction(1, 2)})
    with pytest.raises(ValueError):
        LaurentPoly(T, {(1,): 2}).unit_inverse()
    with pytest.raises(ValueError):
        parse_poly("1+t", T).unit_inverse()


def test_involution_is_an_involution():
    f = parse_poly("t^2 - 3*t + 1", T)
    assert f.involution().involution() == f
    assert str(f.involution()) == "t^-2 - 3*t^-1 + 1"


@settings(max_examples=60)
@given(poly_st(L2), poly_st(L2))
def test_involution_is_a_ring_automorphism(f, g):
    assert (f + g).involution() == f.involution() + g.involution()
    assert (f * g).involution() == f.involution() * g.involution()


# -- balancedness ---------------------------------------------------------


def test_balanced_examples():
    assert parse_poly("t - 2 + t^-1", T).is_balanced()
    assert T.zero().is_balanced()
    assert not parse_poly("t - 1", T).is_balanced()  # symmetric? no
    assert not parse_poly("t + t^-1", T).is_balanced()  # sum is 2
    assert parse_poly("(s2-1)*(s2^-1-1)", L2).is_balanced()


@settings(max_examples=60)
@given(poly_st(L2), poly_st(L2))
def test_balanced_closure(f, g):
    fb = f - f.involution()  # antisymmetric part, may not be balanced
    sym_f = f + f.involution() - 2 * f.evaluate_at_one() * L2.one()
    # f + inv(f) has symmetric coefficients; subtracting the constant
    # coefficient sum makes it balanced.
    assert sym_f.is_balanced()
    sym_g = g + g.involution() - 2 * g.evaluate_at_one() * L2.one()
    assert (sym_f + sym_g).is_balanced()
    assert (sym_f * sym_g).is_balanced()
    assert sym_f.involution().is_balanced()
    del fb


# -- ring axioms -----------------------------------------------------------


@settings(max_examples=60)
@given(poly_st(T), poly_st(T), poly_st(T))
def test_ring_axioms_univariate(a, b, c):
    assert a + b == b + a
    assert (a + b) + c == a + (b + c)
    assert a * b == b * a
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a + T.zero() == a
    assert a * T.one() == a
    assert a - a == T.zero()


@settings(max_examples=40)
@given(poly_st(L3, max_exp=2), poly_st(L3, max_exp=2))
def test_ring_axioms_multivariate(a, b):
    assert a * b == b * a
    assert (a - b) + b == a


# -- valuation and polynomial predicates ----------------------------------


def test_valuation():
    assert parse_poly("t^-2 + t^5", T).valuation() == -2
    assert parse_poly("7", T).valuation() == 0
    with pytest.raises(ValuationError):
        T.zero().valuation()
    with pytest.raises(ValueError):
        parse_poly("s2", L2).valuation()


def test_is_polynomial():
    assert parse_poly("1 + t^3", T).is_polynomial()
    assert not parse_poly("t^-1", T).is_polynomial()
    assert parse_poly("s2*t2^2", L2).is_polynomial()
    assert not parse_poly("s2^-1*t2^2", L2).is_polynomial()


# -- specializations --------------------------------------------------------


def test_phi_on_generators():
    assert specialize_phi(L3.variable("s2")) == T.one()
    assert specialize_phi(L3.variable("s3")) == T.one()
    assert specialize_phi(L3.variable("t2")) == T.variable("t")
    assert specialize_phi(L3.variable("t3")) == T.one()


def test_phi_frozen_values():
    f = parse_poly("t2 - 2 + t2^-1", L2)
    assert specialize_phi(f) == parse_poly("t - 2 + t^-1", T)
    g = parse_poly("(s2-1)*(t2-1)", L3)
    assert specialize_phi(g) == T.zero()
    h = parse_poly("s2^3*t2^-2*t3^5", L3)
    assert specialize_phi(h) == parse_poly("t^-2", T)


@settings(max_examples=40)
@given(poly_st(L3, max_exp=2), poly_st(L3, max_exp=2))
def test_phi_is_a_homomorphism(f, g):
    assert specialize_phi(f + g) == specialize_phi(f) + specialize_phi(g)
    assert specialize_phi(f * g) == specialize_phi(f) * specialize_phi(g)


def test_phi_rejects_odd_rings():
    bad = LaurentRing(("a", "b", "c"))
    with pytest.raises(RingMismatchError):
        phi_hom(bad)


def test_phi_is_built_once_per_ring():
    assert phi_hom(L3) is phi_hom(surface_ring(3))
    assert phi_hom(L3) is not phi_hom(L2)
    q3 = phi_hom(surface_ring(3, "Q"))
    assert q3 is not phi_hom(L3)
    assert q3.target == TQ
    # a ring built apart from surface_ring is the same ring
    assert phi_hom(LaurentRing(L3.names)) is phi_hom(L3)


def test_specialize_single():
    f = parse_poly("s2^2*t2", L3) + parse_poly("s3", L3)
    assert specialize_single(f, 1) == parse_poly("1 + s2^2",
                                                 single_variable_ring("s2"))
    assert specialize_single(f, 3) == parse_poly("1 + t2",
                                                 single_variable_ring("t2"))
    with pytest.raises(ValueError):
        specialize_single(f, 5)


def test_hom_composition():
    # u1 -> s2*t2, u2 -> t2^-1, then phi
    U = LaurentRing(("u1", "u2"))
    h1 = RingHom(U, L2, (parse_poly("s2*t2", L2), parse_poly("t2^-1", L2)))
    h2 = phi_hom(L2)
    f = parse_poly("u1^2 - 3*u2", U)
    assert h1.apply(f) == parse_poly("s2^2*t2^2 - 3*t2^-1", L2)
    assert h2.apply(h1.apply(f)) == parse_poly("t^2 - 3*t^-1", T)


# -- parse / print ----------------------------------------------------------


def test_parse_error_positions():
    with pytest.raises(ParseError) as e:
        parse_poly("t + $", T)
    assert e.value.position == 4
    with pytest.raises(ParseError):
        parse_poly("t +", T)
    with pytest.raises(ParseError):
        parse_poly("t t", T)
    with pytest.raises(ParseError):
        parse_poly("x + 1", T)
    with pytest.raises(ParseError):
        parse_poly("(t", T)
    with pytest.raises(ParseError):
        parse_poly("1/2", T)  # rational literal needs the Q domain
    with pytest.raises(ParseError):
        parse_poly("(1+t)^-1", T)  # not a unit


@pytest.mark.parametrize("text, ring, message", [
    ("", T, "expected a value, found the end of the input (at position 0)"),
    ("t +", T, "expected a value, found the end of the input (at position 3)"),
    ("t * )", T, "expected a value, found ')' (at position 4)"),
    ("1/", TQ, "expected a denominator (at position 2)"),
    ("t + 1/*t", TQ, "expected a denominator (at position 6)"),
    ("1/0", TQ, "zero denominator (at position 2)"),
    ("2*t^2 - 3/0", TQ, "zero denominator (at position 10)"),
    # a variable's power is read as one monomial, with the errors of power
    ("t^1001", T,
     "exponent 1001 exceeds the limit of 1000 in absolute value (at position 1)"),
    ("t^", T, "expected an integer (at position 2)"),
    ("t^2^3", T, "trailing input '^' (at position 3)"),
])
def test_parse_error_messages(text, ring, message):
    with pytest.raises(ParseError) as e:
        parse_poly(text, ring)
    assert str(e.value) == message


def test_parse_sums_cancel_terms():
    assert parse_poly("t - t + 1", T) == T.one()
    assert parse_poly("t - t", T) == T.zero()
    assert parse_poly("1/2*t + 1 - 1/2*t + t^2 - t^2", TQ) == TQ.one()
    assert str(parse_poly("s2 - t2 + t2 - s2 + t3", surface_ring(3))) == "t3"


def test_parse_nesting_limit():
    assert parse_poly("(" * 200 + "t" + ")" * 200, T) == T.variable(0)
    with pytest.raises(ParseError) as e:
        parse_poly("-(" * 201 + "t" + ")" * 201, T)
    assert e.value.position == 401
    assert "nest deeper than 200" in str(e.value)

def test_parse_rational_literals():
    f = parse_poly("1/2*t - 3/4", TQ)
    assert f.coeff((1,)) == Fraction(1, 2)
    assert f.coeff((0,)) == Fraction(-3, 4)
    assert parse_poly(str(f), TQ) == f


def test_parse_unary_signs():
    assert parse_poly("-t", T) == -T.variable("t")
    assert parse_poly("--t", T) == T.variable("t")
    assert parse_poly("2*-t", T) == parse_poly("-2*t", T)
    assert parse_poly("-(t - 1)^2", T) == parse_poly("-t^2 + 2*t - 1", T)


@settings(max_examples=80)
@given(poly_st(T, max_exp=4))
def test_roundtrip_univariate(f):
    assert parse_poly(str(f), T) == f


@settings(max_examples=80)
@given(poly_st(L3, max_exp=3))
def test_roundtrip_multivariate(f):
    assert parse_poly(str(f), L3) == f


def test_roundtrip_rational_random():
    rng = random.Random(7)
    for _ in range(40):
        terms = {
            (rng.randint(-3, 3),): Fraction(rng.randint(-9, 9), rng.randint(1, 9))
            for _ in range(rng.randrange(5))
        }
        f = LaurentPoly(TQ, terms)
        assert parse_poly(str(f), TQ) == f


_ORACLE_TOKEN_RE = re.compile(r"([0-9]+)|([A-Za-z][A-Za-z0-9]*)|([-+*/^()])")


def _oracle_tokenize(text: str):
    """The tokenizer as it was before the one-scan regex: a loop that
    skips whitespace with str.isspace and matches one token at a time,
    a literal of ASCII digits only."""
    tokens = []
    pos = 0
    while pos < len(text):
        if text[pos].isspace():
            pos += 1
            continue
        m = _ORACLE_TOKEN_RE.match(text, pos)
        if not m:
            raise ParseError(f"unexpected character {text[pos]!r}", pos)
        if m.group(1) is not None:
            if len(m.group(1)) > laurent._MAX_DIGITS:
                raise ParseError(f"integer literal has more than "
                                 f"{laurent._MAX_DIGITS} digits", m.start(1))
            tokens.append(("int", int(m.group(1)), m.start(1)))
        elif m.group(2) is not None:
            tokens.append(("name", m.group(2), m.start(2)))
        else:
            tokens.append(("op", m.group(3), m.start(3)))
        pos = m.end()
    tokens.append(("end", None, len(text)))
    return tokens


def _tokens_or_error(tokenize, text: str):
    try:
        return tokenize(text)
    except ParseError as exc:
        return str(exc), exc.position


# the grammar's alphabet, whitespace of several kinds (str.isspace counts
# \x1c and \x85), non-ASCII digits (refused, though \d matches them) and
# stray symbols
_TOKEN_ALPHABET = ("0123456789tsxT_2" "-+*/^()"
                   " \t\n\r\x1c\x85\xa0\u2003" "\u0663\u0967\uff17"
                   "%$.,;[]=!\u00e9\u00b2")


@settings(max_examples=300)
@given(st.text(alphabet=_TOKEN_ALPHABET, max_size=30))
def test_tokenizer_matches_the_oracle(text):
    assert _tokens_or_error(laurent._tokenize, text) == \
        _tokens_or_error(_oracle_tokenize, text)


def test_tokenizer_digit_limit_matches_the_oracle():
    digits = laurent._MAX_DIGITS
    for text in ("9" * digits, "t + " + "9" * (digits + 1),
                 "\u0663" * (digits + 1) + "*t", " \x1c" + "1" * (digits + 1)):
        outcome = _tokens_or_error(laurent._tokenize, text)
        assert outcome == _tokens_or_error(_oracle_tokenize, text)
    assert outcome == (f"integer literal has more than {digits} digits "
                       f"(at position 2)", 2)
    with pytest.raises(ParseError, match="more than 4300 digits"):
        parse_poly("9" * 4301, T)
    assert parse_poly("9" * 4300, T) == T.constant(int("9" * 4300))


class _OracleParser(laurent._Parser):
    """The parser's term path as it was before a term of literals and
    variable powers was read as one monomial: every atom is a polynomial,
    and every * is a product of two polynomials."""

    def term(self, sign=1):
        poly = self.factor()
        while True:
            kind, val, pos = self.peek()
            if kind == "op" and val == "*":
                self.advance()
                poly = self.product(poly, self.factor(), pos)
            else:
                return poly if sign == 1 else -poly

    def factor(self):
        sign = 1
        while True:
            kind, val, _ = self.peek()
            if kind == "op" and val in "+-":
                self.advance()
                if val == "-":
                    sign = -sign
            else:
                break
        atom = self.atom()
        return atom if sign == 1 else -atom

    def atom(self):
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
                return self.power(self.ring.constant(Fraction(val, val2)))
            return self.power(self.ring.constant(val))
        if kind == "name":
            if val not in self.ring.names:
                raise ParseError(
                    f"unknown variable {val!r} (ring has {', '.join(self.ring.names)})",
                    pos,
                )
            self.advance()
            n, _ = self.exponent()
            exps = [0] * self.ring.nvars
            exps[self.ring.names.index(val)] = 1 if n is None else n
            return self.ring.monomial(exps)
        if kind == "op" and val == "(":
            if self.depth == laurent.MAX_NESTING:
                raise ParseError(f"parentheses nest deeper than "
                                 f"{laurent.MAX_NESTING}", pos)
            self.advance()
            self.depth += 1
            inner = self.expr()
            self.depth -= 1
            self.expect_op(")")
            return self.power(inner)
        found = "the end of the input" if kind == "end" else repr(val)
        raise ParseError(f"expected a value, found {found}", pos)


def _parsed_or_error(parser, text: str, ring: LaurentRing):
    """The parsed terms with their coefficient types, or the error text
    and position."""
    try:
        terms = parser(text, ring).parse().terms
    except ParseError as exc:
        return str(exc), exc.position
    return sorted((e, c, type(c).__name__) for e, c in terms.items())


L3Q = surface_ring(3, "Q")
# tokens of the grammar, run together or spaced: literals (zero, rationals,
# a zero denominator), names in and outside the rings, exponents at and
# past the limit, operators and parentheses
_GRAMMAR_TOKENS = ("t", "t2", "s3", "x", "0", "1", "2", "3/2", "-4/6", "1/0",
                   "7", "^", "^0", "^-1", "^2", "^1000", "^-1001", "*", "+",
                   "-", "(", ")", "/", " ")


@settings(max_examples=400)
@given(st.lists(st.sampled_from(_GRAMMAR_TOKENS), max_size=14),
       st.sampled_from((T, TQ, L3, L3Q)))
def test_parser_matches_the_per_atom_oracle(tokens, ring):
    text = "".join(tokens)
    assert _parsed_or_error(laurent._Parser, text, ring) == \
        _parsed_or_error(_OracleParser, text, ring)


@settings(max_examples=200)
@given(st.text(alphabet="0123456789ts23/^*+-() ", max_size=24),
       st.sampled_from((T, TQ, L3)))
def test_parser_matches_the_oracle_on_the_alphabet(text, ring):
    assert _parsed_or_error(laurent._Parser, text, ring) == \
        _parsed_or_error(_OracleParser, text, ring)


def test_parser_matches_the_oracle_at_the_limits():
    big = "9" * laurent._MAX_DIGITS
    cases = ["0*t", "t*0", "0*t^1000*t", "t^1000*t*0", "t^0", "2*t^0*3",
             "2^3*t", "t*2^3", "(t-1)*3/2", "3/2*(t-1)", "3/2*t^-1 - 2*t^3",
             "t^1000*t", "t^-1000*t^-1", "t*t^1000*t^-1", "(1+t)*t^1000",
             "t^1000*(1+t)", f"{big}*t", f"t*{big}", f"{big}*10",
             f"{big}*{big}", f"-{big}*t^2 + 1", "2*3/4*t", "1/2*2*t",
             "t^2^3", "2^-1*t", "0^-1", "3/2^2*t", "--t*-2", "s3*t2^-1*s3",
             "s3^1000*s3*t2", "(s3 - 1)*2*t2^-1", "t*(", "2*", "*t"]
    for text in cases:
        for ring in (T, TQ, L3, L3Q):
            assert _parsed_or_error(laurent._Parser, text, ring) == \
                _parsed_or_error(_OracleParser, text, ring), (text, ring)
    assert _parsed_or_error(laurent._Parser, "t^1000*t", T) == (
        "exponent 1001 exceeds the limit of 1000 in absolute value "
        "(at position 6)", 6)
    assert _parsed_or_error(laurent._Parser, f"{big}*10", T)[0].startswith(
        "coefficient has more than 4300 digits")


def test_a_literal_term_forms_no_product(monkeypatch):
    calls = []
    mul = LaurentPoly.__mul__

    def counted(self, other):
        calls.append(other)
        return mul(self, other)

    monkeypatch.setattr(LaurentPoly, "__mul__", counted)
    f = parse_poly("3/2*t^-1 - 2*t^3", TQ)
    assert calls == []
    assert f.terms == {(-1,): Fraction(3, 2), (3,): Fraction(-2)}
    assert all(type(c) is Fraction for c in f.terms.values())
    parse_poly("(t - 1)*3/2", TQ)  # a parenthesised factor is a product
    assert len(calls) == 1


# -- order-free term maps, Q products, shared rings ---------------------------


def _oracle_product(f: LaurentPoly, g: LaurentPoly) -> dict:
    return oracle_product(fraction_terms(f), fraction_terms(g))


def test_term_order_does_not_matter():
    from twistcert.homology import LiftClass

    rng = random.Random(23)
    for _ in range(60):
        genus = rng.choice((2, 3))
        ring = surface_ring(genus)
        terms = {tuple(rng.randint(-3, 3) for _ in range(ring.nvars)):
                 rng.choice((-3, -2, -1, 1, 2, 3)) for _ in range(rng.randint(0, 8))}
        items = list(terms.items())
        rng.shuffle(items)
        f = LaurentPoly(ring, dict(items))
        rng.shuffle(items)
        g = ring.zero()
        for exps, c in items:
            g = g + ring.monomial(exps, c)
        assert f == g
        assert hash(f) == hash(g)
        assert str(f) == str(g)
        assert parse_poly(str(f), ring) == f
        lift_f = LiftClass(genus, None, f, g).to_json()
        lift_g = LiftClass(genus, None, g, f).to_json()
        assert json.dumps(lift_f) == json.dumps(lift_g)
        assert list(lift_f["m"]) == sorted(lift_f["m"], key=lambda key: tuple(
            int(p) for p in key.split(",")))


def test_rational_products_match_a_fraction_oracle():
    rng = random.Random(29)
    Q2 = surface_ring(2, "Q")

    def random_q(ring, n):
        return LaurentPoly(ring, {
            tuple(rng.randint(-3, 3) for _ in range(ring.nvars)):
            Fraction(rng.randint(-9, 9), rng.randint(1, 12)) for _ in range(n)})

    for _ in range(200):
        ring = rng.choice((TQ, Q2))
        f, g = random_q(ring, rng.randint(0, 6)), random_q(ring, rng.randint(0, 6))
        product = f * g
        assert product.terms == _oracle_product(f, g)
        assert all(type(c) is Fraction for c in product.terms.values())
    # cancelling terms, a zero operand and constants
    f = parse_poly("1/2*t - 1/3", TQ)
    g = parse_poly("1/2*t + 1/3", TQ)
    assert f * g == parse_poly("1/4*t^2 - 1/9", TQ)
    assert (f * g).terms == _oracle_product(f, g)
    assert f * TQ.zero() == TQ.zero() and TQ.zero() * f == TQ.zero()
    assert TQ.constant(Fraction(5, 12)) * TQ.constant(Fraction(12, 5)) == TQ.one()
    assert TQ.constant(Fraction(7, 12)) * f == parse_poly("7/24*t - 7/36", TQ)
    h = parse_poly("1/12*t^-1 + 1/6 + 1/4*t", TQ)
    assert (h * h).terms == _oracle_product(h, h)


def test_one_term_products_match_the_convolution_oracle():
    # an operand of at most one term moves the other's exponents and
    # scales its coefficients: coefficients 1, -1, a general c, constants
    # and zero, over Z and Q, univariate and surface rings, both orders
    rng = random.Random(31)
    rings = (T, TQ, L3, surface_ring(3, "Q"))
    for _ in range(400):
        ring = rng.choice(rings)
        f = LaurentPoly(ring, {
            tuple(rng.randint(-3, 3) for _ in range(ring.nvars)):
            Fraction(rng.randint(-9, 9), rng.randint(1, 4))
            if ring.domain == "Q" else rng.randint(-9, 9)
            for _ in range(rng.randint(0, 6))})
        c = rng.choice((1, -1, 3, -2) if ring.domain == "Z"
                       else (1, -1, Fraction(-3, 4), Fraction(7, 2)))
        exps = (0,) * ring.nvars if rng.random() < 0.3 else \
            tuple(rng.randint(-3, 3) for _ in range(ring.nvars))
        term = ring.zero() if rng.random() < 0.1 else ring.monomial(exps, c)
        coeff_type = int if ring.domain == "Z" else Fraction
        for product in (f * term, term * f):
            assert product.terms == _oracle_product(f, term)
            assert product.ring is ring
            assert all(type(v) is coeff_type for v in product.terms.values())
        # a difference is one loop: the sum with the negation, including
        # partial and full cancellation
        for g in (term, f, -f, LaurentPoly(ring, dict(list(f.terms.items())[:2]))):
            assert f - g == f + (-g)
            assert all(type(v) is coeff_type for v in (f - g).terms.values())
        assert (f - f).terms == {}
    f = parse_poly("2*s2*t2^-1 - s3^2", L3)
    assert f * L3.one() is f and L3.one() * f is f
    assert f * L3.zero() == L3.zero() and L3.zero() * f == L3.zero()
    assert -L3.one() * f == -f


# -- one denominator per polynomial, against the Fraction-per-term oracle ------

L2Q = surface_ring(2, "Q")
_BIG = 10 ** 30 + 1  # a denominator past a machine word
_Q_COEFFS = st.one_of(
    st.integers(-9, 9),
    st.builds(Fraction, st.integers(-9, 9), st.sampled_from((1, 2, 3, 4, 6, 35))),
    st.sampled_from((Fraction(1, _BIG), Fraction(-3, 7 * _BIG), 2 ** 70)))
_Z_COEFFS = st.one_of(st.integers(-9, 9), st.sampled_from((2 ** 70, -3 ** 50)))


def _laurent_st(ring: LaurentRing):
    exps = st.tuples(*([st.integers(-3, 3)] * ring.nvars))
    coeffs = _Z_COEFFS if ring.domain == "Z" else _Q_COEFFS
    return st.dictionaries(exps, coeffs, max_size=5).map(
        lambda terms: LaurentPoly(ring, terms))


_RINGS = st.sampled_from((T, TQ, L2, L2Q))
_POLY = _RINGS.flatmap(_laurent_st)
_POLY_PAIR = _RINGS.flatmap(lambda ring: st.tuples(_laurent_st(ring),
                                                   _laurent_st(ring)))


@settings(max_examples=300)
@given(_POLY_PAIR)
def test_arithmetic_matches_the_fraction_oracle(pair):
    f, g = pair
    of, og = fraction_terms(f), fraction_terms(g)
    for poly, expected in ((f, of), (f + g, oracle_sum(of, og)),
                           (f - g, oracle_sum(of, og, -1)),
                           (f * g, oracle_product(of, og)),
                           (g * f, oracle_product(of, og)),
                           (-f, oracle_scale(of, -1)),
                           (f.involution(), oracle_involution(of))):
        assert_normal_form(poly)
        assert poly.ring is f.ring
        assert fraction_terms(poly) == expected
    value = f.evaluate_at_one()
    assert value == oracle_value_at_one(of)
    assert type(value) is (int if f.ring.domain == "Z" else Fraction)
    assert f.is_balanced() == (not value and oracle_involution(of) == of)
    for exps in [*of, (5,) * f.ring.nvars]:
        assert f.coeff(exps) == of.get(exps, 0)


@settings(max_examples=200)
@given(_RINGS.flatmap(lambda ring: st.tuples(
    _laurent_st(ring), _Z_COEFFS if ring.domain == "Z" else _Q_COEFFS)))
def test_scale_and_unit_inverse_match_the_fraction_oracle(poly_and_c):
    f, c = poly_and_c
    of = fraction_terms(f)
    for poly in (f.scale(c), f * c, c * f):
        assert_normal_form(poly)
        assert fraction_terms(poly) == oracle_scale(of, c)
    if len(of) == 1 and (f.ring.domain == "Q" or abs(f.evaluate_at_one()) == 1):
        inverse = f.unit_inverse()
        assert_normal_form(inverse)
        assert fraction_terms(inverse) == oracle_unit_inverse(of)
        assert f * inverse == f.ring.one()


@settings(max_examples=200)
@given(_POLY_PAIR)
def test_equality_and_hash_match_the_fraction_oracle(pair):
    f, g = pair
    assert (f == g) == (fraction_terms(f) == fraction_terms(g))
    # the same terms in another order, and a sum that cancels back to f
    reordered = LaurentPoly(f.ring, dict(reversed(list(f.terms.items()))))
    for same in (reordered, f + g - g, (f - g) + g):
        assert same == f and hash(same) == hash(f)
    assert f - f == f.ring.zero() and (f - f).num == {} and (f - f).den == 1


@settings(max_examples=200)
@given(_POLY)
def test_printing_parsing_and_pickling_match_the_fraction_oracle(f):
    assert str(f) == oracle_text(f.ring.names, fraction_terms(f))
    for copied in (parse_poly(str(f), f.ring), pickle.loads(pickle.dumps(f)),
                   copy.copy(f), copy.deepcopy(f)):
        assert_normal_form(copied)
        assert copied == f and hash(copied) == hash(f)
    assert len(f.terms) == len(f.num) and list(f.terms) == list(f.num)


def test_the_denominator_is_the_lcm_of_the_reduced_ones():
    f = parse_poly("1/2*t - 1/3 + 2/4*t^2", TQ)
    assert (f.num, f.den) == ({(1,): 3, (0,): -2, (2,): 3}, 6)
    assert (f + parse_poly("1/3 - 1/2*t - 1/2*t^2", TQ)).num == {}
    assert parse_poly("3/6 + 1/2", TQ).num == {(0,): 1}
    assert parse_poly("4/6*t", TQ).den == 3
    assert (TQ.constant(Fraction(2, 3)) * parse_poly("3/4*t + 3/2", TQ)) \
        == parse_poly("1/2*t + 1", TQ)
    assert parse_poly("6*t + 4", T).den == 1


def test_parser_accepts_terms_whose_denominators_multiply_past_the_limit():
    # p and q are coprime (10^k - 1 is odd), of 4,299 and 4,300 digits:
    # their terms print, though the common denominator has 8,599 digits
    p, q = 10 ** 4299 - 1, 10 ** 4299 + 1
    f = parse_poly(f"1/{p} + 1/{q}*t", TQ)
    assert f.den == p * q >= laurent._COEFF_LIMIT
    assert f.terms == {(0,): Fraction(1, p), (1,): Fraction(1, q)}
    assert parse_poly(str(f), TQ) == f
    # the same two terms at one exponent sum to a coefficient over p q,
    # which has too many digits
    with pytest.raises(ParseError, match="coefficient has more than 4300 "):
        parse_poly(f"1/{p} + 1/{q}", TQ)


def test_parser_bounds_the_common_denominator():
    # three pairwise coprime denominators of about 4,300 digits multiply
    # past MAX_DENOMINATOR_DIGITS = 8,600: each term printed would take a
    # gcd with a numerator of that size, so the sum is refused
    p, q, r = 10 ** 4299 - 1, 10 ** 4299 + 1, 10 ** 4299 + 3
    assert laurent.MAX_DENOMINATOR_DIGITS == 8600
    text = f"1/{p} + 1/{q}*t + 1/{r}*t^2"
    with pytest.raises(ParseError, match=(
            "^common denominator has more than 8600 digits "
            rf"\(at position {len(text)}\)$")):
        parse_poly(text, TQ)
    # terms that cancel leave nothing in the denominator
    f = parse_poly(f"1/{p}*t + 1/{q} - 1/{q} + 1/{r}", TQ)
    assert f.den == p * r
    assert f == parse_poly(f"1/{r} + 1/{p}*t", TQ)


def test_oversized_term_reduces_each_term_only_past_the_bound():
    big = laurent._COEFF_LIMIT
    assert laurent.oversized_term({(0,): big - 1, (1,): 1 - big}, big - 1) \
        is None
    # q / (p q) + p / (p q) t is 1/p + 1/q t: the largest numerator and
    # the denominator are not the terms in lowest terms
    p, q = 10 ** 4299 - 1, 10 ** 4299 + 1
    assert laurent.oversized_term({(0,): q, (1,): p}, p * q) is None
    assert laurent.oversized_term({(0,): q, (1,): p, (2,): 1}, p * q) == (2,)
    assert laurent.oversized_term({(0,): 3, (1,): big}, 1) == (1,)
    assert laurent.oversized_term({(0,): 1, (1,): 2}, big) == (0,)


def test_rings_are_shared_objects():
    assert surface_ring(3) is surface_ring(3)
    assert surface_ring(3, "Q") is surface_ring(3, "Q")
    assert single_variable_ring() is single_variable_ring("t", "Z")
    f = parse_poly("t - 2 + t^-1", T)
    assert f.as_domain("Q").ring is single_variable_ring("t", "Q")
    assert f.as_domain("Z") is f
    # a ring built directly is the shared one
    assert LaurentRing(["t"]) is single_variable_ring()
    assert LaurentRing(("t",), "Q") is TQ
    assert LaurentRing(L3.names, "Q") is surface_ring(3, "Q")
    assert LaurentPoly(LaurentRing(("t",), "Q"), {(1,): 1}) + TQ.one() == \
        parse_poly("t + 1", TQ)
    for ring in (T, TQ, L3):
        assert copy.copy(ring) is ring
        f = ring.variable(0) - ring.one()
        assert pickle.loads(pickle.dumps(f)).ring is ring
        assert copy.deepcopy(f).ring is ring
        assert f.as_domain("Q").as_domain(ring.domain).ring is ring


def test_ring_names_are_a_tuple_of_strings():
    # a ring built from a list is hashable, so the cached maps accept it
    ring = LaurentRing(["t"])
    assert ring.names == ("t",) and ring is T
    f = LaurentPoly(ring, {(1,): 1})
    assert specialize_single(f, 1) == f
    assert specialize_phi(LaurentPoly(LaurentRing(list(L2.names)),
                                      {(1, 1): 1})) == parse_poly("t", T)
    with pytest.raises(TypeError, match="^variable name 1 is not a string$"):
        LaurentRing(["t", 1])
    with pytest.raises(TypeError, match="^variable name"):
        LaurentRing([["t"]])
    for names in ([], ["t", "t"]):
        with pytest.raises(ValueError,
                           match="^variable names must be nonempty and distinct$"):
            LaurentRing(names)


@pytest.mark.parametrize("value", [True, False, 0.5, 1.0, "1", Fraction(1)],
                         ids=repr)
def test_powers_and_variable_indices_refuse_non_integers(value):
    # a bool is an int to Python, but neither a power nor an index here
    t = T.variable(0)
    with pytest.raises(TypeError, match="^exponent .* is not an integer$"):
        t ** value
    if not isinstance(value, str):  # a string is a variable name
        with pytest.raises(TypeError,
                           match="^variable index .* is not an integer$"):
            L2.variable(value)
    assert t ** 1 == t and L2.variable(1) == L2.variable("t2")


def test_parser_exponent_limit():
    from twistcert.laurent import MAX_EXPONENT

    assert parse_poly(f"t^{MAX_EXPONENT}", T) == T.monomial((MAX_EXPONENT,))
    assert parse_poly(f"t^-{MAX_EXPONENT}", T) == T.monomial((-MAX_EXPONENT,))
    # a variable's power is one monomial, equal to the power of the variable
    for text, ring, value in (
            ("t^0", T, T.one()), ("t^-3", T, T.variable("t") ** -3),
            ("t^1000", T, T.variable("t") ** 1000),
            ("t^-3", TQ, TQ.variable("t") ** -3), ("t^0", TQ, TQ.one()),
            ("s2^2*t3^-1", L3, L3.monomial((2, 0, 0, -1))),
            ("1/2*s2^2*t3^-1", surface_ring(3, "Q"),
             surface_ring(3, "Q").monomial((2, 0, 0, -1), Fraction(1, 2)))):
        f = parse_poly(text, ring)
        assert f == value
        coeff_type = Fraction if ring.domain == "Q" else int
        assert all(type(c) is coeff_type for c in f.terms.values())
    for text in (f"t^{MAX_EXPONENT + 1}", f"t^-{MAX_EXPONENT + 1}", "(1+t)^3000"):
        with pytest.raises(ParseError, match="exceeds the limit"):
            parse_poly(text, T)


def _sum_of_powers(name: str, count: int, step: int = 1) -> str:
    return "(" + " + ".join(f"{name}^{step * i}" for i in range(count)) + ")"


def test_parser_term_limit():
    from twistcert.laurent import MAX_TERMS

    assert MAX_TERMS == 1000
    # 25 * 40 = 1000 distinct terms, at the limit
    at_limit = _sum_of_powers("s2", 25) + "*" + _sum_of_powers("t2", 40)
    assert len(parse_poly(at_limit, L2).terms) == MAX_TERMS
    # one more term by a sum, or one more by a product (7 * 143 = 1001)
    with pytest.raises(ParseError, match="more than 1000 terms"):
        parse_poly(at_limit + " + s2^-1", L2)
    with pytest.raises(ParseError, match="7 by 143 terms"):
        parse_poly(_sum_of_powers("s2", 7) + "*" + _sum_of_powers("t2", 143), L2)
    # powers check every intermediate product
    assert parse_poly("(1+t)^31", T) == parse_poly("(1+t)^30", T) * parse_poly("1+t", T)
    with pytest.raises(ParseError, match="33 by 33 terms"):
        parse_poly("(1+t)^64", T)


def test_sum_checks_only_the_terms_each_addition_touches(monkeypatch):
    # a sum of n distinct monomials: each + or - touches one term of the
    # running sum, so its checks inspect the terms' own checks plus n - 1
    from twistcert import laurent

    check = laurent._Parser.check_size
    inspected = []

    def counting(num, den, pos):
        inspected.append(len(num))
        return check(num, den, pos)

    monkeypatch.setattr(laurent._Parser, "check_size", staticmethod(counting))

    def count(text: str) -> int:
        inspected.clear()
        parse_poly(text, L2)
        return sum(inspected)

    terms = [f"{i % 7 + 1}*s2^{i // 40 - 12}*t2^{i % 40 - 20}"
             for i in range(1000)]
    text = " + ".join(terms[:500]) + " - " + " - ".join(terms[500:])
    alone = sum(count(term) for term in terms)
    assert count(text) == alone + len(terms) - 1
    assert len(parse_poly(text, L2).terms) == 1000
