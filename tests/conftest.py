from __future__ import annotations

import random
from fractions import Fraction
from math import gcd

from twistcert.homology import (
    CycleClass,
    EpsilonTable,
    Generator,
    InvalidLift,
    LiftClass,
    comm_pairs,
    validate_lift,
)
from twistcert.laurent import (LaurentPoly, LaurentRing, monomial_text,
                               surface_ring)
from twistcert.rep import Matrix2, multiply
from twistcert.tree import TreeVertex, distance, series_ring


def random_poly(rng: random.Random, ring: LaurentRing, max_terms: int = 4,
                max_exp: int = 3, max_coeff: int = 4) -> LaurentPoly:
    terms: dict = {}
    for _ in range(rng.randrange(max_terms + 1)):
        exps = tuple(rng.randint(-max_exp, max_exp) for _ in range(ring.nvars))
        c = rng.randint(-max_coeff, max_coeff)
        if ring.domain == "Q" and rng.random() < 0.3:
            c = Fraction(c, rng.randint(1, 3))
        terms[exps] = terms.get(exps, 0) + c
    return LaurentPoly(ring, terms)


# -- the Fraction-per-term oracle ------------------------------------------
# Laurent arithmetic as it was before a polynomial kept one denominator:
# a term map from exponents to one Fraction per term, every sum and
# product formed term by term.


def fraction_terms(poly: LaurentPoly) -> dict:
    """The oracle's term map of a polynomial."""
    return {e: Fraction(c) for e, c in poly.terms.items()}


def _nonzero(terms: dict) -> dict:
    return {e: c for e, c in terms.items() if c}


def oracle_sum(f: dict, g: dict, sign: int = 1) -> dict:
    out = dict(f)
    for e, c in g.items():
        out[e] = out.get(e, Fraction(0)) + sign * c
    return _nonzero(out)


def oracle_product(f: dict, g: dict) -> dict:
    out: dict = {}
    for e1, c1 in f.items():
        for e2, c2 in g.items():
            key = tuple(a + b for a, b in zip(e1, e2))
            out[key] = out.get(key, Fraction(0)) + c1 * c2
    return _nonzero(out)


def oracle_scale(f: dict, c) -> dict:
    return _nonzero({e: c * v for e, v in f.items()})


def oracle_unit_inverse(f: dict) -> dict:
    (exps, c), = f.items()
    return {tuple(-e for e in exps): 1 / c}


def oracle_involution(f: dict) -> dict:
    return {tuple(-e for e in exps): c for exps, c in f.items()}


def oracle_value_at_one(f: dict) -> Fraction:
    return sum(f.values(), Fraction(0))


def oracle_text(names, f: dict) -> str:
    """The printed polynomial, each coefficient printed as its Fraction."""
    chunks = []
    for exps in sorted(f):
        var, c = monomial_text(names, exps), f[exps]
        sign, c = (" - ", -c) if c < 0 else (" + ", c)
        chunks.append(f"{sign}{c}" if not var else f"{sign}{var}" if c == 1
                      else f"{sign}{c}*{var}")
    text = "".join(chunks)
    return (text[3:] if text[1] == "+" else "-" + text[3:]) if text else "0"


def assert_normal_form(poly: LaurentPoly):
    """Integer numerators, nonzero, over a positive denominator coprime to
    their content; zero is ({}, 1), and over Z the denominator is 1."""
    assert type(poly.den) is int and poly.den > 0
    assert all(type(c) is int and c for c in poly.num.values())
    assert gcd(poly.den, *poly.num.values()) == 1
    if poly.ring.domain == "Z":
        assert poly.den == 1
    coeff_type = int if poly.ring.domain == "Z" else Fraction
    assert all(type(c) is coeff_type for c in poly.terms.values())


def random_zero_sum_family(rng: random.Random, ring: LaurentRing,
                           max_terms: int = 3, max_exp: int = 2) -> LaurentPoly:
    """A finitely supported integer family with coefficient sum zero."""
    f = ring.zero()
    for _ in range(rng.randrange(1, max_terms + 1)):
        e1 = tuple(rng.randint(-max_exp, max_exp) for _ in range(ring.nvars))
        e2 = tuple(rng.randint(-max_exp, max_exp) for _ in range(ring.nvars))
        c = rng.randint(1, 3)
        f = f + ring.monomial(e1, c) + ring.monomial(e2, -c)
    return f


def random_symmetric_poly(rng: random.Random, ring: LaurentRing,
                          max_terms: int = 2, max_exp: int = 2) -> LaurentPoly:
    """A polynomial fixed by the exponent-negation involution."""
    f = ring.constant(rng.randint(-2, 2))
    for _ in range(rng.randrange(max_terms + 1)):
        e = tuple(rng.randint(-max_exp, max_exp) for _ in range(ring.nvars))
        c = rng.randint(-2, 2)
        f = f + ring.monomial(e, c) + ring.monomial(tuple(-x for x in e), c)
    return f


def random_valid_lift(rng: random.Random, genus: int,
                      max_w_support: int = 2) -> LiftClass:
    """A random lift passing validation, with null-homologous m and n.

    The m family is a random zero-sum family and n = q * m for a random
    involution-symmetric q, which makes the cross-correlation identity
    hold by construction.  The commutator part is unconstrained.
    """
    ring = surface_ring(genus)
    style = rng.randrange(3)
    if style == 0:
        m = random_zero_sum_family(rng, ring)
        n = ring.zero()
    elif style == 1:
        m = ring.zero()
        n = random_zero_sum_family(rng, ring)
    else:
        m = random_zero_sum_family(rng, ring)
        n = random_symmetric_poly(rng, ring) * m
    pairs = comm_pairs(genus)
    w: dict = {}
    if pairs and max_w_support:
        for pair in rng.sample(pairs, min(len(pairs),
                                          rng.randrange(max_w_support + 1))):
            poly = random_poly(rng, ring, max_terms=2, max_exp=1, max_coeff=2)
            if poly:
                w[Generator.comm(*pair)] = poly
    lift = LiftClass(genus, CycleClass(genus, w), m, n)
    validate_lift(lift)
    return lift


def lift_error(lift: LiftClass) -> InvalidLift | None:
    """The InvalidLift that validate_lift raises on the lift, or None."""
    try:
        validate_lift(lift)
    except InvalidLift as exc:
        return exc
    return None


def random_epsilon(rng: random.Random, genus: int,
                   density: float = 0.7) -> EpsilonTable:
    return EpsilonTable.random_skew(genus, rng, density)


def random_cycle_class(rng: random.Random, genus: int,
                       with_comm: bool = True) -> CycleClass:
    ring = surface_ring(genus)
    coeffs = {}
    if rng.random() < 0.8:
        coeffs[Generator.a1()] = random_poly(rng, ring, max_terms=2, max_exp=1)
    if rng.random() < 0.8:
        coeffs[Generator.b1()] = random_poly(rng, ring, max_terms=2, max_exp=1)
    pairs = comm_pairs(genus)
    if with_comm and pairs:
        for pair in rng.sample(pairs, min(2, len(pairs))):
            coeffs[Generator.comm(*pair)] = random_poly(
                rng, ring, max_terms=2, max_exp=1)
    return CycleClass(genus, coeffs)


def _random_q_polynomial(rng: random.Random, max_deg: int = 2) -> LaurentPoly:
    ring = series_ring()
    terms = {}
    for e in range(max_deg + 1):
        if rng.random() < 0.6:
            c = Fraction(rng.randint(-3, 3), rng.randint(1, 2))
            terms[(e,)] = terms.get((e,), 0) + c
    return LaurentPoly(ring, terms)


def random_a_element(rng: random.Random, factors: int = 3) -> Matrix2:
    """A random element of SL2(Q[t]): a product of elementary matrices."""
    ring = series_ring()
    mats = []
    for _ in range(rng.randint(1, factors)):
        f = _random_q_polynomial(rng)
        if rng.random() < 0.5:
            mats.append(Matrix2.from_rows(ring, [[1, f], [0, 1]]))
        else:
            mats.append(Matrix2.from_rows(ring, [[1, 0], [f, 1]]))
    return multiply(mats)


def random_b_element(rng: random.Random, factors: int = 3) -> Matrix2:
    """A random element of the diag(t, 1)-conjugate side."""
    ring = series_ring()
    inner = random_a_element(rng, factors)
    t_inv = ring.monomial((-1,), 1)
    t = ring.variable(0)
    return Matrix2(inner.a, t_inv * inner.b, t * inner.c, inner.d)


def random_u_element(rng: random.Random) -> Matrix2:
    """A random element of the edge subgroup: in A with t dividing c."""
    ring = series_ring()
    t = ring.variable(0)
    upper = Matrix2.from_rows(ring, [[1, _random_q_polynomial(rng)], [0, 1]])
    lower = Matrix2.from_rows(
        ring, [[1, 0], [t * _random_q_polynomial(rng, 1), 1]])
    return upper @ lower if rng.random() < 0.5 else lower @ upper


def random_laurent_sl2(rng: random.Random, factors: int = 3) -> Matrix2:
    """A random element of SL2(Q[t, t^-1]): mixed A and B factors."""
    mats = []
    for _ in range(rng.randint(1, factors)):
        if rng.random() < 0.5:
            mats.append(random_a_element(rng, 2))
        else:
            mats.append(random_b_element(rng, 2))
    return multiply(mats)


def random_tree_vertex(rng: random.Random) -> TreeVertex:
    ring = series_ring()
    a = rng.randint(-3, 3)
    terms = {}
    for e in range(a - 3, a):
        if rng.random() < 0.5:
            terms[(e,)] = Fraction(rng.randint(-3, 3), rng.randint(1, 2))
    return TreeVertex(a, LaurentPoly(ring, terms))


# -- tree walks: references for the tree and normal-form tests ------------


def vertex_matrix(vertex: TreeVertex) -> Matrix2:
    """The canonical lattice representative [[t^a, r], [0, 1]]."""
    ring = series_ring()
    return Matrix2(ring.monomial((vertex.a,), 1), vertex.r,
                   ring.zero(), ring.one())


def first_step(v: TreeVertex, w: TreeVertex) -> TreeVertex:
    """The neighbor of v on the geodesic toward w: down while the meet
    level min(a_v, a_w, ord(r_v - r_w)) lies below v, else up."""
    if v == w:
        raise ValueError("the vertices coincide")
    diff = v.r - w.r
    low = min(v.a, w.a)
    if (min(low, diff.valuation()) if diff else low) < v.a:
        return v.parent()
    # past the meet level w's tail agrees with v's below v.a
    return v.child(w.r.coeff((v.a,)))


def geodesic(v: TreeVertex, w: TreeVertex) -> list[TreeVertex]:
    """All vertices from v to w inclusive, in order."""
    path = [v]
    while path[-1] != w:
        path.append(first_step(path[-1], w))
    if len(path) != distance(v, w) + 1:
        raise RuntimeError(
            f"geodesic from {v} to {w} has {len(path) - 1} edges, "
            f"but their distance is {distance(v, w)}")
    return path
