from __future__ import annotations

import random
from fractions import Fraction

from twistcert.homology import (
    CycleClass,
    EpsilonTable,
    Generator,
    LiftClass,
    comm_pairs,
    validate_lift,
)
from twistcert.laurent import LaurentPoly, LaurentRing, surface_ring
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
    assert validate_lift(lift).ok
    return lift


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
