"""The regular tree on which SL2 of the Laurent ring acts.

Vertices are homothety classes of rank-two lattices over the local ring
O of rational functions regular at t = 0.  Every class has a unique
representative matrix [[t^a, r], [0, 1]] where r is a Laurent
polynomial whose exponents all lie below a, so a vertex is just the
pair (a, r).  The base vertex is (0, 0); the class (-1, 0) is the other
endpoint of the fundamental edge, and the two subgroups of the amalgam
are exactly the stabilizers of these two vertices.

Distances come from elementary divisors: for vertices v, w the distance
is a_v + a_w - 2 l with l = min(a_v, a_w, ord(r_v - r_w)).  Geodesics
walk down to level l and climb back up, one coefficient of r at a time.

Every lattice basis reduces to its vertex in one way, from valuations
and a truncated power series, with Laurent polynomial arithmetic only:
the pivot column is the one whose lower entry has the least valuation,
the level is v(det) minus twice that valuation, and the tail is a
series quotient that inverts one coefficient.  canonical_vertex reduces a basis given
by its entries; the action of a determinant-one matrix reduces the
image of a vertex's basis, whose determinant is t^a.  No fraction is
reduced and no polynomial gcd is taken.  RationalFunction, which keeps
elements of Q(t) in lowest terms, is used by no reduction: it is the
reference the tests check the reduction against.  Translation lengths
need no walk at all: they are read off the trace.
"""

from __future__ import annotations

import re
from fractions import Fraction

from .laurent import (MAX_DIGITS, LaurentPoly, ParseError, _require_int,
                      _Value, parse_poly, single_variable_ring)
from .rep import Matrix2

_QT = single_variable_ring("t", "Q")


def series_ring():
    """The coefficient ring used for vertices: Q Laurent polynomials in t."""
    return _QT


def _in_qt(value, what: str) -> LaurentPoly:
    """value as an element of Q[t, t^-1]: an int or Fraction is a
    constant, a Z polynomial in t is promoted to Q, and anything else is
    refused with a message that begins with what, e.g. "vertex tails are".
    """
    if isinstance(value, LaurentPoly):
        if value.ring is _QT:
            return value
        if value.ring.names != ("t",):
            raise ValueError(f"{what} univariate in t, not in "
                             + ", ".join(value.ring.names))
        return value.as_domain("Q")
    if isinstance(value, (int, Fraction)):
        return _QT.constant(value)
    raise TypeError(f"{what} ints, Fractions or Laurent polynomials in t, "
                    f"not {type(value).__name__}")


def _poly_divmod(a: LaurentPoly, b: LaurentPoly) -> tuple[LaurentPoly, LaurentPoly]:
    # plain long division of polynomials (nonnegative exponents) over Q
    q = _QT.zero()
    r = a
    db = b.degree()
    lead = b.coeff((db,))
    while r and r.degree() >= db:
        k = r.degree() - db
        c = Fraction(r.coeff((r.degree(),))) / Fraction(lead)
        term = _QT.monomial((k,), c)
        q = q + term
        r = r - term * b
    return q, r


def _poly_gcd(a: LaurentPoly, b: LaurentPoly) -> LaurentPoly:
    while b:
        a, b = b, _poly_divmod(a, b)[1]
    lead = a.coeff((a.degree(),))
    return a.scale(Fraction(1) / Fraction(lead))


class RationalFunction(_Value):
    """An element of Q(t), kept in lowest terms.

    No reduction in this module uses it; the tests reduce lattice bases
    through it as the reference for canonical_vertex and act.

    The denominator is a monic polynomial with nonzero constant term;
    any power of t the function carries lives in the numerator.
    """

    __slots__ = ("num", "den")

    def __init__(self, num, den=1):
        num = self._coerce(num)
        den = self._coerce(den)
        if not den:
            raise ZeroDivisionError("rational function with zero denominator")
        if not num:
            self._set(num, _QT.one())
            return
        shift_n = num.valuation()
        shift_d = den.valuation()
        n0 = num * _QT.monomial((-shift_n,), 1)
        d0 = den * _QT.monomial((-shift_d,), 1)
        g = _poly_gcd(n0, d0)
        n1 = _poly_divmod(n0, g)[0]
        d1 = _poly_divmod(d0, g)[0]
        lead = d1.coeff((d1.degree(),))
        n1 = n1.scale(Fraction(1) / Fraction(lead))
        d1 = d1.scale(Fraction(1) / Fraction(lead))
        self._set(n1 * _QT.monomial((shift_n - shift_d,), 1), d1)

    @staticmethod
    def _coerce(value) -> LaurentPoly:
        if isinstance(value, RationalFunction):
            raise TypeError("nested rational functions; use the arithmetic ops")
        return _in_qt(value, "rational functions are")

    @classmethod
    def wrap(cls, value) -> "RationalFunction":
        if isinstance(value, RationalFunction):
            return value
        return cls(value)

    def __bool__(self):
        return bool(self.num)

    def __add__(self, other):
        other = RationalFunction.wrap(other)
        return RationalFunction(self.num * other.den + other.num * self.den,
                                self.den * other.den)

    __radd__ = __add__

    def __neg__(self):
        out = RationalFunction.__new__(RationalFunction)
        out._set(-self.num, self.den)
        return out

    def __sub__(self, other):
        return self + (-RationalFunction.wrap(other))

    def __rsub__(self, other):
        return RationalFunction.wrap(other) + (-self)

    def __mul__(self, other):
        other = RationalFunction.wrap(other)
        return RationalFunction(self.num * other.num, self.den * other.den)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = RationalFunction.wrap(other)
        if not other:
            raise ZeroDivisionError("division by the zero function")
        return RationalFunction(self.num * other.den, self.den * other.num)

    def valuation(self) -> int:
        """Order of vanishing at t = 0 (negative for poles)."""
        return self.num.valuation()

    def is_regular_at_zero(self) -> bool:
        return not self.num or self.valuation() >= 0

    def truncate(self, bound: int) -> LaurentPoly:
        """The Laurent expansion at 0, keeping exponents below bound."""
        if not self.num:
            return _QT.zero()
        v = self.num.valuation()
        count = bound - v
        if count <= 0:
            return _QT.zero()
        num_c = {e[0] - v: Fraction(c) for e, c in self.num.terms.items()}
        den_c = {e[0]: Fraction(c) for e, c in self.den.terms.items()}
        d0 = den_c[0]
        series: list[Fraction] = []
        for i in range(count):
            acc = num_c.get(i, Fraction(0))
            for j, cj in enumerate(series):
                acc -= cj * den_c.get(i - j, Fraction(0))
            series.append(acc / d0)
        return LaurentPoly(_QT, {(v + i,): c for i, c in enumerate(series)})

    def __str__(self):
        if self.den == _QT.one():
            return str(self.num)
        return f"({self.num})/({self.den})"

    def __repr__(self):
        return f"RationalFunction({self})"


class TreeVertex(_Value):
    """A vertex (a, r): the lattice class of [[t^a, r], [0, 1]]."""

    __slots__ = ("a", "r")

    def __init__(self, a: int, r: LaurentPoly):
        _require_int(a, "vertex level")
        r = _in_qt(r, "vertex tails are")
        if r and r.degree() >= a:
            raise ValueError(
                f"vertex tail {r} has exponents at or above level {a}"
            )
        self._set(a, r)

    def parent(self) -> "TreeVertex":
        """The neighbor one level down."""
        kept = {e: c for e, c in self.r.terms.items() if e[0] < self.a - 1}
        return TreeVertex(self.a - 1, LaurentPoly(_QT, kept))

    def child(self, coefficient) -> "TreeVertex":
        """The neighbor one level up selected by a tail coefficient."""
        return TreeVertex(
            self.a + 1, self.r + _QT.monomial((self.a,), coefficient))

    def neighbors(self) -> list["TreeVertex"]:
        """The parent and the children of tail coefficients 0 and 1."""
        return [self.parent(), self.child(0), self.child(1)]

    def __str__(self):
        return f"({self.a}; {self.r})"


def base_vertex() -> TreeVertex:
    """The base vertex (0; 0), the class of the standard lattice."""
    return TreeVertex(0, _QT.zero())


def odd_base_vertex() -> TreeVertex:
    """The other endpoint of the fundamental edge: (-1, 0)."""
    return TreeVertex(-1, _QT.zero())


# a vertex level: an optional sign and at most MAX_DIGITS ASCII digits
_LEVEL = re.compile(rf"[-+]?[0-9]{{1,{MAX_DIGITS}}}")


def parse_vertex(text: str) -> TreeVertex:
    """Read a vertex back from its "(a; r)" rendering."""
    body = text.strip()
    if body == "base":
        return base_vertex()
    if not (body.startswith("(") and body.endswith(")")) or ";" not in body:
        raise ParseError("expected a vertex of the form (a; r)", 0)
    level_text, _, tail_text = body[1:-1].partition(";")
    level_text = level_text.strip()
    if not _LEVEL.fullmatch(level_text):
        raise ParseError(f"bad vertex level {level_text!r}", 1)
    return TreeVertex(int(level_text), parse_poly(tail_text.strip(), _QT))


def canonical_vertex(alpha, beta, gamma, delta) -> TreeVertex:
    """The vertex of the lattice spanned by the columns of [[a, b], [c, d]].

    The entries are ints, Fractions or Laurent polynomials in t; the
    matrix must be nonsingular.
    """
    alpha, beta, gamma, delta = (
        _in_qt(e, "lattice entries are") for e in (alpha, beta, gamma, delta))
    det = alpha * delta - beta * gamma
    if not det:
        raise ValueError("lattice matrix is singular")
    return _reduce(alpha, beta, gamma, delta, det.valuation())


def pivot_column(alpha: LaurentPoly, beta: LaurentPoly, gamma: LaurentPoly,
                 delta: LaurentPoly) -> tuple[LaurentPoly, LaurentPoly]:
    """Of the basis columns (alpha, gamma) and (beta, delta), the one whose
    lower entry has the least valuation; (beta, delta) on a tie."""
    if not delta or (gamma and gamma.valuation() < delta.valuation()):
        return alpha, gamma
    return beta, delta


def _reduce(alpha: LaurentPoly, beta: LaurentPoly, gamma: LaurentPoly,
            delta: LaurentPoly, det_valuation: int) -> TreeVertex:
    """The vertex of the lattice with basis columns (alpha, gamma) and
    (beta, delta), whose determinant has valuation det_valuation.

    With (beta, delta) the pivot column, subtracting gamma/delta (which
    lies in O) times it from the other column leaves (det/delta, 0);
    scaling the lattice by t^-v(delta) and each column by a unit of O
    then gives [[t^level, beta/delta], [0, 1]] with
    level = v(det) - 2 v(delta).  The tail is beta/delta expanded below
    that level, since t^level O absorbs the rest.
    """
    beta, delta = pivot_column(alpha, beta, gamma, delta)
    level = det_valuation - 2 * delta.valuation()
    return TreeVertex(level, _series_quotient(beta, delta, level))


# the most coefficient steps, (bound - shift) x (terms of den), that one
# series quotient may take; a vertex tail past it is refused
MAX_SERIES_STEPS = 100_000


def _series_quotient(num: LaurentPoly, den: LaurentPoly,
                    bound: int) -> LaurentPoly:
    """The Laurent expansion of num/den at t = 0, below exponent bound.

    Power-series long division: only the lowest coefficient of den is
    ever inverted, so the quotient needs neither lowest terms nor a gcd,
    and num/den need not be reduced.  This is the tail of every vertex
    the tree computes.  An expansion of more than MAX_SERIES_STEPS
    coefficient steps raises ValueError before it starts.
    """
    if not num:
        return _QT.zero()
    v_num, v_den = num.valuation(), den.valuation()
    shift = v_num - v_den
    count = bound - shift
    if count <= 0:
        return _QT.zero()
    if count * len(den.terms) > MAX_SERIES_STEPS:
        raise ValueError(
            f"vertex tail needs {count} coefficients of a quotient by "
            f"{len(den.terms)} terms, over the limit of {MAX_SERIES_STEPS} "
            "steps")
    num_c = {e[0] - v_num: c for e, c in num.terms.items()}
    # ascending exponents: the lowest coefficient leads, and the loop
    # below stops at the first exponent past i
    (_, d0), *den_rest = sorted((e[0] - v_den, c)
                                for e, c in den.terms.items())
    series: list[Fraction] = []
    for i in range(count):
        acc = num_c.get(i, Fraction(0))
        for j, cj in den_rest:
            if j > i:
                break
            acc -= cj * series[i - j]
        series.append(acc / d0)
    return LaurentPoly(_QT, {(shift + i,): c for i, c in enumerate(series)})


def as_sl2(mat: Matrix2) -> Matrix2:
    """The matrix over Q[t, t^-1], checked to have determinant one.

    Every entry point that takes a matrix in SL2 of the Laurent ring
    (the tree action, translation lengths, amalgam membership and
    normal forms) checks its input here.
    """
    if mat.ring is not _QT:
        mat = mat.map_entries(lambda f: _in_qt(f, "SL2 matrices here are"))
    det = mat.det()
    if det != _QT.one():
        raise ValueError(f"SL2 needs determinant one, got determinant {det}")
    return mat


def act(mat: Matrix2, vertex: TreeVertex) -> TreeVertex:
    """Apply a determinant-one matrix (checked by as_sl2) to a vertex.

    The image is the lattice spanned by the columns of
    g [[t^a, r], [0, 1]] = [[x t^a, x r + y], [z t^a, z r + w]] for
    g = [[x, y], [z, w]].  This basis has determinant t^a because
    det g = 1, so its reduction needs no determinant: its valuation is
    the level a.
    """
    x, y, z, w = as_sl2(mat).entries()
    shift = _QT.monomial((vertex.a,))
    return _reduce(x * shift, x * vertex.r + y,
                   z * shift, z * vertex.r + w, vertex.a)


def distance(v: TreeVertex, w: TreeVertex) -> int:
    """The path metric: down from v to the meet level, min(a_v, a_w,
    ord(r_v - r_w)) by the elementary divisors, and back up to w."""
    diff = v.r - w.r
    low = min(v.a, w.a)
    meet = min(low, diff.valuation()) if diff else low
    return v.a + w.a - 2 * meet


def fixes_vertex(mat: Matrix2, vertex: TreeVertex) -> bool:
    return act(mat, vertex) == vertex


def fixes_edge(mat: Matrix2, v: TreeVertex, w: TreeVertex) -> bool:
    if distance(v, w) != 1:
        raise ValueError("the two vertices are not adjacent")
    return fixes_vertex(mat, v) and fixes_vertex(mat, w)


def translation_length(mat: Matrix2) -> int:
    """The minimal displacement of a determinant-one matrix on the tree.

    For g in SL2 over a discretely valued field it is
    max(0, -2 v(tr g)) (Serre, Trees, ch. II): g fixes a vertex exactly
    when its trace is integral, and otherwise moves every vertex of its
    axis by twice the pole order of the trace.
    """
    trace = as_sl2(mat).trace()
    return max(0, -2 * trace.valuation()) if trace else 0


def ball_dot(center: TreeVertex, radius: int) -> str:
    """A DOT rendering of the ball around a vertex.

    Only children whose new tail coefficient is 0 or 1 are explored; the
    full tree is infinitely branching.
    """
    if _require_int(radius, "radius") < 0:
        raise ValueError("radius must be nonnegative")
    seen = {center}
    frontier = [center]
    edges: list[tuple[str, str]] = []
    for _ in range(radius):
        next_frontier = []
        for vertex in frontier:
            # in a tree the only neighbor already seen is the one walked
            # from, so an edge is new exactly when its far end is
            for neighbor in vertex.neighbors():
                if neighbor not in seen:
                    seen.add(neighbor)
                    next_frontier.append(neighbor)
                    edges.append((str(vertex), str(neighbor)))
        frontier = next_frontier
    lines = ["graph ball {"]
    for vertex in sorted(seen, key=lambda v: (v.a, str(v))):
        lines.append(f'  "{vertex}";')
    for left, right in edges:
        lines.append(f'  "{left}" -- "{right}";')
    lines.append("}")
    return "\n".join(lines)
