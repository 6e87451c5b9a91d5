"""The matrix representation carried by twists about lifted curves.

The twist about a lifted curve C acts L_g-linearly on the span of the
two handle classes a1, b1 (everything else it adds dies under the
collapse map Phi), as x -> x + p(x) C.  In the (a1, b1) basis, with
matrices acting on coordinate columns, that is the transvection
I + c p^T, with c = (m, n) the coordinates of C and p = (inv(n), -inv(m))
the pairings of a1 and b1 with it: with P = inv(m) m, Q = inv(m) n and
R = inv(n) n, it is [[1 + inv(Q), -P], [R, 1 - Q]].

Applying Phi entrywise lands in SL_2 of the one-variable ring L.  The
built-in bounding-curve lift maps to N = [[1, t - 2 + t^-1], [0, 1]],
and pushing it forward under k-th powers of the handle twist conjugates
N by M_k = [[1, 0], [k, 1]].

Pushing a lift forward by the k-th power moves n to n + k m, so c and p
are linear in k, and rho_k and the conjugate M_k N M_k^-1 are quadratic
in k.  rho_in_k and conjugate_in_k give their three coefficient
matrices, rho_in_k from P, Q and R; rho_k - I has rank one, so its
determinant check reads tr(rho_k) - 1, once, in k.  The matrix for one
power is an evaluation (at_k), by scaling and adding.
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping, Sequence
from functools import reduce
from operator import matmul

from .homology import LiftClass, validate_lift
from .laurent import (
    LaurentPoly,
    LaurentRing,
    _Value,
    parse_poly,
    single_variable_ring,
    specialize_phi,
)


class Matrix2(_Value):
    """An immutable 2x2 matrix with Laurent polynomial entries."""

    __slots__ = ("a", "b", "c", "d")

    def __init__(self, a: LaurentPoly, b: LaurentPoly, c: LaurentPoly,
                 d: LaurentPoly):
        ring = a.ring
        for entry in (b, c, d):
            if entry.ring is not ring:
                raise ValueError("matrix entries live in different rings")
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "c", c)
        object.__setattr__(self, "d", d)

    @property
    def ring(self) -> LaurentRing:
        return self.a.ring

    @classmethod
    def identity(cls, ring: LaurentRing) -> "Matrix2":
        one, zero = ring.one(), ring.zero()
        return cls(one, zero, zero, one)

    @classmethod
    def from_rows(cls, ring: LaurentRing, rows: Sequence[Sequence]) -> "Matrix2":
        def entry(name, x) -> LaurentPoly:
            if isinstance(x, LaurentPoly):
                if x.ring is not ring:
                    raise ValueError("entry lives in the wrong ring")
                return x
            if isinstance(x, str):
                return parse_poly(x, ring, f"matrix entry {name}")
            return ring.constant(x)

        (a, b), (c, d) = rows
        return cls(*map(entry, "abcd", (a, b, c, d)))

    def entries(self) -> tuple[LaurentPoly, LaurentPoly, LaurentPoly, LaurentPoly]:
        return (self.a, self.b, self.c, self.d)

    def det(self) -> LaurentPoly:
        return self.a * self.d - self.b * self.c

    def trace(self) -> LaurentPoly:
        return self.a + self.d

    def __matmul__(self, other: "Matrix2") -> "Matrix2":
        if not isinstance(other, Matrix2):
            return NotImplemented
        if self.ring is not other.ring:
            raise ValueError("matrices live in different rings")
        return Matrix2(
            self.a * other.a + self.b * other.c,
            self.a * other.b + self.b * other.d,
            self.c * other.a + self.d * other.c,
            self.c * other.b + self.d * other.d,
        )

    def inverse(self) -> "Matrix2":
        """The inverse, defined when the determinant is a unit.

        Laurent units are signed monomials, so the adjugate divided by
        the determinant stays in the ring.
        """
        det = self.det()
        inv_det = det.unit_inverse()
        return Matrix2(inv_det * self.d, -(inv_det * self.b),
                       -(inv_det * self.c), inv_det * self.a)

    def __add__(self, other: "Matrix2") -> "Matrix2":
        if not isinstance(other, Matrix2):
            return NotImplemented
        return Matrix2(*(x + y for x, y in zip(self.entries(), other.entries())))

    def __sub__(self, other: "Matrix2") -> "Matrix2":
        if not isinstance(other, Matrix2):
            return NotImplemented
        return Matrix2(*(x - y for x, y in zip(self.entries(), other.entries())))

    def scale(self, c) -> "Matrix2":
        return self.map_entries(lambda entry: entry.scale(c))

    def map_entries(self, fn) -> "Matrix2":
        return Matrix2(fn(self.a), fn(self.b), fn(self.c), fn(self.d))

    def to_json(self) -> dict:
        return {"a": str(self.a), "b": str(self.b),
                "c": str(self.c), "d": str(self.d)}

    @classmethod
    def from_json(cls, ring: LaurentRing, data: Mapping) -> "Matrix2":
        try:
            entries = [data[k] for k in "abcd"]
        except KeyError as exc:
            raise ValueError(f"matrix record is missing entry {exc}") from None
        for key in data:
            if key not in ("a", "b", "c", "d"):
                raise ValueError(f"matrix record has unknown key {key!r}: "
                                 "it takes exactly the keys a, b, c and d")
        for name, entry in zip("abcd", entries):
            if not isinstance(entry, str):
                raise ValueError(f"matrix entry {name} must be a string, "
                                 f"got {type(entry).__name__}")
        return cls(*(parse_poly(entry, ring, f"matrix entry {name}")
                     for name, entry in zip("abcd", entries)))

    def __str__(self):
        return f"[[{self.a}, {self.b}], [{self.c}, {self.d}]]"


def multiply(matrices: Iterable[Matrix2]) -> Matrix2:
    """The ordered product of a nonempty sequence of matrices."""
    return reduce(matmul, matrices)


def _rho_coefficients(m, n) -> tuple[Matrix2, Matrix2, Matrix2]:
    """The coefficients in k of rho_k = I + c_k p_k^T, for c_k = (m, n +
    k m) and p_k = (inv(n) + k inv(m), -inv(m)), from the three products
    P = inv(m) m, Q = inv(m) n and R = inv(n) n (P and R are fixed by
    the involution):

        C0 = [[1 + inv(Q), -P], [R, 1 - Q]]
        C1 = [[P, 0], [Q + inv(Q), -P]]
        C2 = [[0, 0], [P, 0]]

    Over L_g, before Phi, C0 is the twist's matrix on the handle span, of
    determinant 1 + inv(Q) - Q, which is 1 exactly when the lift passes
    validation; the commutator part of the lift does not enter.
    """
    inv_m = m.involution()
    p, q, r = inv_m * m, inv_m * n, n.involution() * n
    inv_q, one, zero = q.involution(), m.ring.one(), m.ring.zero()
    return (Matrix2(one + inv_q, -p, r, one - q),
            Matrix2(p, zero, q + inv_q, -p), Matrix2(zero, zero, p, zero))


def rho(lift: LiftClass) -> Matrix2:
    """The represented matrix over L: Phi applied to the twist's matrix
    on the handle span over L_g.

    Phi is a ring homomorphism that commutes with the involution, so
    the matrix is built from Phi(m) and Phi(n): each family is
    specialised once, and the products are taken over L.
    """
    return rho_in_k(lift)[0]


def rho_in_k(lift: LiftClass) -> tuple[Matrix2, Matrix2, Matrix2]:
    """The coefficients C0, C1, C2 of the matrix of every pushforward:
    rho(pushforward_b1_twist(lift, k)) = C0 + k C1 + k^2 C2.

    rho_k is the transvection I + c_k p_k^T with, after Phi, c_k = (m,
    n + k m) and p_k = (inv(n + k m), -inv(m)), the pairings read off
    the involution (_rho_coefficients).  rho_k - I has rank one, so
    det(rho_k) = tr(rho_k) - 1.  The pushforwards share the lift's
    validity (Q_k - inv(Q_k) = Q - inv(Q) for Q = inv(m) n, since
    inv(m) m is fixed by the involution), so the lift is checked once,
    and the determinant once, from the traces of C0, C1 and C2.
    """
    validate_lift(lift)
    coeffs = _rho_coefficients(specialize_phi(lift.m), specialize_phi(lift.n))
    one, zero = coeffs[0].ring.one(), coeffs[0].ring.zero()
    det = [coeffs[0].trace() - one] + [c.trace() for c in coeffs[1:]]
    if det != [one, zero, zero]:
        in_k = " + ".join(f"({d}) k^{i}" for i, d in enumerate(det) if d)
        raise ValueError(f"represented matrix {coeffs[0]} + ({coeffs[1]}) k + "
                         f"({coeffs[2]}) k^2 has determinant {in_k}, not 1")
    return coeffs


def at_k(coeffs: Sequence[Matrix2], k: int) -> Matrix2:
    """sum_i k^i C_i, by scaling and adding entries: no product."""
    out, power = coeffs[0], 1
    for coeff in coeffs[1:]:
        power *= k
        out = out + coeff.scale(power)
    return out


def matrix_N() -> Matrix2:
    """The image of the bounding-curve twist: [[1, t - 2 + t^-1], [0, 1]]."""
    ring = single_variable_ring()
    return Matrix2(ring.one(), ring.monomial((1,)) + ring.constant(-2)
                   + ring.monomial((-1,)), ring.zero(), ring.one())


def matrix_Mk(k: int) -> Matrix2:
    """The image of the k-th power of the handle twist: [[1, 0], [k, 1]]."""
    if not isinstance(k, int):
        raise TypeError("twist power must be an integer")
    return Matrix2.from_rows(single_variable_ring(), [[1, 0], [k, 1]])


def conjugate_in_k(mat: Matrix2) -> tuple[Matrix2, Matrix2, Matrix2]:
    """The coefficients in k of M_k mat M_k^-1.

    M_k = I + k E with E = [[0, 0], [1, 0]] and E^2 = 0, so M_k^-1 =
    I - k E, and for mat = [[a, b], [c, d]]

        M_k mat M_k^-1 = [[a - k b, b], [c + k (a - d) - k^2 b, d + k b]].
    """
    a, b, c, d = mat.entries()
    zero = mat.ring.zero()
    return (mat, Matrix2(-b, zero, a - d, b), Matrix2(zero, zero, -b, zero))


def h_form(mat: Matrix2) -> tuple[LaurentPoly, LaurentPoly, LaurentPoly,
                                  LaurentPoly]:
    """The four polynomials a - 1, b, c and 1 - d of [[a, b], [c, d]].

    The matrix lies in the subgroup cut out by the homological
    constraints exactly when all four are balanced (vanish at 1 and are
    fixed by the bar involution, LaurentPoly.is_balanced).
    """
    one = mat.ring.one()
    return mat.a - one, mat.b, mat.c, one - mat.d
