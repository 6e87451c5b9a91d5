"""The amalgam decomposition of SL2 over the Laurent ring, and the
certificate for the twist powers 1..kmax built on it.

SL2(Q[t, t^-1]) is the amalgamated product A *_U B where A = SL2(Q[t]),
B is the conjugate of A by diag(t, 1), and U = A cap B.  On the tree, A
and B are the stabilizers of the two endpoints of the fundamental edge.
The normal form reads each letter from valuations of the remainder: its
image of the base vertex has the remainder's pivot column as lattice
basis, and the first edge toward that image depends only on the lowest
term of the image's tail, the pivot column's upper entry over its lower
one.  The separation argument needs no tree: a matrix in A whose
balanced form vanishes must be the identity, so distinct twist powers
land in distinct double cosets.

The certificate checks each identity once, as an identity in the twist
power k.  Pushing the bounding-curve lift forward by the k-th power
moves its n family to n + k m, so rho_k and M_k N M_k^-1 are of degree
at most 2 in k and the pairings of a1 and b1 with the lift of degree 1:
conjugation is compared coefficient by coefficient, twist consistency
on the pairings alone, and the lift check (the certificate's only
product of two families over L_g) and the determinant check run once.
Each power k keeps only its verdict flags: each identity's verdict (one
that fails is decided at each k from its residual), M_k in A minus U
(read from the closed form of the separation), N in B minus U, and the
balance of rho_k (checked once in k, and at each k only when that
fails).  The per-k records, the pushed-forward lift and rho_k with the
flags, are derived when asked, and the JSON writes them from one
template, each rho entry from a table of its terms named once.

The pairwise records separate the double cosets of every pair of powers
k < l.  Separation goes through M_l^-1 M_k = M_{k-l}, so it depends on
k - l alone: the verdict checks each of the kmax - 1 differences once.
The records themselves are a closed form in (k, l), never stored: the
certificate derives them from kmax when asked, and its JSON joins them
from fragments formatted once per difference and once per l.
"""

from __future__ import annotations

import json
from collections.abc import Sequence
from itertools import repeat

from .homology import (
    CycleClass,
    EpsilonTable,
    Generator,
    InvalidLift,
    LiftClass,
    canonical_lift,
    pairing_polynomial,
    pushforward_b1_twist,
)
from .laurent import _Value, monomial_text, signed_terms, specialize_phi
from .rep import (
    Matrix2,
    at_k,
    conjugate_in_k,
    h_form,
    matrix_N,
    multiply,
    rho_in_k,
)
from .tree import as_sl2, pivot_column, series_ring

_QT = series_ring()


def _sides(mat: Matrix2) -> tuple[bool, bool]:
    """Membership in A and in B of a matrix already known to lie in SL2.

    Read from exponent signs alone: A needs no negative exponent, and B
    needs polynomial diagonal entries, b of valuation at least -1 and c
    divisible by t.
    """
    diagonal = mat.a.is_polynomial() and mat.d.is_polynomial()
    low_b = min((e[0] for e in mat.b.terms), default=0)
    low_c = min((e[0] for e in mat.c.terms), default=1)
    return (diagonal and low_b >= 0 and low_c >= 0,
            diagonal and low_b >= -1 and low_c >= 1)


def in_A(mat: Matrix2) -> bool:
    """Membership in SL2(Q[t]): all entries free of negative exponents."""
    return _sides(as_sl2(mat))[0]


def in_B(mat: Matrix2) -> bool:
    """Membership in the diag(t, 1) conjugate of A."""
    return _sides(as_sl2(mat))[1]


def in_U(mat: Matrix2) -> bool:
    """Membership in the edge subgroup A cap B."""
    return all(_sides(as_sl2(mat)))


class AmalgamLetter(_Value):
    """One factor of a normal form: a side label and a matrix in it."""

    __slots__ = ("side", "matrix")

    def __init__(self, side: str, matrix: Matrix2):
        if side not in ("A", "B"):
            raise ValueError(f"unknown side {side!r}")
        sl2 = as_sl2(matrix)
        in_a, in_b = _sides(sl2)
        if not (in_a if side == "A" else in_b):
            raise ValueError(f"matrix {matrix} is not in side {side}")
        object.__setattr__(self, "side", side)
        object.__setattr__(self, "matrix", sl2)

    def __str__(self):
        return f"({self.side}) {self.matrix}"


class IdentityForcingReport(_Value):
    """Trace of the argument that a balanced matrix in A is the identity."""

    __slots__ = ("status", "steps", "matrix")

    def __init__(self, status: str, steps: tuple[str, ...], matrix: Matrix2):
        # status: "ok" | "precondition_failed" | "counterexample"
        object.__setattr__(self, "status", status)
        object.__setattr__(self, "steps", steps)
        object.__setattr__(self, "matrix", matrix)

    def __bool__(self):
        return self.status == "ok"


def h_cap_a_forces_identity(mat: Matrix2) -> IdentityForcingReport:
    """Check that balanced form plus polynomial entries forces M = I.

    A polynomial fixed by the bar involution can have no exponent of
    either sign, so it is constant; a balanced one vanishes at 1, so it
    is zero.  Applied to a - 1, b, c and 1 - d this pins M to the
    identity.  Precondition failures (entries not polynomial, or form
    not balanced) are reported as such; a counterexample status would
    mean the argument itself broke and must never occur.
    """

    def failed(reason: str) -> IdentityForcingReport:
        return IdentityForcingReport("precondition_failed", (reason,), mat)

    try:
        m = as_sl2(mat)
    except ValueError as exc:
        return failed(str(exc))
    for label, entry in zip("abcd", m.entries()):
        if not entry.is_polynomial():
            return failed(f"entry {label} = {entry} is not a polynomial")
    steps = ["all four entries are polynomials, so M lies in A"]
    form = h_form(m)
    named = (("a - 1", form.p1), ("b", form.q1),
             ("c", form.q2), ("1 - d", form.p2))
    for name, poly in named:
        if not poly.is_balanced():
            return failed(f"{name} = {poly} is not balanced")
    steps.append("a - 1, b, c and 1 - d are balanced")
    for name, poly in named:
        if poly:
            return IdentityForcingReport(
                "counterexample",
                tuple(steps) + (f"{name} = {poly} is balanced and polynomial "
                                "yet nonzero",),
                mat)
        steps.append(f"{name} is balanced and polynomial, "
                     "hence constant, hence zero")
    steps.append("M = I")
    return IdentityForcingReport("ok", tuple(steps), mat)


def double_cosets_distinct(k: int, l: int) -> dict:
    """The pairwise record of powers k and l: whether M_k and M_l lie in
    distinct double cosets modulo U on the right, with its witness.

    Coset equality would force M_k = h M_l u with h balanced and u in U.
    Then h = M_k u^-1 M_l^-1 is a product of elements of A (U lies in
    A), so h lies in A with no further assumption.  Writing
    u^-1 = [[a, b], [c, d]],
    h = [[a - l b, b], [k a + c - l (k b + d), k b + d]].  A balanced
    polynomial h is the identity (h_cap_a_forces_identity), so b = 0,
    a = d = 1 and c = l - k; U requires t to divide c, so k = l.
    Equivalently, u = M_l^-1 M_k = M_{k-l}, whose lower-left entry is
    the constant k - l.
    """
    if k < 1 or l < 1:
        raise ValueError("twist powers must be at least 1")
    return _pair_record(k, l)


def _separated(d: int) -> bool:
    """Whether powers k and l with k - l = d lie in distinct double
    cosets: M_d lies outside U exactly when its lower-left entry d is
    nonzero at t = 0."""
    return d != 0


def _pair_record(k: int, l: int) -> dict:
    """The pairwise record of powers k and l."""
    return {"k": k, "l": l, "distinct": _separated(k - l),
            "witness": _witness(k, l)}


def _witness(k: int, l: int) -> str:
    """The separation witness for M_k and M_l, with M_{k-l} written out."""
    if k == l:
        return "k = l, the cosets coincide"
    return str(k).join(_witness_halves(l, k - l))


def _witness_halves(l: int, d: int) -> tuple[str, str]:
    """The witness for powers k and l with k - l = d != 0, as its text
    before k and after k."""
    return (f"equality would put M_{l}^-1 M_",
            f" = [[1, 0], [{d}, 1]] in U, but its lower-left entry is {d} "
            f"at t = 0, not divisible by t")


def _peel(rest: Matrix2, s: int, lead) -> tuple[str, Matrix2, Matrix2]:
    """The side and matrix of the letter read from the tail's lowest
    term lead t^s (see amalgam_normal_form), and letter^-1 rest, the row
    operation (c, d, c0 c - a, c0 d - b), (a - x c, b - x d, c, d) or
    (t^-1 c, t^-1 d, -t a, -t b) on rest = [[a, b], [c, d]]."""
    a, b, c, d = rest.entries()
    one, zero = _QT.one(), _QT.zero()
    if s >= 0:
        c0 = _QT.constant(lead if s == 0 else 0)
        return ("A", Matrix2(c0, -one, one, zero),
                Matrix2(c, d, c0 * c - a, c0 * d - b))
    t_inv = _QT.monomial((-1,))
    if s == -1:
        x = t_inv.scale(lead)
        return ("B", Matrix2(one, x, zero, one),
                Matrix2(a - x * c, b - x * d, c, d))
    t = _QT.variable(0)
    return ("B", Matrix2(zero, -t_inv, t, zero),
            Matrix2(t_inv * c, t_inv * d, -(t * a), -(t * b)))


def amalgam_normal_form(mat: Matrix2) -> list[AmalgamLetter]:
    """Factor a matrix as an alternating word in A and B.

    While the remainder g fixes neither endpoint v0, v1 of the
    fundamental edge, p = g v0 lies in one half-tree of that edge (SL2
    keeps the parity of levels), and the first edge from v0 or v1
    toward p names a letter that pulls g one edge closer.  It is read
    from valuations, with no tree walk: with (beta, delta) g's pivot
    column, p has level -2 v(delta) and tail beta/delta below it, and
    the first edge reads only the tail's lowest term lead t^s (s is the
    level when the tail is zero below it).  When s >= 0 the path climbs
    from v0: the letter is [[c0, -1], [1, 0]] in A, c0 = lead if s = 0,
    else 0.  Otherwise it passes v1: the letter is [[1, x], [0, 1]] in
    B, x = lead t^-1, when s = -1, and [[0, -t^-1], [t, 0]] when
    s <= -2.  The remainder becomes letter^-1 g by the row operation of
    the letter's inverse (_peel), with no determinant, inverse or 2x2
    product.  Letters alternate sides automatically, every non-initial
    letter lies outside U, and the word length is at most the
    displacement of the base vertex plus one.
    """
    original = as_sl2(mat)
    rest = original
    letters: list[tuple[str, Matrix2]] = []
    # every letter has determinant one, so rest keeps the determinant
    # checked on entry, and its sides follow from exponent signs
    while not any(_sides(rest)):
        beta, delta = pivot_column(*rest.entries())
        v = delta.valuation()
        level = -2 * v
        s = beta.valuation() - v if beta else level
        if s < level:
            lead = beta.coeff((s + v,)) / delta.coeff((v,))
        else:  # the tail is zero below the level
            s, lead = level, 0
        side, letter, rest = _peel(rest, s, lead)
        letters.append((side, letter))
    # rest is outside U after a letter, else letter rest fixed the letter's end
    out = [AmalgamLetter(side, matrix) for side, matrix in letters]
    out.append(AmalgamLetter("A" if _sides(rest)[0] else "B", rest))
    product = multiply([letter.matrix for letter in out])
    if product != original:
        raise RuntimeError(
            f"normal form check failed: the letters multiply to {product}, "
            f"not to the input {original}")
    return out


# the summary's text for each per-k verdict flag, when it holds and when not
_FLAG_TEXTS = (("conjugation ok", "conjugation FAILED"),
               ("twist consistent", "twist INCONSISTENT"),
               ("M_k in A\\U", "M_k membership FAILED"),
               ("N in B\\U", "N membership FAILED"),
               ("balanced", "balance FAILED"))
_MEMBERSHIPS = ("Mk_in_A_not_U", "N_in_B_not_U", "conjugate_balanced")


class Certificate:
    """A machine-checkable record that the twist powers are independent.

    The verdict is true exactly when first_failure finds nothing.  It
    keeps the lift, rho's coefficients in k and, for each power, its
    verdict flags (in _FLAG_TEXTS order), or its error text when rho_k
    could not be built (then rho_k is empty); a per-k record is derived
    when asked, and the pairwise records are derived from kmax.
    """

    def __init__(self, kmax: int, genus: int, lift: LiftClass, rho_k: tuple,
                 flags: Sequence[tuple | str]):
        self.kmax, self.genus = kmax, genus
        self._lift, self._rho_k = lift, rho_k
        self._flags = tuple(flags)
        self._records = [None] * kmax

    def _record(self, k: int) -> dict:
        """The record of power k, derived on first use and then kept."""
        record = self._records[k - 1]
        if record is None:
            flags = self._flags[k - 1]
            if isinstance(flags, str):
                record = {"k": k, "error": flags}
            else:
                conjugation, twist, *member = flags
                record = {
                    "k": k,
                    "lift": pushforward_b1_twist(self._lift, k).to_json(),
                    "rho": at_k(self._rho_k, k).to_json(),
                    "conjugation_ok": conjugation,
                    "twist_consistency_ok": twist,
                    "memberships": dict(zip(_MEMBERSHIPS, member))}
            self._records[k - 1] = record
        return record

    @property
    def records(self) -> tuple[dict, ...]:
        """The per-k records, for k = 1..kmax."""
        return tuple(map(self._record, range(1, self.kmax + 1)))

    @property
    def pairwise(self) -> tuple[dict, ...]:
        """The separation record of every pair k < l of powers, by k and
        then by l."""
        return tuple(_pair_record(k, l) for k in range(1, self.kmax + 1)
                     for l in range(k + 1, self.kmax + 1))

    def _failed_differences(self) -> list[int]:
        """The differences l - k, from 1 to kmax - 1, whose pairs are not
        separated: each difference is checked once."""
        return [d for d in range(1, self.kmax) if not _separated(-d)]

    def first_failure(self) -> dict | None:
        """The first per-k record or pairwise separation that failed."""
        for k, flags in enumerate(self._flags, 1):
            if isinstance(flags, str) or not all(flags):
                return self._record(k)
        failed = self._failed_differences()
        # every difference first appears at k = 1, so the smallest
        # failing one names the first failing pair
        return _pair_record(1, 1 + failed[0]) if failed else None

    @property
    def verdict(self) -> bool:
        return self.first_failure() is None

    def to_json(self) -> dict:
        return {
            "kmax": self.kmax,
            "genus": self.genus,
            "records": [dict(r) for r in self.records],
            "pairwise": list(self.pairwise),
            "verdict": self.verdict,
        }

    def json_text(self) -> str:
        """json.dumps(self.to_json(), sort_keys=True, indent=2), byte for
        byte.  The pairwise records, and derived per-k records, are
        written from fragments at their fixed indent; the other
        fields are dumped alone and indented one level (JSON escapes
        every newline in a string)."""
        fields = {"genus": self.genus, "kmax": self.kmax,
                  "verdict": self.verdict}
        texts = {key: json.dumps(value, sort_keys=True, indent=2)
                 .replace("\n", "\n  ") for key, value in fields.items()}
        texts["pairwise"] = self._pairwise_text()
        texts["records"] = self._records_text()
        return "{\n  " + ",\n  ".join(
            f"{json.dumps(key)}: {texts[key]}" for key in sorted(texts)) \
            + "\n}"

    def _records_text(self) -> str:
        """The derived per-k records as json_text writes them, one level
        deep: an error record is dumped alone; otherwise a record with a
        marker in each per-k place is dumped once, and each power fills
        in its flags, k, the pushed n family n + k m (base lift's key
        order, zero sums dropped) and rho_k's entries, each the nonzero
        terms of c0 + k c1 + k^2 c2 over a table of the entry's
        exponents, sorted and named once."""
        base = self._lift.to_json()
        marks = [f"\x00{i}" for i in range(11)]
        template = "    " + json.dumps(
            {"conjugation_ok": marks[0], "twist_consistency_ok": marks[1],
             "memberships": dict(zip(_MEMBERSHIPS, marks[2:5])),
             "k": marks[5], "lift": {**base, "n": marks[6]},
             "rho": dict(zip("abcd", marks[7:]))}, sort_keys=True, indent=2,
        ).replace("\n", "\n    ").replace("{", "{{").replace("}", "}}")
        for i, mark in enumerate(marks):
            template = template.replace(json.dumps(mark), f"{{{i}}}")
        m, n = base["m"], base["n"]
        family = [(key, n.get(key, 0), m.get(key, 0)) for key in sorted({*m, *n})]
        tables = [[(monomial_text(coeffs[0].ring.names, e),
                    *(p.terms.get(e, 0) for p in coeffs))
                   for e in sorted(set().union(*(p.terms for p in coeffs)))]
                  for coeffs in zip(*(c.entries() for c in self._rho_k))]

        def record(k: int) -> str:
            if isinstance(self._flags[k - 1], str):  # an error record
                return "    " + json.dumps(self._record(k), sort_keys=True,
                                           indent=2).replace("\n", "\n    ")
            pushed = ",\n".join(f'          "{key}": {c}' for key, n0, m0
                                in family if (c := n0 + k * m0))
            rho = [signed_terms([(var, v) for var, c0, c1, c2 in table
                                 if (v := c0 + k * (c1 + k * c2))])
                   for table in tables]
            return template.format(
                *("true" if flag else "false" for flag in self._flags[k - 1]),
                k, f"{{\n{pushed}\n        }}" if pushed else "{}",
                *map('"{}"'.format, rho))

        return "[\n" + ",\n".join(map(record, range(1, self.kmax + 1))) \
            + "\n  ]"

    def _pairwise_text(self) -> str:
        """The pairwise list as json_text writes it, one level deep: a
        witness is ASCII with nothing to escape, and each record is the
        fragments of its difference d and of l around k, joined in C."""
        kmax = self.kmax
        if kmax < 2:
            return "[]"
        # the pair (k, l) is head[d] k mid[l] k tail[d], d = l - k, each
        # list indexed from d = 1 or l = 2
        halves = [_witness_halves(d + 1, -d) for d in range(1, kmax)]
        head = [f'    {{\n      "distinct": {json.dumps(_separated(-d))},\n'
                '      "k": ' for d in range(1, kmax)]
        mid = [f',\n      "l": {l},\n      "witness": "{before}'
               for l, (before, _) in enumerate(halves, 2)]
        tail = [f'{after}"\n    }}' for _, after in halves]
        return "[\n" + ",\n".join(
            ",\n".join(map("".join, zip(head, repeat(str(k)), mid[k - 1:],
                                         repeat(str(k)), tail)))
            for k in range(1, kmax)) + "\n  ]"

    def summary_lines(self) -> list[str]:
        lines = [f"certificate: genus {self.genus}, twist powers 1..{self.kmax}"]
        for k, flags in enumerate(self._flags, 1):
            lines.append(f"  k={k}: " + (
                f"ERROR {flags}" if isinstance(flags, str)
                else ", ".join(text[not flag]
                               for flag, text in zip(flags, _FLAG_TEXTS))))
        failed = self._failed_differences()
        pairs = self.kmax * (self.kmax - 1) // 2
        # difference d has kmax - d pairs, (k, k + d) for k = 1..kmax - d
        lines.append(f"  pairwise separations: "
                     f"{pairs - sum(self.kmax - d for d in failed)}"
                     f"/{pairs} distinct")
        for k, l in sorted((k, k + d) for d in failed
                           for k in range(1, self.kmax - d + 1)):
            lines.append(f"    NOT distinct: k={k}, l={l}")
        lines.append(f"verdict: {'PASS' if self.verdict else 'FAIL'}")
        return lines


def _handle_pairings(lift: LiftClass, eps: EpsilonTable) -> tuple:
    """The pairings (p0, p1) of a1 and b1 with the lift and with delta,
    the class with n-family m alone: the k-th pushforward is lift + k
    delta, so they pair with it as p0 + k p1.  This is the one stage
    that takes the pairing table, and it reads no sign of it (see
    pairing_polynomial).
    """
    delta = LiftClass(lift.genus, None, lift.ring.zero(), lift.m)
    handles = [CycleClass.basis(lift.genus, gen)
               for gen in (Generator.a1(), Generator.b1())]
    return tuple(tuple(pairing_polynomial(x, target, eps) for x in handles)
                 for target in (lift, delta))


def _pairing_residual(lift: LiftClass, eps: EpsilonTable) -> tuple:
    """The residual (r0, r1): Phi of rho's pairings p0 = (inv(n), -inv(m))
    and p1 = (inv(m), 0) minus _handle_pairings', taken over L_g, with
    no product.  After Phi, rho_k minus the twist's action I + c_k p'_k^T
    is c_k (r0 + k r1)^T, for rho_k's column c_k = (m, n + k m)."""
    (a0, b0), (a1, b1) = _handle_pairings(lift, eps)
    inv_m = lift.m.involution()
    return tuple(tuple(map(specialize_phi, p)) for p in (
        (lift.n.involution() - a0, -inv_m - b0), (inv_m - a1, -b1)))


def pairing_table_recheck(base_lift: LiftClass, eps: EpsilonTable,
                          probe: EpsilonTable) -> bool:
    """Whether the certificate for base_lift is the same under probe as
    under eps: the only stage that takes the table, _handle_pairings, is
    run again under both, and it gives the pairings for every power k."""
    return (_handle_pairings(base_lift, eps)
            == _handle_pairings(base_lift, probe))


def _vanishes(residual: Sequence[Matrix2]) -> bool:
    """Whether every entry of every matrix in residual is zero."""
    return not any(entry for mat in residual for entry in mat.entries())


def build_certificate(kmax: int, genus: int,
                      eps: EpsilonTable | None = None,
                      base_lift: LiftClass | None = None) -> Certificate:
    """Run the full pipeline for twist powers 1..kmax at the given genus.

    The lift check, rho_k and M_k N M_k^-1 are computed once, in k, and
    each identity is compared on its coefficients (at each k only when
    that fails); each power keeps only its verdict flags.  The epsilon
    table reaches only _handle_pairings, where the sign choices provably
    never matter; pairing_table_recheck re-runs it under another table.

    What a PASS certifies: after Phi, with P = inv(m) m, Q = inv(m) n,
    R = inv(n) n and b = t - 2 + t^-1, conjugation at any one power k
    reads P = -b from the upper-right entries, then Q = 0 from the
    diagonal and R = 0 from the lower-left.  L is a domain, so R = 0 is
    Phi(n) = 0 (which gives Q = 0), and a UFD with units +-t^j, so
    P = (1 - t)(1 - t^-1) is Phi(m) = +-t^j (1 - t).  The determinant
    follows from the lift check, balance from conjugation (b is
    balanced), twist consistency from the table's pairings being rho's,
    and nothing else reads the lift: a PASS holds exactly when the lift
    is valid, Phi(n) = 0 and Phi(m) = +-t^j (1 - t).
    """
    if kmax < 2:
        raise ValueError("need kmax >= 2 to separate at least two cosets")
    if genus < 2:
        raise ValueError(f"genus must be at least 2, got {genus}")
    star = base_lift if base_lift is not None else canonical_lift(genus)
    if star.genus != genus:
        raise ValueError(f"base lift has genus {star.genus}, expected {genus}")
    if eps is None:
        eps = EpsilonTable(genus)
    elif eps.genus != genus:
        raise ValueError(f"epsilon table has genus {eps.genus}, expected {genus}")
    n_mat = matrix_N()
    n_in_a, n_in_b = _sides(as_sl2(n_mat))
    powers = range(1, kmax + 1)
    try:
        rho_k = rho_in_k(star)
    except ValueError as exc:  # the lift check or the determinant check
        errors = (exc.pushed_forward(powers) if isinstance(exc, InvalidLift)
                  else [str(exc)] * kmax)
        return Certificate(kmax, genus, star, (), errors)
    # the residuals' coefficients in k: an identity that holds for every
    # k needs no evaluation, and one that fails is evaluated at each k
    conj_residual = [r - c for r, c in zip(rho_k, conjugate_in_k(n_mat))]
    conj_identity = _vanishes(conj_residual)
    # rho_k minus the twist's action is c_k (r0 + k r1)^T over a domain,
    # and c_k = (m, n + k m) is 0 exactly when P = C2.c and R = C0.c are
    r0, r1 = _pairing_residual(star, eps)
    no_c = not (rho_k[2].c or rho_k[0].c)
    twist_identity = no_c or not any(r0 + r1)
    # balance is linear, so h_form(rho_k) is balanced for every k when
    # h_form(C0) and every entry of C1 and C2 are
    balance_identity = h_form(rho_k[0]).all_balanced and all(
        entry.is_balanced() for coeff in rho_k[1:] for entry in coeff.entries())
    flags = tuple(
        (conj_identity or _vanishes([at_k(conj_residual, k)]),
         twist_identity or not any(x + y.scale(k) for x, y in zip(r0, r1)),
         _separated(k), n_in_b and not n_in_a,  # M_k is in A, in U iff t | k
         balance_identity or h_form(at_k(rho_k, k)).all_balanced)
        for k in powers)
    return Certificate(kmax, genus, star, rho_k, flags)
