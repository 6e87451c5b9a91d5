"""First homology of the universal abelian-quotient cover of a surface.

For a closed surface of genus g >= 2, the cover in question has deck
group Z^(2g-2) and its first homology is a module over the Laurent ring
L_g in the variables (s2..sg, t2..tg) = (u_1..u_{2g-2}).  As a module it
is generated by two handle classes a1, b1 together with commutator
classes [c_i, c_j] for 1 <= i < j <= 2g-2, where (c_1..c_{2g-2}) =
(a2..ag, b2..bg); the pair corresponding to [a_g, b_g], namely
(g-1, 2g-2), is redundant and excluded.

The intersection pairing between translated commutator generators is
only pinned down up to a family of signs epsilon (one per pair of
generators with disjoint or singly-overlapping index sets).  Those signs
are configuration, kept in an EpsilonTable.  The certificate passes a
table to one stage only, the pairings of a1 and b1 with the lift, and
pairing a handle class with a lift reads the lift's m and n families,
never a sign: no sign choice reaches the certificate.

A LiftClass records the class of a lifted simple closed curve: a
w-part supported on commutator generators plus coefficient families
m, n for the translates of a1 and b1.
"""

from __future__ import annotations

import random
import re
from collections.abc import Iterable, Mapping, Sequence

from .laurent import (
    MAX_EXPONENT,
    MAX_DIGITS,
    MAX_TERMS,
    ExponentVector,
    LaurentPoly,
    LaurentRing,
    _require_int,
    _require_ring,
    _Value,
    parse_poly,
    surface_ring,
)

IndexPair = tuple[int, int]

# The largest genus a lift record or the command line may name: the ring
# has 2g - 2 variables and a random pairing table O(g^4) entries.
MAX_GENUS = 40

# an exponent key of a lift family; numbers are read in ASCII digits only
_EXPONENT_KEY = re.compile(r"-?\d+(,-?\d+)*", re.ASCII)
# a commutator key as Generator.key writes it; an index has at most 9 digits
_COMMUTATOR_KEY = re.compile(r"c:([1-9]\d{0,8}):([1-9]\d{0,8})", re.ASCII)
# each coefficient printed by rho or a per-k record (k <= 1000) sums at most
# (1 + k)^2 MAX_TERMS^2 < 10^13 products of two lift coefficients, so it has
# at most 2 * 2143 + 13 = 4299 digits, within MAX_DIGITS
MAX_LIFT_DIGITS = 2143
_LIFT_COEFF_LIMIT = 10 ** MAX_LIFT_DIGITS
# the coefficient digits of each of m and n added up: each product of the
# families a certificate forms (inv(m) n, inv(m) m, inv(n) n) multiplies
# at most this squared many digit pairs, as a 1000-term family of 20-digit
# coefficients does
MAX_LIFT_FAMILY_DIGITS = 20000


def _json_int(value, what: str) -> int:
    """An integer read from JSON; 1.5, "1" and true are rejected."""
    if type(value) is not int:
        raise ValueError(f"{what} must be an integer, got {value!r}")
    return value


def _json_pair(value, what: str) -> IndexPair:
    if not isinstance(value, (list, tuple)) or len(value) != 2:
        raise ValueError(f"{what} must be a pair of integers, got {value!r}")
    return (_json_int(value[0], what), _json_int(value[1], what))


def excluded_pair(genus: int) -> IndexPair:
    """The commutator pair left out of the generating set: [a_g, b_g]."""
    return (genus - 1, 2 * genus - 2)


def comm_pairs(genus: int) -> list[IndexPair]:
    n = 2 * genus - 2
    skip = excluded_pair(genus)
    return [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)
            if (i, j) != skip]


class Generator(_Value):
    """A module generator: a1, b1, or a commutator class [c_i, c_j]."""

    __slots__ = ("kind", "i", "j")
    _KINDS = ("a1", "b1", "comm")

    def __init__(self, kind: str, i: int = 0, j: int = 0):
        if kind not in self._KINDS:
            raise ValueError(f"unknown generator kind {kind!r}")
        for index in (i, j):
            _require_int(index, "generator index")
        if kind == "comm":
            if not 1 <= i < j:
                raise ValueError(f"bad commutator indices ({i}, {j})")
        elif i or j:
            raise ValueError(f"{kind} takes no indices")
        self._set(kind, i, j)

    @classmethod
    def a1(cls) -> "Generator":
        return cls("a1")

    @classmethod
    def b1(cls) -> "Generator":
        return cls("b1")

    @classmethod
    def comm(cls, i: int, j: int) -> "Generator":
        return cls("comm", i, j)

    @property
    def pair(self) -> IndexPair:
        if self.kind != "comm":
            raise ValueError(f"{self.key()} is not a commutator generator")
        return (self.i, self.j)

    def validate(self, genus: int):
        if self.kind != "comm":
            return
        n = 2 * genus - 2
        if self.j > n:
            raise ValueError(
                f"commutator index {self.j} out of range 1..{n} for genus {genus}"
            )
        if (self.i, self.j) == excluded_pair(genus):
            raise ValueError(
                f"the pair {self.pair} is the excluded [a_g, b_g] commutator"
            )

    def sort_key(self) -> tuple:
        return (self._KINDS.index(self.kind), self.i, self.j)

    def key(self) -> str:
        if self.kind == "comm":
            return f"c:{self.i}:{self.j}"
        return self.kind

    @classmethod
    def from_key(cls, text: str) -> "Generator":
        if text == "a1":
            return cls.a1()
        if text == "b1":
            return cls.b1()
        match = _COMMUTATOR_KEY.fullmatch(text)
        if match:
            try:
                return cls.comm(*map(int, match.groups()))
            except ValueError as exc:
                raise ValueError(f"bad generator key {text!r}: {exc}") from None
        raise ValueError(f"bad generator key {text!r}")


def _storage_key(x: IndexPair, y: IndexPair) -> tuple[tuple, int]:
    """The table key of the ordered pair (x, y), and the sign with
    value(x, y) = sign * stored[key].

    Reversing a disjoint pair, turning a pair so that the shared index
    comes first, and swapping the other indices each flip the sign.
    """
    shared = [i for i in x if i in y]
    if not shared:
        return ((x, y), 1) if x < y else ((y, x), -1)
    s = shared[0]
    x2, y2 = x[0] + x[1] - s, y[0] + y[1] - s
    sign = (1 if x[0] == s else -1) * (1 if y[0] == s else -1)
    return ((s, x2, y2), sign) if x2 < y2 else ((s, y2, x2), -sign)


class EpsilonTable:
    """Skew-consistent intersection signs for commutator generator pairs.

    Each sign is stored once, under the key _storage_key gives: a
    disjoint entry as the ordered pair (p, q) with p < q, a shared-index
    entry as (shared, smaller other, larger other).  Lookups outside the
    stored domain return 0, and reversed lookups pick up the skew sign.
    """

    def __init__(self, genus: int,
                 disjoint: Mapping[tuple[IndexPair, IndexPair], int] = (),
                 parallel: Mapping[tuple[int, int, int], int] = ()):
        if genus < 2:
            raise ValueError(f"genus must be at least 2, got {genus}")
        self._genus = genus
        self._signs = {}
        self._seed = None  # set by seeded: the draw waits for a lookup
        # one rule for every key: it is the storage key of two pairs of
        # the generating set, as from_entries requires of each entry
        valid = set(comm_pairs(genus))
        for what, size, signs in (("disjoint", 2, disjoint),
                                  ("shared-index", 3, parallel)):
            for key, v in dict(signs).items():
                # a shared-index key (s, x, y) names the pairs {s, x}, {s, y}
                pairs = key if size == 2 else [
                    tuple(sorted((key[0], i))) for i in key[1:]]
                if len(key) != size or pairs[0] == pairs[1] \
                        or not valid.issuperset(pairs) \
                        or _storage_key(*pairs)[0] != key:
                    raise ValueError(f"{what} key {key} is not the storage "
                                     "key of two pairs in the generating set")
                if v not in (-1, 0, 1):
                    raise ValueError(f"epsilon value {v} outside {{-1, 0, 1}}")
                if v:
                    self._signs[key] = v

    @property
    def genus(self) -> int:
        return self._genus

    @classmethod
    def _from_signs(cls, genus: int, signs: Mapping[tuple, int]):
        """A table from signs already under their storage keys."""
        return cls(genus, {k: v for k, v in signs.items() if len(k) == 2},
                   {k: v for k, v in signs.items() if len(k) == 3})

    @classmethod
    def random_skew(cls, genus: int, rng, density: float = 0.6) -> "EpsilonTable":
        """A random table, mostly nonzero, for robustness tests."""
        pairs = comm_pairs(genus)
        signs = {}
        for a, p in enumerate(pairs):
            for q in pairs[a + 1:]:
                if rng.random() <= density:
                    signs.setdefault(_storage_key(p, q)[0],
                                     rng.choice((-1, 1)))
        return cls._from_signs(genus, signs)

    @classmethod
    def seeded(cls, genus: int, seed: int) -> "EpsilonTable":
        """random_skew(genus, random.Random(seed)), drawn at the first
        lookup: a caller that looks nothing up never pays the O(g^4) draw.
        """
        table = cls(genus)
        table._seed = seed
        return table

    def _drawn(self) -> dict:
        """The signs by storage key, a seeded table's drawn on first use."""
        if self._seed is not None:
            self._signs = self.random_skew(
                self.genus, random.Random(self._seed))._signs
            self._seed = None
        return self._signs

    def __eq__(self, other):
        if not isinstance(other, EpsilonTable):
            return NotImplemented
        return self.genus == other.genus and self._drawn() == other._drawn()

    def __hash__(self):
        return hash((self.genus, frozenset(self._drawn().items())))

    @classmethod
    def from_entries(cls, genus: int, entries: Sequence[Mapping]) -> "EpsilonTable":
        """Build a table from {"x": [i,j], "y": [k,l], "value": v} records.

        Each record fixes the sign for the ordered pair (x, y); the skew
        partner is implied.  Conflicting records are an error.
        """
        if not isinstance(entries, (list, tuple)):
            raise ValueError("a pairing table is a list of entries")
        signs: dict = {}
        valid = set(comm_pairs(genus))
        for entry in entries:
            if not isinstance(entry, Mapping) \
                    or set(entry) != {"x", "y", "value"}:
                raise ValueError(f"malformed epsilon entry {entry!r}: "
                                 "expected the keys x, y and value")
            x = _json_pair(entry["x"], "an entry's x")
            y = _json_pair(entry["y"], "an entry's y")
            v = _json_int(entry["value"], "an entry's value")
            if x[0] >= x[1] or y[0] >= y[1]:
                raise ValueError(f"pair indices must be increasing in {entry!r}")
            if x not in valid or y not in valid:
                raise ValueError(
                    f"entry {entry!r} names a pair outside the generating set"
                )
            if x == y:
                raise ValueError(f"pairs in {entry!r} coincide")
            key, sign = _storage_key(x, y)
            if key in signs and signs[key] != sign * v:
                raise ValueError(f"entry {entry!r} conflicts with an earlier one")
            signs[key] = sign * v
        return cls._from_signs(genus, signs)

    def value(self, x: IndexPair, y: IndexPair) -> int:
        """The sign fixed for the ordered pair (x, y); 0 where none is."""
        if self._seed is not None:
            self._drawn()
        key, sign = _storage_key(x, y)
        return sign * self._signs.get(key, 0)


def _var(ring: LaurentRing, index: int) -> LaurentPoly:
    # index is 1-based within the fixed (s2..sg, t2..tg) ordering
    return ring.variable(index - 1)


def pair_kernel(x: IndexPair, y: IndexPair, eps: EpsilonTable) -> LaurentPoly:
    """The generating polynomial sum_r ([c_x] . u^r [c_y]) u^r.

    Three cases: identical pairs pair to zero (parallel translates of a
    single curve are disjoint), disjoint index sets give the product of
    four (u-1)-type factors, and a single shared index gives the
    three-factor form with the shared variable contributing
    1 - u - u^{-1}.  Either product is scaled by the sign eps.value(x, y).
    """
    ring = surface_ring(eps.genus)
    if set(x) == set(y):
        return ring.zero()
    v = eps.value(x, y)
    if not v:
        return ring.zero()
    one = ring.one()
    shared = [i for i in x if i in y]
    if not shared:
        poly = (_var(ring, x[0]) - one) * (_var(ring, x[1]) - one) \
            * (_var(ring, y[0]).unit_inverse() - one) \
            * (_var(ring, y[1]).unit_inverse() - one)
        return v * poly
    s = shared[0]
    u_s = _var(ring, s)
    poly = (one - u_s - u_s.unit_inverse()) \
        * (_var(ring, x[0] + x[1] - s) - one) \
        * (_var(ring, y[0] + y[1] - s).unit_inverse() - one)
    return v * poly


class CycleClass(_Value):
    """A finite L_g-combination of module generators."""

    __slots__ = ("genus", "coeffs")

    def __init__(self, genus: int, coeffs: Mapping[Generator, LaurentPoly] = ()):
        if genus < 2:
            raise ValueError(f"genus must be at least 2, got {genus}")
        ring = surface_ring(genus)
        clean = {}
        for gen, poly in dict(coeffs).items():
            gen.validate(genus)
            _require_ring(poly, ring, f"coefficient of {gen.key()}")
            if poly:
                clean[gen] = poly
        self._set(genus, {g: clean[g]
                          for g in sorted(clean, key=Generator.sort_key)})

    @classmethod
    def basis(cls, genus: int, gen: Generator) -> "CycleClass":
        return cls(genus, {gen: surface_ring(genus).one()})

    @property
    def ring(self) -> LaurentRing:
        return surface_ring(self.genus)

    def coeff(self, gen: Generator) -> LaurentPoly:
        return self.coeffs.get(gen, self.ring.zero())

    def a1_coeff(self) -> LaurentPoly:
        return self.coeff(Generator.a1())

    def b1_coeff(self) -> LaurentPoly:
        return self.coeff(Generator.b1())

    def comm_items(self) -> list[tuple[Generator, LaurentPoly]]:
        return [(g, p) for g, p in self.coeffs.items() if g.kind == "comm"]

    def __hash__(self):  # coeffs is a dict, hashed by its items
        return hash((self.genus, tuple(self.coeffs.items())))

    def __add__(self, other: "CycleClass") -> "CycleClass":
        if not isinstance(other, CycleClass):
            return NotImplemented
        if self.genus != other.genus:
            raise ValueError(f"mixed genera {self.genus} and {other.genus}")
        out = dict(self.coeffs)
        for gen, poly in other.coeffs.items():
            out[gen] = out.get(gen, self.ring.zero()) + poly
        return CycleClass(self.genus, out)

    def __sub__(self, other: "CycleClass") -> "CycleClass":
        if not isinstance(other, CycleClass):
            return NotImplemented
        return self + other.scaled_by(self.ring.constant(-1))

    def scaled_by(self, poly: LaurentPoly) -> "CycleClass":
        _require_ring(poly, self.ring, "scalar")
        return CycleClass(self.genus, {g: poly * p for g, p in self.coeffs.items()})

    def __repr__(self):
        body = ", ".join(f"{g.key()}: {p}" for g, p in self.coeffs.items())
        return f"<CycleClass genus {self.genus} {{{body}}}>"


class LiftClass(_Value):
    """The homology class of a lifted simple closed curve.

    w is the commutator part; m and n record, per deck translate, how the
    curve's lifts meet the translates of a1 and b1 respectively.
    """

    __slots__ = ("genus", "w", "m", "n")

    def __init__(self, genus: int, w: CycleClass | None = None,
                 m: Mapping[Sequence[int], int] | LaurentPoly = (),
                 n: Mapping[Sequence[int], int] | LaurentPoly = ()):
        ring = surface_ring(genus)
        if w is None:
            w = CycleClass(genus)
        if w.genus != genus:
            raise ValueError("w-part has the wrong genus")
        if w.coeffs.get(Generator.a1()) or w.coeffs.get(Generator.b1()):
            raise ValueError("w-part must be supported on commutator generators")
        self._set(genus, w, self._family(ring, m), self._family(ring, n))

    @staticmethod
    def _family(ring: LaurentRing, data) -> LaurentPoly:
        if isinstance(data, LaurentPoly):
            return _require_ring(data, ring, "coefficient family")
        return LaurentPoly(ring, dict(data))

    @property
    def ring(self) -> LaurentRing:
        return surface_ring(self.genus)

    def as_cycle_class(self) -> CycleClass:
        """The class itself, written out over the module generators."""
        out = dict(self.w.coeffs)
        if self.m:
            out[Generator.a1()] = self.m
        if self.n:
            out[Generator.b1()] = self.n
        return CycleClass(self.genus, out)

    # -- serialization --------------------------------------------------

    def to_json(self) -> dict:
        def family(poly: LaurentPoly) -> dict:
            return {",".join(str(e) for e in exps): poly.terms[exps]
                    for exps in sorted(poly.terms)}

        return {
            "genus": self.genus,
            "w": [[gen.key(), str(poly)] for gen, poly in self.w.coeffs.items()],
            "m": family(self.m),
            "n": family(self.n),
        }

    @classmethod
    def from_json(cls, data: Mapping) -> "LiftClass":
        """Read to_json's shape back; nothing is coerced or overwritten."""
        if not isinstance(data, Mapping) or set(data) - {"genus", "w", "m", "n"}:
            raise ValueError("a lift record is a JSON object with keys among "
                             "genus, w, m and n")
        genus = _json_int(data.get("genus"), "the lift's genus")
        if genus > MAX_GENUS:
            raise ValueError(f"the lift's genus {genus} exceeds the limit "
                             f"of {MAX_GENUS}")
        ring = surface_ring(genus)

        def family(name: str) -> dict:
            obj = data.get(name, {})
            if not isinstance(obj, Mapping):
                raise ValueError(f"lift family {name} must map exponent keys "
                                 f"to integers, got {obj!r}")
            if len(obj) > MAX_TERMS:
                raise ValueError(f"lift family {name} has {len(obj)} terms, "
                                 f"more than the limit of {MAX_TERMS}")
            out, digits = {}, 0
            for key, c in obj.items():
                if not _EXPONENT_KEY.fullmatch(str(key)):
                    raise ValueError(f"bad exponent key {key!r} in {name}")
                parts = str(key).split(",")
                if any(len(p.lstrip("-")) > MAX_DIGITS for p in parts):
                    raise ValueError(f"exponent key in {name} has a number "
                                     f"of more than {MAX_DIGITS} digits")
                exps = tuple(map(int, parts))
                if len(exps) != ring.nvars:
                    raise ValueError(
                        f"exponent key {key!r} has the wrong arity for genus {genus}"
                    )
                if any(abs(e) > MAX_EXPONENT for e in exps):
                    raise ValueError(f"exponent key {key!r} in {name} exceeds "
                                     f"the limit of {MAX_EXPONENT}")
                if exps in out:
                    raise ValueError(f"exponent key {key!r} repeats in {name}")
                out[exps] = _json_int(c, f"coefficient {name}[{key!r}]")
                if abs(c) >= _LIFT_COEFF_LIMIT:
                    raise ValueError(f"coefficient {name}[{key!r}] has more "
                                     f"than {MAX_LIFT_DIGITS} digits")
                digits += len(str(abs(c)))
                if digits > MAX_LIFT_FAMILY_DIGITS:
                    raise ValueError(f"lift family {name} has more than "
                                     f"{MAX_LIFT_FAMILY_DIGITS} coefficient "
                                     "digits in all")
            return out

        items = data.get("w", [])
        if not isinstance(items, list):
            raise ValueError(f"w-part must be a list, got {items!r}")
        w_coeffs = {}
        for item in items:
            if not (isinstance(item, list) and len(item) == 2
                    and all(isinstance(part, str) for part in item)):
                raise ValueError(f"w-part entry {item!r} is not a "
                                 "[generator, polynomial] pair of strings")
            gen = Generator.from_key(item[0])
            if gen.kind != "comm":
                raise ValueError("w-part entries must be commutator generators")
            if gen in w_coeffs:
                raise ValueError(f"w-part names {item[0]} twice")
            w_coeffs[gen] = parse_poly(item[1], ring, f"w-part {item[0]}")
        return cls(genus, CycleClass(genus, w_coeffs),
                   family("m"), family("n"))

    def __repr__(self):
        return (f"<LiftClass genus {self.genus} m=({self.m}) n=({self.n}) "
                f"w={'...' if self.w.coeffs else '0'}>")


def canonical_lift(genus: int) -> LiftClass:
    """The built-in bounding-curve lift: m = t2 - 1, n = 0, w = 0."""
    ring = surface_ring(genus)
    m = ring.variable("t2") - ring.one()
    return LiftClass(genus, None, m, ring.zero())


def validate_lift(lift: LiftClass) -> None:
    """Check the self-intersection identity between the m and n families;
    return None, or raise InvalidLift.

    For every shift p the cross-correlations must agree:
    sum_v m[v] n[v+p] = sum_v n[v] m[v+p].  This is what disjointness of
    the curve's lifts imposes on the a1/b1 coefficient families.  Both
    sides are coefficients of one product: with Q = m-bar n, the left
    side is Q[p] and the right side is Q[-p], so the lift is valid
    exactly when Q is fixed by the involution, which is when the
    determinant 1 + Q-bar - Q of the twist's matrix on the handle span,
    over L_g, is 1 (see rep).  A mismatch at p is
    one at -p with sides swapped; the error names the smallest
    representative max(p, -p).
    """
    q = lift.m.involution() * lift.n
    q_bar = q.involution()  # q_bar[p] = q[-p]
    # a mismatch at p or -p leaves a term of q at one of them
    mismatched = [p for p, c in q.terms.items() if q_bar.coeff(p) != c]
    if mismatched:
        p = min(max(e, tuple(-x for x in e)) for e in mismatched)
        raise InvalidLift(lift, p, q.coeff(p), q_bar.coeff(p))


class InvalidLift(ValueError):
    """A lift that fails validate_lift, with the shift that mismatches."""

    def __init__(self, lift: LiftClass, shift: ExponentVector, lhs, rhs):
        super().__init__(_mismatch(shift, lhs, rhs))
        self.lift = lift
        self.shift = shift

    def pushed_forward(self, ks: Iterable[int]) -> list[str]:
        """This error's text for pushforward_b1_twist(lift, k), k in ks.

        With n_k = n + k m, Q_k = Q + k inv(m) m, and inv(m) m is fixed
        by the involution: every pushforward mismatches at the lift's
        own shifts, with both sides moved by k (inv(m) m)[shift].
        """
        m, n = self.lift.m, self.lift.n
        p = self.shift

        def correlation(f: LaurentPoly, g: LaurentPoly) -> int:
            # sum_v f[v] g[v + p], the coefficient of inv(f) g at p
            return sum(c * g.coeff(tuple(a + b for a, b in zip(v, p)))
                       for v, c in f.terms.items())

        lhs, rhs, drift = correlation(m, n), correlation(n, m), correlation(m, m)
        return [_mismatch(p, lhs + k * drift, rhs + k * drift) for k in ks]


def _mismatch(p: ExponentVector, lhs, rhs) -> str:
    return (f"invalid lift: cross-correlation mismatch at shift {p}: "
            f"{lhs} != {rhs}")


def pairing_polynomial(x: CycleClass, lift: LiftClass,
                       eps: EpsilonTable | None = None) -> LaurentPoly:
    """The polynomial P(u) = sum_r (x . u^r C~) u^r.

    Bilinearity reduces the whole family of pairings against deck
    translates to a product: each generator gamma in the support of x
    contributes coeff_gamma(u) * G_gamma(u), where G_gamma collects the
    pairings of gamma itself against all translates of the lift.
    """
    if eps is None:
        eps = EpsilonTable(x.genus)
    if eps.genus != x.genus or lift.genus != x.genus:
        raise ValueError("genus mismatch between class, lift and epsilon table")
    ring = x.ring
    total = ring.zero()
    for gen, coeff in x.coeffs.items():
        if gen.kind == "a1":
            g_poly = lift.n.involution()
        elif gen.kind == "b1":
            g_poly = -lift.m.involution()
        else:
            g_poly = ring.zero()
            for other, w_coeff in lift.w.comm_items():
                kern = pair_kernel(gen.pair, other.pair, eps)
                if kern:
                    g_poly = g_poly + w_coeff.involution() * kern
        total = total + coeff * g_poly
    return total


def twist_apply(lift: LiftClass, x: CycleClass,
                eps: EpsilonTable | None = None,
                inverse: bool = False) -> CycleClass:
    """Push x forward under the simultaneous twist about the lift's curve.

    x |-> x + sum_r (x . u^r C~) u^r [C~]; with inverse=True the pairing
    enters negated, giving the inverse twist.
    """
    validate_lift(lift)
    p = pairing_polynomial(x, lift, eps)
    if inverse:
        p = -p
    return x + lift.as_cycle_class().scaled_by(p)


def pushforward_b1_twist(lift: LiftClass, k: int) -> LiftClass:
    """The lift's class after the k-th power of the twist about b1.

    All lifts of b1 are twisted at once; on homology this is
    a1 |-> a1 + b1 (k times), b1 and the commutator part fixed, so only
    the n family moves: n |-> n + k m.
    """
    return LiftClass(lift.genus, lift.w, lift.m,
                     lift.n + lift.m.scale(_require_int(k, "twist power")))
