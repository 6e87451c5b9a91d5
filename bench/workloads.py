"""The three workloads: seeded inputs, the timed operation, output checks.

Inputs come from ``random.Random(seed)`` and this package's own code;
nothing here imports the repository's tests.  Operations are generated
in fixed blocks: every block has the same mix of input classes, and a
run stops only at a block boundary, so every run measures the same mix
and only the drawn values differ between seeds.

Each workload offers:
  ``ops(seed)``      an endless stream of distinct ``Op``s, block by block;
  ``run(op, timer)`` the operation, its timed span inside ``timer``;
  ``check(op, out)`` None when the output is right, else the reason;
  ``corrupt(op, out)`` a deliberately wrong copy of a real output, for
                     the self-test of ``check``;
  ``SETUP``          the smallest operation, run by a fresh interpreter;
  ``BLOCK``, ``TRACE_OPS``, ``MAX_OPS``  ops per block, ops in a traced
                     pass, and the most ops a timed run may take.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import itertools
import json
import random
import sys
import time
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

import lpoly

DIGESTS = Path(__file__).with_name("digests.json")


@dataclass
class Op:
    cls: str                      # input class, e.g. "small" or "large"
    key: tuple                    # identity, used to keep inputs distinct
    argv: list = field(default_factory=list)
    stdin: str | None = None
    data: dict = field(default_factory=dict)


def _distinct(seen: set, make):
    """Draw from make() until the op's key is new in this run."""
    while True:
        op = make()
        if op.key not in seen:
            seen.add(op.key)
            return op


class Timer:
    """Times its body; a tracer, when given, records spans only inside."""

    def __init__(self, tracer=None):
        self.tracer = tracer
        self.elapsed = 0.0

    def __enter__(self):
        if self.tracer is not None:
            self.tracer.active = True
        self.start = time.perf_counter()

    def __exit__(self, *exc):
        self.elapsed = time.perf_counter() - self.start
        if self.tracer is not None:
            self.tracer.active = False


def _run_cli(op: Op, timer: Timer):
    """Call twistcert.cli.main with stdout captured; time only the call."""
    from twistcert import cli
    buf = io.StringIO()
    old_stdin = sys.stdin
    if op.stdin is not None:
        sys.stdin = io.StringIO(op.stdin)
    try:
        with contextlib.redirect_stdout(buf), \
                contextlib.redirect_stderr(io.StringIO()):
            with timer:
                try:
                    code = cli.main(list(op.argv))
                except SystemExit as exc:  # argparse usage errors
                    code = exc.code
    finally:
        sys.stdin = old_stdin
    return code, buf.getvalue()


# -- certify -------------------------------------------------------------

class Certify:
    """``verify`` through cli.main: many small invocations, some large.

    The cost of ``verify`` is set by kmax (it grows faster than linearly),
    less by the genus, and ``--seed`` doubles it (the certificate is
    built twice).  Every block of 20 holds the same slots: 15 small
    (kmax about 7-23, seven with ``--seed``), one mutated ``--lift`` that
    must exit 1, and 4 large (kmax about 86, 100, 100, 114).  In block b,
    slot i has kmax = its base + OFFSETS[b % 5] and genus
    GENERA[(i + b) % 4]: the parameters that set the cost depend only on
    the block's position, so every run of B blocks measures the same
    costs whatever the seed.  The seed draws what leaves the cost alone:
    the output format, the ``--seed`` value, the mutated lift and the
    order within each block.

    Sorted by cost, a block's 10th and 11th ops (p50) are mid-cost small
    slots (kmax 17 unseeded, 12-14 seeded), and its 18th (the
    nearest-rank p90) one of its two kmax-100 slots, so p50 and p90 fall
    away from the boundary between the small and large classes (at 80%).
    """

    name = "certify"
    BLOCK = 20
    TRACE_OPS = 20
    MAX_OPS = 12 * BLOCK
    # (kmax base, with --seed) of the 15 small slots.  Unseeded bases are
    # 5 apart, so with OFFSETS they never meet, and each kmax is drawn by
    # at most 6 unseeded ops of a run: there are 8 (genus, format) pairs.
    SMALL = ((7, False), (7, False), (12, False), (12, False), (17, False),
             (17, False), (22, False), (22, False),
             (7, True), (10, True), (12, True), (14, True), (17, True),
             (20, True), (23, True))
    LARGE = (86, 100, 100, 114)
    MUTATED_KMAX = 7
    OFFSETS = (0, 1, -1, 2, -2)
    GENERA = (2, 3, 4, 5)
    DIGEST_KMAX = ((5, 25), (80, 120))      # kmax ranges in digests.json
    SETUP = ("from twistcert import cli\n"
             "import contextlib, io\n"
             "with contextlib.redirect_stdout(io.StringIO()):\n"
             "    code = cli.main(['verify', '--genus', '2', '--kmax', '2'])\n"
             "if code != 0:\n"
             "    raise SystemExit(f'verify exited {code}')\n")

    def __init__(self):
        self.digests = json.loads(DIGESTS.read_text())

    def ops(self, seed: int):
        rng = random.Random(seed)
        seen: set = set()
        for b in itertools.count():
            off = self.OFFSETS[b % len(self.OFFSETS)]
            block = []
            for i, (base, seeded) in enumerate(self.SMALL):
                block.append(self._slot(rng, seen, "small", b + i, base + off,
                                        seeded))
            for i, base in enumerate(self.LARGE):
                block.append(self._slot(rng, seen, "large", b + i, base + off,
                                        False))
            block.append(_distinct(seen, lambda: self._mutated(
                rng, self.MUTATED_KMAX + off, self.GENERA[b % 4])))
            rng.shuffle(block)
            yield from block

    def _slot(self, rng, seen, cls, turn, kmax, seeded):
        """The slot's op, its genus GENERA[turn % 4] and a drawn format.

        A repeat of an unseeded input first takes the other format, then
        the next genus; a seeded input draws another --seed value.
        """
        fmts = rng.sample(("json", "text"), 2)
        if seeded:
            return _distinct(seen, lambda: self._verify_op(
                cls, self.GENERA[turn % 4], kmax, fmts[0],
                rng.randrange(10 ** 6)))
        for shift in range(len(self.GENERA)):
            for fmt in fmts:
                op = self._verify_op(cls, self.GENERA[(turn + shift) % 4],
                                     kmax, fmt)
                if op.key not in seen:
                    seen.add(op.key)
                    return op
        raise RuntimeError(f"no distinct {cls} input left at kmax {kmax}")

    @staticmethod
    def _verify_op(cls, genus, kmax, fmt, seed=None):
        argv = ["verify", "--genus", str(genus), "--kmax", str(kmax)]
        if fmt == "json":
            argv += ["--format", "json"]
        if seed is not None:
            argv += ["--seed", str(seed)]
        return Op(cls, tuple(argv), argv,
                  data={"genus": genus, "kmax": kmax, "fmt": fmt,
                        "seed": seed})

    def _mutated(self, rng, kmax, genus):
        """The built-in lift m = t2 - 1 with its scale, power or variable
        changed so that rho(lift) != M_k N M_k^-1 for every k."""
        nvars = 2 * genus - 2
        slot = genus - 1                        # t2 in (s2..sg, t2..tg)
        kind = rng.choice(("scale", "power", "variable"))
        coeff, power = 1, 1
        if kind == "scale":
            coeff = rng.choice((-3, -2, 2, 3))
        elif kind == "power":
            power = rng.choice((-3, -2, 2, 3))
        else:
            slot = rng.choice([j for j in range(nvars) if j != genus - 1])
            power = rng.choice((-1, 1))
        exps = [0] * nvars
        exps[slot] = power
        m = {",".join(map(str, exps)): coeff,
             ",".join(["0"] * nvars): -coeff}
        lift = json.dumps({"genus": genus, "w": [], "m": m, "n": {}},
                          sort_keys=True)
        argv = ["verify", "--genus", str(genus), "--kmax", str(kmax),
                "--lift", "-"]
        return Op("mutated", (tuple(argv), lift), argv, stdin=lift,
                  data={"genus": genus, "kmax": kmax})

    run = staticmethod(_run_cli)

    def check(self, op: Op, out) -> str | None:
        code, text = out
        if op.cls == "mutated":
            if code != 1:
                return f"mutated lift gave exit {code}, expected 1"
            if "verdict: FAIL" not in text.splitlines():
                return "mutated lift did not report verdict FAIL"
            return None
        if code != 0:
            return f"exit code {code}"
        genus, kmax = op.data["genus"], op.data["kmax"]
        digest = self.digests.get(f"{genus},{kmax}")
        if digest is None:
            return f"no recorded digest for genus {genus}, kmax {kmax}"
        pairs = kmax * (kmax - 1) // 2
        if op.data["fmt"] == "json":
            # The structural checks come first, so that the self-test's
            # edited rho entry is caught by them and not only by the digest.
            problem = _check_certificate(json.loads(text), kmax)
            if problem is None and _sha(text) != digest["json"]:
                problem = "certificate JSON differs from the recorded digest"
            return problem
        lines = text.splitlines()
        if op.data["seed"] is not None:
            if lines[-1:] != ["pairing-table recheck: ok"]:
                return "missing 'pairing-table recheck: ok'"
            lines = lines[:-1]
        if lines[-1:] != ["verdict: PASS"]:
            return "verdict is not PASS"
        if f"  pairwise separations: {pairs}/{pairs} distinct" not in lines:
            return f"expected {pairs}/{pairs} distinct separations"
        ok_line = ("conjugation ok, twist consistent, M_k in A\\U, "
                   "N in B\\U, balanced")
        if [l for l in lines if l.startswith("  k=")] != \
                [f"  k={k}: {ok_line}" for k in range(1, kmax + 1)]:
            return "per-k summary lines are not all ok"
        if _sha("\n".join(lines) + "\n") != digest["text"]:
            return "summary text differs from the recorded digest"
        return None

    @staticmethod
    def corrupt(op: Op, out):
        """Edit one rho entry of a JSON certificate."""
        code, text = out
        cert = json.loads(text)
        cert["records"][-1]["rho"]["c"] = "-t^-1 + 2 - t"
        return code, json.dumps(cert, sort_keys=True, indent=2) + "\n"

    def selftest_op(self, rng):
        return self._verify_op("small", 2, rng.randint(5, 9), "json")


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


_B = {(1,): 1, (0,): -2, (-1,): 1}           # b = t - 2 + t^-1


def _check_certificate(cert: dict, kmax: int) -> str | None:
    """Verdict, closed-form rho for each k, and K(K-1)/2 separations."""
    if cert.get("verdict") is not True or cert.get("kmax") != kmax:
        return "certificate verdict is not true"
    if [r.get("k") for r in cert["records"]] != list(range(1, kmax + 1)):
        return "records do not cover k = 1..kmax"
    one = lpoly.const(1)
    for record in cert["records"]:
        k = record["k"]
        kb = lpoly.mul(lpoly.const(k), _B)
        want = {"a": lpoly.add(one, kb, -1), "b": _B,
                "c": lpoly.mul(lpoly.const(-k * k), _B),
                "d": lpoly.add(one, kb)}
        for entry, poly in want.items():
            try:
                got = lpoly.parse(record["rho"][entry])
            except ValueError as exc:
                return f"k={k}: rho entry {entry}: {exc}"
            if got != poly:
                return (f"k={k}: rho entry {entry} is {record['rho'][entry]}, "
                        f"expected {lpoly.to_text(poly)}")
    pairwise = cert["pairwise"]
    expected = {(k, l) for k in range(1, kmax + 1)
                for l in range(k + 1, kmax + 1)}
    if len(pairwise) != len(expected) or \
            {(p["k"], p["l"]) for p in pairwise} != expected:
        return f"expected {len(expected)} pairwise records"
    if not all(p["distinct"] is True for p in pairwise):
        return "a pairwise record is not distinct"
    return None


# -- normal_form -----------------------------------------------------------

_VALUES = tuple(s * Fraction(n, d) for s in (1, -1)
                for n, d in ((1, 1), (2, 1), (3, 1), (1, 2), (3, 2)))


def _q_poly(rng, exps) -> dict:
    """A Q polynomial in t with a drawn nonzero coefficient at each of
    the given exponents: its support, and so its cost, is fixed."""
    return {(e,): (int(c) if c.denominator == 1 else c)
            for e, c in ((e, rng.choice(_VALUES)) for e in exps)}


def _side_factor(rng, side: str, form: str) -> tuple:
    """An element of A (resp. B) outside U = A cap B.

    For A: a lower elementary matrix whose entry c has degree 2 and a
    nonzero constant term (so t does not divide c); form "l" multiplies
    it by an upper one on the right, form "u" on the left, form "e"
    leaves it alone.  For B: the same with upper and lower swapped,
    mapped into B by (a, b, c, d) -> (a, b/t, t c, d).
    """
    one, zero = lpoly.const(1), {}
    main, extra = _q_poly(rng, (0, 1, 2)), _q_poly(rng, (1, 2))
    lower = (one, zero, main if side == "A" else extra, one)
    upper = (one, extra if side == "A" else main, zero, one)
    if form == "e":
        mat = lower if side == "A" else upper
    else:
        mat = lpoly.matmul(lower, upper) if form == "l" \
            else lpoly.matmul(upper, lower)
    if side == "B":
        a, b, c, d = mat
        mat = (a, lpoly.mul(b, lpoly.mono((-1,))),
               lpoly.mul(c, lpoly.mono((1,))), d)
    return mat


def _matrix_text(mat: tuple) -> str:
    a, b, c, d = (lpoly.to_text(x) for x in mat)
    return f"[[{a}, {b}], [{c}, {d}]]"


def _parse_matrix(text: str) -> tuple:
    text = text.strip()
    if not (text.startswith("[[") and text.endswith("]]")):
        raise ValueError(f"not a matrix: {text!r}")
    rows = text[2:-2].split("], [")
    cells = [cell for row in rows for cell in row.split(", ")]
    if len(rows) != 2 or len(cells) != 4:
        raise ValueError(f"not a 2x2 matrix: {text!r}")
    return tuple(lpoly.parse(cell) for cell in cells)


def _side_ok(side: str, mat: tuple) -> bool:
    """A: no negative exponent; B: a, d polynomial, b >= t^-1, t | c."""
    low = [min((e[0] for e in x), default=10 ** 9) for x in mat]
    if side == "A":
        return min(low) >= 0
    return low[0] >= 0 and low[1] >= -1 and low[2] >= 1 and low[3] >= 0


class NormalForm:
    """``normal-form`` and ``tree translation`` through cli.main.

    The input is a reduced alternating word of 1-6 factors in A and B,
    each outside U, multiplied out.  Its cost is set by the factor
    count, each factor's form and the supports of its entries, so a
    block (MIX) fixes all of these per slot, and the seed draws only the
    nonzero rational coefficients and the order of the block: every run
    of B blocks holds the same shapes.  Cost grows steeply with the
    factor count; a block holds six 4-factor words and two or three of
    each other count, so p50 falls inside the 4-factor group and p90
    among the 5- and 6-factor words, away from class boundaries.  Each
    kind (normal-form as text, as JSON, tree translation) is a third of
    it.
    """

    name = "normal_form"
    # (kind, first side, factor forms): see _side_factor for the forms.
    MIX = (("text", "A", "e"), ("translation", "B", "l"),
           ("json", "A", "ee"), ("translation", "B", "ee"),
           ("text", "A", "eue"), ("json", "B", "eee"),
           ("text", "A", "eeee"), ("text", "B", "eeee"),
           ("json", "A", "eeee"), ("json", "B", "eeee"),
           ("translation", "A", "eeee"), ("translation", "B", "eeee"),
           ("text", "A", "eeeee"), ("json", "B", "eeeee"),
           ("translation", "A", "eelee"),
           ("text", "B", "eeeeee"), ("json", "A", "eeeeee"),
           ("translation", "B", "eeueee"))
    BLOCK = len(MIX)
    TRACE_OPS = len(MIX)
    MAX_OPS = 2000
    SETUP = ("from twistcert import cli\n"
             "import contextlib, io\n"
             "with contextlib.redirect_stdout(io.StringIO()):\n"
             "    code = cli.main(['normal-form', '[[1, 0], [0, 1]]'])\n"
             "if code != 0:\n"
             "    raise SystemExit(f'normal-form exited {code}')\n")

    def ops(self, seed: int):
        rng = random.Random(seed)
        seen: set = set()
        while True:
            block = [_distinct(seen, lambda: self._op(rng, *mix))
                     for mix in self.MIX]
            rng.shuffle(block)
            yield from block

    def _op(self, rng, kind: str, side: str, forms: str) -> Op:
        word = (lpoly.const(1), {}, {}, lpoly.const(1))
        for form in forms:
            word = lpoly.matmul(word, _side_factor(rng, side, form))
            side = "B" if side == "A" else "A"
        # The matrix goes through stdin ("-"), a documented input channel:
        # a literal argument longer than the file-name limit (255 bytes)
        # makes the CLI's Path(source).is_file() raise OSError.
        literal = _matrix_text(word)
        if kind == "translation":
            argv = ["tree", "translation", "-", "--ball-radius", "8"]
        else:
            argv = ["normal-form", "-"]
            if kind == "json":
                argv += ["--format", "json"]
        return Op(kind, (tuple(argv), literal), argv, stdin=literal,
                  data={"word": word, "factors": len(forms)})

    run = staticmethod(_run_cli)

    def check(self, op: Op, out) -> str | None:
        code, text = out
        if code != 0:
            return f"exit code {code}"
        word = op.data["word"]
        if op.cls == "translation":
            return _check_translation(word, text)
        try:
            if op.cls == "json":
                letters = [(l["side"], tuple(lpoly.parse(l["matrix"][k])
                                             for k in "abcd"))
                           for l in json.loads(text)]
            else:
                lines = text.splitlines()
                if lines[-1] != f"letters: {len(lines) - 1}":
                    return "missing letter count"
                letters = []
                for line in lines[:-1]:
                    if line[:4] not in ("(A) ", "(B) "):
                        return f"bad letter line {line!r}"
                    letters.append((line[1], _parse_matrix(line[4:])))
        except (ValueError, KeyError, TypeError) as exc:
            return f"unreadable output: {exc}"
        return _check_letters(word, op.data["factors"], letters)

    @staticmethod
    def corrupt(op: Op, out):
        """Add 1 to the b entry of the first letter."""
        code, text = out
        letters = json.loads(text)
        b = lpoly.parse(letters[0]["matrix"]["b"])
        letters[0]["matrix"]["b"] = lpoly.to_text(
            lpoly.add(b, lpoly.const(1)))
        return code, json.dumps(letters, indent=2, sort_keys=True) + "\n"

    def selftest_op(self, rng):
        return self._op(rng, "json", "A", "eee")


def _check_letters(word: tuple, nfactors: int, letters: list) -> str | None:
    one = lpoly.const(1)
    product = (one, {}, {}, one)
    for i, (side, mat) in enumerate(letters):
        if i and side == letters[i - 1][0]:
            return f"letters {i} and {i + 1} are both on side {side}"
        if not _side_ok(side, mat):
            return f"letter {i + 1} is not in side {side}"
        a, b, c, d = mat
        if lpoly.add(lpoly.mul(a, d), lpoly.mul(b, c), -1) != one:
            return f"letter {i + 1} does not have determinant one"
        product = lpoly.matmul(product, mat)
    if product != word:
        return "the product of the letters is not the input matrix"
    if len(letters) != nfactors:
        return (f"{len(letters)} letters for a reduced word of "
                f"{nfactors} factors")
    return None


def _check_translation(word: tuple, text: str) -> str | None:
    """ell(g) = max(0, -2 v0(tr g)) for g in SL2 over a valued field."""
    trace = lpoly.add(word[0], word[3])
    expected = max(0, -2 * lpoly.valuation(trace)) if trace else 0
    first = text.splitlines()[0] if text else ""
    prefix = "translation length: "
    if not first.startswith(prefix):
        return f"bad output {first!r}"
    value, _, flavor = first[len(prefix):].partition(" ")
    if flavor == "(exact)":
        if int(value) != expected:
            return f"translation length {value}, expected {expected}"
    elif flavor != "(upper bound)" or int(value) < expected:
        return f"bad bound {first!r}, true length {expected}"
    return None


# -- commutator_twists -------------------------------------------------------

def _comm_pairs(genus: int) -> list:
    n = 2 * genus - 2
    skip = (genus - 1, n)
    return [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)
            if (i, j) != skip]


def _zero_sum_family(rng, nvars: int) -> dict:
    """Two +c/-c pairs of monomials: four distinct terms, none constant."""
    while True:
        f: dict = {}
        for _ in range(2):
            c = rng.randint(1, 3)
            for sign in (1, -1):
                e = tuple(rng.randint(-1, 1) for _ in range(nvars))
                f = lpoly.add(f, {e: sign * c})
        if len(f) == 4 and (0,) * nvars not in f:
            return f


def _symmetric(rng, nvars: int) -> dict:
    """c0 + c (x^e + x^-e) with e != 0: three terms."""
    while True:
        e = tuple(rng.randint(-1, 1) for _ in range(nvars))
        if any(e):
            break
    c = rng.choice((-2, -1, 1, 2))
    return lpoly.add(lpoly.const(rng.choice((-2, -1, 1, 2)), nvars),
                     lpoly.add({e: c}, lpoly.involution({e: c})))


def _pairing_table(rng, genus: int, density: float = 0.7):
    """Random skew signs on a fixed share of the pairs of commutator
    classes, keyed canonically as EpsilonTable stores them."""
    pairs = _comm_pairs(genus)
    slots = set()
    for a, p in enumerate(pairs):
        for q in pairs[a + 1:]:
            shared = set(p) & set(q)
            if not shared:
                slots.add((0, (p, q)))
            elif len(shared) == 1:
                s = shared.pop()
                x = p[0] if p[1] == s else p[1]
                y = q[0] if q[1] == s else q[1]
                slots.add((1, (s, min(x, y), max(x, y))))
    disjoint, parallel = {}, {}
    slots = sorted(slots)
    for kind, key in rng.sample(slots, round(density * len(slots))):
        (parallel if kind else disjoint)[key] = rng.choice((-1, 1))
    return disjoint, parallel


class CommutatorTwists:
    """Library calls: the w-triviality check (criterion 4) on one lift.

    A lift is valid by construction: style 0 has a zero-sum m and n = 0,
    style 1 has m = 0, style 2 has n = q m with q fixed by the
    involution.  The term counts (four in a zero-sum family, three in q)
    and the number of signed pairs in the pairing table are fixed, so a
    slot's cost varies only with the drawn exponents, coefficients and
    signs.  Each block runs every entry of MIX once: four cheap ops
    without commutator terms, six mid-cost genus-3 ops with one term,
    and four heavy ones, so that p50 falls inside the mid class and p90
    inside the heavy class, away from class boundaries.  At genus 4 the
    style-2 lift with a commutator term is left out: one such op costs
    about 1.6 s, ten times the block's mean.
    """

    name = "commutator_twists"
    # (genus, lift style, commutator terms in w)
    MIX = ((4, 0, 0), (4, 1, 0), (4, 2, 0), (3, 2, 0),
           (3, 0, 1), (3, 0, 1), (3, 0, 1), (3, 1, 1), (3, 1, 1), (3, 1, 1),
           (3, 2, 1), (3, 2, 2), (4, 0, 1), (4, 1, 1))
    BLOCK = len(MIX)
    TRACE_OPS = len(MIX)
    MAX_OPS = 2000
    SETUP = ("from twistcert import (CycleClass, Generator, canonical_lift,\n"
             "    specialize_phi, twist_apply)\n"
             "x = CycleClass.basis(3, Generator.comm(1, 2))\n"
             "c = twist_apply(canonical_lift(3), x) - x\n"
             "if specialize_phi(c.a1_coeff()):\n"
             "    raise SystemExit('correction survives Phi')\n")

    def ops(self, seed: int):
        rng = random.Random(seed)
        seen: set = set()
        while True:
            block = [_distinct(seen, lambda: self._op(rng, *mix))
                     for mix in self.MIX]
            rng.shuffle(block)
            yield from block

    def _op(self, rng, genus: int, style: int, w_support: int) -> Op:
        nvars = 2 * genus - 2
        m = n = {}
        if style != 1:
            m = _zero_sum_family(rng, nvars)
        if style == 1:
            n = _zero_sum_family(rng, nvars)
        if style == 2:
            n = lpoly.mul(_symmetric(rng, nvars), m)
        w = {}
        for pair in rng.sample(_comm_pairs(genus), w_support):
            w[pair] = lpoly.mono((rng.randint(-1, 1) for _ in range(nvars)),
                                 rng.choice((-2, -1, 1, 2)))
        disjoint, parallel = _pairing_table(rng, genus)
        key = (genus, *(tuple(sorted(f.items())) for f in (m, n)),
               tuple(sorted((p, tuple(sorted(f.items())))
                            for p, f in w.items())),
               tuple(sorted(disjoint.items())), tuple(sorted(parallel.items())))
        return Op(f"style{style}", key, data={
            "genus": genus, "m": m, "n": n, "w": w,
            "disjoint": disjoint, "parallel": parallel})

    @staticmethod
    def prepare(op: Op):
        """Build the program's objects for an op, outside the timed span."""
        from twistcert import (CycleClass, EpsilonTable, Generator,
                               LaurentPoly, LiftClass, surface_ring)
        d = op.data
        genus = d["genus"]
        ring = surface_ring(genus)
        w = CycleClass(genus, {Generator.comm(*p): LaurentPoly(ring, f)
                               for p, f in d["w"].items()})
        lift = LiftClass(genus, w, d["m"], d["n"])
        eps = EpsilonTable(genus, d["disjoint"], d["parallel"])
        basis = [CycleClass.basis(genus, Generator.comm(*p))
                 for p in _comm_pairs(genus)]
        return lift, eps, basis

    @classmethod
    def run(cls, op: Op, timer: Timer):
        from twistcert import specialize_phi, specialize_single, twist_apply
        lift, eps, basis = cls.prepare(op)
        nvars = 2 * op.data["genus"] - 2
        vanish = True
        corrections = []
        with timer:
            for x in basis:
                correction = twist_apply(lift, x, eps) - x
                coeffs = [correction.a1_coeff(), correction.b1_coeff()]
                coeffs.extend(c for _, c in correction.comm_items())
                for coeff in coeffs:
                    if specialize_phi(coeff):
                        vanish = False
                    for keep in range(1, nvars + 1):
                        if specialize_single(coeff, keep):
                            vanish = False
                corrections.append(coeffs)
        terms = [[dict(c.terms) for c in coeffs] for coeffs in corrections]
        return vanish, terms

    @staticmethod
    def check(op: Op, out) -> str | None:
        vanish, corrections = out
        if not vanish:
            return "the program reports a correction that does not vanish"
        nvars = 2 * op.data["genus"] - 2
        for i, coeffs in enumerate(corrections):
            for f in coeffs:
                if sum(f.values()) != 0:
                    return f"basis class {i}: correction is nonzero at 1"
                for j in range(nvars):
                    sums: dict = {}
                    for e, c in f.items():
                        sums[e[j]] = sums.get(e[j], 0) + c
                    if any(sums.values()):
                        return (f"basis class {i}: correction survives "
                                f"keeping variable {j + 1}")
        return None

    @staticmethod
    def corrupt(op: Op, out):
        """Add the constant 1 to the first correction coefficient."""
        vanish, corrections = out
        nvars = 2 * op.data["genus"] - 2
        first = lpoly.add(corrections[0][0] if corrections[0] else {},
                          lpoly.const(1, nvars))
        return vanish, [[first] + corrections[0][1:]] + corrections[1:]

    def selftest_op(self, rng):
        return self._op(rng, 3, 2, 1)


WORKLOADS = {w.name: w for w in (Certify, NormalForm, CommutatorTwists)}
