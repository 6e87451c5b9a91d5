import hashlib
import json
import random
import subprocess
import sys
import time
from fractions import Fraction
from functools import cache
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    _random_q_polynomial,
    first_step,
    lift_error,
    random_poly,
    random_a_element,
    random_b_element,
    random_epsilon,
    random_laurent_sl2,
    random_u_element,
    random_valid_lift,
)
from twistcert import amalgam, cli, homology, laurent, rep, tree
from twistcert.amalgam import (
    AmalgamLetter,
    Certificate,
    amalgam_normal_form,
    build_certificate,
    double_cosets_distinct,
    h_cap_a_forces_identity,
    in_A,
    in_B,
    in_U,
)
from twistcert.homology import LiftClass, canonical_lift
from twistcert.laurent import (
    LaurentPoly,
    parse_poly,
    single_variable_ring,
    specialize_phi,
    surface_ring,
)
from twistcert.rep import Matrix2, h_form, matrix_Mk, matrix_N, multiply, rho
from twistcert.tree import act, base_vertex, distance, odd_base_vertex

QT = single_variable_ring("t", "Q")
ZT = single_variable_ring("t", "Z")


def _mat(rows):
    return Matrix2.from_rows(QT, rows)


# -- membership tests ------------------------------------------------------


def test_twist_powers_sit_on_the_even_side():
    for k in (1, 2, 7, 20):
        mk = matrix_Mk(k)
        assert in_A(mk)
        assert not in_B(mk)
        assert not in_U(mk)


def test_conjugated_parabolic_sits_on_the_odd_side():
    n = matrix_N()
    assert in_B(n)
    assert not in_A(n)
    assert not in_U(n)


def test_identity_lies_in_the_edge_subgroup():
    assert in_U(Matrix2.identity(ZT))
    assert in_U(_mat([[1, 0], ["t", 1]]))
    assert not in_U(_mat([[1, 0], [1, 1]]))


def test_membership_requires_determinant_one():
    for fn in (in_A, in_B, in_U):
        with pytest.raises(ValueError):
            fn(_mat([["t", 0], [0, 1]]))


def test_membership_rejects_multivariate_matrices():
    ring = surface_ring(2)
    with pytest.raises(ValueError):
        in_A(Matrix2.identity(ring))


def test_edge_subgroup_is_the_intersection():
    rng = random.Random(31)
    for _ in range(25):
        g = random_laurent_sl2(rng)
        entries = g.entries()
        poly = all(e.is_polynomial() for e in entries)
        c_div = not entries[2] or entries[2].valuation() >= 1
        assert in_A(g) == poly
        assert in_U(g) == (poly and c_div)
        assert in_U(g) == (in_A(g) and in_B(g))


def test_random_factor_products_land_where_built():
    rng = random.Random(33)
    for _ in range(15):
        assert in_A(random_a_element(rng))
        assert in_B(random_b_element(rng))
        assert in_U(random_u_element(rng))


def test_sign_membership_agrees_with_public_checks():
    rng = random.Random(35)
    for _ in range(30):
        for g in (random_a_element(rng), random_b_element(rng),
                  random_u_element(rng), random_laurent_sl2(rng)):
            assert amalgam._sides(g) == (in_A(g), in_B(g))


# -- letters ---------------------------------------------------------------


def test_letters_validate_their_side():
    AmalgamLetter("A", matrix_Mk(2))
    AmalgamLetter("B", matrix_N())
    with pytest.raises(ValueError):
        AmalgamLetter("C", matrix_Mk(2))
    with pytest.raises(ValueError):
        AmalgamLetter("A", matrix_N())
    assert not in_U(AmalgamLetter("A", matrix_Mk(2)).matrix)
    assert in_U(AmalgamLetter("A", Matrix2.identity(ZT)).matrix)


# -- the identity-forcing argument ------------------------------------------


def test_identity_forcing_accepts_the_identity():
    status, steps = h_cap_a_forces_identity(Matrix2.identity(ZT))
    assert status == "ok"
    assert steps[-1] == "M = I"


def test_identity_forcing_accepts_trivial_representation_values():
    zero = surface_ring(2).zero()
    image = rho(LiftClass(2, None, zero, zero))
    assert image == Matrix2.identity(image.ring)
    assert h_cap_a_forces_identity(image)[0] == "ok"


def test_identity_forcing_rejects_nonpolynomial_entries():
    assert h_cap_a_forces_identity(matrix_N()) == (
        "precondition_failed", ("entry b = t^-1 - 2 + t is not a polynomial",))


def test_identity_forcing_rejects_unbalanced_entries():
    assert h_cap_a_forces_identity(matrix_Mk(3)) == (
        "precondition_failed", ("c = 3 is not balanced",))


def test_identity_forcing_rejects_singular_matrices():
    status, _ = h_cap_a_forces_identity(_mat([["t", 0], [0, 1]]))
    assert status == "precondition_failed"


# -- double cosets -----------------------------------------------------------


@cache
def _pair_oracle(k: int, l: int) -> dict:
    """The pairwise record of powers k and l, read from the product
    M_l^-1 M_k: the cosets are distinct when it lies outside U, and the
    witness writes it out with its lower-left entry at t = 0."""
    product = matrix_Mk(l).inverse() @ matrix_Mk(k)
    witness = "k = l, the cosets coincide" if k == l else (
        f"equality would put M_{l}^-1 M_{k} = {product} in U, but its "
        f"lower-left entry is {product.c.coeff((0,))} at t = 0, not "
        "divisible by t")
    return {"k": k, "l": l, "distinct": not in_U(product), "witness": witness}


def test_double_coset_frozen_witnesses():
    assert double_cosets_distinct(2, 3) == {
        "k": 2, "l": 3, "distinct": True,
        "witness": "equality would put M_3^-1 M_2 = [[1, 0], [-1, 1]] in U, "
                   "but its lower-left entry is -1 at t = 0, not divisible "
                   "by t"}
    assert double_cosets_distinct(5, 5) == {
        "k": 5, "l": 5, "distinct": False,
        "witness": "k = l, the cosets coincide"}
    far = double_cosets_distinct(1, 20)
    assert far["distinct"] is True
    assert "M_20^-1 M_1 = [[1, 0], [-19, 1]] in U" in far["witness"]


def test_double_cosets_separate_all_small_pairs():
    for k in range(1, 9):
        for l in range(1, 9):
            assert double_cosets_distinct(k, l)["distinct"] is (k != l)


def test_double_coset_connecting_matrix_is_the_product():
    for k in range(1, 13):
        for l in range(1, 13):
            product = matrix_Mk(l).inverse() @ matrix_Mk(k)
            assert product == matrix_Mk(k - l)
            assert double_cosets_distinct(k, l) == _pair_oracle(k, l)


def test_witness_writes_the_connecting_matrix():
    for d in [*range(-50, 0), *range(1, 51)]:
        k, l = (d + 1, 1) if d > 0 else (1, 1 - d)
        written = f"M_{l}^-1 M_{k} = {matrix_Mk(d)} in U"
        assert written in amalgam._witness(k, l)
        assert written in double_cosets_distinct(k, l)["witness"]


def test_double_coset_json_shape():
    data = double_cosets_distinct(2, 3)
    assert set(data) == {"k", "l", "distinct", "witness"}
    assert data["k"] == 2 and data["l"] == 3 and data["distinct"] is True


def test_double_cosets_need_positive_powers():
    with pytest.raises(ValueError):
        double_cosets_distinct(0, 1)
    with pytest.raises(ValueError):
        double_cosets_distinct(2, -1)


# -- normal forms -------------------------------------------------------------


def _check_normal_form(mat):
    letters = amalgam_normal_form(mat)
    assert multiply([letter.matrix for letter in letters]) == \
        Matrix2(*(e.as_domain("Q") for e in mat.entries()))
    for first, second in zip(letters, letters[1:]):
        assert first.side != second.side
    for letter in letters[1:]:
        # membership in U from exponent signs, with no determinant check
        assert not all(amalgam._sides(letter.matrix))
    return letters


def test_normal_form_of_single_letters():
    letters = amalgam_normal_form(Matrix2.identity(ZT))
    assert [l.side for l in letters] == ["A"]
    assert letters[0].matrix == Matrix2.identity(QT)
    letters = amalgam_normal_form(matrix_N())
    assert [l.side for l in letters] == ["B"]
    for k in (1, 2, 6):
        letters = amalgam_normal_form(matrix_Mk(k))
        assert [l.side for l in letters] == ["A"]


def test_normal_form_frozen_words():
    n, m1, m3 = matrix_N(), matrix_Mk(1), matrix_Mk(3)
    letters = _check_normal_form(n @ m1 @ n)
    assert [l.side for l in letters] == ["B", "A", "B"]
    letters = _check_normal_form(m3 @ n)
    assert [l.side for l in letters] == ["A", "B"]
    letters = _check_normal_form(m3 @ n @ m3.inverse())
    assert [l.side for l in letters] == ["A", "B", "A"]


def test_normal_form_length_matches_tree_displacement():
    rng = random.Random(41)
    v0, v1 = base_vertex(), odd_base_vertex()
    for _ in range(20):
        factors = [random_a_element(rng) if rng.random() < 0.5
                   else random_b_element(rng)
                   for _ in range(rng.randint(1, 6))]
        g = multiply(factors)
        letters = _check_normal_form(g)
        edge_moves = max(distance(v0, act(g, v0)), distance(v1, act(g, v1)))
        assert len(letters) <= distance(v0, act(g, v0)) + 1
        assert len(letters) >= max(1, edge_moves - 1)


def _two_action_normal_form(mat):
    """Reference walk: act on both ends of the fundamental edge and step
    from the nearer end toward the nearer image, by distances."""
    rest = tree.as_sl2(mat)
    v0, v1 = base_vertex(), odd_base_vertex()
    t = QT.variable(0)
    letters = []
    while not any(amalgam._sides(rest)):
        p, q = tree.act(rest, v0), tree.act(rest, v1)
        near_v0 = min(distance(v0, p), distance(v0, q))
        near_v1 = min(distance(v1, p), distance(v1, q))
        if near_v0 < near_v1:
            target = p if distance(v0, p) < distance(v0, q) else q
            c = first_step(v0, target).r.coeff((0,))
            letter, side = _mat([[c, -1], [1, 0]]), "A"
        else:
            target = p if distance(v1, p) < distance(v1, q) else q
            step = first_step(v1, target)
            if step.a == -2:
                letter = Matrix2(QT.zero(), -t.unit_inverse(), t, QT.zero())
            else:
                c = step.r.coeff((-1,))
                letter = Matrix2(QT.one(), QT.monomial((-1,), c),
                                 QT.zero(), QT.one())
            side = "B"
        letters.append((side, letter))
        rest = letter.inverse() @ rest
    return _closed_word(letters, rest)


def _closed_word(letters, rest):
    """The walked letters with the remainder appended, or merged into
    the last letter when it lies in U."""
    rest_in_a, rest_in_b = amalgam._sides(rest)
    if not letters:
        return [AmalgamLetter("A" if rest_in_a else "B", rest)]
    if rest_in_a and rest_in_b:
        last_side, last = letters.pop()
        letters.append((last_side, last @ rest))
    else:
        letters.append(("A" if rest_in_a else "B", rest))
    return [AmalgamLetter(side, matrix) for side, matrix in letters]


def _one_action_normal_form(mat):
    """Reference walk: act on v0 only, and step toward the image from
    v0, or from v1 when that first step is v1, with no distances."""
    rest = tree.as_sl2(mat)
    v0, v1 = base_vertex(), odd_base_vertex()
    t = QT.variable(0)
    letters = []
    while not any(amalgam._sides(rest)):
        p = tree.act(rest, v0)
        step = first_step(v0, p)
        if step != v1:
            letter, side = _mat([[step.r.coeff((0,)), -1], [1, 0]]), "A"
        else:
            step = first_step(v1, p)
            if step.a == -2:
                letter = Matrix2(QT.zero(), -t.unit_inverse(), t, QT.zero())
            else:
                c = step.r.coeff((-1,))
                letter = Matrix2(QT.one(), QT.monomial((-1,), c),
                                 QT.zero(), QT.one())
            side = "B"
        letters.append((side, letter))
        rest = letter.inverse() @ rest
    return _closed_word(letters, rest)


def _random_factor(rng, side):
    """An elementary, diagonal or Weyl factor of A, or its B conjugate.

    The "moving" elementary factor (lower in A, upper in B) gets a
    nonzero constant term, which usually keeps it off U; the "fixed"
    one and the diagonal lie in U and merge into their neighbours.
    """
    unit = Fraction(rng.choice((-3, -2, -1, 1, 2, 3)), rng.randint(1, 2))
    f = _random_q_polynomial(rng) + QT.constant(unit)
    kind = rng.choices(("moving", "fixed", "diagonal", "weyl"),
                       weights=(4, 1, 1, 2))[0]
    if kind == "diagonal":
        a_side = _mat([[unit, 0], [0, 1 / unit]])
    elif kind == "weyl":
        a_side = _mat([[0, -1], [1, 0]])
    elif (kind == "moving") == (side == "A"):
        a_side = _mat([[1, 0], [f, 1]])
    else:
        a_side = _mat([[1, f], [0, 1]])
    if side == "A":
        return a_side
    t = QT.variable(0)
    return Matrix2(a_side.a, t.unit_inverse() * a_side.b, t * a_side.c,
                   a_side.d)


def test_normal_form_matches_the_two_action_walk():
    rng = random.Random(47)
    lengths = set()
    for _ in range(300):
        # mostly alternating sides, so that few factors merge
        sides = [rng.choice("AB")]
        for _ in range(rng.randint(0, 7)):
            sides.append(sides[-1] if rng.random() < 0.2
                         else "AB"[sides[-1] == "A"])
        word = multiply([_random_factor(rng, side) for side in sides])
        letters = _check_normal_form(word)
        assert [str(l) for l in letters] == \
            [str(l) for l in _two_action_normal_form(word)]
        lengths.add(len(letters))
    assert max(lengths) >= 6


def test_normal_form_matches_the_one_action_walk():
    # the letters read from the remainder's pivot column are those of the
    # walk that acts on v0 and takes first steps on the tree, on words of
    # up to ten factors with rational, multi-term entries
    rng = random.Random(53)
    lengths = []
    for _ in range(1000):
        sides = [rng.choice("AB")]
        for _ in range(rng.randint(0, 9)):
            sides.append(sides[-1] if rng.random() < 0.2
                         else "AB"[sides[-1] == "A"])
        word = multiply([_random_factor(rng, side) for side in sides])
        letters = amalgam_normal_form(word)
        assert [str(l) for l in letters] == \
            [str(l) for l in _one_action_normal_form(word)]
        lengths.append(len(letters))
    assert max(lengths) >= 8 and sum(lengths) >= 3000


def test_normal_form_rejects_a_wrong_product(monkeypatch):
    word = matrix_Mk(3) @ matrix_N()
    monkeypatch.setattr(amalgam, "multiply",
                        lambda mats: Matrix2.identity(QT))
    with pytest.raises(RuntimeError, match="normal form check failed"):
        amalgam_normal_form(word)


def test_normal_form_requires_unimodular_input():
    with pytest.raises(ValueError):
        amalgam_normal_form(_mat([["t", 0], [0, 1]]))


def test_normal_form_checks_the_determinant_once_per_letter(monkeypatch):
    # the loop reads letters from the already checked remainder; only the
    # entry check and one check per AmalgamLetter remain
    calls = []
    checked = tree.as_sl2

    def counting(mat):
        calls.append(mat)
        return checked(mat)

    monkeypatch.setattr(tree, "as_sl2", counting)
    monkeypatch.setattr(amalgam, "as_sl2", counting)
    # and it reads them from valuations: no tree action, no series
    walked = []
    for name in ("act", "_series_quotient"):
        monkeypatch.setattr(tree, name,
                            lambda *args, name=name: walked.append(name))
    n = matrix_N()
    word = matrix_Mk(1) @ n @ matrix_Mk(2) @ n @ matrix_Mk(-3) @ n
    letters = _check_normal_form(word)
    assert [l.side for l in letters] == ["A", "B"] * 3
    assert len(calls) <= 1 + len(letters)
    assert walked == []
    monkeypatch.undo()
    with pytest.raises(ValueError, match="determinant"):
        act(_mat([["t", 0], [0, 1]]), base_vertex())



def test_no_letter_after_the_first_lies_in_U():
    # a remainder in U after a letter would have to merge into that
    # letter; the tree argument rules it out, here on words that end in
    # or start with U, where a merge would show first
    rng = random.Random(83)
    shapes = ("ABU", "UBAU", "BABU", "UAB", "BU", "AU")
    make = {"A": random_a_element, "B": random_b_element,
            "U": random_u_element}
    for i in range(240):
        if i % 4 == 3:
            word = random_laurent_sl2(rng, factors=6)
        else:
            word = multiply([make[c](rng) for c in rng.choice(shapes)])
        letters = amalgam_normal_form(word)
        assert multiply([l.matrix for l in letters]) == word
        assert not any(in_U(l.matrix) for l in letters[1:])
        assert all(l.side != m.side for l, m in zip(letters, letters[1:]))


@pytest.mark.parametrize("s, lead, side", [
    (0, Fraction(3, 2), "A"), (0, Fraction(-1), "A"), (2, Fraction(5), "A"),
    (-1, Fraction(-2, 3), "B"), (-1, Fraction(1), "B"),
    (-2, 0, "B"), (-5, 0, "B"),
])
def test_peeling_is_the_inverse_letter_times_the_remainder(s, lead, side):
    # the row operation that replaces letter^-1 @ rest, on remainders
    # that need not lie anywhere near the letter: it is an identity
    rng = random.Random(59 + s)
    for _ in range(12):
        rest = random_laurent_sl2(rng, factors=4)
        got_side, letter, peeled = amalgam._peel(rest, s, lead)
        assert got_side == side
        assert AmalgamLetter(side, letter).matrix == letter
        assert peeled == letter.inverse() @ rest
        assert peeled.ring is QT


_LIMIT = laurent._COEFF_LIMIT
# letter coefficients under and past the 4,300 digits Python prints, above
# and below the fraction bar, and of half as many digits, whose products
# in the multiplied-out word are past it while every letter prints
_LETTER_COEFFS = (1, -2, Fraction(3, 2), 10 ** 2200 + 1,
                  Fraction(-1, 10 ** 2200 + 3), _LIMIT - 1, _LIMIT,
                  Fraction(-_LIMIT, 7), Fraction(2, _LIMIT + 1),
                  Fraction(_LIMIT - 1, _LIMIT - 2))


def _letter(side: str, c) -> Matrix2:
    """[[c, -1], [1, 0]] in A, [[1, c t^-1], [0, 1]] in B."""
    entries = ([c, -1], [1, 0]) if side == "A" else \
        ([1, QT.monomial((-1,), c)], [0, 1])
    return Matrix2.from_rows(QT, entries)


@settings(max_examples=80, deadline=None)
@given(st.sampled_from("AB"),
       st.lists(st.sampled_from(_LETTER_COEFFS), min_size=1, max_size=4))
def test_normal_form_refuses_exactly_the_words_it_cannot_print(side, coeffs):
    word = multiply([_letter("AB"[("AB".index(side) + i) % 2], c)
                     for i, c in enumerate(coeffs)])
    # the normal form as it was before letters were checked: it fails,
    # if at all, only when a letter is printed
    with mock.patch.object(amalgam, "_check_printable", lambda *args: None):
        unchecked = amalgam_normal_form(word)
    try:
        text = [str(letter) for letter in unchecked]
    except ValueError as exc:
        assert "Exceeds the limit (4300 digits)" in str(exc)
        with pytest.raises(ValueError, match=(
                r"^normal form letter \d+: entry [abcd] has a coefficient of "
                r"more than 4300 digits, too long to print$")):
            amalgam_normal_form(word)
    else:
        assert [str(letter) for letter in amalgam_normal_form(word)] == text


def test_normal_form_names_the_first_letter_it_cannot_print():
    word = _letter("A", 3) @ _letter("B", _LIMIT) @ _letter("A", _LIMIT)
    with pytest.raises(ValueError, match=(
            "^normal form letter 2: entry b has a coefficient of more than "
            "4300 digits, too long to print$")):
        amalgam_normal_form(word)
    # the last letter is the remainder
    with pytest.raises(ValueError, match="^normal form letter 3: entry a "):
        amalgam_normal_form(_letter("A", 3) @ _letter("B", 1)
                            @ _letter("A", _LIMIT))


# -- certificates --------------------------------------------------------------


def test_certificate_small_run_passes():
    cert = build_certificate(3, 2)
    assert isinstance(cert, Certificate)
    assert cert.verdict
    assert len(cert.records) == 3
    assert len(cert.pairwise) == 3
    for record in cert.records:
        assert record["conjugation_ok"]
        assert record["memberships"]["Mk_in_A_not_U"]
        assert record["memberships"]["N_in_B_not_U"]
        assert record["memberships"]["conjugate_balanced"]
    for entry in cert.pairwise:
        assert entry["distinct"]


def test_certificate_rejects_degenerate_parameters():
    with pytest.raises(ValueError):
        build_certificate(1, 2)
    with pytest.raises(ValueError):
        build_certificate(3, 1)
    with pytest.raises(ValueError):
        build_certificate(2, 2, eps=random_epsilon(random.Random(1), 3))
    with pytest.raises(ValueError):
        build_certificate(2, 3, base_lift=canonical_lift(2))


def test_certificate_json_is_deterministic():
    first = build_certificate(2, 2).json_text()
    second = build_certificate(2, 2).json_text()
    assert first == second
    data = json.loads(first)
    assert set(data) == {"kmax", "genus", "records", "pairwise", "verdict"}
    assert data["verdict"] is True


def test_certificate_ignores_pairing_convention():
    rng = random.Random(47)
    texts = set()
    for _ in range(4):
        eps = random_epsilon(rng, 3)
        texts.add(build_certificate(2, 3, eps=eps).json_text())
    texts.add(build_certificate(2, 3).json_text())
    assert len(texts) == 1


class _UnreadableTable(homology.EpsilonTable):
    def value(self, x, y):
        raise AssertionError("a certificate stage read the pairing table")


def _lift_with_commutator_terms() -> LiftClass:
    ring = surface_ring(3)
    star = canonical_lift(3)
    w = homology.CycleClass(3, {
        homology.Generator.comm(1, 2): parse_poly("s2 - 1", ring),
        homology.Generator.comm(1, 3): parse_poly("2*t2^-1 + s3", ring)})
    return LiftClass(3, w, star.m, star.n)


@pytest.mark.parametrize("lift", [None, _lift_with_commutator_terms()],
                         ids=["canonical", "commutator-terms"])
def test_certificate_never_reads_the_pairing_table(lift):
    # a future stage that reads the table fails here, and then the
    # --seed recheck, which re-runs only _handle_pairings, must grow too
    zero = build_certificate(6, 3, base_lift=lift).json_text()
    assert build_certificate(6, 3, eps=_UnreadableTable(3),
                             base_lift=lift).json_text() == zero


def test_pairing_table_recheck_reads_no_sign():
    lift = _lift_with_commutator_terms()
    zero = homology.EpsilonTable(3)
    for probe in (homology.EpsilonTable.seeded(3, 7), _UnreadableTable(3)):
        assert amalgam.pairing_table_recheck(lift, zero, probe)


def test_verdict_is_the_absence_of_a_first_failure():
    cert = build_certificate(4, 2)
    assert cert.first_failure() is None and cert.verdict
    record = canonical_lift(2).to_json()
    record["m"]["0,1"] = 2
    broken = build_certificate(4, 2, base_lift=LiftClass.from_json(record))
    assert broken.first_failure() is broken.records[0]
    assert broken.verdict is False
    assert json.loads(broken.json_text())["verdict"] is False


def test_certificate_records_broken_lifts_instead_of_raising():
    ring = surface_ring(2)
    bad = LiftClass(2, None, parse_poly("s2 - 1", ring), ring.one())
    cert = build_certificate(2, 2, base_lift=bad)
    assert not cert.verdict
    assert all("error" in record for record in cert.records)


def test_certificate_flags_conjugation_mismatches():
    ring = surface_ring(2)
    skewed = LiftClass(2, None, ring.zero(), parse_poly("t2 - 1", ring))
    cert = build_certificate(2, 2, base_lift=skewed)
    assert not cert.verdict
    assert not cert.records[0]["conjugation_ok"]
    assert cert.records[0]["twist_consistency_ok"]


def test_certificate_summary_lines():
    cert = build_certificate(2, 2)
    lines = cert.summary_lines()
    assert lines[0] == "certificate: genus 2, twist powers 1..2"
    assert lines[-1] == "verdict: PASS"
    assert any("pairwise separations: 1/1 distinct" in line for line in lines)
    failing = build_certificate(
        2, 2,
        base_lift=LiftClass(2, None, parse_poly("s2 - 1", surface_ring(2)),
                            surface_ring(2).one()))
    assert failing.summary_lines()[-1] == "verdict: FAIL"


def test_certificate_consistency_for_random_lifts():
    rng = random.Random(53)
    for _ in range(3):
        lift = random_valid_lift(rng, 2, max_w_support=0)
        cert = build_certificate(2, 2, base_lift=lift)
        for record in cert.records:
            assert record["twist_consistency_ok"]


@st.composite
def _lifts_near_the_three_facts(draw) -> LiftClass:
    """A lift at genus 2-5, with or without a w-part: half built to meet
    the three facts of _meets_the_three_facts, the rest with one fact
    broken or drawn at random, valid or not."""
    genus = draw(st.integers(2, 5))
    ring = surface_ring(genus)
    one, t2, s2 = ring.one(), ring.variable("t2"), ring.variable("s2")

    def monomial(coeffs=(-2, -1, 1, 2)) -> LaurentPoly:
        exps = draw(st.lists(st.integers(-2, 2), min_size=ring.nvars,
                             max_size=ring.nvars))
        return ring.monomial(exps, draw(st.sampled_from(coeffs)))

    def poly(most: int) -> LaurentPoly:
        return sum((monomial() for _ in range(draw(st.integers(0, most)))),
                   ring.zero())

    # Phi sends s2 to 1: m = +-u (1 - t2) with u a monomial, plus a
    # multiple of s2 - 1, has Phi(m) = +-t^j (1 - t); n = q m with q
    # fixed by the involution keeps the lift valid
    m = monomial((1, -1)) * (one - t2) + (s2 - one) * poly(1)
    q = (s2 + s2.involution() - one.scale(2)).scale(draw(st.integers(-2, 2)))
    kind = "meets" if draw(st.booleans()) else draw(st.sampled_from((
        "scaled m", "squared m", "n = q m, Phi(q) != 0", "n killed, invalid",
        "random")))
    if kind == "scaled m":
        m = m.scale(draw(st.sampled_from((-3, -2, 2, 3))))
    elif kind == "squared m":
        m = m * (one - t2)
    elif kind == "n = q m, Phi(q) != 0":
        q = q + t2 + t2.involution() + one.scale(draw(st.integers(-2, 2)))
    n = q * m
    if kind == "n killed, invalid":
        n = (s2 - one) * monomial()
    elif kind == "random":
        m, n = poly(3), poly(3)
    w = None
    if homology.comm_pairs(genus) and draw(st.booleans()):
        pair = draw(st.sampled_from(homology.comm_pairs(genus)))
        w = homology.CycleClass(genus, {homology.Generator.comm(*pair):
                                        monomial() + monomial()})
    return LiftClass(genus, w, m, n)


def _meets_the_three_facts(lift: LiftClass) -> bool:
    """Whether the lift is valid, Phi(n) = 0 and Phi(m) = +-t^j (1 - t)."""
    phi_m = sorted(specialize_phi(lift.m).terms.items())
    return (lift_error(lift) is None and not specialize_phi(lift.n)
            and len(phi_m) == 2 and phi_m[1][0][0] == phi_m[0][0][0] + 1
            and phi_m[0][1] in (1, -1) and phi_m[1][1] == -phi_m[0][1])


@settings(max_examples=300, deadline=None)
@given(_lifts_near_the_three_facts())
def test_a_pass_is_the_three_facts(lift):
    # the closed form of build_certificate's docstring: a PASS says the
    # lift is valid, Phi(n) = 0 and Phi(m) = +-t^j (1 - t), and no more
    assert build_certificate(4, lift.genus, base_lift=lift).verdict == \
        _meets_the_three_facts(lift)


def test_pairwise_records_match_the_per_pair_oracle():
    for genus in range(2, 6):
        for kmax in range(2, 26):
            cert = build_certificate(kmax, genus)
            expected = [_pair_oracle(k, l) for k in range(1, kmax + 1)
                        for l in range(k + 1, kmax + 1)]
            assert list(cert.pairwise) == expected


# sha256 of json_text(), recorded before the pairwise records were built
# from a per-difference table
@pytest.mark.parametrize("genus, kmax, digest", [
    (2, 20, "988e0b33fe68048860686890e8cab6363e27695c8553c5863792491cd2ad54cf"),
    (3, 10, "6a8b70a311e8b1bde2a7410d708ad05774ee69cbd9428258eaf6e639c443d2c5"),
    (5, 40, "28ce6ccd2e0f5ac86cfe7331129dfca8b7a31fd9bcb951872c052a68c0e919bb"),
])
def test_certificate_json_frozen_digests(genus, kmax, digest):
    text = build_certificate(kmax, genus).json_text()
    assert hashlib.sha256(text.encode()).hexdigest() == digest


def test_certificate_builds_no_matrix_per_power(monkeypatch):
    built = []
    real = rep.matrix_Mk

    def counting(k, *args):
        built.append(k)
        return real(k, *args)

    monkeypatch.setattr(rep, "matrix_Mk", counting)
    assert "matrix_Mk" not in vars(amalgam)
    kmax = 30
    cert = build_certificate(kmax, 2)
    assert len(cert.pairwise) == kmax * (kmax - 1) // 2
    assert cert.records[-1]["memberships"]["Mk_in_A_not_U"]
    assert double_cosets_distinct(1, kmax)["distinct"]
    # M_k's membership is read from the closed form of _separated, and
    # the pairwise witnesses write M_{k-l} in closed form
    assert built == []


def test_mk_membership_is_the_closed_form_of_the_separation():
    # M_k = [[1, 0], [k, 1]] lies in A, and in U exactly when t divides k
    for k in range(-50, 51):
        mk = matrix_Mk(k)
        assert amalgam._separated(k) == (in_A(mk) and not in_U(mk)), k


def test_witnesses_need_no_json_escaping():
    for k in range(1, 121):
        for l in range(k + 1, 121):
            witness = amalgam._witness(k, l)
            assert json.dumps(witness) == f'"{witness}"'


def test_certificate_validates_the_base_lift_once(monkeypatch):
    # every pushforward n + k m shares the base lift's validity, so the
    # lift check runs once per certificate, whatever kmax
    seen = []
    real = rep.validate_lift

    def counting(lift):
        seen.append(lift)
        return real(lift)

    monkeypatch.setattr(rep, "validate_lift", counting)
    for kmax in (4, 40):
        seen.clear()
        cert = build_certificate(kmax, 3)
        assert cert.verdict
        assert seen == [canonical_lift(3)]


# -- the per-power reference ---------------------------------------------------


def _per_k_images(lift, eps):
    """The twist's images of a1 and b1 for one lift, over L_g."""
    return tuple(
        homology.twist_apply(lift, homology.CycleClass.basis(lift.genus, gen),
                             eps)
        for gen in (homology.Generator.a1(), homology.Generator.b1()))


def _per_k_records(kmax, genus, eps=None, base_lift=None):
    """Reference records: the lift check, rho, the conjugate
    M_k N M_k^-1 and the twist's handle images over L_g, made again for
    every power k, with matrix products and an inverse."""
    star = base_lift if base_lift is not None else canonical_lift(genus)
    if eps is None:
        eps = homology.EpsilonTable(genus)
    n_mat = matrix_N()
    n_in_b_not_u = in_B(n_mat) and not in_U(n_mat)
    records = []
    for k in range(1, kmax + 1):
        moved = homology.pushforward_b1_twist(star, k)
        try:
            mat = rho(moved)
        except ValueError as exc:
            records.append({"k": k, "error": str(exc)})
            continue
        mk = matrix_Mk(k)
        image_a1, image_b1 = _per_k_images(moved, eps)
        twist = Matrix2(specialize_phi(image_a1.a1_coeff()),
                        specialize_phi(image_b1.a1_coeff()),
                        specialize_phi(image_a1.b1_coeff()),
                        specialize_phi(image_b1.b1_coeff()))
        records.append({
            "k": k,
            "lift": moved.to_json(),
            "rho": mat.to_json(),
            "conjugation_ok": mat == mk @ n_mat @ mk.inverse(),
            "twist_consistency_ok": mat == twist,
            "memberships": {
                "Mk_in_A_not_U": in_A(mk) and not in_U(mk),
                "N_in_B_not_U": n_in_b_not_u,
                "conjugate_balanced": all(
                    entry.is_balanced() for entry in h_form(mat)),
            },
        })
    return records


def _per_k_certificate(genus, records):
    """The reference certificate for the powers 1..len(records): its
    JSON as the generic encoder writes it, its first failure and its
    summary lines, from the stored per-k records and the per-pair
    oracle."""
    kmax = len(records)
    pairwise = [_pair_oracle(k, l) for k in range(1, kmax + 1)
                for l in range(k + 1, kmax + 1)]
    first, lines = _stored_scan(kmax, genus, records, pairwise)
    text = json.dumps({"kmax": kmax, "genus": genus, "records": records,
                       "pairwise": pairwise, "verdict": first is None},
                      sort_keys=True, indent=2)
    return text, first, lines


def _summary_line(record):
    """The summary line of one per-k record."""
    if "error" in record:
        return f"  k={record['k']}: ERROR {record['error']}"
    member = record["memberships"]
    checks = (
        (record["conjugation_ok"], "conjugation ok", "conjugation FAILED"),
        (record["twist_consistency_ok"], "twist consistent",
         "twist INCONSISTENT"),
        (member["Mk_in_A_not_U"], "M_k in A\\U", "M_k membership FAILED"),
        (member["N_in_B_not_U"], "N in B\\U", "N membership FAILED"),
        (member["conjugate_balanced"], "balanced", "balance FAILED"))
    return f"  k={record['k']}: " + ", ".join(
        held if ok else failed for ok, held, failed in checks)


def _stored_scan(kmax, genus, records, pairwise):
    """first_failure() and summary_lines() as a certificate gave them when
    it stored every per-k record and every pair: the records and then
    the pairs are scanned."""
    failed = [p for p in pairwise if not p["distinct"]]
    first = next((r for r in records if "error" in r or not (
        r["conjugation_ok"] and r["twist_consistency_ok"]
        and all(r["memberships"].values()))), None)
    if first is None and failed:
        first = failed[0]
    lines = [f"certificate: genus {genus}, twist powers 1..{kmax}"]
    lines += map(_summary_line, records)
    lines.append(f"  pairwise separations: {len(pairwise) - len(failed)}"
                 f"/{len(pairwise)} distinct")
    lines += [f"    NOT distinct: k={p['k']}, l={p['l']}" for p in failed]
    lines.append(f"verdict: {'PASS' if first is None else 'FAIL'}")
    return first, lines


def _stored_tuple_scan(cert):
    """_stored_scan over the certificate's own records, with each pair's
    separation evaluated through _separated."""
    pairwise = [{"k": k, "l": l, "distinct": amalgam._separated(k - l),
                 "witness": amalgam._witness(k, l)}
                for k in range(1, cert.kmax + 1)
                for l in range(k + 1, cert.kmax + 1)]
    return _stored_scan(cert.kmax, cert.genus, cert.records, pairwise)


def _sweep_inputs(genus):
    """(name, pairing table, base lift, largest kmax) for one genus: the
    canonical and random valid lifts under the zero, a seeded and a
    random table, and lifts on which conjugation or the lift check
    fails.  The reference takes up to 60 ms per power on a random lift
    with commutator terms, so those stop at kmax 25."""
    rng = random.Random(100 + genus)
    ring = surface_ring(genus)
    star = canonical_lift(genus)
    t2, s2, one = ring.variable("t2"), ring.variable("s2"), ring.one()
    w_lifts = [random_valid_lift(rng, genus) for _ in range(2)]
    invalid = LiftClass(genus, None, w_lifts[0].m, w_lifts[0].n)
    while lift_error(invalid) is None:
        invalid = LiftClass(genus, w_lifts[1].w,
                            random_poly(rng, ring, max_exp=2),
                            random_poly(rng, ring, max_exp=2))
    return [
        ("canonical", None, star, 100),
        ("seeded table", homology.EpsilonTable.seeded(genus, genus), star,
         100),
        ("random lift, seeded table", homology.EpsilonTable.seeded(genus, 7),
         w_lifts[0], 25),
        ("random lift, random table", random_epsilon(rng, genus), w_lifts[1],
         25),
        ("skewed", None, LiftClass(genus, None, ring.zero(), t2 - one), 100),
        ("mutated scale", None,
         LiftClass(genus, None, (t2 - one).scale(3), ring.zero()), 100),
        ("mutated power", None,
         LiftClass(genus, None, t2 * t2 - one, ring.zero()), 100),
        ("mutated variable", None,
         LiftClass(genus, w_lifts[0].w, s2 - one, ring.zero()), 100),
        ("invalid", None, LiftClass(genus, None, s2 - one, one), 100),
        ("invalid random", None, invalid, 100),
    ]


@pytest.mark.parametrize("genus", [2, 3])
def test_derived_records_match_the_per_power_reference(genus):
    # every record a certificate derives, for every k, on passing,
    # failing and invalid lifts; first_failure derives the record it
    # returns, and records then keeps it
    for name, eps, lift, largest in _sweep_inputs(genus):
        reference = tuple(_per_k_records(largest, genus, eps, lift))
        cert = build_certificate(largest, genus, eps=eps, base_lift=lift)
        first = cert.first_failure()
        assert cert.records == reference, name
        assert first is None or first is cert.records[first["k"] - 1]


@pytest.mark.parametrize("genus", [2, 3, 4, 5])
def test_certificate_matches_the_per_power_reference(genus):
    outcomes = set()
    for name, eps, lift, largest in _sweep_inputs(genus):
        records = _per_k_records(largest, genus, eps, lift)
        firsts = {}
        for kmax in (2, 3, 7, 25, 100):
            if kmax > largest:
                continue
            text, firsts[kmax], lines = _per_k_certificate(genus,
                                                           records[:kmax])
            cert = build_certificate(kmax, genus, eps=eps, base_lift=lift)
            assert cert.json_text() == text, (name, kmax)
            assert (cert.first_failure(), cert.summary_lines()) == \
                (firsts[kmax], lines), (name, kmax)
        record = records[0]
        outcomes.add("error" if "error" in record else
                     "conjugation" if not record["conjugation_ok"] else
                     "pass" if firsts[largest] is None else "other")
        if name == "invalid":
            # m = s2 - 1 and n = 1 mismatch at the shift s2 by -k != 1 - k,
            # so each power has its own error text
            assert len({r["error"] for r in records}) == largest
    assert outcomes == {"pass", "conjugation", "error"}


def _oracle_certificates():
    """Certificates for the byte-identity oracle: every genus 2-5 at kmax
    2-30, the benchmark's large kmax, a mutated lift (verdict false), an
    invalid lift (error records), a seeded pairing table and a single
    power."""
    for genus in range(2, 6):
        for kmax in range(2, 31):
            yield build_certificate(kmax, genus)
    for genus in (3, 5):
        for kmax in (84, 100, 116):
            yield build_certificate(kmax, genus)
    mutated = canonical_lift(2).to_json()
    mutated["m"]["0,1"] = 2
    yield build_certificate(9, 2, base_lift=LiftClass.from_json(mutated))
    ring = surface_ring(2)
    yield build_certificate(
        9, 2, base_lift=LiftClass(2, None, parse_poly("s2 - 1", ring),
                                  ring.one()))
    yield build_certificate(12, 3, eps=homology.EpsilonTable.seeded(3, 7))
    # made directly, with no pair of powers: the pairwise list is empty
    lift = canonical_lift(2)
    yield Certificate(1, 2, lift, rep.rho_in_k(lift), [(True,) * 5])
    yield build_certificate(6, 3, base_lift=_cancelling_lift())


def _cancelling_lift() -> LiftClass:
    """m = t2 - 1 with a w-part and n = -2m: the second pushforward's n
    family n + 2m is empty."""
    return LiftClass.from_json({
        "genus": 3, "m": {"0,0,1,0": 1, "0,0,0,0": -1},
        "n": {"0,0,1,0": -2, "0,0,0,0": 2}, "w": [["c:1:2", "s2 - 1"]]})


def test_a_cancelled_n_family_is_written_as_the_generic_encoder_writes_it():
    cert = build_certificate(6, 3, base_lift=_cancelling_lift())
    assert cert.json_text() == json.dumps(cert.to_json(), sort_keys=True,
                                          indent=2)
    record = json.loads(cert.json_text())["records"][1]
    assert record["k"] == 2 and record["lift"]["n"] == {}
    assert record["rho"]["c"] == "0"
    assert cert.verdict is False


def test_json_text_is_the_generic_encoders_bytes():
    seen = set()
    for cert in _oracle_certificates():
        assert cert.json_text() == json.dumps(
            cert.to_json(), sort_keys=True, indent=2), (cert.genus, cert.kmax)
        assert (cert.first_failure(), cert.summary_lines()) == \
            _stored_tuple_scan(cert), (cert.genus, cert.kmax)
        first = cert.first_failure()
        seen.add("pass" if first is None else
                 "error" if "error" in first else "fail")
    assert seen == {"pass", "error", "fail"}


@st.composite
def _lifts_with_many_term_entries(draw) -> LiftClass:
    """A lift at genus 2-4 whose rho entries have many terms: m is a
    constant plus one to four monomials, each coefficient +-1 or of one
    to nine digits; n is q m with q fixed by the involution (valid), or
    -j m, whose rho_j has lower-left entry 0 (valid), or two monomials
    (invalid, so error records); a w-part or none."""
    genus = draw(st.integers(2, 4))
    ring = surface_ring(genus)
    coeffs = st.sampled_from((1, -1, 2, -3, 47, -608, 123456789))

    def monomial() -> LaurentPoly:
        exps = draw(st.lists(st.integers(-2, 2), min_size=ring.nvars,
                             max_size=ring.nvars))
        return ring.monomial(exps, draw(coeffs))

    m = sum((monomial() for _ in range(draw(st.integers(1, 4)))),
            ring.constant(draw(coeffs)))
    kind = draw(st.sampled_from(("q = inv(q)", "q = -j", "invalid")))
    if kind == "q = inv(q)":
        u = monomial()
        n = (u + u.involution() + ring.constant(draw(coeffs))) * m
    elif kind == "q = -j":
        n = m.scale(-draw(st.integers(1, 12)))
    else:
        n = monomial() + monomial()
    w = None
    if homology.comm_pairs(genus) and draw(st.booleans()):
        pair = draw(st.sampled_from(homology.comm_pairs(genus)))
        w = homology.CycleClass(genus, {homology.Generator.comm(*pair):
                                        monomial() + monomial()})
    return LiftClass(genus, w, m, n)


@settings(max_examples=200, deadline=None)
@given(_lifts_with_many_term_entries(), st.integers(2, 12))
def test_json_text_is_the_generic_encoders_bytes_on_random_lifts(lift, kmax):
    # to_json prints each rho entry through LaurentPoly.__str__ and each
    # pair through _pair_record, so it is an oracle independent of the
    # writer's term tables and fragments
    cert = build_certificate(kmax, lift.genus, base_lift=lift)
    assert cert.json_text() == json.dumps(cert.to_json(), sort_keys=True,
                                          indent=2)


def test_failed_separations_are_read_per_difference(monkeypatch):
    # separation depends on k - l alone: with differences 2 and 6 made to
    # fail, every pair at those distances fails, the first failure is the
    # pair (1, 3), and the JSON, the count and the NOT-distinct lines are
    # what a scan over every stored pair gave
    monkeypatch.setattr(amalgam, "_separated", lambda d: d not in (-2, -6))
    kmax = 7
    cert = build_certificate(kmax, 2)
    assert cert.json_text() == json.dumps(cert.to_json(), sort_keys=True,
                                          indent=2)
    assert (cert.first_failure(), cert.summary_lines()) == \
        _stored_tuple_scan(cert)
    assert cert.verdict is False
    assert cert.first_failure() == {
        "k": 1, "l": 3, "distinct": False,
        "witness": amalgam._witness(1, 3)}
    lines = cert.summary_lines()
    assert "  pairwise separations: 15/21 distinct" in lines
    assert sum("NOT distinct" in line for line in lines) == (7 - 2) + (7 - 6)
    assert [p["distinct"] for p in cert.pairwise].count(False) == 6
    # a failing per-k record still comes first
    mutated = canonical_lift(2).to_json()
    mutated["m"]["0,1"] = 2
    broken = build_certificate(kmax, 2, base_lift=LiftClass.from_json(mutated))
    assert broken.first_failure() is broken.records[0]
    assert (broken.first_failure(), broken.summary_lines()) == \
        _stored_tuple_scan(broken)


@pytest.mark.parametrize(
    "shift", [(2, -1, 0), (0, -2, 1), (0, 1, 0), (0, 0, 1)],
    ids=["(2 - k) q", "k (k - 2) q", "k q", "k^2 q"])
def test_balance_is_evaluated_per_power_when_it_fails(monkeypatch, shift):
    # rho_k's upper-right entry, and so the h-form's q1, off by a
    # multiple of q = t - 1 that depends on k (q vanishes at 1 but is not
    # fixed by the involution); the conjugate moves with it, and twist
    # consistency reads the pairings, not rho_k, so only balance fails,
    # in k and at every power where the multiple is nonzero
    def shifted(coeffs):
        zero = coeffs[0].ring.zero()
        q = Matrix2(zero, parse_poly("t - 1", zero.ring), zero, zero)
        return tuple(c + q.scale(s) for c, s in zip(coeffs, shift))

    for name in ("rho_in_k", "conjugate_in_k"):
        real = getattr(amalgam, name)
        monkeypatch.setattr(amalgam, name, lambda *args, real=real:
                            shifted(real(*args)))
    cert = build_certificate(5, 3)
    assert [r["memberships"]["conjugate_balanced"] for r in cert.records] \
        == [sum(s * k ** i for i, s in enumerate(shift)) == 0
            for k in range(1, 6)]
    assert all(r["conjugation_ok"] and r["twist_consistency_ok"]
               for r in cert.records)
    assert cert.verdict is False
    assert cert.first_failure() is cert.records[0]
    assert cert.summary_lines()[1].endswith("balance FAILED")


@pytest.mark.parametrize("lift, expected", [
    (None, [False, True, False, False, False]),
    (LiftClass(3, None, parse_poly("s2 - 1", surface_ring(3)),
               surface_ring(3).zero()), [True] * 5),
    (LiftClass(3, None, surface_ring(3).zero(),
               parse_poly("t2 - 1", surface_ring(3))),
     [False, True, False, False, False]),
], ids=["canonical", "c = 0", "m = 0"])
def test_twist_consistency_is_evaluated_per_power_when_it_fails(
        monkeypatch, lift, expected):
    # a1's pairing with the k-th pushforward off by (k - 2) q: the
    # identity in k fails, and the records say so for every power but
    # k = 2; unless Phi sends m and n to 0: then c_k = 0, and rho_k and
    # the twist's action are both I, whatever the pairings (Phi(m) = 0
    # alone is not enough)
    real = amalgam._handle_pairings

    def shifted(lift, eps):
        ((a1_0, b1_0), (a1_1, b1_1)) = real(lift, eps)
        q = lift.ring.variable("t2")
        return (a1_0 - q - q, b1_0), (a1_1 + q, b1_1)

    monkeypatch.setattr(amalgam, "_handle_pairings", shifted)
    cert = build_certificate(5, 3, base_lift=lift)
    assert [r["twist_consistency_ok"] for r in cert.records] == expected
    assert all(r["conjugation_ok"] == (lift is None) for r in cert.records)
    assert cert.first_failure() is cert.records[0]


def _products_and_phi(monkeypatch, run):
    """The number of LaurentPoly products and of Phi specialisations
    that run() makes, and the term products of the products over a
    surface ring (the only rings with more than one variable)."""
    counts = {"mul": 0, "phi": 0, "surface_terms": 0}
    mul = LaurentPoly.__mul__

    def counting_mul(self, other):
        counts["mul"] += 1
        if isinstance(other, LaurentPoly) and self.ring.nvars > 1:
            counts["surface_terms"] += len(self.terms) * len(other.terms)
        return mul(self, other)

    def counting_phi(f):
        counts["phi"] += 1
        return specialize_phi(f)

    monkeypatch.setattr(LaurentPoly, "__mul__", counting_mul)
    for module in (amalgam, rep):
        monkeypatch.setattr(module, "specialize_phi", counting_phi)
    run()
    monkeypatch.undo()
    return counts


@pytest.mark.parametrize("lift", [None, _lift_with_commutator_terms()],
                         ids=["canonical", "commutator-terms"])
def test_certificate_products_do_not_grow_with_kmax(monkeypatch, lift):
    small, large = (
        _products_and_phi(monkeypatch, lambda kmax=kmax: build_certificate(
            kmax, 3, base_lift=lift))
        for kmax in (5, 60))
    assert small == large
    # Phi(m) and Phi(n) for rho, and the four pairing residuals
    assert small["phi"] == 6


@pytest.mark.parametrize("lift", [None, _lift_with_commutator_terms()],
                         ids=["canonical", "commutator-terms"])
def test_balance_checks_do_not_grow_with_kmax(monkeypatch, lift):
    calls = []
    real = LaurentPoly.is_balanced

    def counting(self):
        calls.append(self)
        return real(self)

    monkeypatch.setattr(LaurentPoly, "is_balanced", counting)
    counts = []
    for kmax in (5, 60):
        calls.clear()
        cert = build_certificate(kmax, 3, base_lift=lift)
        assert all(r["memberships"]["conjugate_balanced"]
                   for r in cert.records)
        counts.append(len(calls))
    assert counts[0] == counts[1] > 0


def test_witnesses_are_formatted_only_for_json(capsys, monkeypatch):
    # the text summary checks each difference once and formats no
    # witness; the JSON formats the halves around k once for each of
    # the kmax - 1 differences, and no whole witness
    calls = []
    real = amalgam._witness_halves

    def counting(l, d):
        calls.append((l, d))
        return real(l, d)

    monkeypatch.setattr(amalgam, "_witness_halves", counting)
    monkeypatch.setattr(amalgam, "_witness", None)
    kmax = 100
    counts = []
    for extra in ([], ["--format", "json"]):
        calls.clear()
        assert cli.main(["verify", "--genus", "3", "--kmax", str(kmax),
                         *extra]) == 0
        counts.append(len(set(calls)))
        assert len(calls) == counts[-1]
    capsys.readouterr()
    assert counts == [0, kmax - 1]


def _counted_verify(monkeypatch, capsys, argv) -> dict:
    """The calls that cli.main(argv) makes to each per-k record builder."""
    calls = dict.fromkeys(("str", "at_k", "pushforward_b1_twist",
                           "matrix_Mk", "signed_terms"), 0)

    def counting(name, real):
        def wrapper(*args):
            calls[name] += 1
            return real(*args)
        return wrapper

    monkeypatch.setattr(LaurentPoly, "__str__",
                        counting("str", LaurentPoly.__str__))
    for module, name in ((amalgam, "at_k"), (amalgam, "pushforward_b1_twist"),
                         (rep, "matrix_Mk"), (amalgam, "signed_terms")):
        monkeypatch.setattr(module, name,
                            counting(name, getattr(module, name)))
    code = cli.main(argv)
    monkeypatch.undo()
    capsys.readouterr()
    return {"code": code, **calls}


def test_verify_builds_only_the_records_it_prints(monkeypatch, capsys):
    # a passing certificate prints no per-k record in text mode, and its
    # JSON writes every record from the certificate's own coefficients:
    # each rho entry at each k is one signed_terms over the entry's term
    # table, with no polynomial built or printed
    argv = ["verify", "--genus", "3", "--kmax", "100"]
    assert _counted_verify(monkeypatch, capsys, argv) == {
        "code": 0, "str": 0, "at_k": 0, "pushforward_b1_twist": 0,
        "matrix_Mk": 0, "signed_terms": 0}
    counts = _counted_verify(monkeypatch, capsys, argv + ["--format", "json"])
    assert counts["code"] == 0 and counts["str"] == 0
    assert counts["signed_terms"] == 4 * 100
    assert counts["at_k"] == counts["pushforward_b1_twist"] == 0
    # a failing one derives the one record it prints
    mutated = canonical_lift(3).to_json()
    mutated["m"]["0,0,1,0"] = 2
    counts = _counted_verify(monkeypatch, capsys,
                             argv + ["--lift", json.dumps(mutated)])
    assert counts["code"] == 1 and counts["pushforward_b1_twist"] == 1


def test_certificate_forms_one_product_of_the_families(monkeypatch):
    # many-term families and a w-part: the lift check's inv(m) n is the
    # one product over L_g whose cost is |m| |n|; the twist-consistency
    # stage pairs a1 and b1 with the lift, linear in |m| + |n|, and takes
    # its products over L
    ring = surface_ring(3)
    rng = random.Random(12)
    m = LaurentPoly(ring, {tuple(rng.randint(-3, 3) for _ in range(4)):
                           rng.choice((-2, -1, 1, 2)) for _ in range(40)})
    n = m * parse_poly("s2 + s2^-1 + 3", ring)
    lift = LiftClass(3, _lift_with_commutator_terms().w, m, n)
    assert len(m.terms) > 30 and len(n.terms) > 60
    counts = _products_and_phi(monkeypatch, lambda: build_certificate(
        4, 3, base_lift=lift))
    size = len(m.terms) + len(n.terms)
    assert counts["surface_terms"] <= len(m.terms) * len(n.terms) + 2 * size
    # the lift is valid and twist-consistent; it is no bounding curve's,
    # so conjugation fails
    records = build_certificate(4, 3, base_lift=lift).records
    assert all(r["twist_consistency_ok"] for r in records)


def _spread_lift_record() -> dict:
    """A genus-2 lift whose m has 100 one-digit terms (0, e), e drawn
    from -1000..1000, and n = 2m: inside every limit, and the record
    the CI's "Lift with spread exponents" step builds."""
    rng = random.Random(44)
    m = {f"0,{e}": rng.choice((-3, -2, -1, 1, 2, 3))
         for e in rng.sample(range(-1000, 1001), 100)}
    return {"genus": 2, "m": m, "n": {key: 2 * c for key, c in m.items()}}


def test_no_certificate_product_exceeds_the_families_product(monkeypatch):
    # after Phi the spread lift's P, Q and R have thousands of terms; a
    # product of two of them (as in a determinant of rho_k) would cost
    # millions of term pairs, while each product the certificate forms
    # multiplies two lift families, at most |m| |n| pairs: the lift
    # check's inv(m) n, and P, Q and R after Phi
    lift = LiftClass.from_json(_spread_lift_record())
    pairs = []
    real = laurent._convolve

    def counting(f, g):
        pairs.append(len(f) * len(g))
        return real(f, g)

    monkeypatch.setattr(laurent, "_convolve", counting)
    cert = build_certificate(2, 2, base_lift=lift)
    monkeypatch.undo()
    assert 0 < max(pairs) <= len(lift.m.terms) * len(lift.n.terms) == 10000
    assert len(pairs) == 4
    # valid and twist-consistent, but no bounding curve's lift
    assert all(r["twist_consistency_ok"] and not r["conjugation_ok"]
               for r in cert.records)


def test_verify_on_spread_exponents_is_fast(tmp_path):
    path = tmp_path / "spread-lift.json"
    path.write_text(json.dumps(_spread_lift_record()))
    started = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "twistcert.cli", "verify", "--genus", "2",
         "--kmax", "2", "--lift", str(path)],
        capture_output=True, text=True, timeout=120)
    elapsed = time.perf_counter() - started
    assert proc.returncode == 1
    assert proc.stdout.splitlines()[-2] == "verdict: FAIL"
    assert elapsed < 5  # an interpreter start included


def test_seed_recheck_products_do_not_grow_with_kmax(monkeypatch):
    # the recheck compares the images' coefficients in k once; the whole
    # verify --seed makes as many products at kmax 60 as at kmax 5
    lift = _lift_with_commutator_terms()
    zero = homology.EpsilonTable(3)
    counts = _products_and_phi(monkeypatch, lambda: amalgam.pairing_table_recheck(
        lift, zero, homology.EpsilonTable.seeded(3, 7)))
    assert counts["mul"] > 0 and counts["phi"] == 0
    small, large = (
        _products_and_phi(monkeypatch, lambda kmax=kmax: cli.main(
            ["verify", "--genus", "3", "--kmax", str(kmax), "--seed", "7"]))
        for kmax in (5, 60))
    assert small == large
