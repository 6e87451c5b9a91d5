import json
import random

import pytest

from conftest import (
    lift_error,
    random_epsilon,
    random_poly,
    random_valid_lift,
)
from twistcert import rep
from twistcert.amalgam import build_certificate
from twistcert.cli import main
from twistcert.homology import (
    CycleClass,
    Generator,
    LiftClass,
    canonical_lift,
    pushforward_b1_twist,
    twist_apply,
)
from twistcert.laurent import (
    LaurentPoly,
    parse_poly,
    single_variable_ring,
    specialize_phi,
    surface_ring,
)
from twistcert.rep import (
    Matrix2,
    at_k,
    conjugate_in_k,
    h_form,
    matrix_Mk,
    matrix_N,
    multiply,
    rho,
    rho_in_k,
)

L = single_variable_ring()


def rho_pre_phi(lift: LiftClass) -> Matrix2:
    """The twist's matrix on the handle span over L_g, before Phi: C0 of
    rep._rho_coefficients on the lift's own families."""
    return rep._rho_coefficients(lift.m, lift.n)[0]


def _mat(rows, ring=L):
    return Matrix2.from_rows(ring, rows)


def _balance(mat: Matrix2) -> tuple[bool, ...]:
    """Whether a - 1, b, c and 1 - d are balanced."""
    return tuple(poly.is_balanced() for poly in h_form(mat))


# -- matrix arithmetic ---------------------------------------------------


def test_identity_and_multiplication():
    n = matrix_N()
    eye = Matrix2.identity(L)
    assert eye @ n == n
    assert n @ eye == n
    assert eye == Matrix2.identity(L)
    assert n != eye


def test_determinant_is_multiplicative():
    rng = random.Random(3)
    for _ in range(15):
        x = Matrix2(*(random_poly(rng, L, max_terms=3, max_exp=2)
                      for _ in range(4)))
        y = Matrix2(*(random_poly(rng, L, max_terms=3, max_exp=2)
                      for _ in range(4)))
        assert (x @ y).det() == x.det() * y.det()


def test_inverse_of_unit_determinant():
    m = _mat([["t", "1 + t"], [0, "t^-1"]])
    assert m @ m.inverse() == Matrix2.identity(L)
    assert m.inverse() @ m == Matrix2.identity(L)


def test_inverse_requires_unit_determinant():
    m = _mat([["1 + t", 0], [0, 1]])
    with pytest.raises(ValueError):
        m.inverse()


def test_matrix_entry_ring_checks():
    with pytest.raises(ValueError):
        Matrix2(L.one(), L.zero(), surface_ring(2).zero(), L.one())
    with pytest.raises(ValueError):
        matrix_N() @ Matrix2.identity(surface_ring(2))


def test_from_rows_accepts_mixed_entry_forms():
    m = _mat([[1, "t - 1"], [parse_poly("0", L), -2]])
    assert m.a == L.one()
    assert m.d == L.constant(-2)


def test_json_round_trip_and_errors():
    n = matrix_N()
    assert Matrix2.from_json(L, n.to_json()) == n
    with pytest.raises(ValueError):
        Matrix2.from_json(L, {"a": "1", "b": "0", "c": "0"})
    with pytest.raises(ValueError, match="unknown key 'e'"):
        Matrix2.from_json(L, {**n.to_json(), "e": [1]})


def test_multiply_sequences():
    n, m2 = matrix_N(), matrix_Mk(2)
    assert multiply([m2, n, m2.inverse()]) == m2 @ n @ m2.inverse()
    assert multiply(iter([n])) is n


# -- the represented matrices --------------------------------------------


def test_bounding_curve_maps_to_N():
    star = canonical_lift(2)
    pre = rho_pre_phi(star)
    ring = surface_ring(2)
    assert pre == Matrix2.from_rows(
        ring, [[1, "t2^-1 - 2 + t2"], [0, 1]])
    assert rho(star) == matrix_N()


@pytest.mark.parametrize("genus", [2, 3, 4, 5])
def test_bounding_curve_maps_to_N_any_genus(genus):
    assert rho(canonical_lift(genus)) == matrix_N()


@pytest.mark.parametrize("genus", [2, 3])
def test_pushforward_conjugates_by_Mk(genus):
    star = canonical_lift(genus)
    n = matrix_N()
    for k in range(1, 21):
        mk = matrix_Mk(k)
        assert rho(pushforward_b1_twist(star, k)) == mk @ n @ mk.inverse()


@pytest.mark.parametrize("seed", range(6))
def test_rho_in_k_evaluates_to_rho_of_each_pushforward(seed):
    rng = random.Random(seed)
    lift = random_valid_lift(rng, rng.choice((2, 3)))
    coeffs = rho_in_k(lift)
    assert coeffs[0] == rho(lift)
    for k in (-3, 0, 1, 2, 7, 40):
        assert at_k(coeffs, k) == rho(pushforward_b1_twist(lift, k))


def test_conjugate_in_k_evaluates_to_the_product():
    rng = random.Random(17)
    mats = [matrix_N()] + [
        Matrix2(*(random_poly(rng, L, max_terms=3, max_exp=2)
                  for _ in range(4)))
        for _ in range(10)]
    for mat in mats:
        coeffs = conjugate_in_k(mat)
        for k in (-2, 0, 1, 3, 11):
            mk = matrix_Mk(k)
            assert at_k(coeffs, k) == mk @ mat @ mk.inverse()


def _traces_and_coeffs(monkeypatch, lift):
    """rho_in_k's closed-form determinant [tr C0 - 1, tr C1, tr C2] and
    the coefficients it was read from, the last the builder returned;
    rho_in_k raises when the determinant is not 1."""
    built = []
    real = rep._rho_coefficients
    monkeypatch.setattr(rep, "_rho_coefficients",
                        lambda *args: built.append(real(*args)) or built[-1])
    try:
        rho_in_k(lift)
        raised = False
    except ValueError:
        raised = True
    monkeypatch.undo()
    coeffs = built[-1]
    one = coeffs[0].ring.one()
    return [coeffs[0].trace() - one] + [c.trace() for c in coeffs[1:]], \
        coeffs, raised


@pytest.mark.parametrize("genus", [2, 3, 4, 5])
def test_determinant_is_read_from_the_trace(monkeypatch, genus):
    # rho_k - I = c_k p_k^T has rank one, so det(rho_k) = tr(rho_k) - 1:
    # the closed form must be the determinant at every k, on valid lifts
    # and, with the lift check off, on invalid ones
    rng = random.Random(60 + genus)
    ring = surface_ring(genus)
    with_w = failed = 0
    for valid in (True,) * 15 + (False,) * 15:
        if valid:
            lift = random_valid_lift(rng, genus)
            with_w += bool(lift.w.coeffs)
        else:
            lift = LiftClass(genus, None, random_poly(rng, ring),
                             random_poly(rng, ring))
            monkeypatch.setattr(rep, "validate_lift", lambda lift: None)
        det, coeffs, raised = _traces_and_coeffs(monkeypatch, lift)
        for k in (-2, 0, 1, 3, 11):
            assert at_k(coeffs, k).det() == sum(
                (d.scale(k ** i) for i, d in enumerate(det)), L.zero())
        assert raised == (det != [L.one(), L.zero(), L.zero()])
        assert not (valid and raised)
        failed += raised
    assert failed >= 5
    assert with_w or genus == 2


def _outer_product_rho(m, n) -> tuple[Matrix2, Matrix2, Matrix2]:
    """The reference for rho's coefficients in k: the twist's action
    x -> x + p(x) C on the handle span, I + c_k p_k^T with the lift's
    coordinates c_k = c0 + k c1 = (m, n) + k (0, m) and the pairings of
    a1 and b1 with it, p_k = p0 + k p1 = (inv(n), -inv(m)) + k (inv(m),
    0), multiplied out as I + c0 p0^T, c0 p1^T + c1 p0^T and c1 p1^T."""
    def outer(c, p) -> Matrix2:
        return Matrix2(c[0] * p[0], c[0] * p[1], c[1] * p[0], c[1] * p[1])

    zero, inv_m = m.ring.zero(), m.involution()
    c0, c1, p0, p1 = (m, n), (zero, m), (n.involution(), -inv_m), (inv_m, zero)
    return (Matrix2.identity(m.ring) + outer(c0, p0),
            outer(c0, p1) + outer(c1, p0), outer(c1, p1))


@pytest.mark.parametrize("genus", [2, 3, 4, 5])
def test_rho_is_the_outer_product_transvection(monkeypatch, genus):
    # the closed form in P, Q and R is I + c_k p_k^T multiplied out:
    # after Phi (rho_in_k) and over L_g (rho_pre_phi), on valid lifts
    # and, with the lift check off, on invalid ones
    rng = random.Random(80 + genus)
    ring = surface_ring(genus)
    invalid = 0
    for valid in (True,) * 10 + (False,) * 10:
        if valid:
            lift = random_valid_lift(rng, genus)
        else:
            lift = LiftClass(genus, None, random_poly(rng, ring),
                             random_poly(rng, ring))
            invalid += lift_error(lift) is not None
            monkeypatch.setattr(rep, "validate_lift", lambda lift: None)
        _, coeffs, raised = _traces_and_coeffs(monkeypatch, lift)
        after = _outer_product_rho(specialize_phi(lift.m),
                                   specialize_phi(lift.n))
        before = _outer_product_rho(lift.m, lift.n)
        assert coeffs == after
        assert not (valid and raised)
        if valid:
            assert rho_in_k(lift) == after
        for k in (-2, 0, 1, 3, 11):
            assert at_k(coeffs, k) == at_k(after, k)
            assert rho_pre_phi(pushforward_b1_twist(lift, k)) == \
                at_k(before, k)
    assert invalid >= 5


@pytest.mark.parametrize("entry", range(4), ids=["a", "b", "c", "d"])
def test_a_sign_flip_in_the_builder_fails_the_certificate(monkeypatch, entry):
    # twist consistency reads the pairings, not rho_k, so it cannot see
    # a fault in the builder: conjugation or the determinant must
    real = rep._rho_coefficients

    def flip(mat):
        entries = list(mat.entries())
        entries[entry] = -entries[entry]
        return Matrix2(*entries)

    def flipped(*args):  # one sign of every outer product c p^T flipped
        c0, c1, c2 = real(*args)
        eye = Matrix2.identity(c0.ring)
        return eye + flip(c0 - eye), flip(c1), flip(c2)

    monkeypatch.setattr(rep, "_rho_coefficients", flipped)
    cert = build_certificate(5, 3)
    assert not cert.verdict
    assert all("error" in r or not r["conjugation_ok"] for r in cert.records)


def test_conjugated_matrix_frozen_value():
    got = matrix_Mk(2) @ matrix_N() @ matrix_Mk(2).inverse()
    expected = _mat([
        ["5 - 2*t - 2*t^-1", "t - 2 + t^-1"],
        ["-4*t + 8 - 4*t^-1", "2*t - 3 + 2*t^-1"],
    ])
    assert got == expected


@pytest.mark.parametrize("seed", range(10))
def test_represented_matrices_are_balanced_with_unit_determinant(seed):
    rng = random.Random(seed)
    genus = rng.choice((2, 3))
    mat = rho(random_valid_lift(rng, genus))
    assert mat.det() == L.one()
    assert all(_balance(mat))


@pytest.mark.parametrize("seed", range(5))
def test_products_of_represented_matrices_stay_balanced(seed):
    rng = random.Random(seed)
    mats = [rho(random_valid_lift(rng, rng.choice((2, 3))))
            for _ in range(rng.randint(2, 5))]
    prod = multiply(mats)
    assert prod.det() == L.one()
    assert all(_balance(prod))


@pytest.mark.parametrize("genus", [2, 3, 4, 5])
def test_rho_is_phi_of_rho_pre_phi(genus):
    # Phi commutes with the involution, so specialising m and n first
    # gives the same matrix as specialising each entry over L_g
    rng = random.Random(40 + genus)
    styles, with_w = set(), 0
    for _ in range(30):
        lift = random_valid_lift(rng, genus)
        styles.add("n = 0" if not lift.n else "m = 0" if not lift.m
                   else "n = q m")
        with_w += bool(lift.w.coeffs)
        assert rho(lift) == rho_pre_phi(lift).map_entries(specialize_phi)
    assert styles == {"n = 0", "m = 0", "n = q m"}
    # genus 2 has no commutator generator: [a2, b2] is the excluded one
    assert with_w or genus == 2


def test_rho_specialises_each_family_once(monkeypatch):
    # the lift check's Q = inv(m) n is the one product over L_g; rho
    # specialises m and n and multiplies over L
    rng = random.Random(3)
    lifts = [random_valid_lift(rng, 3) for _ in range(5)]
    expected = [rho_pre_phi(lift).map_entries(specialize_phi)
                for lift in lifts]
    ring = surface_ring(3)
    products, specialised = [], []
    real = LaurentPoly.__mul__

    def mul(self, other):
        if self.ring is ring and getattr(other, "ring", None) is ring:
            products.append(other)
        return real(self, other)

    def specialise(f):
        specialised.append(f)
        return specialize_phi(f)

    monkeypatch.setattr(LaurentPoly, "__mul__", mul)
    monkeypatch.setattr(rep, "specialize_phi", specialise)
    for lift, want in zip(lifts, expected):
        products.clear()
        specialised.clear()
        assert rho(lift) == want
        assert len(products) == 1
        assert specialised == [lift.m, lift.n]


@pytest.mark.parametrize("lift, message", [
    (LiftClass(2, None, {(0, 0): 1}, {(1, 0): 1}),
     "cross-correlation mismatch at shift (1, 0): 1 != 0"),
    (LiftClass(3, None, {(0, 0, 1, 0): 1, (0, 0, 0, 0): -1},
               {(1, 0, 0, 0): 2, (0, 0, 0, 0): -2}),
     "cross-correlation mismatch at shift (0, 0, 1, 0): 0 != -2"),
    (LiftClass(4, None, parse_poly("t2 - 1 + s3^2", surface_ring(4)),
               parse_poly("t3 - 2*s2 + t4^-1", surface_ring(4))),
     "cross-correlation mismatch at shift (0, 0, 0, 0, 0, 1): 0 != -1"),
    (LiftClass(5, CycleClass(5, {Generator.comm(1, 2):
                                 parse_poly("s2 - 1", surface_ring(5))}),
               parse_poly("t2 - 1", surface_ring(5)),
               parse_poly("s5*t2 - s5 + t2^2", surface_ring(5))),
     "cross-correlation mismatch at shift (0, 0, 0, 0, 1, 0, 0, 0): 1 != 0"),
])
def test_rho_names_the_lift_mismatch(lift, message):
    with pytest.raises(ValueError) as exc:
        rho(lift)
    assert str(exc.value) == f"invalid lift: {message}"


def test_rho_rejects_invalid_lift():
    bad = LiftClass(2, None, {(0, 0): 1}, {(1, 0): 1})
    with pytest.raises(ValueError):
        rho(bad)
    assert rho_pre_phi(bad).det() != surface_ring(2).one()


def test_determinant_check_decides_the_verdict(monkeypatch, capsys):
    # with the lift check off, m = t2 and n = 1 reach rho, whose
    # determinant after Phi is 1 - t^-1 + t: the explicit determinant
    # check alone must turn it into a failure, also under python -O
    monkeypatch.setattr(rep, "validate_lift", lambda lift: None)
    record = {"genus": 2, "m": {"0,1": 1}, "n": {"0,0": 1}}
    lift = LiftClass.from_json(record)
    with pytest.raises(ValueError) as exc:
        rho_in_k(lift)
    message = str(exc.value)
    assert message.startswith("represented matrix [[1 + t, -1], "
                              "[1, -t^-1 + 1]] + ")
    assert message.endswith("has determinant (-t^-1 + 1 + t) k^0, not 1")
    cert = build_certificate(3, 2, base_lift=lift)
    assert cert.records == tuple({"k": k, "error": message} for k in (1, 2, 3))
    assert not cert.verdict
    code = main(["verify", "--genus", "2", "--kmax", "3",
                 "--lift", json.dumps(record)])
    out = capsys.readouterr().out
    assert code == 1
    assert out.splitlines()[-2] == "verdict: FAIL"
    assert json.loads(out.splitlines()[-1].removeprefix("failing record: ")) \
        == {"k": 1, "error": message}


@pytest.mark.parametrize("seed", range(6))
def test_rho_columns_match_twist_action_on_handles(seed):
    # the matrix must be the twist's action in the (a1, b1) basis, read
    # off column by column after collapsing with Phi
    rng = random.Random(seed)
    genus = rng.choice((2, 3))
    lift = random_valid_lift(rng, genus)
    eps = random_epsilon(rng, genus)
    mat = rho(lift)
    image_a1 = twist_apply(lift, CycleClass.basis(genus, Generator.a1()), eps)
    image_b1 = twist_apply(lift, CycleClass.basis(genus, Generator.b1()), eps)
    assert mat.a == specialize_phi(image_a1.a1_coeff())
    assert mat.c == specialize_phi(image_a1.b1_coeff())
    assert mat.b == specialize_phi(image_b1.a1_coeff())
    assert mat.d == specialize_phi(image_b1.b1_coeff())


def _handle_action(twist, genus):
    """The action of a map on classes on the handle span a1, b1, after
    Phi, built from the map's images as rho's columns are."""
    image_a1, image_b1 = (twist(CycleClass.basis(genus, gen))
                          for gen in (Generator.a1(), Generator.b1()))
    return Matrix2(specialize_phi(image_a1.a1_coeff()),
                   specialize_phi(image_b1.a1_coeff()),
                   specialize_phi(image_a1.b1_coeff()),
                   specialize_phi(image_b1.b1_coeff()))


def test_rho_is_multiplicative_on_composed_twists():
    # rho(T_C o T_D) = rho(T_C) rho(T_D): the commutator part T_D leaves
    # on a1 and b1 pairs with C to a polynomial that Phi kills
    rng = random.Random(7)
    for _ in range(10):
        c_lift, d_lift = random_valid_lift(rng, 3), random_valid_lift(rng, 3)
        eps = random_epsilon(rng, 3)
        t_c = _handle_action(lambda x: twist_apply(c_lift, x, eps), 3)
        t_d = _handle_action(lambda x: twist_apply(d_lift, x, eps), 3)
        t_cd = _handle_action(
            lambda x: twist_apply(c_lift, twist_apply(d_lift, x, eps), eps), 3)
        assert t_c == rho(c_lift)
        assert t_cd == t_c @ t_d


# -- balancedness reports ------------------------------------------------


def test_h_form_of_N_is_fully_balanced():
    assert _balance(matrix_N()) == (True, True, True, True)


def test_h_form_flags_unbalanced_entries():
    assert _balance(matrix_Mk(1)) == (True, True, False, True)
    skew = _mat([["t", 0], [0, "t^-1"]])
    assert _balance(skew) == (False, True, True, False)


def test_h_form_exposes_the_four_polynomials():
    form = h_form(matrix_N())
    assert type(form) is tuple
    p1, q1, q2, p2 = form
    assert not p1
    assert q1 == parse_poly("t - 2 + t^-1", L)
    assert not q2
    assert not p2
