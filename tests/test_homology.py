import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import (
    random_cycle_class,
    random_epsilon,
    random_poly,
    random_valid_lift,
)
from twistcert.homology import (
    CycleClass,
    EpsilonTable,
    Generator,
    LiftClass,
    InvalidLift,
    ValidationReport,
    canonical_lift,
    comm_pairs,
    excluded_pair,
    pair_kernel,
    pairing_polynomial,
    pushforward_b1_twist,
    twist_apply,
    validate_lift,
)
from twistcert.laurent import (
    LaurentPoly,
    parse_poly,
    specialize_phi,
    specialize_single,
    surface_ring,
)

Z4 = (0, 0, 0, 0)


# -- generating set ------------------------------------------------------


def test_excluded_pair_is_last_handle_commutator():
    assert excluded_pair(2) == (1, 2)
    assert excluded_pair(3) == (2, 4)
    assert excluded_pair(5) == (4, 8)


def test_comm_pairs_genus_two_is_empty():
    assert comm_pairs(2) == []


def test_comm_pairs_genus_three():
    assert comm_pairs(3) == [(1, 2), (1, 3), (1, 4), (2, 3), (3, 4)]


@pytest.mark.parametrize("genus", [2, 3, 4, 5, 6])
def test_comm_pair_count(genus):
    n = 2 * genus - 2
    assert len(comm_pairs(genus)) == n * (n - 1) // 2 - 1


def test_generator_keys_round_trip():
    for gen in (Generator.a1(), Generator.b1(), Generator.comm(1, 3)):
        assert Generator.from_key(gen.key()) == gen


@pytest.mark.parametrize("text", [
    "a2", "c:1", "c:3:2", "c:x:2", "",
    # only the form Generator.key writes: no sign, space, underscore or
    # leading zero, and no index too long for int() to read
    "c: 1:2", "c:+1:2", "c:0_1:2", "c:01:2", "c:1:2 ", "c:1:" + "2" * 4301,
])
def test_bad_generator_keys_rejected(text):
    with pytest.raises(ValueError, match="^bad generator key"):
        Generator.from_key(text)


def test_generator_index_rules():
    with pytest.raises(ValueError):
        Generator.comm(3, 2)
    with pytest.raises(ValueError):
        Generator.comm(2, 2)
    with pytest.raises(ValueError):
        Generator("a1", 1, 0)
    with pytest.raises(ValueError):
        Generator.comm(2, 4).validate(3)
    with pytest.raises(ValueError):
        Generator.comm(1, 5).validate(3)
    Generator.comm(1, 4).validate(3)


@pytest.mark.parametrize("kind, i, j, bad", [
    ("comm", 1.0, 2.0, "1.0"), ("comm", True, 2, "True"),
    ("comm", 1, "2", "'2'"), ("a1", 0.0, 0, "0.0"),
])
def test_generator_refuses_a_non_integer_index(kind, i, j, bad):
    # a float or bool index would print a key, c:1.0:2.0 or c:True:2,
    # that from_key cannot read back
    with pytest.raises(TypeError) as exc:
        Generator(kind, i, j)
    assert str(exc.value) == f"generator index {bad} is not an integer"


def test_lift_with_a_w_part_round_trips_through_json():
    lift = LiftClass(3, CycleClass.basis(3, Generator.comm(1, 2)))
    record = lift.to_json()
    assert record["w"] == [["c:1:2", "1"]]
    assert LiftClass.from_json(record) == lift


# -- epsilon tables ------------------------------------------------------


def _eps_disjoint():
    return EpsilonTable.from_entries(
        3, [{"x": [1, 2], "y": [3, 4], "value": 1}])


def _eps_parallel():
    return EpsilonTable.from_entries(
        3, [{"x": [1, 2], "y": [1, 3], "value": 1}])


def test_epsilon_entries_reject_bad_data():
    with pytest.raises(ValueError):
        EpsilonTable.from_entries(3, [{"x": [2, 1], "y": [3, 4], "value": 1}])
    with pytest.raises(ValueError):
        EpsilonTable.from_entries(3, [{"x": [1, 2], "y": [1, 2], "value": 1}])
    with pytest.raises(ValueError):
        EpsilonTable.from_entries(3, [{"x": [2, 4], "y": [1, 3], "value": 1}])
    with pytest.raises(ValueError):
        EpsilonTable.from_entries(3, [{"x": [1, 2], "y": [3, 4], "value": 2}])
    with pytest.raises(ValueError):
        EpsilonTable.from_entries(3, [{"x": [1, 2], "value": 1}])


@pytest.mark.parametrize("genus, key, x, y", [
    (3, (2, 1, 4), [1, 2], [2, 4]),
    (4, (3, 1, 6), [1, 3], [3, 6]),
])
def test_table_keys_follow_the_entries_rule(genus, key, x, y):
    # the shared-index key names the pairs x and y, of which y is the
    # excluded [a_g, b_g]: the constructor refuses it as from_entries does
    with pytest.raises(ValueError, match="pairs in the generating set"):
        EpsilonTable(genus, {}, {key: 1})
    with pytest.raises(ValueError, match="pairs in the generating set"):
        EpsilonTable(genus, {}, {key: -1})
    with pytest.raises(ValueError, match=r"entry .* names a pair outside "
                                         "the generating set"):
        EpsilonTable.from_entries(genus, [{"x": x, "y": y, "value": 1}])


@pytest.mark.parametrize("disjoint, parallel", [
    ({((3, 4), (1, 2)): 1}, {}),  # reversed
    ({((1, 2), (2, 3)): 1}, {}),  # not disjoint
    ({(1, 2, 3): 1}, {}),  # a shared-index key
    ({}, {(1, 3, 2): 1}),  # others reversed
    ({}, {(1, 2, 2): 1}),  # one pair twice
    ({}, {((1, 2), (3, 4)): 1}),  # a disjoint key
])
def test_table_keys_must_be_storage_keys(disjoint, parallel):
    with pytest.raises(ValueError, match="not the storage key"):
        EpsilonTable(3, disjoint, parallel)


def test_epsilon_conflicting_entries_rejected():
    entries = [
        {"x": [1, 2], "y": [3, 4], "value": 1},
        {"x": [3, 4], "y": [1, 2], "value": 1},
    ]
    with pytest.raises(ValueError):
        EpsilonTable.from_entries(3, entries)
    # the skew-consistent restatement is fine
    EpsilonTable.from_entries(3, [
        {"x": [1, 2], "y": [3, 4], "value": 1},
        {"x": [3, 4], "y": [1, 2], "value": -1},
    ])


def test_epsilon_entry_fixes_shift_zero_pairing():
    # whichever orientation an entry is given in, its value is the
    # shift-zero intersection number of that ordered pair
    eps = EpsilonTable.from_entries(
        3, [{"x": [1, 3], "y": [3, 4], "value": 1}])
    assert pair_kernel((1, 3), (3, 4), eps).coeff(Z4) == 1
    assert pair_kernel((3, 4), (1, 3), eps).coeff(Z4) == -1


def test_value_reads_an_entry_in_either_order():
    # one storage key per unordered pair: an entry given for (x, y)
    # answers value(x, y) and, with the skew sign, value(y, x)
    pairs = comm_pairs(3)
    for x in pairs:
        for y in pairs:
            if x == y:
                continue
            for v in (-1, 1):
                eps = EpsilonTable.from_entries(
                    3, [{"x": list(x), "y": list(y), "value": v}])
                assert (eps.value(x, y), eps.value(y, x)) == (v, -v)
                assert EpsilonTable.from_entries(
                    3, [{"x": list(y), "y": list(x), "value": -v}]
                ).value(x, y) == v


def test_seeded_table_draws_at_the_first_lookup(monkeypatch):
    draws = []
    real = EpsilonTable.random_skew.__func__

    def counted(cls, genus, rng, density=0.6):
        draws.append(genus)
        return real(cls, genus, rng, density)

    monkeypatch.setattr(EpsilonTable, "random_skew", classmethod(counted))
    eps = EpsilonTable.seeded(4, 11)
    EpsilonTable.seeded(40, 3)  # O(g^4) entries if drawn now
    assert draws == []
    reference = real(EpsilonTable, 4, random.Random(11))
    pairs = comm_pairs(4)
    values = [eps.value(x, y) for x in pairs for y in pairs]
    assert draws == [4]
    assert values == [reference.value(x, y) for x in pairs for y in pairs]
    assert any(values)


# -- generator pairings --------------------------------------------------


def test_disjoint_pairing_values():
    # the coefficient of u^shift in pair_kernel(x, y) is [c_x] . u^shift [c_y]
    kern = pair_kernel((1, 2), (3, 4), _eps_disjoint())
    assert kern.coeff(Z4) == 1
    assert kern.coeff((1, 0, 0, 0)) == -1
    assert kern.coeff((1, 1, -1, -1)) == 1
    assert kern.coeff((2, 0, 0, 0)) == 0
    assert kern.coeff((0, 0, 1, 0)) == 0
    back = pair_kernel((3, 4), (1, 2), _eps_disjoint())
    assert back.coeff(Z4) == -1
    assert back.coeff((-1, 0, 0, 0)) == 1


def test_shared_index_pairing_values():
    kern = pair_kernel((1, 2), (1, 3), _eps_parallel())
    assert kern.coeff(Z4) == 1
    assert kern.coeff((1, 1, -1, 0)) == -1
    assert kern.coeff((-1, 0, 0, 0)) == -1
    assert kern.coeff((0, 1, 0, 0)) == -1


def test_identical_pairs_pair_to_zero():
    eps = random_epsilon(random.Random(0), 3, density=1.0)
    for shift in (Z4, (1, 0, 0, 0), (0, -1, 1, 0)):
        assert pair_kernel((1, 4), (1, 4), eps).coeff(shift) == 0
    assert not pair_kernel((1, 4), (1, 4), eps)


def test_handle_generators_pair_to_zero_here():
    # in pairing_polynomial, a1 and b1 pair with a lift's m and n only,
    # and a commutator class with its w-part only
    eps = random_epsilon(random.Random(1), 3, density=1.0)
    ring = surface_ring(3)
    c = Generator.comm(1, 2)
    handles = LiftClass(3, None, ring.variable("t2") - ring.one(),
                        ring.variable("s2") - ring.one())
    commutator = LiftClass(3, CycleClass.basis(3, c))
    for gen in (Generator.a1(), Generator.b1()):
        assert not pairing_polynomial(CycleClass.basis(3, gen), commutator,
                                      eps)
        assert pairing_polynomial(CycleClass.basis(3, gen), handles, eps)
    assert not pairing_polynomial(CycleClass.basis(3, c), handles, eps)
    assert pairing_polynomial(CycleClass.basis(3, Generator.comm(3, 4)),
                              commutator, eps)


def test_pairing_refuses_a_shift_that_is_not_integral():
    # refused, not truncated to (1, 0, 0, 0)
    with pytest.raises(TypeError, match="exponent"):
        pair_kernel((1, 2), (1, 3), EpsilonTable(3)).coeff((1.5, 0, 0, 0))


@pytest.mark.parametrize("seed", range(5))
def test_generator_pairing_is_skew(seed):
    rng = random.Random(seed)
    eps = random_epsilon(rng, 3, density=0.9)
    pairs = comm_pairs(3)
    for _ in range(40):
        x, y = rng.choice(pairs), rng.choice(pairs)
        shift = tuple(rng.randint(-2, 2) for _ in range(4))
        neg = tuple(-e for e in shift)
        assert pair_kernel(x, y, eps).coeff(shift) == \
            -pair_kernel(y, x, eps).coeff(neg)


@pytest.mark.parametrize("seed", range(4))
def test_pair_kernel_dies_under_every_specialization(seed):
    rng = random.Random(seed)
    genus = rng.choice((3, 4))
    eps = random_epsilon(rng, genus, density=1.0)
    pairs = comm_pairs(genus)
    saw_nonzero = False
    for _ in range(25):
        kern = pair_kernel(rng.choice(pairs), rng.choice(pairs), eps)
        saw_nonzero = saw_nonzero or bool(kern)
        assert kern.evaluate_at_one() == 0
        assert not specialize_phi(kern)
        for keep in range(1, 2 * genus - 1):
            assert not specialize_single(kern, keep)
    assert saw_nonzero


@pytest.mark.parametrize("seed", range(3))
def test_pair_kernel_skew_under_involution(seed):
    rng = random.Random(seed)
    eps = random_epsilon(rng, 3, density=1.0)
    pairs = comm_pairs(3)
    for _ in range(20):
        x, y = rng.choice(pairs), rng.choice(pairs)
        assert pair_kernel(y, x, eps) == -pair_kernel(x, y, eps).involution()


# -- cycle classes -------------------------------------------------------


def test_cycle_class_drops_zero_coefficients():
    ring = surface_ring(2)
    x = CycleClass(2, {Generator.a1(): ring.zero(), Generator.b1(): ring.one()})
    assert list(x.coeffs) == [Generator.b1()]
    assert not x.a1_coeff()


def test_cycle_class_rejects_bad_input():
    ring3 = surface_ring(3)
    with pytest.raises(ValueError):
        CycleClass(2, {Generator.a1(): ring3.one()})
    with pytest.raises(ValueError):
        CycleClass(3, {Generator.comm(2, 4): ring3.one()})
    with pytest.raises(ValueError):
        CycleClass(1)


def test_cycle_class_algebra():
    rng = random.Random(7)
    x = random_cycle_class(rng, 3)
    y = random_cycle_class(rng, 3)
    ring = surface_ring(3)
    f = parse_poly("s2 - t3^-1", ring)
    assert (x + y) - y == x
    assert x.scaled_by(f) + y.scaled_by(f) == (x + y).scaled_by(f)
    assert x + CycleClass(3) == x
    with pytest.raises(ValueError):
        x + random_cycle_class(rng, 2)
    with pytest.raises(AttributeError):
        x.genus = 5


def test_cycle_class_hash_and_order():
    ring = surface_ring(3)
    coeffs = {
        Generator.comm(1, 3): ring.one(),
        Generator.b1(): ring.one(),
        Generator.comm(1, 2): ring.one(),
        Generator.a1(): ring.one(),
    }
    x = CycleClass(3, coeffs)
    assert [g.key() for g in x.coeffs] == ["a1", "b1", "c:1:2", "c:1:3"]
    assert hash(x) == hash(CycleClass(3, dict(coeffs)))


# -- lifts and validation ------------------------------------------------


def test_canonical_lift_shape():
    lift = canonical_lift(2)
    assert lift.m == parse_poly("t2 - 1", surface_ring(2))
    assert not lift.n
    assert not lift.w.coeffs
    assert validate_lift(lift).ok


def test_validate_accepts_proportional_families():
    lift = LiftClass(2, None, {(0, 0): 1}, {(0, 0): 1})
    assert validate_lift(lift).ok


def test_validate_reports_first_violating_shift():
    lift = LiftClass(2, None, {(0, 0): 1}, {(1, 0): 1})
    report = validate_lift(lift)
    assert not report.ok
    assert report.shift == (1, 0)
    assert "mismatch" in report.detail


exp2 = st.tuples(st.integers(-2, 2), st.integers(-2, 2))
family_st = st.dictionaries(exp2, st.integers(-3, 3), max_size=4)


@given(family_st, family_st)
def test_validation_matches_involution_product_identity(mdict, ndict):
    lift = LiftClass(2, None, mdict, ndict)
    ok = validate_lift(lift).ok
    assert ok == (lift.m.involution() * lift.n == lift.n.involution() * lift.m)


def _per_shift_scan(lift):
    """Reference check: each cross-correlation shift summed on its own."""
    m, n = lift.m, lift.n
    supp_m, supp_n = list(m.terms), list(n.terms)
    shifts = set()
    for v in supp_m:
        for w in supp_n:
            p = tuple(b - a for a, b in zip(v, w))
            shifts.add(max(p, tuple(-e for e in p)))
    for p in sorted(shifts):
        lhs = sum(m.coeff(v) * n.coeff(tuple(a + b for a, b in zip(v, p)))
                  for v in supp_m)
        rhs = sum(n.coeff(v) * m.coeff(tuple(a + b for a, b in zip(v, p)))
                  for v in supp_n)
        if lhs != rhs:
            return ValidationReport(
                False, p,
                f"cross-correlation mismatch at shift {p}: {lhs} != {rhs}")
    return ValidationReport(True)


def test_validation_matches_the_per_shift_scan():
    rng = random.Random(59)
    invalid = 0
    for i in range(2100):
        genus = rng.choice((2, 3))
        ring = surface_ring(genus)
        if i % 3 == 0:
            lift = random_valid_lift(rng, genus, max_w_support=0)
            if rng.random() < 0.5:
                # one stray term: usually, not always, invalid
                bump = ring.monomial(
                    [rng.randint(-2, 2) for _ in range(ring.nvars)], 1)
                lift = LiftClass(genus, None, lift.m, lift.n + bump)
        else:
            lift = LiftClass(genus, None,
                             random_poly(rng, ring, max_exp=2),
                             random_poly(rng, ring, max_exp=2))
        report = validate_lift(lift)
        assert report == _per_shift_scan(lift), lift
        invalid += not report.ok
    assert invalid >= 2100 // 3, invalid


def test_pushed_forward_errors_match_each_pushforward():
    # a lift's pushforwards mismatch at its own shift, each side moved
    # by k times the self-correlation of m there
    rng = random.Random(67)
    invalid = moved = 0
    for _ in range(300):
        genus = rng.choice((2, 3))
        ring = surface_ring(genus)
        lift = LiftClass(genus, None, random_poly(rng, ring, max_exp=1),
                         random_poly(rng, ring, max_exp=1))
        report = validate_lift(lift)
        if report.ok:
            continue
        invalid += 1
        ks = [1, 2, 5, 30]
        texts = InvalidLift(lift, report).pushed_forward(ks)
        for k, text in zip(ks, texts):
            pushed = validate_lift(pushforward_b1_twist(lift, k))
            assert text == f"invalid lift: {pushed.detail}"
        moved += len(set(texts)) > 1
    assert invalid >= 150 and moved >= 20, (invalid, moved)


def test_validation_is_one_product_on_a_large_lift(monkeypatch):
    # 250 terms over exponents -40..40: a scan per shift makes millions
    # of coefficient lookups here, one product about one per term of Q
    rng = random.Random(61)
    m = {}
    while len(m) < 250:
        m[(rng.randint(-40, 40), rng.randint(-40, 40))] = rng.choice((-1, 1))
    n = {e: 2 * c for e, c in m.items()}
    calls = []
    lookup = LaurentPoly.coeff

    def counting(self, exponents):
        calls.append(exponents)
        return lookup(self, exponents)

    monkeypatch.setattr(LaurentPoly, "coeff", counting)
    assert validate_lift(LiftClass(2, None, m, n)).ok
    assert len(calls) <= 2 * len(m) * len(n)
    calls.clear()
    n[(41, 0)] = 1
    report = validate_lift(LiftClass(2, None, m, n))
    assert not report.ok and report.shift is not None
    assert len(calls) <= 2 * len(m) * len(n)


def test_lift_rejects_handle_support_in_w():
    ring = surface_ring(3)
    w = CycleClass(3, {Generator.a1(): ring.one()})
    with pytest.raises(ValueError):
        LiftClass(3, w)


def test_lift_rejects_wrong_ring_families():
    with pytest.raises(ValueError):
        LiftClass(2, None, surface_ring(3).one())


def test_lift_as_cycle_class():
    ring = surface_ring(3)
    w = CycleClass(3, {Generator.comm(1, 2): ring.one()})
    lift = LiftClass(3, w, {(0, 0, 0, 0): 2}, ())
    total = lift.as_cycle_class()
    assert total.a1_coeff() == ring.constant(2)
    assert not total.b1_coeff()
    assert total.coeff(Generator.comm(1, 2)) == ring.one()


@pytest.mark.parametrize("seed, genus", [
    *(pytest.param(seed, None, id=str(seed)) for seed in range(6)),
    # seeds whose random lift has a nonempty w-part
    pytest.param(6, 3, id="genus3-w"),
    pytest.param(3, 4, id="genus4-w"),
])
def test_lift_json_round_trip(seed, genus):
    rng = random.Random(seed)
    if genus is None:
        lift = random_valid_lift(rng, rng.choice((2, 3)))
    else:
        lift = random_valid_lift(rng, genus)
        assert len(lift.to_json()["w"]) == 2
    assert LiftClass.from_json(lift.to_json()) == lift


def test_lift_json_rejects_bad_records():
    with pytest.raises(ValueError):
        LiftClass.from_json({"m": {}, "n": {}})
    with pytest.raises(ValueError):
        LiftClass.from_json({"genus": 2, "m": {"0": 1}, "n": {}})
    with pytest.raises(ValueError):
        LiftClass.from_json({"genus": 3, "w": [["a1", "1"]], "m": {}, "n": {}})


@pytest.mark.parametrize("record, message", [
    ({"genus": 3, "w": [["c:1:2", "s2"], ["c:1:2", "t3"]]},
     "w-part names c:1:2 twice"),
    ({"genus": 2, "m": {"0,1,": 1}}, "bad exponent key '0,1,' in m"),
    ({"genus": 2, "n": {"0;1": 1}}, "bad exponent key '0;1' in n"),
    ({"genus": 2, "m": {"0,1001": 1}},
     "exponent key '0,1001' in m exceeds the limit of 1000"),
    ({"genus": 2, "n": {"-1001,0": 1}},
     "exponent key '-1001,0' in n exceeds the limit of 1000"),
    ({"genus": 2, "m": {"0," + "0" * 4300 + "1": 1}},
     "exponent key in m has a number of more than 4300 digits"),
])
def test_lift_json_names_the_bad_part(record, message):
    with pytest.raises(ValueError) as exc:
        LiftClass.from_json(record)
    assert str(exc.value) == message


def test_lift_json_exponent_limit_is_inclusive():
    record = {"genus": 2, "m": {"0,1000": 1, "-1000,0": -1},
              "n": {"0," + "0" * 4299 + "1": 2}}
    lift = LiftClass.from_json(record)
    assert lift.m.terms == {(0, 1000): 1, (-1000, 0): -1}
    assert lift.n.terms == {(0, 1): 2}


# -- pairing against a lift ----------------------------------------------


def test_pairing_with_handle_translates():
    # the coefficient of u^r in pairing_polynomial(x, lift) is x . u^r C~:
    # a1 . u^r C~ = n[-r] and b1 . u^r C~ = -m[-r]
    a1 = CycleClass.basis(2, Generator.a1())
    b1 = CycleClass.basis(2, Generator.b1())
    lift = LiftClass(2, None, (), {(1, 0): 1})
    assert pairing_polynomial(a1, lift).coeff((-1, 0)) == 1
    assert pairing_polynomial(a1, lift).coeff((0, 0)) == 0
    star = canonical_lift(2)
    assert pairing_polynomial(b1, star).coeff((0, -1)) == -1
    assert pairing_polynomial(b1, star).coeff((0, 0)) == 1
    assert pairing_polynomial(b1, star).coeff((1, 0)) == 0


# -- twists --------------------------------------------------------------


def test_twist_about_bounding_curve_on_b1():
    star = canonical_lift(2)
    b1 = CycleClass.basis(2, Generator.b1())
    out = twist_apply(star, b1)
    assert out.b1_coeff() == surface_ring(2).one()
    assert out.a1_coeff() == parse_poly("t2^-1 - 2 + t2", surface_ring(2))
    assert not out.comm_items()


def test_twist_about_bounding_curve_fixes_a1():
    star = canonical_lift(2)
    a1 = CycleClass.basis(2, Generator.a1())
    assert twist_apply(star, a1) == a1


def test_twist_requires_valid_lift():
    bad = LiftClass(2, None, {(0, 0): 1}, {(1, 0): 1})
    with pytest.raises(ValueError):
        twist_apply(bad, CycleClass.basis(2, Generator.a1()))


@pytest.mark.parametrize("seed", range(6))
def test_twist_is_module_linear(seed):
    rng = random.Random(seed)
    genus = rng.choice((2, 3))
    lift = random_valid_lift(rng, genus)
    eps = random_epsilon(rng, genus)
    x = random_cycle_class(rng, genus)
    y = random_cycle_class(rng, genus)
    f = random_poly(rng, surface_ring(genus), max_terms=2, max_exp=1)
    tx, ty = twist_apply(lift, x, eps), twist_apply(lift, y, eps)
    assert twist_apply(lift, x + y, eps) == tx + ty
    assert twist_apply(lift, x.scaled_by(f), eps) == tx.scaled_by(f)


@pytest.mark.parametrize("seed", range(8))
def test_twist_inverse_round_trip(seed):
    # single-generator commutator support keeps the curve's self-pairing
    # trivial, which is what makes the twist invertible on classes
    rng = random.Random(seed)
    genus = rng.choice((2, 3))
    lift = random_valid_lift(rng, genus, max_w_support=1)
    eps = random_epsilon(rng, genus)
    x = random_cycle_class(rng, genus)
    y = twist_apply(lift, x, eps)
    assert twist_apply(lift, y, eps, inverse=True) == x


@pytest.mark.parametrize("seed", range(4))
def test_twist_inverse_round_trip_zero_table(seed):
    rng = random.Random(seed)
    lift = random_valid_lift(rng, 3, max_w_support=3)
    x = random_cycle_class(rng, 3)
    y = twist_apply(lift, x)
    assert twist_apply(lift, y, inverse=True) == x


@pytest.mark.parametrize("seed", range(8))
def test_twist_correction_dies_under_specialization(seed):
    rng = random.Random(seed)
    genus = rng.choice((3, 4))
    lift = random_valid_lift(rng, genus)
    eps = random_epsilon(rng, genus, density=0.9)
    x = CycleClass.basis(genus, Generator.comm(*rng.choice(comm_pairs(genus))))
    p = pairing_polynomial(x, lift, eps)
    assert not specialize_phi(p)
    for keep in range(1, 2 * genus - 1):
        assert not specialize_single(p, keep)


@pytest.mark.parametrize("seed", range(6))
def test_twist_output_after_phi_ignores_epsilon(seed):
    rng = random.Random(seed)
    genus = 3
    lift = random_valid_lift(rng, genus)
    eps1 = random_epsilon(rng, genus)
    eps2 = random_epsilon(rng, genus)
    x = random_cycle_class(rng, genus)
    out1 = twist_apply(lift, x, eps1)
    out2 = twist_apply(lift, x, eps2)
    assert specialize_phi(out1.a1_coeff()) == specialize_phi(out2.a1_coeff())
    assert specialize_phi(out1.b1_coeff()) == specialize_phi(out2.b1_coeff())


def test_twist_output_before_phi_can_depend_on_epsilon():
    # the previous test is not vacuous: before specialization the a1
    # coefficient does see the table
    ring = surface_ring(3)
    w = CycleClass(3, {Generator.comm(1, 2): ring.one()})
    lift = LiftClass(3, w, parse_poly("t2 - 1", ring), ring.zero())
    eps = EpsilonTable.from_entries(
        3, [{"x": [1, 3], "y": [1, 2], "value": 1}])
    x = CycleClass.basis(3, Generator.comm(1, 3))
    with_eps = twist_apply(lift, x, eps)
    without = twist_apply(lift, x)
    assert with_eps.a1_coeff() != without.a1_coeff()
    assert not specialize_phi(with_eps.a1_coeff())
    assert without == x


def test_pairing_polynomial_genus_mismatch():
    with pytest.raises(ValueError):
        pairing_polynomial(CycleClass(3), canonical_lift(2))
    with pytest.raises(ValueError):
        pairing_polynomial(CycleClass(3), canonical_lift(3),
                           EpsilonTable(2))


# -- pushforward under powers of the handle twist ------------------------


def test_pushforward_zero_power_is_identity():
    star = canonical_lift(2)
    assert pushforward_b1_twist(star, 0) == star


def test_pushforward_moves_only_n():
    star = canonical_lift(2)
    moved = pushforward_b1_twist(star, 3)
    assert moved.m == star.m
    assert moved.w == star.w
    assert moved.n == parse_poly("-3 + 3*t2", surface_ring(2))


def test_pushforward_is_additive_in_the_power():
    rng = random.Random(11)
    lift = random_valid_lift(rng, 3)
    once = pushforward_b1_twist(pushforward_b1_twist(lift, 2), 5)
    assert once == pushforward_b1_twist(lift, 7)


@pytest.mark.parametrize("k", [1, 4, 20])
def test_pushforward_preserves_validity(k):
    rng = random.Random(k)
    for genus in (2, 3):
        lift = random_valid_lift(rng, genus)
        assert validate_lift(pushforward_b1_twist(lift, k)).ok


def test_pushforward_requires_integer_power():
    with pytest.raises(TypeError):
        pushforward_b1_twist(canonical_lift(2), 1.5)
