import random
from fractions import Fraction

import pytest

from conftest import (
    random_a_element,
    random_b_element,
    random_laurent_sl2,
    random_tree_vertex,
    random_u_element,
)
from twistcert.laurent import (
    LaurentPoly,
    ParseError,
    parse_poly,
    single_variable_ring,
    surface_ring,
)
from twistcert.rep import Matrix2, matrix_Mk, matrix_N
from twistcert.tree import (
    MAX_SERIES_STEPS,
    RationalFunction,
    TreeVertex,
    act,
    as_sl2,
    ball_dot,
    base_vertex,
    canonical_vertex,
    distance,
    first_step,
    fixes_edge,
    fixes_vertex,
    geodesic,
    odd_base_vertex,
    parse_vertex,
    series_ring,
    translation_length,
    vertex_matrix,
)

QT = series_ring()


def _q(text: str):
    return parse_poly(text, QT)


def _rf(num: str, den: str = "1") -> RationalFunction:
    return RationalFunction(_q(num), _q(den))


def _rational_vertex(alpha, beta, gamma, delta) -> TreeVertex:
    """The reference reduction, through reduced rational functions.

    Column operations over the local ring bring the matrix to upper
    triangular form; scaling by the center and by units then pins down
    the representative.
    """
    alpha, beta, gamma, delta = (
        RationalFunction.wrap(e) for e in (alpha, beta, gamma, delta))
    det = alpha * delta - beta * gamma
    if not det:
        raise ValueError("lattice matrix is singular")
    if not delta or (gamma and gamma.valuation() < delta.valuation()):
        beta, delta = alpha, gamma
    level = det.valuation() - 2 * delta.valuation()
    return TreeVertex(level, (beta / delta).truncate(level))


# -- rational functions --------------------------------------------------


def test_rational_function_normal_form():
    f = _rf("t^2 + t^3", "t - t^2")
    assert f == _rf("-t - t^2", "-1 + t")
    assert f.den == _q("-1 + t")
    assert f.valuation() == 1
    assert _rf("0", "5 + t").num == QT.zero()
    assert _rf("0", "5 + t").den == QT.one()


def test_rational_function_requires_nonzero_denominator():
    with pytest.raises(ZeroDivisionError):
        RationalFunction(_q("1"), _q("0"))
    with pytest.raises(ZeroDivisionError):
        _rf("1") / _rf("0")


def test_rational_function_arithmetic_identities():
    rng = random.Random(5)
    samples = []
    for _ in range(8):
        num = QT.constant(0)
        while not num:
            num = _q(str(rng.randint(-3, 3))) + \
                QT.monomial((rng.randint(-2, 2),), rng.randint(-2, 2))
        den = _q("1") + QT.monomial((rng.randint(1, 3),), rng.randint(-2, 2))
        samples.append(RationalFunction(num, den))
    for f in samples:
        for g in samples:
            assert (f + g) * (f - g) == f * f - g * g
            assert (f / g) * g == f
        assert f - f == RationalFunction(0)
        assert f + 0 == f
        assert 2 * f == f + f


def test_rational_function_series_expansion():
    geom = _rf("1", "1 - t")
    assert geom.truncate(4) == _q("1 + t + t^2 + t^3")
    f = _rf("t^2 + t^3", "t - t^2")
    assert f.truncate(4) == _q("t + 2*t^2 + 2*t^3")
    assert f.truncate(2) == _q("t")
    assert f.truncate(1) == QT.zero()
    assert RationalFunction(0).truncate(5) == QT.zero()


def test_rational_function_regularity():
    assert _rf("t^2", "1 + t").is_regular_at_zero()
    assert not _rf("1", "t").is_regular_at_zero()
    assert RationalFunction(0).is_regular_at_zero()


def test_rational_function_rejects_nesting_and_other_rings():
    f = _rf("t")
    with pytest.raises(TypeError):
        RationalFunction(f)
    from twistcert.laurent import surface_ring
    with pytest.raises(ValueError):
        RationalFunction(surface_ring(2).one())


# -- vertices ------------------------------------------------------------


def test_vertex_tail_must_sit_below_level():
    TreeVertex(2, _q("t^-1 + 3/2*t"))
    with pytest.raises(ValueError):
        TreeVertex(1, _q("t"))
    with pytest.raises(ValueError):
        TreeVertex(0, _q("1"))


@pytest.mark.parametrize("level", [1.5, 1.0, True, "1", Fraction(1)])
def test_vertex_refuses_a_non_integer_level(level):
    # a level is an integer valuation: (1.5; 0) is no vertex
    with pytest.raises(TypeError) as exc:
        TreeVertex(level, 0)
    assert str(exc.value) == f"vertex level {level!r} is not an integer"


def test_parent_and_child_are_inverse_moves():
    rng = random.Random(2)
    for _ in range(20):
        v = random_tree_vertex(rng)
        c = Fraction(rng.randint(-2, 2), rng.randint(1, 2))
        assert v.child(c).parent() == v
        assert distance(v, v.child(c)) == 1
        assert distance(v, v.parent()) == 1


def test_vertex_rendering_round_trip():
    rng = random.Random(3)
    for _ in range(20):
        v = random_tree_vertex(rng)
        assert parse_vertex(str(v)) == v
    assert str(base_vertex()) == "(0; 0)"
    assert str(odd_base_vertex()) == "(-1; 0)"
    assert parse_vertex("base") == base_vertex()
    assert parse_vertex("( -1 ; 0 )") == odd_base_vertex()


@pytest.mark.parametrize("text", ["(1, 0)", "1; 0", "(x; 0)", "()"])
def test_vertex_parse_errors(text):
    with pytest.raises(ParseError):
        parse_vertex(text)


# -- canonical lattice reduction ------------------------------------------


def test_canonical_vertex_of_identity_is_base():
    assert canonical_vertex(1, 0, 0, 1) == base_vertex()


def test_canonical_vertex_of_diagonal():
    assert canonical_vertex(_q("t"), 0, 0, 1) == TreeVertex(1, QT.zero())
    assert canonical_vertex(_q("t^-1"), 0, 0, 1) == odd_base_vertex()


def test_canonical_vertex_scaling_invariance_example():
    plain = canonical_vertex(1, _q("t^-1"), 0, 1)
    scaled = canonical_vertex(_q("t"), 1, 0, _q("t"))
    assert plain == scaled == TreeVertex(0, _q("t^-1"))


def test_canonical_vertex_scaling_invariance_random():
    rng = random.Random(7)
    for _ in range(15):
        mat = random_laurent_sl2(rng)
        lam = _q(f"{rng.randint(1, 3)}*t^{rng.randint(-2, 2)}") + \
            _q(str(rng.randint(0, 2)))
        entries = mat.entries()
        scaled = [lam * e for e in entries]
        assert canonical_vertex(*entries) == canonical_vertex(*scaled)


def _random_entry(rng: random.Random) -> LaurentPoly:
    terms = {}
    for _ in range(rng.randint(0, 3)):
        e = rng.randint(-3, 3)
        terms[(e,)] = terms.get((e,), 0) + Fraction(
            rng.choice((-3, -2, -1, 1, 2, 3)), rng.choice((1, 2)))
    return LaurentPoly(QT, terms)


def test_canonical_vertex_matches_rational_reduction():
    # random bases (non-unit determinants, often delta = 0 or
    # v(gamma) < v(delta)) and bases g [[t^a, r], [0, 1]] scaled by a
    # monomial (unit determinants)
    rng = random.Random(21)
    seen = {"unit det": 0, "non-unit det": 0, "delta = 0": 0,
            "v(gamma) < v(delta)": 0}
    checked = 0
    while checked < 2000:
        if rng.random() < 0.25:
            lam = QT.monomial((rng.randint(-2, 2),), rng.choice((1, -2)))
            basis = random_laurent_sl2(rng, 2) @ vertex_matrix(
                random_tree_vertex(rng))
            entries = [lam * e for e in basis.entries()]
        else:
            entries = [_random_entry(rng) for _ in range(4)]
        alpha, beta, gamma, delta = entries
        det = alpha * delta - beta * gamma
        if not det:
            with pytest.raises(ValueError, match="singular"):
                canonical_vertex(*entries)
            continue
        seen["unit det" if len(det.terms) == 1 else "non-unit det"] += 1
        seen["delta = 0"] += not delta
        seen["v(gamma) < v(delta)"] += bool(
            delta and gamma and gamma.valuation() < delta.valuation())
        assert canonical_vertex(*entries) == _rational_vertex(*entries)
        checked += 1
    assert min(seen.values()) >= 100, seen


def test_canonical_vertex_takes_laurent_entries_only():
    # the same vertex from ints, Fractions and Z or Q polynomials in t
    zt = single_variable_ring("t")
    assert canonical_vertex(2, Fraction(1, 2), zt.zero(), zt.constant(1)) \
        == canonical_vertex(_q("2"), _q("1/2"), 0, 1) == base_vertex()
    with pytest.raises(TypeError, match="RationalFunction"):
        canonical_vertex(_rf("t", "1 + t"), 0, 0, 1)
    with pytest.raises(TypeError, match="float"):
        canonical_vertex(1.5, 0, 0, 1)
    with pytest.raises(ValueError, match="univariate in t"):
        canonical_vertex(surface_ring(2).one(), 0, 0, 1)
    with pytest.raises(ValueError, match="univariate in t"):
        canonical_vertex(single_variable_ring("s").one(), 0, 0, 1)


def test_canonical_vertex_rejects_singular_input():
    with pytest.raises(ValueError):
        canonical_vertex(1, 1, 1, 1)


def test_vertex_matrix_round_trips_through_reduction():
    rng = random.Random(9)
    for _ in range(15):
        v = random_tree_vertex(rng)
        assert canonical_vertex(*vertex_matrix(v).entries()) == v


# -- the action ----------------------------------------------------------


def test_identity_acts_trivially():
    rng = random.Random(11)
    eye = Matrix2.identity(QT)
    for _ in range(10):
        v = random_tree_vertex(rng)
        assert act(eye, v) == v


def test_action_requires_determinant_one():
    with pytest.raises(ValueError):
        act(Matrix2.from_rows(QT, [["t", 0], [0, 1]]), base_vertex())


def test_diagonal_translation_moves_base_distance_two():
    g = Matrix2.from_rows(QT, [["t", 0], [0, "t^-1"]])
    image = act(g, base_vertex())
    assert image == TreeVertex(2, QT.zero())
    assert distance(base_vertex(), image) == 2


def test_twist_power_matrices_fix_base():
    for k in (1, 2, 20):
        assert act(matrix_Mk(k), base_vertex()) == base_vertex()


def test_action_is_a_group_action():
    rng = random.Random(13)
    for _ in range(10):
        g = random_laurent_sl2(rng)
        h = random_laurent_sl2(rng)
        v = random_tree_vertex(rng)
        assert act(g @ h, v) == act(g, act(h, v))


def test_action_matches_rational_reduction():
    # act reduces the basis g [[t^a, r], [0, 1]] knowing its determinant
    # is t^a; the reference reduces it through rational functions
    rng = random.Random(17)
    pairs = [(random_laurent_sl2(rng), random_tree_vertex(rng))
             for _ in range(200)]
    # the Weyl element on untailed vertices gives delta = 0 (column swap)
    weyl = Matrix2.from_rows(QT, [[0, -1], [1, 0]])
    pairs += [(weyl, TreeVertex(a, QT.zero())) for a in (-2, 0, 3)]
    for g, v in pairs:
        basis = g @ vertex_matrix(v)
        assert act(g, v) == _rational_vertex(*basis.entries())


def test_action_rejects_other_variables():
    with pytest.raises(ValueError, match="univariate in t"):
        act(Matrix2.identity(single_variable_ring("s")), base_vertex())


def test_action_refuses_a_tail_past_the_step_limit():
    # the shear moves (a; 0) to (a; 1), whose tail 1/1 takes a steps;
    # the limit is checked before the expansion starts
    shear = Matrix2.from_rows(QT, [[1, 1], [0, 1]])
    far = TreeVertex(MAX_SERIES_STEPS, QT.zero())
    assert act(shear, far) == TreeVertex(MAX_SERIES_STEPS, QT.one())
    with pytest.raises(ValueError, match="over the limit of 100000 steps"):
        act(shear, TreeVertex(MAX_SERIES_STEPS + 1, QT.zero()))
    # a lower entry of two terms doubles the steps of each coefficient
    t = QT.variable(0)
    assert canonical_vertex(t ** 50000, 1, 0, QT.one() + t).a == 50000
    with pytest.raises(ValueError, match="50001 coefficients"):
        canonical_vertex(t ** 50001, 1, 0, QT.one() + t)


def test_action_is_isometric():
    rng = random.Random(15)
    for _ in range(25):
        g = random_laurent_sl2(rng)
        v = random_tree_vertex(rng)
        w = random_tree_vertex(rng)
        assert distance(act(g, v), act(g, w)) == distance(v, w)


# -- the metric ----------------------------------------------------------


def test_metric_axioms_on_random_triples():
    rng = random.Random(17)
    for _ in range(40):
        u = random_tree_vertex(rng)
        v = random_tree_vertex(rng)
        w = random_tree_vertex(rng)
        assert distance(u, u) == 0
        assert (distance(u, v) == 0) == (u == v)
        assert distance(u, v) == distance(v, u)
        assert distance(u, w) <= distance(u, v) + distance(v, w)


def test_distance_frozen_values():
    assert distance(base_vertex(), odd_base_vertex()) == 1
    w = TreeVertex(2, _q("1/2*t^-1 + t"))
    assert distance(base_vertex(), w) == 4
    assert distance(TreeVertex(-2, QT.zero()), TreeVertex(3, QT.zero())) == 5


def test_geodesics_step_through_adjacent_vertices():
    rng = random.Random(19)
    for _ in range(20):
        v = random_tree_vertex(rng)
        w = random_tree_vertex(rng)
        if v == w:
            continue
        path = geodesic(v, w)
        assert path[0] == v and path[-1] == w
        assert len(path) == distance(v, w) + 1
        for a, b in zip(path, path[1:]):
            assert distance(a, b) == 1
        assert distance(first_step(v, w), w) == distance(v, w) - 1


def test_geodesic_frozen_route():
    w = TreeVertex(2, _q("1/2*t^-1 + t"))
    route = [str(v) for v in geodesic(base_vertex(), w)]
    assert route == ["(0; 0)", "(-1; 0)", "(0; 1/2*t^-1)",
                     "(1; 1/2*t^-1)", "(2; 1/2*t^-1 + t)"]


def test_first_step_requires_distinct_vertices():
    with pytest.raises(ValueError):
        first_step(base_vertex(), base_vertex())


# -- stabilizers ----------------------------------------------------------


def test_fundamental_edge_stabilizer_facts():
    v0, v1 = base_vertex(), odd_base_vertex()
    n = matrix_N()
    assert fixes_vertex(n, v1) and not fixes_vertex(n, v0)
    for k in (1, 3, 20):
        mk = matrix_Mk(k)
        assert fixes_vertex(mk, v0) and not fixes_vertex(mk, v1)
    assert fixes_edge(Matrix2.identity(QT), v0, v1)
    assert not fixes_edge(n, v0, v1)


def test_fixes_edge_requires_adjacency():
    with pytest.raises(ValueError):
        fixes_edge(Matrix2.identity(QT), base_vertex(),
                   TreeVertex(2, QT.zero()))


def test_stabilizers_match_amalgam_membership():
    from twistcert.amalgam import in_A, in_B, in_U
    rng = random.Random(21)
    v0, v1 = base_vertex(), odd_base_vertex()
    elements = []
    for _ in range(12):
        elements.append(random_a_element(rng))
        elements.append(random_b_element(rng))
        elements.append(random_u_element(rng))
        elements.append(random_laurent_sl2(rng))
    for g in elements:
        assert in_A(g) == fixes_vertex(g, v0)
        assert in_B(g) == fixes_vertex(g, v1)
        assert in_U(g) == fixes_edge(g, v0, v1)


# -- translation lengths ---------------------------------------------------


def test_translation_length_of_elliptic_elements():
    assert translation_length(Matrix2.identity(QT)) == 0
    assert translation_length(matrix_N()) == 0
    assert translation_length(matrix_Mk(5)) == 0


def test_translation_length_of_hyperbolic_elements():
    diag = Matrix2.from_rows(QT, [["t", 0], [0, "t^-1"]])
    assert translation_length(diag) == 2
    product = matrix_Mk(3) @ matrix_N()
    assert translation_length(product) == 2


def test_translation_length_parity_is_even():
    rng = random.Random(23)
    for _ in range(10):
        assert translation_length(random_laurent_sl2(rng)) % 2 == 0


def test_translation_length_reports_truncated_scans():
    diag = Matrix2.from_rows(QT, [["t^2", 0], [0, "t^-2"]])
    shift = Matrix2.from_rows(QT, [[1, "t^-3"], [0, 1]])
    g = shift @ diag @ shift.inverse()
    assert translation_length(g) == 4


def _displacement_minimum(g: Matrix2) -> int:
    """min d(v, g v) over the geodesic from the base vertex to its image.

    That geodesic meets the axis of a hyperbolic element and the fixed
    tree of an elliptic one, so the minimum is the translation length.
    """
    start = base_vertex()
    return min(distance(v, act(g, v))
               for v in geodesic(start, act(g, start)))


def test_translation_length_matches_displacement_scan():
    rng = random.Random(29)
    elements = [random_laurent_sl2(rng) for _ in range(150)]
    for n in range(1, 5):
        diag = Matrix2.from_rows(QT, [[f"t^{n}", 0], [0, f"t^{-n}"]])
        for _ in range(13):
            h = random_laurent_sl2(rng)
            elements.append(h @ diag @ h.inverse())
    assert {translation_length(g) for g in elements} == {0, 2, 4, 6, 8}
    for g in elements:
        assert translation_length(g) == _displacement_minimum(g)


def test_as_sl2_rejects_non_unimodular_and_multivariate_input():
    with pytest.raises(ValueError, match="determinant"):
        as_sl2(Matrix2.from_rows(QT, [["t", 0], [0, 1]]))
    with pytest.raises(ValueError, match="univariate in t"):
        as_sl2(Matrix2.identity(surface_ring(2)))
    assert as_sl2(matrix_N()) == matrix_N().map_entries(
        lambda f: f.as_domain("Q"))


# -- ball rendering --------------------------------------------------------


def test_ball_dot_radius_one():
    text = ball_dot(radius=1)
    assert text.splitlines()[0] == "graph ball {"
    assert '"(0; 0)" -- "(-1; 0)";' in text
    assert '"(0; 0)" -- "(1; 0)";' in text
    assert '"(0; 0)" -- "(1; 1)";' in text
    assert text.count("--") == 3


def test_ball_dot_radius_zero_is_a_single_node():
    text = ball_dot(radius=0)
    assert '"(0; 0)";' in text
    assert "--" not in text


# recorded while ball_dot kept a set of the edges it had drawn
BALL_AROUND_2_5T = """graph ball {
  "(-1; 0)";
  "(0; 0)";
  "(1; 0)";
  "(1; 1)";
  "(2; 0)";
  "(2; 5*t)";
  "(2; t)";
  "(3; 0)";
  "(3; 5*t + t^2)";
  "(3; 5*t)";
  "(3; t + t^2)";
  "(3; t)";
  "(3; t^2)";
  "(4; 5*t + t^2 + t^3)";
  "(4; 5*t + t^2)";
  "(4; 5*t + t^3)";
  "(4; 5*t)";
  "(5; 5*t + t^2 + t^3 + t^4)";
  "(5; 5*t + t^2 + t^3)";
  "(5; 5*t + t^2 + t^4)";
  "(5; 5*t + t^2)";
  "(5; 5*t + t^3 + t^4)";
  "(5; 5*t + t^3)";
  "(5; 5*t + t^4)";
  "(5; 5*t)";
  "(2; 5*t)" -- "(1; 0)";
  "(2; 5*t)" -- "(3; 5*t)";
  "(2; 5*t)" -- "(3; 5*t + t^2)";
  "(1; 0)" -- "(0; 0)";
  "(1; 0)" -- "(2; 0)";
  "(1; 0)" -- "(2; t)";
  "(3; 5*t)" -- "(4; 5*t)";
  "(3; 5*t)" -- "(4; 5*t + t^3)";
  "(3; 5*t + t^2)" -- "(4; 5*t + t^2)";
  "(3; 5*t + t^2)" -- "(4; 5*t + t^2 + t^3)";
  "(0; 0)" -- "(-1; 0)";
  "(0; 0)" -- "(1; 1)";
  "(2; 0)" -- "(3; 0)";
  "(2; 0)" -- "(3; t^2)";
  "(2; t)" -- "(3; t)";
  "(2; t)" -- "(3; t + t^2)";
  "(4; 5*t)" -- "(5; 5*t)";
  "(4; 5*t)" -- "(5; 5*t + t^4)";
  "(4; 5*t + t^3)" -- "(5; 5*t + t^3)";
  "(4; 5*t + t^3)" -- "(5; 5*t + t^3 + t^4)";
  "(4; 5*t + t^2)" -- "(5; 5*t + t^2)";
  "(4; 5*t + t^2)" -- "(5; 5*t + t^2 + t^4)";
  "(4; 5*t + t^2 + t^3)" -- "(5; 5*t + t^2 + t^3)";
  "(4; 5*t + t^2 + t^3)" -- "(5; 5*t + t^2 + t^3 + t^4)";
}"""


def test_ball_dot_off_the_base_frozen():
    # the centre's parent (1; 0) does not list it among the explored
    # children (0, 1), so the one edge between them is drawn from the
    # centre's side only
    assert ball_dot(parse_vertex("(2; 5*t)"), 3) == BALL_AROUND_2_5T


def test_ball_dot_respects_coefficient_set():
    text = ball_dot(radius=2, coefficients=(0,))
    # a path: two steps up, two steps down from the base vertex
    assert text.count("--") == 4
