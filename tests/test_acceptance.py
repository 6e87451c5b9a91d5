"""End-to-end acceptance checks for the certificate pipeline.

Each test covers one numbered criterion and prints a single pass line;
run ``python3 -m pytest tests/test_acceptance.py -v -s`` to see them.
A failing criterion fails its test before the line is printed.
"""

import json
import random
import time

from conftest import (
    random_a_element,
    random_b_element,
    random_epsilon,
    random_tree_vertex,
    random_u_element,
    random_valid_lift,
)
from twistcert.amalgam import (
    amalgam_normal_form,
    build_certificate,
    double_cosets_distinct,
    in_A,
    in_B,
    in_U,
)
from twistcert.cli import main
from twistcert.homology import (
    CycleClass,
    EpsilonTable,
    Generator,
    canonical_lift,
    comm_pairs,
    pushforward_b1_twist,
    twist_apply,
)
from twistcert.laurent import specialize_phi, specialize_single
from twistcert.rep import Matrix2, h_form, matrix_Mk, matrix_N, multiply, rho
from twistcert.tree import (
    act,
    base_vertex,
    distance,
    fixes_edge,
    fixes_vertex,
    odd_base_vertex,
    series_ring,
)


def _passed(number: int, label: str, elapsed: float | None = None,
            budget: float | None = None):
    timing = ""
    if elapsed is not None:
        timing = f" [{elapsed:.2f}s < {budget:.0f}s]"
    print(f"criterion {number} ({label}): PASS{timing}")


def test_criterion_01_canonical_curve_identity():
    start = time.perf_counter()
    for genus in range(2, 6):
        image = rho(canonical_lift(genus))
        assert image == matrix_N()
        assert str(image) == "[[1, t^-1 - 2 + t], [0, 1]]"
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    _passed(1, "canonical curve identity", elapsed, 1.0)


def test_criterion_02_conjugation_identity():
    start = time.perf_counter()
    for genus in (2, 3):
        base = canonical_lift(genus)
        n = matrix_N()
        for k in range(1, 21):
            mk = matrix_Mk(k)
            pushed = pushforward_b1_twist(base, k)
            assert rho(pushed) == mk @ n @ mk.inverse()
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0
    _passed(2, "conjugation identity", elapsed, 5.0)


def test_criterion_03_balanced_form():
    rng = random.Random(301)
    images = []
    for index in range(200):
        lift = random_valid_lift(rng, 2 if index % 2 else 3)
        image = rho(lift)
        assert all(entry.is_balanced() for entry in h_form(image))
        assert image.det() == image.ring.one()
        images.append(image)
    for _ in range(40):
        product = multiply(rng.sample(images, rng.randint(2, 5)))
        assert all(entry.is_balanced() for entry in h_form(product))
        assert product.det() == product.ring.one()
    _passed(3, "balanced form of twist images")


def test_criterion_04_w_triviality():
    rng = random.Random(401)
    genus = 3
    gens = [Generator.comm(i, j) for i, j in comm_pairs(genus)]
    saw_nonzero = 0
    for _ in range(100):
        lift = random_valid_lift(rng, genus)
        eps = random_epsilon(rng, genus)
        for gen in gens:
            cycle = CycleClass.basis(genus, gen)
            correction = twist_apply(lift, cycle, eps) - cycle
            coeffs = [correction.a1_coeff(), correction.b1_coeff()]
            coeffs.extend(c for _, c in correction.comm_items())
            for coeff in coeffs:
                if coeff:
                    saw_nonzero += 1
                assert not specialize_phi(coeff)
                for keep in range(1, 2 * genus - 1):
                    assert not specialize_single(coeff, keep)
    assert saw_nonzero > 100
    _passed(4, "twists along commutator classes die under specialization")


def test_criterion_05_membership():
    for k in range(1, 21):
        mk = matrix_Mk(k)
        assert in_A(mk) and not in_U(mk) and not in_B(mk)
    n = matrix_N()
    assert in_B(n) and not in_U(n) and not in_A(n)
    _passed(5, "amalgam membership of the generators")


def test_criterion_06_double_cosets():
    for k in range(1, 21):
        for l in range(k + 1, 21):
            report = double_cosets_distinct(k, l)
            assert report["distinct"] is True
            assert "at t = 0" in report["witness"]
        assert double_cosets_distinct(k, k)["distinct"] is False
    _passed(6, "double coset separation")


def test_criterion_07_certificate_cli(tmp_path, capsys):
    assert main(["verify", "--genus", "2", "--kmax", "20"]) == 0
    assert main(["verify", "--genus", "3", "--kmax", "10"]) == 0
    record = canonical_lift(2).to_json()
    mutations = []
    for family in ("m", "n"):
        for key in record[family]:
            mutated = json.loads(json.dumps(record))
            mutated[family][key] += 1
            mutations.append(mutated)
    extra = json.loads(json.dumps(record))
    extra["n"]["0,0"] = 1
    mutations.append(extra)
    assert len(mutations) >= 3
    for index, mutated in enumerate(mutations):
        path = tmp_path / f"mutation{index}.json"
        path.write_text(json.dumps(mutated))
        assert main(["verify", "--genus", "2", "--kmax", "3",
                     "--lift", str(path)]) == 1
    capsys.readouterr()
    _passed(7, "certificate verdicts and lift mutations")


def _small_sl2(rng: random.Random) -> Matrix2:
    """A determinant-one matrix with every entry exponent within 4."""
    while True:
        kind = rng.randrange(3)
        if kind == 2:
            candidate = random_u_element(rng)
        else:
            candidate = (random_a_element, random_b_element)[kind](rng, 2)
        bound = max((abs(e[0]) for entry in candidate.entries()
                     for e in entry.terms), default=0)
        if bound <= 4:
            return candidate


def test_criterion_08_tree_properties():
    start = time.perf_counter()
    rng = random.Random(801)
    verts = [random_tree_vertex(rng) for _ in range(120)]
    for _ in range(500):
        u, v, w = (rng.choice(verts) for _ in range(3))
        assert distance(u, u) == 0
        assert (distance(u, v) == 0) == (u == v)
        assert distance(u, v) == distance(v, u)
        assert distance(u, w) <= distance(u, v) + distance(v, w)
    elements = [_small_sl2(rng) for _ in range(50)]
    for _ in range(500):
        g = rng.choice(elements)
        v, w = rng.choice(verts), rng.choice(verts)
        assert distance(act(g, v), act(g, w)) == distance(v, w)
    v0, v1 = base_vertex(), odd_base_vertex()
    builders = (random_a_element, random_b_element, random_u_element)
    for index in range(200):
        g = builders[index % 3](rng)
        if in_A(g):
            assert fixes_vertex(g, v0)
        if in_B(g):
            assert fixes_vertex(g, v1)
        if in_U(g):
            assert fixes_edge(g, v0, v1)
    diag = Matrix2.from_rows(series_ring(), [["t", 0], [0, "t^-1"]])
    assert distance(v0, act(diag, v0)) == 2
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0
    _passed(8, "tree metric, isometry and stabilizers", elapsed, 30.0)


def test_criterion_09_normal_form():
    rng = random.Random(901)
    for _ in range(100):
        factors = [random_a_element(rng) if rng.random() < 0.5
                   else random_b_element(rng)
                   for _ in range(rng.randint(1, 6))]
        word = multiply(factors)
        letters = amalgam_normal_form(word)
        assert multiply([l.matrix for l in letters]) == word
        for first, second in zip(letters, letters[1:]):
            assert first.side != second.side
    assert [l.side for l in amalgam_normal_form(matrix_N())] == ["B"]
    for k in (1, 5, 20):
        assert [l.side for l in amalgam_normal_form(matrix_Mk(k))] == ["A"]
    _passed(9, "alternating normal form")


def test_criterion_10_epsilon_independence():
    rng = random.Random(1001)
    reference = build_certificate(3, 3).json_text()
    for _ in range(10):
        eps = EpsilonTable.random_skew(3, rng)
        assert build_certificate(3, 3, eps=eps).json_text() == reference
    _passed(10, "pairing-table independence of certificates")
