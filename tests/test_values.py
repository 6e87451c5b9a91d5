"""The value contract of the immutable value classes: equality and hash by
field, no assignment or deletion, usable as dict keys and cache
arguments, a copy, deep copy and pickle round trip that are equal, and a
repr that names the class.  Each instance comes from a real call."""

import copy
import pickle
import re
import subprocess
import sys
from fractions import Fraction
from functools import cache
from pathlib import Path

import pytest

from twistcert import (
    AmalgamLetter,
    CycleClass,
    Generator,
    LaurentPoly,
    LaurentRing,
    LiftClass,
    Matrix2,
    RingHom,
    RingMismatchError,
    TreeVertex,
    amalgam_normal_form,
    ball_dot,
    base_vertex,
    canonical_lift,
    canonical_vertex,
    double_cosets_distinct,
    matrix_Mk,
    matrix_N,
    parse_poly,
    phi_hom,
    pushforward_b1_twist,
    series_ring,
    single_variable_ring,
    specialize_single,
    surface_ring,
)
from twistcert.tree import RationalFunction

SRC = Path(__file__).resolve().parent.parent / "src"


def _qt(text: str):
    return parse_poly(text, series_ring())


def _letter(rows) -> AmalgamLetter:
    letter, = amalgam_normal_form(Matrix2.from_rows(series_ring(), rows))
    return letter


# (class, its fields in positional order, an instance, an instance that
# differs from it in at least one field)
CASES = [
    (LaurentRing, ("names", "domain"),
     lambda: surface_ring(2), lambda: surface_ring(2, "Q")),
    (LaurentPoly, ("ring", "terms"),  # two of the polynomials h_form gives
     lambda: matrix_N().b, lambda: matrix_Mk(2).c),
    (RingHom, ("source", "target", "images"),
     lambda: phi_hom(surface_ring(2)), lambda: phi_hom(surface_ring(3))),
    (Generator, ("kind", "i", "j"),
     lambda: Generator.comm(1, 2), lambda: Generator.comm(1, 3)),
    (Matrix2, ("a", "b", "c", "d"), matrix_N, lambda: matrix_Mk(2)),
    (TreeVertex, ("a", "r"),
     lambda: canonical_vertex(1, series_ring().variable(0) ** -1, 0, 1),
     base_vertex),
    (AmalgamLetter, ("side", "matrix"),
     lambda: _letter([["1", "0"], ["t", "1"]]),
     lambda: _letter([["1", "0"], ["2*t", "1"]])),
    (CycleClass, ("genus", "coeffs"),
     lambda: canonical_lift(2).as_cycle_class(),
     lambda: CycleClass.basis(2, Generator.a1())),
    (LiftClass, ("genus", "w", "m", "n"),
     lambda: canonical_lift(2),
     lambda: pushforward_b1_twist(canonical_lift(2), 1)),
    (RationalFunction, ("num", "den"),
     lambda: RationalFunction(_qt("t^2 - t"), _qt("t^2 - 1")),
     lambda: RationalFunction(_qt("t^2"), 2)),
]


@pytest.fixture(params=CASES, ids=[case[0].__name__ for case in CASES])
def case(request):
    cls, fields, make, make_other = request.param
    value = make()
    assert type(value) is cls
    return cls, fields, value, make_other()


def test_equal_fields_give_equal_values_and_hashes(case):
    cls, fields, value, other = case
    values = [getattr(value, name) for name in fields]
    for twin in (cls(*values), cls(**dict(zip(fields, values)))):
        # the constructor hands out the one shared ring per signature
        assert (twin is value) == (cls is LaurentRing)
        assert twin == value and not twin != value
        assert hash(twin) == hash(value)
    assert value != other and not value == other
    assert value != tuple(values)


def test_fields_cannot_be_assigned_or_deleted(case):
    cls, fields, value, other = case
    before = [getattr(value, name) for name in fields]
    for name in fields:
        with pytest.raises(AttributeError):
            setattr(value, name, getattr(other, name))
        with pytest.raises(AttributeError):
            delattr(value, name)
    with pytest.raises(AttributeError):
        value.extra = 1
    assert [getattr(value, name) for name in fields] == before


def test_values_are_dict_keys_and_cache_arguments(case):
    cls, fields, value, other = case
    twin = cls(*(getattr(value, name) for name in fields))
    table = {value: "value", other: "other"}
    assert table[twin] == "value"
    calls = []

    @cache
    def seen(v):
        calls.append(v)
        return len(calls)

    assert seen(value) == seen(twin) == 1
    assert seen(other) == 2


def test_copies_are_equal(case):
    cls, fields, value, _ = case
    for twin in (copy.copy(value), copy.deepcopy(value),
                 pickle.loads(pickle.dumps(value))):
        assert type(twin) is cls
        assert twin == value and hash(twin) == hash(value)


def test_an_unpickled_ring_is_the_shared_ring():
    # one ring object per signature, so ring checks stay identity checks
    for ring in (surface_ring(3), surface_ring(2, "Q"), series_ring()):
        assert pickle.loads(pickle.dumps(ring)) is ring
        assert copy.deepcopy(ring) is ring
    poly = copy.deepcopy(canonical_lift(3)).m
    assert poly.ring is surface_ring(3)


@pytest.mark.parametrize("operation", [
    lambda: series_ring().variable(0) + 1,
    lambda: 1 + series_ring().variable(0),
    lambda: series_ring().variable(0) - 1,
    lambda: 1 - series_ring().variable(0),
    lambda: series_ring().variable(0) * 1.5,
    lambda: 1.5 * series_ring().variable(0),
    lambda: series_ring().variable(0) * None,
    lambda: matrix_N() + 1,
    lambda: matrix_N() - 1,
    lambda: 1 - matrix_N(),
    lambda: canonical_lift(2).w + 1,
    lambda: canonical_lift(2).w - 1,
    lambda: canonical_lift(2).w - matrix_N(),
], ids=["poly+int", "int+poly", "poly-int", "int-poly", "poly*float",
        "float*poly", "poly*None", "matrix+int", "matrix-int", "int-matrix",
        "class+int", "class-int", "class-matrix"])
def test_a_foreign_operand_raises_type_error(operation):
    # the value returns NotImplemented, so Python names both operand types
    with pytest.raises(TypeError, match="unsupported operand"):
        operation()


# (what the message calls the argument, a call that passes it)
INTEGER_ARGUMENTS = [
    ("exponent", lambda n: series_ring().variable(0) ** n),
    ("exponent", lambda n: surface_ring(2).monomial((0, n))),
    ("variable index", lambda n: surface_ring(2).variable(n)),
    ("variable index",
     lambda n: specialize_single(canonical_lift(2).m, n)),
    ("generator index", lambda n: Generator.comm(n, 2)),
    ("vertex level", lambda n: TreeVertex(n, 0)),
    ("radius", lambda n: ball_dot(base_vertex(), n)),
    ("twist power", lambda n: double_cosets_distinct(n, 2)),
    ("twist power", lambda n: double_cosets_distinct(2, n)),
    ("twist power", matrix_Mk),
    ("twist power", lambda n: pushforward_b1_twist(canonical_lift(2), n)),
]


@pytest.mark.parametrize("bad", [True, 1.5], ids=repr)
@pytest.mark.parametrize("what, call", INTEGER_ARGUMENTS,
                         ids=["pow", "monomial", "variable",
                              "specialize_single", "generator", "vertex",
                              "ball_dot", "double_coset_k", "double_coset_l",
                              "matrix_Mk", "pushforward"])
def test_an_integer_argument_refuses_a_bool_or_a_float(what, call, bad):
    # a bool is an int to Python, and a float would be truncated or
    # printed as it is: both are refused, with one message
    with pytest.raises(TypeError,
                       match=f"^{what} {re.escape(repr(bad))} is not an "
                             "integer$"):
        call(bad)
    call(1)


@pytest.mark.parametrize("call", [
    lambda: Matrix2(*matrix_N().entries()[:3], series_ring().one()),
    lambda: Matrix2.from_rows(single_variable_ring(),
                              [[series_ring().one(), 0], [0, 1]]),
    lambda: matrix_N() @ matrix_N().map_entries(
        lambda f: f.as_domain("Q")),
    lambda: CycleClass(2, {Generator.a1(): surface_ring(3).one()}),
    lambda: CycleClass.basis(2, Generator.a1()).scaled_by(
        surface_ring(3).one()),
    lambda: CycleClass(2).scaled_by(surface_ring(2, "Q").one()),
    lambda: LiftClass(2, None, surface_ring(3).one()),
    lambda: RingHom(single_variable_ring(), single_variable_ring(),
                    (series_ring().one(),)),
    lambda: phi_hom(surface_ring(2)).apply(surface_ring(3).one()),
    lambda: surface_ring(2).one() + surface_ring(2, "Q").one(),
], ids=["matrix", "from_rows", "matmul", "cycle_class", "scaled_by",
        "scaled_by_empty", "lift", "ring_hom", "ring_hom_apply", "sum"])
def test_a_foreign_ring_raises_ring_mismatch_error(call):
    # one error for every value built from parts of two rings; it is a
    # ValueError, and names both rings
    with pytest.raises(RingMismatchError, match=r"^.+ lives in \(.+, not in "
                                                r"\("):
        call()


def test_a_vertex_child_takes_a_coefficient_of_q():
    # read as a coefficient, not converted: 0.1 would be the binary
    # fraction 3602879701896397/36028797018963968
    for bad in (0.1, True, "1/2"):
        with pytest.raises(TypeError):
            base_vertex().child(bad)
    assert str(base_vertex().child(Fraction(1, 2))) == "(1; 1/2)"


def test_repr_names_the_class(case):
    cls, fields, value, _ = case
    text = repr(value)
    assert cls.__name__ in text
    if "__repr__" not in vars(cls):  # the field repr of the base
        assert text.startswith(f"{cls.__name__}({fields[0]}=")
        assert all(f"{name}=" in text for name in fields)


def test_cli_import_loads_no_code_generation_modules():
    # pytest itself imports these, so the check needs a fresh
    # interpreter, without site packages; annotations are strings, so
    # typing is not needed at run time, and paths are opened as given
    probe = ("import sys; sys.path.insert(0, sys.argv[1]); "
             "import twistcert.cli; "
             "print(sorted({'dataclasses', 'inspect', 'typing', 'pathlib'} "
             "& set(sys.modules)))")
    out = subprocess.run([sys.executable, "-S", "-c", probe, str(SRC)],
                         capture_output=True, text=True, check=True).stdout
    assert out == "[]\n"
