"""The benchmark tracer wraps named functions and methods of twistcert in
place; every name it probes must still exist where it looks, or a traced
run fails only when the tracer is installed."""

import importlib
import importlib.util
from pathlib import Path

import pytest

from twistcert.laurent import LaurentRing

TRACER = Path(__file__).resolve().parent.parent / "bench" / "tracer.py"


def _probes():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer.PROBES


@pytest.mark.parametrize("module_name, attr",
                         [probe[:2] for probe in _probes()],
                         ids=[".".join(probe[:2]) for probe in _probes()])
def test_every_probe_resolves(module_name, attr):
    home = importlib.import_module(f"twistcert.{module_name}")
    if "." in attr:  # a method, wrapped in its own class's __dict__
        cls_name, method = attr.split(".")
        assert callable(getattr(home, cls_name).__dict__[method])
    else:
        assert callable(getattr(home, attr))


def test_ring_equality_is_there_to_count():
    # the tracer counts every call of the value equality of rings
    assert LaurentRing.__eq__ is not object.__eq__
