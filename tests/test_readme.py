"""README.md names code that must exist: each `module.symbol` it cites
is an attribute of that twistcert module, each `test_x.py::test_name`
pin is a test function of that file, and the library tour runs."""

import ast
import contextlib
import importlib
import io
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
README = (ROOT / "README.md").read_text()
MODULES = ("laurent", "homology", "rep", "tree", "amalgam", "cli")


def test_readme_symbols_and_test_pins_resolve():
    symbols = set(re.findall(r"`(%s)\.(\w+(?:\.\w+)*)" % "|".join(MODULES),
                             README))
    pins = set(re.findall(r"\b(test_\w+\.py)::(\w+)", README))
    missing = []
    for module, path in sorted(symbols):
        obj = importlib.import_module(f"twistcert.{module}")
        for part in path.split("."):
            obj = getattr(obj, part, None)
        if obj is None:
            missing.append(f"{module}.{path}")
    tests = {}
    for filename, name in sorted(pins):
        if filename not in tests:
            source = ROOT / "tests" / filename
            tests[filename] = {
                node.name for node in ast.parse(source.read_text()).body
                if isinstance(node, ast.FunctionDef)
            } if source.exists() else set()
        if name not in tests[filename]:
            missing.append(f"{filename}::{name}")
    assert missing == []
    # the patterns still find the Claims table's references
    assert len(symbols) >= 20 and len(pins) >= 20


def test_readme_library_tour_runs():
    tour, = re.findall(r"^## Library tour\n\n```python\n(.*?)^```", README,
                       re.DOTALL | re.MULTILINE)
    with contextlib.redirect_stdout(io.StringIO()) as out:
        exec(compile(tour, "README.md", "exec"), {})
    assert out.getvalue().splitlines()[-1] == "verdict: PASS"
