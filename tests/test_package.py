"""Properties of the package source itself."""

import ast
import importlib
import importlib.util
from pathlib import Path

import meanderslice


def test_no_assert_in_the_package():
    # `python -O` strips assert statements, so no certificate may rest on one
    sources = sorted(Path(meanderslice.__file__).parent.glob("*.py"))
    assert sources
    for path in sources:
        tree = ast.parse(path.read_text(), filename=str(path))
        lines = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)]
        assert not lines, "assert in %s at lines %s" % (path.name, lines)


def test_every_traced_function_exists():
    # the benchmark's tracer rebinds these names; a rename would otherwise
    # break only the traced benchmark run
    path = Path(__file__).resolve().parent.parent / "bench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("bench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    assert tracing.TRACED
    for module, function, _ in tracing.TRACED:
        found = getattr(importlib.import_module("meanderslice." + module), function, None)
        assert callable(found), "meanderslice.%s has no function %s" % (module, function)
