"""Properties of the package source itself."""

import ast
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
