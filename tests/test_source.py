"""Source-level guards over the package modules."""

import ast
import pathlib

import knotbench

PACKAGE = pathlib.Path(knotbench.__file__).parent


def test_no_assert_statements():
    # `python -O` strips asserts, so no input check or invariant may rest
    # on one; raise a KnotbenchError subclass instead
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, ast.Assert)]
    assert found == []
