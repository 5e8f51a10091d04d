"""`python -O` strips `assert` statements, so the package must not use them
for checks: its behaviour has to be the same with and without -O."""

import ast
from pathlib import Path

import pytest

import pckfo

SOURCES = sorted(Path(pckfo.__file__).parent.glob("*.py"))


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_assert_statements(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    lines = [node.lineno for node in ast.walk(tree)
             if isinstance(node, ast.Assert)]
    assert lines == [], f"{path.name} has assert statements at lines {lines}"
