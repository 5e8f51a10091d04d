"""`syntax.py` alone decides the identity of a formula or a term: its
stored hash and free variables (`_hash`, `_fv`) are written and read there
only.  Every other module asks through `hash()`, `==` and `free_vars`, so
the way they are computed can change in one place."""

import ast
from pathlib import Path

import pytest

import pckfo

SOURCES = sorted(p for p in Path(pckfo.__file__).parent.glob("*.py")
                 if p.name != "syntax.py")
STORED = {"_hash", "_fv"}


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_stored_identity_outside_syntax(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    lines = [node.lineno for node in ast.walk(tree)
             if isinstance(node, ast.Attribute) and node.attr in STORED
             or isinstance(node, ast.Constant) and node.value in STORED]
    assert lines == [], f"{path.name} reads a formula's stored identity" \
                        f" at lines {lines}"
