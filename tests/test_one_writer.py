"""Reports, `--out` files and model and proof documents share one indent-2
writer, `report.json_text`: no module of the package calls `json.dumps` or
`json.dump` with `indent=` anywhere but in that writer's fallback.  A second
caller would bring the pure-Python encoder back to its output."""

import ast
from pathlib import Path

import pytest

import pckfo

SOURCES = sorted(Path(pckfo.__file__).parent.glob("*.py"))
ALLOWED = {("report.py", "json_text")}


def indented_dumps(source: str) -> list:
    """(enclosing function or None, line) of each `json.dumps(...)` or
    `json.dump(...)` call in source that passes `indent=`."""
    tree = ast.parse(source)
    where = {}      # line -> innermost enclosing function
    for node in ast.walk(tree):     # outer functions come before inner
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            for sub in ast.walk(node):
                where[getattr(sub, "lineno", None)] = node.name
    found = []
    for node in ast.walk(tree):
        if (isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr in ("dumps", "dump")
                and isinstance(node.func.value, ast.Name)
                and node.func.value.id == "json"
                and any(k.arg == "indent" for k in node.keywords)):
            found.append((where.get(node.lineno), node.lineno))
    return found


def test_scan_finds_indented_calls():
    source = ("import json\n"
              "def f(x):\n"
              "    def g():\n"
              "        return json.dumps(x, indent=2)\n"
              "    return json.dumps(x, sort_keys=True)\n"
              "json.dump({}, None, indent=4)\n")
    assert indented_dumps(source) == [(None, 6), ("g", 4)]


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_one_indent_writer(path):
    calls = [(fn, line) for fn, line in indented_dumps(path.read_text())
             if (path.name, fn) not in ALLOWED]
    assert calls == [], f"{path.name} writes indented JSON at {calls}"


def test_the_writer_falls_back_to_json_dumps():
    calls = indented_dumps((Path(pckfo.__file__).parent
                            / "report.py").read_text())
    assert [fn for fn, _ in calls] == ["json_text"]
