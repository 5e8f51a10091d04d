"""Inputs may nest far deeper than the interpreter's recursion limit, so the
package walks formulas, terms and proofs in loops.  A function that calls
itself, directly or through other functions of its module, is a raw
`RecursionError` waiting for a deep enough input."""

import ast
from pathlib import Path

import pytest

import pckfo

SOURCES = sorted(Path(pckfo.__file__).parent.glob("*.py"))

# module -> {function: why its recursion is bounded}
ALLOWED = {}


def _defs(body, qual, cls, scope, out):
    """Record each function under body as out[qualified name] = (node,
    class, scope); scope maps the bare names it can call to qualified
    ones.  A method is Class.name; a nested function is outer.name."""
    local = dict(scope)
    for node in body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            local[node.name] = qual + node.name
    for node in body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            name = qual + node.name
            out[name] = (node, cls, local)
            _defs(node.body, name + ".", None, local, out)
        elif isinstance(node, ast.ClassDef):
            _defs(node.body, qual + node.name + ".", qual + node.name,
                  scope, out)


def _calls(node, cls, scope, names):
    """The functions of the module that node's body calls; a lambda is
    part of the body, a nested function is not."""
    found = set()
    todo = list(node.body)
    while todo:
        n = todo.pop()
        if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef,
                          ast.ClassDef)):
            continue
        if isinstance(n, ast.Call):
            fn = n.func
            if isinstance(fn, ast.Name) and fn.id in scope:
                found.add(scope[fn.id])
            elif (isinstance(fn, ast.Attribute) and cls is not None
                    and isinstance(fn.value, ast.Name)
                    and fn.value.id == "self"
                    and f"{cls}.{fn.attr}" in names):
                found.add(f"{cls}.{fn.attr}")
        todo.extend(ast.iter_child_nodes(n))
    return found


def recursive_functions(source: str) -> set:
    """The functions of a module that lie on a cycle of its call graph."""
    defs = {}
    _defs(ast.parse(source).body, "", None, {}, defs)
    graph = {name: _calls(node, cls, scope, defs)
             for name, (node, cls, scope) in defs.items()}
    on_cycle = set()
    for start in graph:
        seen, todo = set(), list(graph[start])
        while todo:
            name = todo.pop()
            if name == start:
                on_cycle.add(start)
                break
            if name not in seen:
                seen.add(name)
                todo.extend(graph[name])
    return on_cycle


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_recursion(path):
    allowed = ALLOWED.get(path.name, {})
    found = recursive_functions(path.read_text())
    assert sorted(found - set(allowed)) == [], \
        f"{path.name} has recursive functions"
    # an entry whose function no longer recurses is stale
    assert sorted(set(allowed) - found) == []


@pytest.mark.parametrize("source, want", [
    ("def f(n):\n    return f(n - 1)\n", {"f"}),
    ("def f():\n    g()\ndef g():\n    f()\ndef h():\n    f()\n",
     {"f", "g"}),
    ("class C:\n    def a(self):\n        self.b()\n"
     "    def b(self):\n        self.a()\n", {"C.a", "C.b"}),
    ("def f():\n    sub = lambda: f()\n    return sub\n", {"f"}),
    ("def f():\n    def g():\n        g()\n    g()\n", {"f.g"}),
    ("def f():\n    def g():\n        pass\n    g()\n", set()),
    ("def f(xs):\n    return [x for x in xs]\n", set()),
], ids=["self", "mutual", "methods", "lambda", "nested", "helper", "loop"])
def test_finds_cycles(source, want):
    assert recursive_functions(source) == want
