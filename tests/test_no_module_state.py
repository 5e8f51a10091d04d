"""The package keeps no state in its modules.  A module builds its constant
tables when it is imported; after that, no function or method writes to a
name bound at module level, so every table a call fills belongs to an
object the caller made, and one call cannot change what the next computes
or costs.  A module-level parse or hash cache would break that, and this
test is there to catch one coming back."""

import ast
import symtable
from pathlib import Path

import pytest

import pckfo

SOURCES = sorted(Path(pckfo.__file__).parent.glob("*.py"))

# Methods that change a list, dict or set in place.
MUTATORS = frozenset((
    "append", "extend", "insert", "pop", "popitem", "remove", "clear",
    "update", "setdefault", "add", "discard", "sort", "reverse"))
CACHES = frozenset(("cache", "lru_cache"))

# AST node -> the name of the symbol table of the scope it opens.
SCOPES = {ast.Lambda: "lambda", ast.ListComp: "listcomp",
          ast.SetComp: "setcomp", ast.DictComp: "dictcomp",
          ast.GeneratorExp: "genexpr"}


def violations(source: str, filename: str = "<source>") -> list:
    """(line, what) for each write to module state in source: an item of a
    name bound at module level assigned or deleted in a function, a
    mutating method called on such a name in a function, a `global`
    statement, or a use of functools.cache or lru_cache."""
    tree = ast.parse(source, filename=filename)
    module = symtable.symtable(source, filename, "exec")
    state = {s.get_name() for s in module.get_symbols()
             if s.is_assigned() or s.is_imported()}
    tables = {}     # (scope name, line) -> its symbol tables, in order
    todo = [module]
    while todo:
        table = todo.pop()
        for child in table.get_children():
            tables.setdefault((child.get_name(), child.get_lineno()),
                              []).append(child)
            todo.append(child)
    found = []

    def visit(node, names):
        """Check node's children; names holds the module-level names that
        its scope resolves to the module, None outside functions."""
        for child in ast.iter_child_nodes(node):
            inner = names
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef,
                                  ast.ClassDef)):
                key = (child.name, child.lineno)
            else:
                key = (SCOPES.get(type(child)), getattr(child, "lineno", None))
            if tables.get(key):
                table = tables[key].pop(0)
                inner = None if table.get_type() == "class" else {
                    s.get_name() for s in table.get_symbols()
                    if s.is_global()} & state
            if isinstance(child, ast.Global):
                found.append((child.lineno, "global statement"))
            elif isinstance(child, ast.ImportFrom) and \
                    child.module == "functools" and \
                    CACHES & {a.name for a in child.names}:
                found.append((child.lineno, "functools cache imported"))
            elif isinstance(child, ast.Attribute) and \
                    child.attr in CACHES and \
                    isinstance(child.value, ast.Name) and \
                    child.value.id == "functools":
                found.append((child.lineno, f"functools.{child.attr}"))
            elif inner and isinstance(child, ast.Subscript) and \
                    isinstance(child.ctx, (ast.Store, ast.Del)) and \
                    isinstance(child.value, ast.Name) and \
                    child.value.id in inner:
                found.append((child.lineno, f"item of {child.value.id}"))
            elif inner and isinstance(child, ast.Call) and \
                    isinstance(child.func, ast.Attribute) and \
                    child.func.attr in MUTATORS and \
                    isinstance(child.func.value, ast.Name) and \
                    child.func.value.id in inner:
                found.append((child.lineno,
                              f"{child.func.value.id}.{child.func.attr}()"))
            visit(child, inner)

    visit(tree, None)
    return found


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_module_state(path):
    found = violations(path.read_text(), str(path))
    assert found == [], f"{path.name} writes module state: {found}"


@pytest.mark.parametrize("source", [
    "_SEEN = {}\ndef f(k):\n    _SEEN[k] = 1\n",
    "_SEEN = {}\ndef f(k):\n    del _SEEN[k]\n",
    "_SEEN = {}\nclass C:\n    def f(self, k):\n        _SEEN[k] += 1\n",
    "_SEEN = []\ndef f(k):\n    return [_SEEN.append(x) for x in k]\n",
    "_SEEN = {}\nf = lambda k: _SEEN.setdefault(k, k)\n",
    "_SEEN = set()\ndef f(k):\n    def g():\n        _SEEN.add(k)\n    g()\n",
    "import functools\n@functools.lru_cache\ndef f(k):\n    return k\n",
    "from functools import cache\n",
    "n = 0\ndef f():\n    global n\n    n = 1\n",
])
def test_module_state_is_found(source):
    assert violations(source)


@pytest.mark.parametrize("source", [
    "_TABLE = {}\n_TABLE['k'] = 1\n",
    "_TABLE = {}\ndef f(_TABLE):\n    _TABLE['k'] = 1\n",
    "_TABLE = {}\ndef f():\n    _TABLE = {}\n    _TABLE['k'] = 1\n",
    "def f():\n    seen = set()\n    def g(k):\n        seen.add(k)\n",
    "_TABLE = {}\ndef f(k):\n    return _TABLE.get(k)\n",
])
def test_local_state_is_not_module_state(source):
    assert violations(source) == []
