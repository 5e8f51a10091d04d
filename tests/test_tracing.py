"""The benchmark's tracer must find every name it wraps and put each back.

`perfbench/tracing.py` patches pckfo functions and methods by name, so
renaming or deleting one of them breaks `perfbench/run.py --trace 1`; this
test makes that a Tier-1 failure instead.
"""

import importlib.util
import sys
from fractions import Fraction
from pathlib import Path

import pckfo.cli  # noqa: F401  (the tracer patches the loaded modules)

ROOT = Path(__file__).resolve().parents[1]


def _load_tracing():
    spec = importlib.util.spec_from_file_location(
        "perfbench_tracing", ROOT / "perfbench" / "tracing.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _bindings() -> dict:
    """Every attribute of the loaded pckfo modules and of their classes,
    and Fraction.__hash__."""
    out = {("Fraction", "__hash__"): Fraction.__dict__["__hash__"]}
    for modname, mod in list(sys.modules.items()):
        if modname != "pckfo" and not modname.startswith("pckfo."):
            continue
        for attr, value in vars(mod).items():
            out[(modname, attr)] = value
            if isinstance(value, type) and value.__module__ == modname:
                for name, member in vars(value).items():
                    out[(modname, attr, name)] = member
    return out


def test_tracer_installs_and_restores_every_binding():
    tracing = _load_tracing()
    before = _bindings()
    tracer = tracing.Tracer()
    try:
        tracer.install()
        during = _bindings()
    finally:
        tracer.uninstall()
    after = _bindings()
    for modname, attr, _ in tracing.TRACED:
        key = (modname, *attr.split("."))
        assert during[key] is not before[key], key
    assert during[("Fraction", "__hash__")] is not before[("Fraction", "__hash__")]
    assert after.keys() == before.keys()
    changed = [key for key in before if after[key] is not before[key]]
    assert changed == []
