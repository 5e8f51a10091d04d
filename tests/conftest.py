import importlib.util
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.fixture(scope="session")
def fixtures_dir() -> Path:
    return ROOT / "fixtures"


@pytest.fixture(scope="session")
def golden_dir() -> Path:
    return ROOT / "tests" / "golden"


@pytest.fixture(scope="session")
def workloads():
    """perfbench/workloads.py, which writes the benchmark's documents."""
    spec = importlib.util.spec_from_file_location(
        "perfbench_workloads", ROOT / "perfbench" / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture()
def default_recursion_limit():
    """Run the test at CPython's default recursion limit, whatever an
    earlier test or plugin left it at: deep inputs must not need more."""
    old = sys.getrecursionlimit()
    sys.setrecursionlimit(1000)
    yield
    sys.setrecursionlimit(old)
