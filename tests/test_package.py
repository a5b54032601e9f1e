"""Every name the package exports resolves."""

import ast
import importlib
from pathlib import Path

import pytest

import zubov

MODULES = ["cli", "dynamics", "expr", "interval", "net", "ode", "verify"]


@pytest.mark.parametrize("name", MODULES)
def test_every_name_in_all_resolves(name):
    module = importlib.import_module(f"zubov.{name}")
    assert module.__all__
    assert [n for n in module.__all__ if not hasattr(module, n)] == []


def test_every_name_the_package_imports_resolves():
    tree = ast.parse(Path(zubov.__file__).read_text())
    names = [a.asname or a.name for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
             for a in node.names]
    assert len(names) > 10
    assert [n for n in names if not hasattr(zubov, n)] == []
