"""Every exported name resolves, so a deleted function cannot linger in
an export list."""

import ast
import importlib
from pathlib import Path

import pytest

import ripsapprox

MODULES = ["geometry", "lattice", "cubical", "barycentric", "tower", "persistence", "diagram"]


@pytest.mark.parametrize("name", MODULES)
def test_module_all_resolves(name):
    mod = importlib.import_module("ripsapprox." + name)
    assert [n for n in mod.__all__ if not hasattr(mod, n)] == []
    assert len(set(mod.__all__)) == len(mod.__all__)


def test_package_exports_resolve():
    tree = ast.parse(Path(ripsapprox.__file__).read_text())
    imports = [node for node in tree.body if isinstance(node, ast.ImportFrom)]
    assert imports
    for node in imports:
        mod = importlib.import_module("ripsapprox." + node.module)
        for alias in node.names:
            assert alias.name in mod.__all__, (node.module, alias.name)
            assert getattr(ripsapprox, alias.name) is getattr(mod, alias.name)
