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


def test_rips_barcode_exported():
    from ripsapprox import persistence

    assert "rips_barcode" in persistence.__all__
    assert ripsapprox.rips_barcode is persistence.rips_barcode


def test_perfbench_trace_targets_resolve():
    # perfbench wraps these "module:qualname" targets by name from
    # outside; a rename here would break `perfbench/run.py --trace 1`
    # without failing anything else
    path = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"
    tree = ast.parse(path.read_text())
    targets = [node.value for stmt in tree.body
               if isinstance(stmt, ast.AnnAssign) and stmt.target.id in ("SPANS", "COUNTERS")
               for node in ast.walk(stmt.value)
               if isinstance(node, ast.Constant) and isinstance(node.value, str)
               and ":" in node.value]
    assert len(targets) > 10
    for target in targets:
        modname, qualname = target.split(":")
        obj = importlib.import_module(modname)
        for part in qualname.split("."):
            obj = getattr(obj, part)
        assert callable(obj), target


def test_perfbench_wrapper_aliases_resolve():
    # perfbench/test_perfbench.py::test_wrappers_restore_the_original_functions
    # reads these two aliases; the trace targets above do not name them,
    # so deleting one would pass this suite and break perfbench's own
    from ripsapprox import cli, cubical, persistence, tower

    assert cli.reduce_filtration is persistence.reduce
    assert tower.spanned_faces is cubical.spanned_faces
