"""Package surface: every exported name resolves, and the runtime needs numpy only."""

import ast
import pathlib
import sys

import pytest

import compulse

MODULES = sorted(pathlib.Path(compulse.__file__).parent.glob("*.py"))


def test_all_names_resolve():
    missing = [name for name in compulse.__all__ if not hasattr(compulse, name)]
    assert not missing


def test_star_import():
    namespace = {}
    exec("from compulse import *", namespace)
    assert set(compulse.__all__) <= set(namespace)


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_imports_are_stdlib_numpy_or_package_relative(path):
    allowed = set(sys.stdlib_module_names) | {"numpy"}
    tree = ast.parse(path.read_text(encoding="utf-8"))
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                assert alias.name.split(".")[0] in allowed, alias.name
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            assert node.module.split(".")[0] in allowed, node.module


#: NumPy 2.0 names: the package declares numpy>=1.23, where none of them exists
NUMPY2_ONLY = {"mT", "vecdot", "matvec", "vecmat", "matrix_transpose", "concat", "permute_dims", "unstack"}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_numpy2_only_names(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute):
            assert node.attr not in NUMPY2_ONLY, f"line {node.lineno}: .{node.attr}"
        elif isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "numpy":
            assert not {alias.name for alias in node.names} & NUMPY2_ONLY, f"line {node.lineno}"
