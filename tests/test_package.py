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
