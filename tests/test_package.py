"""Package surface: every exported name resolves, the numeric modules load no series code, and the runtime needs numpy only."""

import ast
import importlib
import os
import pathlib
import subprocess
import sys

import pytest

import compulse

MODULES = sorted(pathlib.Path(compulse.__file__).parent.glob("*.py"))
SRC = str(pathlib.Path(compulse.__file__).parent.parent)


def fresh(code: str) -> str:
    """stdout of ``code`` run in a fresh interpreter that imports compulse from this tree."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def loaded_after(module: str) -> set:
    """The compulse modules in ``sys.modules`` after a fresh ``import module``."""
    out = fresh(f"import sys, {module}; print(*sorted(m for m in sys.modules if m.startswith('compulse')))")
    return set(out.split())


def test_all_names_resolve():
    """Each public name is the very object its module holds, in ``__all__`` order."""
    for module, names in compulse._NAMES.items():
        source = importlib.import_module(f"compulse.{module}")
        for name in names:
            assert getattr(compulse, name) is getattr(source, name), name
    assert compulse.__all__ == [name for names in compulse._NAMES.values() for name in names]
    assert len(set(compulse.__all__)) == len(compulse.__all__)


def test_star_import():
    namespace = {}
    exec("from compulse import *", namespace)
    assert set(compulse.__all__) <= set(namespace)


def test_dir_lists_every_public_name():
    assert set(compulse.__all__) <= set(dir(compulse))


def test_unknown_name_is_refused():
    with pytest.raises(AttributeError, match="nosuch"):
        compulse.nosuch  # noqa: B018
    with pytest.raises(ImportError):
        exec("from compulse import nosuch", {})


def test_names_are_looked_up_on_each_access(monkeypatch):
    """A patched module attribute is what the package returns: nothing is cached."""
    def fake(*args):
        raise AssertionError("not to be called")

    monkeypatch.setattr(compulse.su2, "compose", fake)
    assert compulse.compose is fake


def test_bare_import_loads_no_module():
    assert loaded_after("compulse") == {"compulse"}


def test_submodules_resolve_from_the_package():
    out = fresh("import compulse; print(compulse.series.residual.__name__, compulse.verify.FIT_WINDOW)")
    assert out.split()[0] == "residual"


@pytest.mark.parametrize("module", ["compulse.su2", "compulse.sequences", "compulse.verify"])
def test_numeric_route_loads_no_series_code(module):
    """The two routes stay independent in the running process, not only in the source."""
    loaded = loaded_after(module)
    assert module in loaded
    assert "compulse.series" not in loaded


def test_cli_loads_series_code():
    assert "compulse.series" in loaded_after("compulse.cli")


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
