"""Package surface: every exported name resolves, the numeric modules load no series code, building and the
CLI refusals load no numpy, and the runtime needs numpy only."""

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


def fresh(code: str, cwd=None) -> str:
    """stdout of ``code`` run in a fresh interpreter that imports compulse from this tree."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", code], cwd=cwd, env=env, capture_output=True, text=True, timeout=60)
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


def modules_after(code: str, cwd=None) -> set:
    """Every module in ``sys.modules`` once ``code`` has run in a fresh interpreter."""
    return set(fresh(f"{code}\nimport sys; print(*sys.modules)", cwd).splitlines()[-1].split())


def cli_run(*argv) -> str:
    """Code that runs ``compulse ARGV...`` through ``cli.main`` and returns, whatever the exit code."""
    return f"import compulse.cli; compulse.cli.main({list(argv)!r})"


@pytest.mark.parametrize("code", [
    "import compulse.cli",
    "import compulse.sequences",
    "import compulse; compulse.Pulse; compulse.build('bb1', 1.0)",
    cli_run("synth", "bb1"),
    cli_run("verify", "missing.json", "--order", "3"),
    cli_run("verify", "not-json.json", "--order", "3"),
], ids=["import-cli", "import-sequences", "build-bb1", "synth", "verify-unreadable", "verify-not-json"])
def test_loads_no_numpy(code, tmp_path):
    """Building a sequence, ``synth`` and a refused document need the standard library alone."""
    (tmp_path / "not-json.json").write_text("{not json", encoding="utf-8")
    loaded = modules_after(code, tmp_path)
    assert "compulse.pulse" in loaded
    assert "numpy" not in loaded


@pytest.mark.parametrize("argv, series", [
    (("verify", "bb1", "--order", "3"), True),
    (("sweep", "bb1"), False),
    (("compare", "--variants", "bb1", "sk2rot", "--theta-range", "150:180:3"), False),
], ids=["verify", "sweep", "compare"])
def test_composing_commands_load_numpy(argv, series):
    """The commands that compose load numpy, and only ``verify`` loads the series engine."""
    loaded = modules_after(cli_run(*argv))
    assert "numpy" in loaded
    assert ("compulse.series" in loaded) == series


def test_pulse_module_imports_the_standard_library_alone():
    tree = ast.parse((pathlib.Path(compulse.__file__).parent / "pulse.py").read_text(encoding="utf-8"))
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            assert all(alias.name.split(".")[0] in sys.stdlib_module_names for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            assert node.level == 0 and node.module.split(".")[0] in sys.stdlib_module_names, node.module


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
