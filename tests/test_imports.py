"""Every name imported by the package and by its tests is used, the package
exports exactly the names it binds, and a run loads no scipy module."""

from __future__ import annotations

import ast
import os
import subprocess
import sys
import types
import warnings
from pathlib import Path

import pytest

import wotnet
from wotnet.cli import main

REPO_ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted([*REPO_ROOT.glob("src/wotnet/*.py"), *REPO_ROOT.glob("tests/*.py")])


def _unused_imports(source: str) -> list[str]:
    """Names bound by an import and never read; `__future__` imports are
    skipped and the strings listed in `__all__` count as reads."""
    tree = ast.parse(source)
    imported: dict[str, int] = {}
    used: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used.update(e.value for e in node.value.elts if isinstance(e, ast.Constant))
    return [f"{name} (line {line})" for name, line in imported.items() if name not in used]


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_no_unused_imports(path):
    assert _unused_imports(path.read_text(encoding="utf-8")) == []


def test_unused_import_is_reported():
    source = "from __future__ import annotations\nimport os, sys\nfrom typing import Any\n__all__ = ['Any']\nsys.exit()\n"
    assert _unused_imports(source) == ["os (line 2)"]


def test_all_lists_exactly_the_exported_names():
    bound = {
        name
        for name, value in vars(wotnet).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert len(wotnet.__all__) == len(set(wotnet.__all__))
    assert set(wotnet.__all__) == bound
    assert all(hasattr(wotnet, name) for name in wotnet.__all__)


def _loaded_after_import(*modules: str) -> list[str]:
    """Those of `modules` that importing the package and its CLI loads."""
    code = f"import sys, wotnet, wotnet.cli; print(*(m for m in {modules!r} if m in sys.modules))"
    path = os.pathsep.join(p for p in (str(REPO_ROOT / "src"), os.environ.get("PYTHONPATH")) if p)
    run = subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        check=True,
    )
    return run.stdout.split()


def test_importing_the_package_leaves_scipy_stats_unloaded():
    # the rank correlations are computed in numpy; scipy.stats is the tests' oracle only
    assert not _loaded_after_import("scipy.stats")


def test_importing_the_package_leaves_scipy_sparse_unloaded():
    # the projection is a sorted edge list; no sparse matrix is built
    assert not _loaded_after_import("scipy.sparse")


def test_importing_the_package_loads_no_module_it_does_not_need():
    # `categorize` takes the thresholds' own integer ratios, not `Fraction`'s
    # (which loads decimal), and temporary files are named from `os.urandom`,
    # not `secrets` (which loads base64 and hmac)
    assert _loaded_after_import("fractions", "decimal", "secrets", "base64", "hmac") == []


def test_a_whole_run_loads_no_scipy(tmp_path):
    # numpy is the only runtime dependency; scipy serves the tests as an oracle
    log = tmp_path / "gen" / "synthetic.csv"
    assert main(["synth", "--users", "25", "--events", "400", "--seed", "7", "--out", str(log.parent)]) == 0
    code = (
        "import sys; from wotnet.cli import main; code = main(sys.argv[1:]); "
        "print(code, sorted(m for m in sys.modules if m.partition('.')[0] == 'scipy'))"
    )
    argv = ["all", "--input", str(log), "--out", str(tmp_path / "all"), "--seed", "1", "--null-samples", "2"]
    path = os.pathsep.join(p for p in (str(REPO_ROOT / "src"), os.environ.get("PYTHONPATH")) if p)
    run = subprocess.run(
        [sys.executable, "-c", code, *argv],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        check=True,
    )
    assert run.stdout.splitlines()[-1] == "0 []"


def test_the_build_reads_the_version_of_the_package():
    # pyproject.toml declares the version dynamic, read from wotnet.__version__
    pyprojecttoml = pytest.importorskip("setuptools.config.pyprojecttoml")
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # some setuptools versions call [tool.setuptools] beta
        config = pyprojecttoml.read_configuration(REPO_ROOT / "pyproject.toml")
    assert config["project"]["version"] == wotnet.__version__
