"""Every name a demo imports from the package or the package exports still
exists, and the fast demos run clean.

All six demos take about ten seconds on 2 cores, so here their imports
are checked statically: each script is parsed with ``ast`` and every
``hyperspec`` module and name it imports must resolve.  The demos that take
under a second or two are also run, since a static check cannot catch a
stale attribute or keyword argument; CI's Demos step runs all six.
"""

import ast
import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import hyperspec

DEMOS = sorted((Path(__file__).resolve().parents[1] / "demos").glob("*.py"))
FAST_DEMOS = [p for p in DEMOS if p.name.startswith(("02_", "06_"))]


def package_imports(path: Path) -> list[tuple[str, str | None]]:
    """(module, name) for each ``from hyperspec... import name`` and
    (module, None) for each ``import hyperspec...`` in the script."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "hyperspec":
            found += [(node.module, alias.name) for alias in node.names]
        elif isinstance(node, ast.Import):
            found += [(a.name, None) for a in node.names if a.name.split(".")[0] == "hyperspec"]
    return found


def test_demos_exist():
    assert len(DEMOS) >= 6


@pytest.mark.parametrize("path", DEMOS, ids=lambda p: p.name)
def test_demo_imports_resolve(path):
    imports = package_imports(path)
    assert imports, f"{path.name} imports nothing from hyperspec"
    for module, name in imports:
        mod = importlib.import_module(module)
        assert name is None or hasattr(mod, name), f"{path.name}: {module} has no {name!r}"


def test_package_exports_resolve():
    missing = [name for name in hyperspec.__all__ if not hasattr(hyperspec, name)]
    assert not missing, f"hyperspec.__all__ names missing attributes: {missing}"
    namespace = {}
    exec("from hyperspec import *", namespace)
    assert set(hyperspec.__all__) <= set(namespace)


@pytest.mark.parametrize("path", FAST_DEMOS, ids=lambda p: p.name)
def test_fast_demo_runs_clean(path, tmp_path):
    env = dict(os.environ, PYTHONPATH=str(Path(hyperspec.__file__).parents[1]))
    proc = subprocess.run([sys.executable, str(path)], cwd=tmp_path,
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert "BAD" not in proc.stdout, proc.stdout
