"""Every name a demo imports from the package still exists.

Running all demos takes about half a minute, so their imports are checked
statically: each script is parsed with ``ast`` and every ``hyperspec``
module and name it imports must resolve.
"""

import ast
import importlib
from pathlib import Path

import pytest

DEMOS = sorted((Path(__file__).resolve().parents[1] / "demos").glob("*.py"))


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
