"""Static checks on the package sources."""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "rydghz"


def _unused_module_imports(tree):
    """Names bound by module-level imports that nothing in the module reads."""
    imported = {}
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return sorted((line, name) for name, line in imported.items() if name not in used)


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_no_unused_module_level_imports(path):
    unused = _unused_module_imports(ast.parse(path.read_text(), filename=str(path)))
    assert unused == [], f"{path.name}: unused imports (line, name) {unused}"


def test_checker_flags_an_unused_import():
    tree = ast.parse("import os\nfrom math import pi, tau\nprint(os.sep, tau)\n")
    assert _unused_module_imports(tree) == [(2, "pi")]
