"""Source hygiene: every module of the package, every test file and every
demo uses what it imports, and the package does not import sympy."""

import ast
from pathlib import Path

import pytest

import pkslab

PACKAGE = Path(pkslab.__file__).parent
ROOT = Path(__file__).resolve().parent.parent
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
SCRIPTS = sorted([*ROOT.glob("tests/*.py"), *ROOT.glob("demos/*.py")])


def _source_id(path):
    return path.name if path.parent == PACKAGE else f"{path.parent.name}/{path.name}"


@pytest.mark.parametrize("path", MODULES + SCRIPTS, ids=_source_id)
def test_module_uses_every_import(path):
    tree = ast.parse(path.read_text())
    imported = {
        (alias.asname or alias.name).split(".")[0]
        for node in ast.walk(tree)
        if isinstance(node, (ast.Import, ast.ImportFrom))
        for alias in node.names
    }
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    assert sorted(imported - used) == []


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=_source_id)
def test_module_does_not_import_sympy(path):
    # sympy is a test extra: only the tests' symbolic oracles use it
    modules = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            modules.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            modules.add(node.module)
    assert "sympy" not in {name.split(".")[0] for name in modules}
