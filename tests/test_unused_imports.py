"""No module imports a name it never reads (no linter is installed).

Package ``__init__.py`` files are left out: their imports are re-exports.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
MODULES = sorted(ROOT.glob("tests/*.py")) + sorted(
    p for p in ROOT.glob("src/branchvi/*.py") if p.name != "__init__.py") + sorted(
    ROOT.glob("scripts/*.py"))


def unused_imports(source: str) -> list:
    """(line, name) of each imported binding the module never loads."""
    tree = ast.parse(source)
    bound = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound += [(node.lineno, a.asname or a.name.split(".")[0]) for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound += [(node.lineno, a.asname or a.name) for a in node.names]
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
    return [(line, name) for line, name in bound if name not in read]


def test_scan_finds_an_unused_import():
    assert unused_imports("import os\nfrom a.b import c, d as e\nimport x.y\nprint(c, x)\n") == [
        (1, "os"), (2, "e")]


@pytest.mark.parametrize("path", MODULES, ids=[str(p.relative_to(ROOT)) for p in MODULES])
def test_module_reads_every_name_it_imports(path):
    assert unused_imports(path.read_text()) == []
