"""Every module-level import of the package and of its tests is used.

No linter ships with the project, so this walks the syntax tree: a name that
a top-level `import` binds must occur as a name somewhere else in the module
(an annotation written as a string counts).  `from __future__` imports are
exempt.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
FILES = sorted([*(ROOT / "src" / "kpztail").glob("*.py"), *(ROOT / "tests").glob("*.py")])


def _bound_names(node):
    if isinstance(node, ast.Import):
        return [alias.asname or alias.name.split(".")[0] for alias in node.names]
    if node.module == "__future__":
        return []
    return [alias.asname or alias.name for alias in node.names if alias.name != "*"]


def _used_names(tree):
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        annotations = []
        if isinstance(node, ast.arg):
            annotations.append(node.annotation)
        elif isinstance(node, ast.FunctionDef):
            annotations.append(node.returns)
        elif isinstance(node, ast.AnnAssign):
            annotations.append(node.annotation)
        for ann in annotations:
            if isinstance(ann, ast.Constant) and isinstance(ann.value, str):
                used.update(n.id for n in ast.walk(ast.parse(ann.value, mode="eval"))
                            if isinstance(n, ast.Name))
    return used


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    used = _used_names(tree)
    return [name for node in tree.body if isinstance(node, (ast.Import, ast.ImportFrom))
            for name in _bound_names(node) if name not in used]


def test_the_checker_finds_an_unused_import():
    source = ("from __future__ import annotations\nimport math\nimport os.path\n"
              "from numpy import array as arr, zeros\n"
              "def f(x: 'zeros') -> None:\n    return os.path.join(x)\n")
    assert unused_imports(source) == ["math", "arr"]


@pytest.mark.parametrize("path", FILES, ids=[f"{p.parent.name}/{p.name}" for p in FILES])
def test_no_unused_module_level_import(path):
    assert unused_imports(path.read_text()) == []
