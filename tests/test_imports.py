"""Every module-level import is used, and the package holds no test-only code.

No linter ships with the project, so this walks the syntax tree.
- A name that a top-level `import` of the package or of its tests binds
  must occur as a name somewhere else in the module (an annotation written
  as a string counts).  `from __future__` imports are exempt.
- Every module-level function, class and assigned name of the package,
  and every method of such a class, must be referenced by name in the
  package or in the benchmark (`perfbench/`, its own tests excluded)
  outside its own definition.  A reference is a name, an attribute or an
  imported name; in the benchmark a string constant counts too, since its
  span targets are looked up by string.  Dunder names are exempt.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = sorted((ROOT / "src" / "kpztail").glob("*.py"))
FILES = sorted([*PACKAGE, *(ROOT / "tests").glob("*.py")])
BENCH = sorted((ROOT / "perfbench").glob("*.py"))


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


def _dunder(name):
    return name.startswith("__") and name.endswith("__")


def _definitions(tree):
    """(name, node) of the module-level functions, classes and assigned
    names, and of the methods of those classes (dunders excluded)."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name, node
        if isinstance(node, ast.ClassDef):
            yield from ((m.name, m) for m in node.body
                        if isinstance(m, ast.FunctionDef) and not _dunder(m.name))
        targets = (node.targets if isinstance(node, ast.Assign)
                   else [node.target] if isinstance(node, ast.AnnAssign) else [])
        yield from ((t.id, node) for t in targets
                    if isinstance(t, ast.Name) and not _dunder(t.id))


def _references(tree, strings: bool):
    """(name, node) for every name, attribute and imported name, and for
    every string constant if `strings`."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id, node
        elif isinstance(node, ast.Attribute):
            yield node.attr, node
        elif isinstance(node, ast.ImportFrom):
            yield from ((alias.name, node) for alias in node.names)
        elif strings and isinstance(node, ast.Constant) and isinstance(node.value, str):
            yield node.value, node


def unreferenced(package: dict[str, str], bench: dict[str, str]) -> list[str]:
    """`module.name` of each definition in the `package` sources (module name
    -> source) that no reference in `package` or `bench` reaches from
    outside the definition itself."""
    trees = {name: ast.parse(src) for name, src in package.items()}
    refs = {}
    for tree, strings in [*((t, False) for t in trees.values()),
                          *((ast.parse(src), True) for src in bench.values())]:
        for name, node in _references(tree, strings):
            refs.setdefault(name, []).append(node)
    missing = []
    for module, tree in trees.items():
        for name, d in _definitions(tree):
            inside = {id(node) for node in ast.walk(d)}
            if all(id(node) in inside for node in refs.get(name, [])):
                missing.append(f"{module}.{name}")
    return missing


def test_the_checker_finds_test_only_code():
    package = {
        "a": ("import b\nclass C:\n    def __init__(self): self.used()\n"
              "    def used(self): return helper()\n    def unused(self): return self.unused()\n"
              "def helper(): return C\ndef recursive(n): return recursive(n - 1)\n"
              "def by_string(): pass\ndef imported(): pass\ndef named_in_a_string(): pass\n"
              "USED = 1\nUNUSED = USED\nTYPED: int = USED\n__all__ = []\n"),
        "b": "from a import imported\nprint('named_in_a_string', TYPED)\n",
    }
    bench = {"spans": "TARGETS = (('a', 'by_string'),)\n"}
    assert unreferenced(package, bench) == [
        "a.unused", "a.recursive", "a.named_in_a_string", "a.UNUSED"]


def test_no_test_only_code_in_the_package():
    assert unreferenced({p.stem: p.read_text() for p in PACKAGE},
                        {p.stem: p.read_text() for p in BENCH}) == []
