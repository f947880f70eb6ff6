"""The library keeps only what it uses itself or perfbench calls.

A public top-level function or class of src/qrl that nothing reads, neither
src/qrl outside its own definition nor perfbench, serves only the tests and
belongs in them. The `cmd_*` functions are exempt: the CLI reaches them by
name, through `set_defaults`. The same holds for a public method or property
of a src/qrl class that no attribute access reads, in src/qrl outside its own
definition or in perfbench.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def read_names(node: ast.AST) -> set[str]:
    """Identifiers and attribute names read anywhere under node. Imports and
    strings (such as the entries of `__all__`) do not count."""
    return {
        sub.id if isinstance(sub, ast.Name) else sub.attr
        for sub in ast.walk(node)
        if isinstance(sub, (ast.Name, ast.Attribute))
    }


def unreferenced_public_names(src: Path, users: list[Path]) -> list[str]:
    """module.name for each public top-level function or class under src that
    no other top-level statement under src, and nothing under users, reads;
    then module.Class.name for each public method or property of a class
    under src that no attribute access outside its own definition, under src
    or users, reads."""
    modules = [
        (path.stem, ast.parse(path.read_text())) for path in sorted(src.glob("*.py"))
    ]
    statements = [(module, stmt) for module, tree in modules for stmt in tree.body]
    user_trees = [
        ast.parse(path.read_text())
        for root in users
        for path in sorted(root.glob("*.py"))
    ]
    outside = set().union(*map(read_names, user_trees))
    read_by = [read_names(stmt) for _, stmt in statements]
    flagged = []
    for i, (module, stmt) in enumerate(statements):
        if not isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
            continue
        name = stmt.name
        if name.startswith("_") or name.startswith("cmd_") or name in outside:
            continue
        if not any(name in names for j, names in enumerate(read_by) if j != i):
            flagged.append(f"{module}.{name}")
    attributes = [
        sub
        for tree in [tree for _, tree in modules] + user_trees
        for sub in ast.walk(tree)
        if isinstance(sub, ast.Attribute)
    ]
    for module, stmt in statements:
        if not isinstance(stmt, ast.ClassDef):
            continue
        for method in stmt.body:
            if not isinstance(method, ast.FunctionDef) or method.name.startswith("_"):
                continue
            inside = {id(sub) for sub in ast.walk(method)}
            if not any(
                sub.attr == method.name and id(sub) not in inside for sub in attributes
            ):
                flagged.append(f"{module}.{stmt.name}.{method.name}")
    return flagged


def test_every_public_name_is_used_outside_the_tests():
    assert unreferenced_public_names(ROOT / "src" / "qrl", [ROOT / "perfbench"]) == []


def test_scan_flags_a_test_only_name(tmp_path):
    src = tmp_path / "pkg"
    src.mkdir()
    (src / "core.py").write_text(
        "__all__ = ['used', 'unused', 'recursive']\n"
        "def used(): return 1\n"
        "def unused(): return used()\n"
        "def recursive(n): return recursive(n - 1) if n else 0\n"
        "class Shape:\n"
        "    def area(self): return self.side\n"
        "    @property\n"
        "    def side(self): return 1\n"
        "    @property\n"
        "    def unread(self): return 2\n"
        "    def again(self, n): return self.again(n - 1) if n else 0\n"
        "    def _private(self): pass\n"
        "def _private(): pass\n"
        "def cmd_run(args): pass\n"
    )
    (src / "other.py").write_text("from .core import unused\n")
    bench = tmp_path / "bench"
    bench.mkdir()
    (bench / "run.py").write_text("import pkg.core\npkg.core.Shape().area()\n")
    assert unreferenced_public_names(src, [bench]) == [
        "core.unused",
        "core.recursive",
        "core.Shape.unread",
        "core.Shape.again",
    ]
