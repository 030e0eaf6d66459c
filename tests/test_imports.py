"""No removed caller can leave a module-level import or constant behind in the package.

Every module-level import in a module is used there, and every module-level name a module assigns is read
somewhere in the package.  ``__init__.py`` re-exports what it imports and is not checked.  An import kept for
other code's sake carries ``# noqa: F401`` on its line.
"""

import ast
import pathlib

import pytest

PACKAGE = pathlib.Path(__file__).resolve().parents[1] / "src" / "decolab"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    """The names that the module-level imports of ``source`` bind and that nothing in it reads."""
    tree = ast.parse(source)
    lines = source.splitlines()
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unused = []
    for node in tree.body:
        if not isinstance(node, (ast.Import, ast.ImportFrom)) or getattr(node, "module", None) == "__future__":
            continue
        for alias in node.names:
            name = alias.asname or alias.name.split(".")[0]
            if name not in read and "# noqa: F401" not in lines[alias.lineno - 1]:
                unused.append(name)
    return unused


def test_the_check_sees_an_unused_import():
    source = "import os\nimport sys  # noqa: F401\nfrom .a import (\n    b,\n    c,\n)\nprint(c)\n"
    assert unused_imports(source) == ["os", "b"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_module_level_import_is_used(path):
    assert len(MODULES) >= 10
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def assigned_names(source: str) -> list[str]:
    """The names that the module-level assignments of ``source`` bind."""
    targets = []
    for node in ast.parse(source).body:
        if isinstance(node, ast.Assign):
            targets += node.targets
        elif isinstance(node, (ast.AnnAssign, ast.AugAssign)):
            targets.append(node.target)
    return [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]


def read_names(sources: list[str]) -> set[str]:
    """Every name that ``sources`` load, bare or as an attribute."""
    read = set()
    for node in (n for source in sources for n in ast.walk(ast.parse(source))):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)
        elif isinstance(node, ast.Attribute):
            read.add(node.attr)
    return read


def test_the_check_sees_an_unread_assignment():
    a = "X = 1\nY: int = 2\nZ, W = 3, 4\ndef f():\n    V = 5\n    return X\n"
    b = "from .a import Z\nprint(Z)\nimport a\na.W += 1\n"
    assert assigned_names(a) == ["X", "Y", "Z", "W"]
    assert [n for n in assigned_names(a) if n not in read_names([a, b])] == ["Y"]


def test_every_module_level_assignment_is_read_in_the_package():
    sources = [p.read_text(encoding="utf-8") for p in sorted(PACKAGE.glob("*.py"))]
    read = read_names(sources)
    unread = {p.name: [n for n in assigned_names(p.read_text(encoding="utf-8")) if n not in read] for p in MODULES}
    assert {name: names for name, names in unread.items() if names} == {}
