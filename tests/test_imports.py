"""Every module-level import in the package's modules is used there, so a removed caller cannot leave one behind.

``__init__.py`` re-exports what it imports and is not checked.  An import kept for other code's sake carries
``# noqa: F401`` on its line.
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
