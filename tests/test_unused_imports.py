"""Every imported name under src/ and tests/ is used or re-exported.

No linter is a dependency, so this walks each module's syntax tree with the
standard library: a name bound by an import must appear as a name somewhere
else in the module, or be listed in its ``__all__``.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted((ROOT / "src").rglob("*.py")) + sorted((ROOT / "tests").rglob("*.py"))


def unused_imports(tree: ast.Module) -> list[str]:
    """Each name an import binds and the module never uses, as "line N: name"."""
    imported: dict[str, int] = {}
    used: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Import) or (isinstance(node, ast.ImportFrom)
                                              and node.module != "__future__"):
            for alias in node.names:
                # "import a.b" binds "a"; "import a.b as c" binds "c".
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
    for node in tree.body:
        if isinstance(node, ast.Assign) and [getattr(t, "id", None)
                                             for t in node.targets] == ["__all__"]:
            used |= set(ast.literal_eval(node.value))
    return [f"line {line}: {name}"
            for name, line in sorted(imported.items(), key=lambda item: item[1])
            if name not in used]


@pytest.mark.parametrize("path", SOURCES, ids=[str(p.relative_to(ROOT)) for p in SOURCES])
def test_no_unused_imports(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    assert unused_imports(tree) == []


def test_checker_flags_an_unused_name():
    tree = ast.parse("import os\nimport a.b\nfrom x import y as z, w\n"
                     "__all__ = ['w']\nprint(a.b)\n")
    assert unused_imports(tree) == ["line 1: os", "line 3: z"]
