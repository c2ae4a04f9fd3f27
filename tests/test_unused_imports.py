"""Every imported name under src/ and tests/ is used or re-exported, and every
definition under src/relformer is reached from src/.

No linter is a dependency, so both checks walk each module's syntax tree
with the standard library. An import must appear as a name somewhere else in
its module, or be listed in its ``__all__``. A function, class or method of
the package must be referenced by package code outside its own definition,
so a helper only the tests call does not stay in the package.
"""

import ast
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted((ROOT / "src").rglob("*.py")) + sorted((ROOT / "tests").rglob("*.py"))
PACKAGE = ROOT / "src" / "relformer"


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


def _import_source(module: str, is_package: bool, node: ast.ImportFrom) -> str:
    """The absolute module an ``ImportFrom`` in ``module`` reads from."""
    if not node.level:
        return node.module
    base = module.split(".")[:len(module.split(".")) - node.level + is_package]
    return ".".join(base + ([node.module] if node.module else []))


def unreached_definitions(modules: dict[str, tuple[ast.Module, bool]],
                          exempt: set[str] = frozenset()) -> list[str]:
    """Each function, class or method of ``modules`` (name -> (tree,
    is_package)) that no code of ``modules`` references outside its own
    definition, as "module.name" or "module.Class.method".

    A module-level name counts as referenced through its module only: by a
    bare name in its own module, by ``alias.name`` where the alias is that
    module, or by ``from module import name``, so ``np.exp`` is no use of a
    package function ``exp``. A method is called on an instance whose class
    the syntax does not show, so any ``.name`` attribute that is not read off
    a module counts for it. Dunder methods and ``exempt`` names are skipped.
    """
    definitions = []   # (node, qualified name, key that reaches it)
    uses = []          # (key, ids of the definitions enclosing the use)

    for module, (tree, is_package) in modules.items():
        module_aliases = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom):
                source = _import_source(module, is_package, node)
                for alias in node.names:
                    uses.append((("name", source, alias.name), ()))
                    target = f"{source}.{alias.name}"
                    local = alias.asname or alias.name
                    module_aliases[local] = (("module", target) if target in modules
                                             else ("name", source, alias.name))
            elif isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.asname:
                        module_aliases[alias.asname] = ("module", alias.name)

        def visit(node, enclosing, qualname, in_class):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                key = ("attr", node.name) if in_class else ("name", module, node.name)
                if not (in_class and node.name.startswith("__") and node.name.endswith("__")):
                    definitions.append((node, f"{qualname}.{node.name}", key))
                # Decorators, bases, defaults and annotations are read outside the body.
                for child in ast.iter_child_nodes(node):
                    if child not in node.body:
                        visit(child, enclosing, qualname, False)
                for child in node.body:
                    visit(child, enclosing + (id(node),), f"{qualname}.{node.name}",
                          isinstance(node, ast.ClassDef))
                return
            if isinstance(node, ast.Name):
                bound = module_aliases.get(node.id)
                uses.append((bound if bound and bound[0] == "name"
                             else ("name", module, node.id), enclosing))
            elif isinstance(node, ast.Attribute):
                bound = (module_aliases.get(node.value.id)
                         if isinstance(node.value, ast.Name) else None)
                if bound and bound[0] == "module":
                    uses.append((("name", bound[1], node.attr), enclosing))
                    return
                uses.append((("attr", node.attr), enclosing))
            for child in ast.iter_child_nodes(node):
                visit(child, enclosing, qualname, False)

        for node in tree.body:
            visit(node, (), module, False)

    reached: dict[tuple, list[tuple]] = {}
    for key, enclosing in uses:
        reached.setdefault(key, []).append(enclosing)
    return sorted(name for node, name, key in definitions
                  if name not in exempt
                  and not any(id(node) not in enclosing for enclosing in reached.get(key, ())))


def _package_modules() -> dict[str, tuple[ast.Module, bool]]:
    modules = {}
    for path in sorted(PACKAGE.rglob("*.py")):
        parts = path.relative_to(PACKAGE.parent).with_suffix("").parts
        is_package = parts[-1] == "__init__"
        name = ".".join(parts[:-1] if is_package else parts)
        modules[name] = (ast.parse(path.read_text(encoding="utf-8"), filename=str(path)),
                         is_package)
    return modules


def _script_entries() -> set[str]:
    """The ``module:function`` targets of pyproject's ``[project.scripts]``."""
    text = (ROOT / "pyproject.toml").read_text(encoding="utf-8")
    table = text.split("[project.scripts]", 1)[1].split("\n[", 1)[0]
    return {f"{module}.{func}"
            for module, func in re.findall(r'=\s*"([\w.]+):(\w+)"', table)}


def test_every_package_definition_is_reached_from_the_package():
    assert unreached_definitions(_package_modules(), _script_entries()) == []


def test_checker_flags_a_definition_only_tests_would_reach():
    sources = {
        "pkg": ("from .ops import kept\n__all__ = ['kept']\n", True),
        "pkg.ops": ("def exp(x): return exp(x)\n"
                    "def kept(x): return x\n"
                    "def helper(): pass\n"
                    "class Box:\n"
                    "    def __len__(self): return 0\n"
                    "    def size(self): return self.size()\n"
                    "    def area(self): return 1\n"
                    "def main(): pass\n", False),
        "pkg.use": ("import numpy as np\nfrom . import ops as o\n"
                    "def run(b):\n"
                    "    np.exp(1)\n    np.helper()\n    o.kept(b.area())\n"
                    "    return o.Box()\n", False),
    }
    modules = {name: (ast.parse(text), is_package)
               for name, (text, is_package) in sources.items()}
    # exp is reached only from its own body, helper only as numpy's name,
    # Box.size only from itself; run is reached by nothing at all.
    assert unreached_definitions(modules, {"pkg.ops.main"}) == [
        "pkg.ops.Box.size", "pkg.ops.exp", "pkg.ops.helper", "pkg.use.run"]
