"""Every autodiff op that records a graph node has a finite-difference check.

An op records a node by calling ``_node``. A test in ``test_autodiff.py``
checks an op when it calls ``finite_difference`` and names the op, either
as ``ad.<op>`` or as a string such as a parametrize id. Like the unused
import check, this walks the syntax trees with the standard library.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
AUTODIFF = ROOT / "src" / "relformer" / "autodiff.py"
TESTS = ROOT / "tests" / "test_autodiff.py"


def _calls(node: ast.AST, name: str) -> bool:
    return any(isinstance(n, ast.Call) and isinstance(n.func, ast.Name) and n.func.id == name
               for n in ast.walk(node))


def node_ops(tree: ast.Module) -> set[str]:
    """The module-level functions whose body calls ``_node``."""
    return {fn.name for fn in tree.body
            if isinstance(fn, ast.FunctionDef) and _calls(fn, "_node")}


def checked_ops(tree: ast.Module) -> set[str]:
    """Every ``ad.<name>`` and string that a test calling ``finite_difference``
    mentions, its decorators included."""
    names: set[str] = set()
    for fn in ast.walk(tree):
        if not (isinstance(fn, ast.FunctionDef) and fn.name.startswith("test")
                and _calls(fn, "finite_difference")):
            continue
        for n in ast.walk(fn):
            if (isinstance(n, ast.Attribute) and isinstance(n.value, ast.Name)
                    and n.value.id == "ad"):
                names.add(n.attr)
            elif isinstance(n, ast.Constant) and isinstance(n.value, str):
                names.add(n.value)
    return names


def parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def test_every_node_op_has_a_finite_difference_check():
    ops = node_ops(parse(AUTODIFF))
    assert {"add", "softmax", "pool_project", "attend_rows"} <= ops
    assert sorted(ops - checked_ops(parse(TESTS))) == []


def test_checker_flags_an_unchecked_op():
    ops = node_ops(ast.parse(
        "def a(x):\n    return _node(x, (), None)\n"
        "def b(x):\n    def vjp(g):\n        return (g,)\n    return _node(x, (), vjp)\n"
        "def c(x):\n    return a(x)\n"
        "def d(x):\n    return _node(x, (), None)\n"))
    assert ops == {"a", "b", "d"}
    checked = checked_ops(ast.parse(
        "@pytest.mark.parametrize('op', ['a'])\n"
        "def test_one(op):\n    finite_difference(lambda: ad.b(x), p, [0])\n"
        "def test_two():\n    ad.d(x)\n"
        "def helper():\n    finite_difference(lambda: ad.d(x), p, [0])\n"))
    assert sorted(ops - checked) == ["d"]
