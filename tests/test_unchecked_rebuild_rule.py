"""Only `Network._with_weights` builds an object past its checks.

`Mat`, `Layer` and `Network` validate themselves in `__post_init__`.
The engine skips that in one place: the step's rebuild of a network
from entries it has already checked, where each `Mat` and `Layer` is
made with `object.__new__`.  A second `__new__` call would be a second
place that decides which values are trusted, so the rule is checked on
the source.
"""

import ast
from pathlib import Path

import nncat

ALLOWED = "network.py:Network._with_weights"


def _new_calls(tree: ast.AST) -> list[tuple[str, int]]:
    """(enclosing class and function names, line) of each `X.__new__(...)` call."""
    found = []

    def visit(node: ast.AST, scope: tuple[str, ...]) -> None:
        if isinstance(node, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            scope += (node.name,)
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == "__new__"
        ):
            found.append((".".join(scope), node.lineno))
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    visit(tree, ())
    return found


def test_one_unchecked_rebuild():
    sources = sorted(Path(nncat.__file__).parent.glob("*.py"))
    assert sources
    allowed, outside = 0, []
    for path in sources:
        tree = ast.parse(path.read_text(), filename=str(path))
        for scope, line in _new_calls(tree):
            if f"{path.name}:{scope}" == ALLOWED:
                allowed += 1
            else:
                outside.append(f"{path.name}:{line}: __new__ in {scope or 'module'}")
    assert outside == []
    # the rule names a site that exists, so it cannot pass by a rename
    assert allowed > 0
