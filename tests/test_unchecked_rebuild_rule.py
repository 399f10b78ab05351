"""Only `Network._with_weights` builds an object past its checks.

`Mat`, `Layer` and `Network` validate themselves in `__post_init__`.
The engine skips that in one place: the step's rebuild of a network
from entries it has already checked, where each `Mat` and `Layer` is
made with `object.__new__`.  A second `__new__` call would be a second
place that decides which values are trusted, so the rule is checked on
the source.

The same rebuild is the one place that sets `Layer._carried`, the
immutable `ArrayWeights` that a step leaves for the next step on the
layer.  Those weights must hold the layer's entries, which only the
rebuild sees together with them, so a write of `_carried` anywhere else
breaks the rule too.
"""

import ast
from pathlib import Path
from typing import Callable

import nncat

ALLOWED = "network.py:Network._with_weights"
CARRIED = "_carried"


def _sites(tree: ast.AST, match: Callable[[ast.AST], bool]) -> list[tuple[str, int]]:
    """(enclosing class and function names, line) of each node `match` accepts."""
    found = []

    def visit(node: ast.AST, scope: tuple[str, ...]) -> None:
        if isinstance(node, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            scope += (node.name,)
        if match(node):
            found.append((".".join(scope), node.lineno))
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    visit(tree, ())
    return found


def _new_call(node: ast.AST) -> bool:
    """An `X.__new__(...)` call."""
    return (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr == "__new__"
    )


def _carried_write(node: ast.AST) -> bool:
    """`x._carried = ...`, `del x._carried`, or a `setattr` or
    `__setattr__` call naming `_carried`."""
    if isinstance(node, ast.Attribute):
        return node.attr == CARRIED and not isinstance(node.ctx, ast.Load)
    if isinstance(node, ast.Call):
        func = node.func
        name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
        return name in ("setattr", "__setattr__") and any(
            isinstance(arg, ast.Constant) and arg.value == CARRIED for arg in node.args
        )
    return False


def _check(match: Callable[[ast.AST], bool], what: str) -> None:
    sources = sorted(Path(nncat.__file__).parent.glob("*.py"))
    assert sources
    allowed, outside = 0, []
    for path in sources:
        tree = ast.parse(path.read_text(), filename=str(path))
        for scope, line in _sites(tree, match):
            if f"{path.name}:{scope}" == ALLOWED:
                allowed += 1
            else:
                outside.append(f"{path.name}:{line}: {what} in {scope or 'module'}")
    assert outside == []
    # the rule names a site that exists, so it cannot pass by a rename
    assert allowed > 0


def test_one_unchecked_rebuild():
    _check(_new_call, "__new__")


def test_one_place_sets_what_a_layer_carries():
    _check(_carried_write, f"a write of {CARRIED}")
