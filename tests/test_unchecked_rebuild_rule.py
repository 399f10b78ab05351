"""Only `Network._with_weights` builds an object past its checks.

`Mat`, `Layer` and `Network` validate themselves in `__post_init__`.
The engine skips that in one place: the step's rebuild of a network
from entries it has already checked, where each `Mat` and `Layer` is
made with `object.__new__`.  A second `__new__` call would be a second
place that decides which values are trusted, so the rule is checked on
the source.

What a layer carries, its step weights `Layer._step_weights`, has one
writer and one reader.  The value chooses its kind once, at its first
read, unless the rebuild seeded it.  The rebuild is the one writer: it
takes each layer's entries and its step weights from one object, so
they cannot disagree.  `network._loaded`, which gives the forward loop
and the step their weights, is the one reader.  So the one writer and
the one reader live in one module.  A write or a read anywhere else
breaks the rule.
"""

import ast
from pathlib import Path
from typing import Callable

import nncat

REBUILD = "network.py:Network._with_weights"
LOADER = "network.py:_loaded"
STEP_WEIGHTS = "_step_weights"


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


def _step_weights_access(load: bool) -> Callable[[ast.AST], bool]:
    """A matcher of the reads of `_step_weights` (`x._step_weights` or a
    `getattr` or `__getattribute__` call naming it) when `load`, else of
    its writes (`x._step_weights = ...`, `del x._step_weights`, or a
    `setattr` or `__setattr__` call naming it)."""
    calls = ("getattr", "__getattribute__") if load else ("setattr", "__setattr__")

    def match(node: ast.AST) -> bool:
        if isinstance(node, ast.Attribute):
            return node.attr == STEP_WEIGHTS and isinstance(node.ctx, ast.Load) == load
        if isinstance(node, ast.Call):
            func = node.func
            name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
            return name in calls and any(
                isinstance(arg, ast.Constant) and arg.value == STEP_WEIGHTS for arg in node.args
            )
        return False

    return match


def _check(match: Callable[[ast.AST], bool], what: str, allowed_site: str) -> None:
    sources = sorted(Path(nncat.__file__).parent.glob("*.py"))
    assert sources
    allowed, outside = 0, []
    for path in sources:
        tree = ast.parse(path.read_text(), filename=str(path))
        for scope, line in _sites(tree, match):
            if f"{path.name}:{scope}" == allowed_site:
                allowed += 1
            else:
                outside.append(f"{path.name}:{line}: {what} in {scope or 'module'}")
    assert outside == []
    # the rule names a site that exists, so it cannot pass by a rename
    assert allowed > 0


def test_one_unchecked_rebuild():
    _check(_new_call, "__new__", REBUILD)


def test_one_place_sets_what_a_layer_carries():
    _check(_step_weights_access(load=False), f"a write of {STEP_WEIGHTS}", REBUILD)


def test_one_place_reads_what_a_layer_carries():
    _check(_step_weights_access(load=True), f"a read of {STEP_WEIGHTS}", LOADER)
