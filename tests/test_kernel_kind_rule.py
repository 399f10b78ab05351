"""No loop asks which kind of kernel a layer runs.

A layer's step weights have one interface, `entries()`, `affine`,
`pushback` and `update`, with two implementations:
`algebra.EntryWeights` on the pure kernels and `_vectorized.ArrayWeights`
on numpy.  `network.Layer._step_weights` alone chooses which one a layer
holds; the forward loop, the sweep, the step and the rebuild only call
the interface.  A loop that told the two apart would be a second place
to write each per-layer change, once per kind.  So the rule is checked
on the source: no module of the package compares `type(...)` with `is`
or `is not`, or calls `isinstance` with either implementation.
"""

import ast
from pathlib import Path

import nncat

KINDS = {"ArrayWeights", "EntryWeights"}


def _is_type_call(node: ast.AST) -> bool:
    return isinstance(node, ast.Call) and getattr(node.func, "id", None) == "type"


def _names(node: ast.AST) -> set[str]:
    """Every name in `node`: `X`, the `X` of `m.X`, each item of a tuple."""
    return {
        n.id if isinstance(n, ast.Name) else n.attr
        for n in ast.walk(node)
        if isinstance(n, (ast.Name, ast.Attribute))
    }


def _asks_the_kind(node: ast.AST) -> bool:
    """`type(...) is x`, `x is not type(...)`, or `isinstance(x, K)` with
    K naming either implementation."""
    if isinstance(node, ast.Compare):
        operands = [node.left, *node.comparators]
        return any(
            isinstance(op, (ast.Is, ast.IsNot)) and (_is_type_call(lhs) or _is_type_call(rhs))
            for op, lhs, rhs in zip(node.ops, operands, operands[1:])
        )
    return (
        isinstance(node, ast.Call)
        and getattr(node.func, "id", None) == "isinstance"
        and len(node.args) == 2
        and bool(_names(node.args[1]) & KINDS)
    )


def _sites(source: str, name: str) -> list[str]:
    tree = ast.parse(source, filename=name)
    return [f"{name}:{node.lineno}" for node in ast.walk(tree) if _asks_the_kind(node)]


def test_the_rule_sees_each_form():
    source = "\n".join(
        [
            "type(w) is tuple",
            "tuple is not type(w)",
            "isinstance(w, ArrayWeights)",
            "isinstance(w, (tuple, _vectorized.EntryWeights))",
            # not asking the kind: equality, and isinstance with another class
            "type(w) == tuple",
            "isinstance(w, tuple)",
        ]
    )
    assert _sites(source, "sample.py") == [f"sample.py:{line}" for line in (1, 2, 3, 4)]


def test_no_module_asks_which_kernel_a_layer_runs():
    sources = sorted(Path(nncat.__file__).parent.glob("*.py"))
    assert any(path.name == "network.py" for path in sources)
    found = [site for path in sources for site in _sites(path.read_text(), path.name)]
    assert found == []
