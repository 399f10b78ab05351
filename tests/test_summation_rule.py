"""The engine never sums floats with the built-in `sum()`, `math.fsum`
or `math.sumprod`.

Python 3.12 changed `sum()` of floats to compensated summation, so a
call would give different bits on different interpreter versions.
`math.sumprod`, new in 3.12, sums its products in extended precision, so
a left-to-right loop rewritten with it would change the bits on 3.12
alone.  The rule is checked on the source, so it holds on every version
the suite runs on, not only on those where the bits would differ.
"""

import ast
from pathlib import Path

import nncat

FORBIDDEN = {"sum", "fsum", "sumprod"}


def _called_name(call: ast.Call) -> str | None:
    func = call.func
    if isinstance(func, ast.Name):
        return func.id
    if isinstance(func, ast.Attribute):
        return func.attr
    return None


def test_no_builtin_float_summation():
    sources = sorted(Path(nncat.__file__).parent.glob("*.py"))
    assert sources
    found = []
    for path in sources:
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.Call) and _called_name(node) in FORBIDDEN:
                found.append(f"{path.name}:{node.lineno}: {_called_name(node)}()")
    assert found == []
