"""The engine never sums floats in an order it does not spell out.

It never calls the built-in `sum()`, `math.fsum` or `math.sumprod`.
Python 3.12 changed `sum()` of floats to compensated summation, so a
call would give different bits on different interpreter versions.
`math.sumprod`, new in 3.12, sums its products in extended precision, so
a left-to-right loop rewritten with it would change the bits on 3.12
alone.

Nor does it use the `@` operator or call `dot`, `matmul`, `einsum`,
`inner`, `tensordot`, `vdot`, `cumsum`, `reduce`, `mean`, `average`,
`nansum`, `nanmean`, `var`, `std`, `norm`, `convolve` or `correlate`.
numpy's products and reductions sum pairwise, in blocks or through
BLAS, which may fuse a multiply and an add, and `convolve` and
`correlate` run their own inner-product loops, so the numpy kernels
would no longer give the pure kernels' bits.  `functools.reduce` is banned with them, as the name
alone cannot tell the two apart.  `itertools.accumulate`, which the
oracle uses for its running sums, adds left to right and is allowed.

The rule is checked on the source, so it holds on every version and
platform the suite runs on, not only on those where the bits would
differ.
"""

import ast
from pathlib import Path

import pytest

import nncat

FORBIDDEN = {
    "sum", "fsum", "sumprod",
    "dot", "matmul", "einsum", "inner", "tensordot", "vdot", "cumsum", "reduce",
    "mean", "average", "nansum", "nanmean", "var", "std", "norm", "convolve", "correlate",
}


def _called_name(call: ast.Call) -> str | None:
    func = call.func
    if isinstance(func, ast.Name):
        return func.id
    if isinstance(func, ast.Attribute):
        return func.attr
    return None


def violations(source: str, name: str = "<source>") -> list[str]:
    found = []
    for node in ast.walk(ast.parse(source, filename=name)):
        if isinstance(node, ast.Call) and _called_name(node) in FORBIDDEN:
            found.append(f"{name}:{node.lineno}: {_called_name(node)}()")
        elif isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.MatMult):
            found.append(f"{name}:{node.lineno}: @")
    return found


def test_no_builtin_float_summation():
    sources = sorted(Path(nncat.__file__).parent.glob("*.py"))
    assert any(path.name == "_vectorized.py" for path in sources)
    found = []
    for path in sources:
        found += violations(path.read_text(), path.name)
    assert found == []


@pytest.mark.parametrize(
    "source",
    [
        "sum(xs)",
        "math.fsum(xs)",
        "math.sumprod(ws, xs)",
        "z = W @ x",
        "acc @= W",
        "np.dot(W, x)",
        "W.dot(x)",
        "np.matmul(W, x)",
        "np.einsum('ij,j->i', W, x)",
        "np.inner(s, w)",
        "np.tensordot(W, x, 1)",
        "np.vdot(s, w)",
        "np.cumsum(xs)",
        "np.add.reduce(xs)",
        "functools.reduce(operator.add, xs)",
        "np.mean(xs)",
        "xs.mean()",
        "np.average(xs, weights=ws)",
        "np.nansum(xs)",
        "np.nanmean(xs)",
        "np.var(xs)",
        "xs.std()",
        "np.linalg.norm(s)",
        "np.convolve(s, w)",
        "np.correlate(s, w)",
    ],
)
def test_the_rule_catches(source):
    assert violations(source) != []


@pytest.mark.parametrize(
    "source",
    [
        "list(accumulate(map(mul, ws, xs), initial=0.0))",
        "itertools.accumulate(xs)",
        "acc += column",
        "np.multiply.outer(s, inp)",
    ],
)
def test_the_rule_allows(source):
    assert violations(source) == []
