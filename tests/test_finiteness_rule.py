"""Only `algebra` raises the engine's "... is not finite" `DomainError`.

`algebra._require_finite` is the one rule that decides a value is not
finite and words the error, `<what> is not finite: <first bad value>`.
Every other module calls it, after a cheap `math.isfinite` test where
the loop is hot, so the text cannot drift between copies.  The rule is
checked on the source: a `raise DomainError(...)` outside `algebra.py`
whose message holds "is not finite" fails it.
"""

import ast
from pathlib import Path

import nncat

PHRASE = "is not finite"


def _raises_domain_error(node: ast.Raise) -> bool:
    call = node.exc
    if not isinstance(call, ast.Call):
        return False
    func = call.func
    name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
    return name == "DomainError"


def _mentions_phrase(call: ast.Call) -> bool:
    return any(
        isinstance(part, ast.Constant) and isinstance(part.value, str) and PHRASE in part.value
        for arg in call.args
        for part in ast.walk(arg)
    )


def test_only_algebra_words_the_finiteness_error():
    sources = sorted(Path(nncat.__file__).parent.glob("*.py"))
    assert any(path.name == "algebra.py" for path in sources)
    found = []
    for path in sources:
        if path.name == "algebra.py":
            continue
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.Raise) and _raises_domain_error(node):
                if _mentions_phrase(node.exc):
                    found.append(f"{path.name}:{node.lineno}")
    assert found == []
