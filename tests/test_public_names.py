"""`nncat.__all__` is exactly what the package's `__init__` imports, and
the reference helpers are left to their modules."""

import ast
from pathlib import Path

import nncat

# the reference helpers, imported from `nncat.algebra` and `nncat.backward`
REFERENCE_ONLY = {"hadamard", "vec_mat", "weights_part", "masked_update"}


def test_all_is_what_init_imports():
    tree = ast.parse(Path(nncat.__file__).read_text(encoding="utf-8"))
    imported = {
        alias.asname or alias.name
        for node in tree.body
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }
    assert set(nncat.__all__) == imported
    assert len(nncat.__all__) == len(imported)


def test_reference_helpers_are_not_exported():
    assert not REFERENCE_ONLY & set(nncat.__all__)
    assert not REFERENCE_ONLY & set(vars(nncat))
