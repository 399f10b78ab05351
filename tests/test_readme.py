"""README's `python` example under "Library" runs as written, and its
step gives the worked example's published matrices."""

import re
from pathlib import Path

import pytest

from helpers import GOLD_UPDATED_FIRST, GOLD_UPDATED_SECOND, TOL8

README = Path(__file__).resolve().parents[1] / "README.md"


def test_the_library_example_runs():
    section = README.read_text(encoding="utf-8").split("\n## Library\n", 1)[1]
    section = section.split("\n## ", 1)[0]
    (example,) = re.findall(r"```python\n(.*?)```", section, re.S)
    namespace: dict = {}
    exec(compile(example, f"{README.name} (Library)", "exec"), namespace)
    updated = namespace["updated"]
    for layer, gold in zip(updated.layers, (GOLD_UPDATED_FIRST, GOLD_UPDATED_SECOND), strict=True):
        assert layer.transition.to_rows() == tuple(
            pytest.approx(row, abs=TOL8) for row in gold
        )
