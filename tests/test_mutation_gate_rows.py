"""Every row of the mutation gate (`tests/mutants.py`) still plants its
fault: its file exists and its old text occurs there exactly once.  The
gate itself is too slow for this suite, so a stale row would otherwise
show only when the gate runs."""

import importlib.util
from pathlib import Path

import pytest

_spec = importlib.util.spec_from_file_location("mutants", Path(__file__).with_name("mutants.py"))
mutants = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(mutants)


@pytest.mark.parametrize(
    "file, old", [row[1:3] for row in mutants.MUTANTS], ids=[row[0] for row in mutants.MUTANTS]
)
def test_the_row_plants_its_fault(file, old):
    path = mutants.ROOT / file
    assert path.is_file()
    assert path.read_text(encoding="utf-8").count(old) == 1


# a mutant that does not compile fails every target for a reason other
# than its fault, so the gate would count it killed without testing it
@pytest.mark.parametrize(
    "file, old, new", [row[1:4] for row in mutants.MUTANTS], ids=[row[0] for row in mutants.MUTANTS]
)
def test_the_mutant_compiles(file, old, new):
    compile((mutants.ROOT / file).read_text(encoding="utf-8").replace(old, new), file, "exec")
