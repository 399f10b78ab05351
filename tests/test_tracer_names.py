"""Every name the benchmark's tracer wraps exists in its nncat module.

`benchmarks/tracer.py` patches nncat from outside, and `--trace 1`
fails on any name it cannot find.  This reads the tracer's tables, so a
rename fails here, in the unit suite, and not only in the benchmark's
self-test.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

from helpers import mazur_network

TRACER = Path(__file__).resolve().parents[1] / "benchmarks" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("benchmark_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracer = load_tracer()


@pytest.mark.parametrize(
    "mod, name", [(mod, fn) for mod, fns in tracer.FUNCTIONS.items() for fn in fns]
)
def test_wrapped_function_exists(mod, name):
    assert callable(getattr(importlib.import_module(f"nncat.{mod}"), name))


@pytest.mark.parametrize("mod, cls", list(tracer.VALIDATORS))
def test_wrapped_validator_exists(mod, cls):
    klass = getattr(importlib.import_module(f"nncat.{mod}"), cls)
    assert callable(vars(klass)["__post_init__"])


def test_validator_counters_read_real_values():
    layer = mazur_network().layers[0]
    instances = {("algebra", "Mat"): layer.transition, ("network", "Layer"): layer}
    for key, counter in tracer.VALIDATORS.items():
        if counter is not None:
            assert counter[1](instances[key]) == 6
