"""Outside-in tracing of nncat, installed from the benchmark's own files.

The package is not edited.  Each wrapped function is replaced by a
traced wrapper under every name an nncat module bound it to (so
`nncat.backward.kleisli_apply` and `nncat.network.kleisli_apply` both
reach the wrapper), and the `__post_init__` validators of `Mat`, `Layer`
and `Network` are patched on their classes.  A wrapper records a span
(id, parent id, name, start, end) only while the tracer is active, so
the checks that run between ops are not counted.
"""

from __future__ import annotations

import functools
import sys
from time import perf_counter_ns

# nncat module -> public functions that get one span per call.
FUNCTIONS = {
    "algebra": ("kleisli_apply", "outer", "vec_mat", "weights_part", "hadamard"),
    "activation": ("act_map", "act_deriv_map"),
    "network": ("layer_forward", "net_forward"),
    "loss": ("squared_error", "transform_loss", "validity"),
    "backward": ("layer_erosion_vector", "masked_update"),
    "backprop": ("backprop_step", "train"),
    "oracle": ("fd_layer_gradient",),
    "fileio": ("read_network", "read_dataset", "write_network", "write_trace"),
    "cli": ("main",),
}

# (nncat module, class) whose __post_init__ gets a span per call, with the
# counter each call adds to: the matrix entries checked for finiteness and
# the mask plus bias-flag entries normalised.
VALIDATORS = {
    ("algebra", "Mat"): ("algebra.Mat.entries_validated", lambda m: len(m.entries)),
    ("network", "Layer"): (
        "network.Layer.mask_entries",
        lambda layer: layer.transition.rows * layer.transition.cols,
    ),
    ("network", "Network"): None,
}

SPAN_NAMES = tuple(
    [f"{mod}.{fn}" for mod, fns in FUNCTIONS.items() for fn in fns]
    + [f"{mod}.{cls}.__post_init__" for mod, cls in VALIDATORS]
)
COUNTER_NAMES = tuple(c[0] for c in VALIDATORS.values() if c is not None)


class Aggregate:
    """Per-name totals of the spans recorded into it: calls, self time and
    inclusive time; per-call durations for the names in `keep_durations`."""

    def __init__(self, keep_durations: tuple[str, ...] = ()) -> None:
        self.stats: dict[str, list[int]] = {}
        self.counts: dict[str, int] = {}
        self.durations: dict[str, list[int]] = {name: [] for name in keep_durations}


class Tracer:
    """Records spans into the Aggregate `into` while `active`.

    Self time is a span's duration minus the durations of its direct
    children.  Whole spans are kept while `spans` is a list.
    """

    def __init__(self, into: Aggregate) -> None:
        self.active = False
        self.into = into
        self.spans: list[tuple] | None = None
        self._stack: list[list[int]] = []
        self._next_id = 0

    def _wrap(self, name, fn, counter=None):
        count_name, count = counter if counter else (None, None)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            into = self.into
            if count is not None:
                into.counts[count_name] = into.counts.get(count_name, 0) + count(args[0])
            parent = self._stack[-1] if self._stack else None
            frame = [self._next_id, 0]
            self._next_id += 1
            self._stack.append(frame)
            start = perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter_ns()
                self._stack.pop()
                total = end - start
                if parent is not None:
                    parent[1] += total
                agg = into.stats.setdefault(name, [0, 0, 0])
                agg[0] += 1
                agg[1] += total - frame[1]
                agg[2] += total
                if name in into.durations:
                    into.durations[name].append(total)
                if self.spans is not None:
                    self.spans.append(
                        (frame[0], parent[0] if parent else None, name, start, end)
                    )

        return traced

    def install(self) -> None:
        """Patch the nncat modules currently imported; lasts for the process."""
        loaded = [m for n, m in sys.modules.items() if n == "nncat" or n.startswith("nncat.")]
        for mod, names in FUNCTIONS.items():
            home = sys.modules[f"nncat.{mod}"]
            for fn_name in names:
                original = getattr(home, fn_name)
                traced = self._wrap(f"{mod}.{fn_name}", original)
                for module in loaded:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            setattr(module, attr, traced)
        for (mod, cls_name), counter in VALIDATORS.items():
            cls = getattr(sys.modules[f"nncat.{mod}"], cls_name)
            cls.__post_init__ = self._wrap(
                f"{mod}.{cls_name}.__post_init__", cls.__post_init__, counter
            )
