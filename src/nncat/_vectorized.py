"""numpy twins of the step's three O(rows * cols) kernels, bit for bit.

A layer's step costs O(rows * cols) in three places: the affine map of
the forward sweep, the pushback of the backward sweep and the masked
rank-one update.  Everything else costs O(rows + cols) and stays shared
with the pure path.  These kernels compute the same values as the pure
ones (`algebra._affine`, `backward._pushback_entries`,
`backprop._updated_entries`) in the same order.  IEEE 754 rounds each
elementwise `+`, `-` and `*` correctly, so the same operations on the
same operands in the same order give the same bits:

- the affine map forms every product w[j, i] * x[i] at once, then adds
  column i to a running sum from zeros, for ascending i, then the bias;
- the pushback forms every product s[j] * w[j, i] at once, then adds
  row j to a running sum from zeros, for ascending j;
- the update is w - s[j] * (a, 1)[i] at mutable positions and w at
  frozen ones, each entry on its own.

No kernel reduces along an axis: numpy's reductions, `@` and BLAS sum
pairwise or in blocks, or fuse a multiply and an add, and would change
the bits.  Each kernel runs with numpy's floating-point warnings off,
so an overflow gives inf or nan, as it does in pure Python, and the
shared checks raise the pure path's `DomainError`.

Importing this module imports numpy; `backprop` imports it only when a
layer wide enough to gain steps.
"""

from __future__ import annotations

import numpy as np

from .algebra import Vec, _require_finite
from .network import Layer


class ArrayKernels:
    """The numpy kernels of one layer, on its entries as a rows x cols
    float64 array, with the pure kernels' results.  The mask and bias
    flags are held as one boolean array of the mutable positions, built
    once.  `load` converts the layer's row-major entry tuple to the
    array and `store` converts back; a layer that a step rebuilt carries
    these kernels and its read-only array, so a step loads a layer's
    entries only when the layer was not built by a numpy step."""

    def __init__(self, layer: Layer) -> None:
        t = layer.transition
        self.shape = (t.rows, t.cols)
        mutable = np.empty(self.shape, dtype=bool)
        mask = np.frombuffer(b"".join(map(bytes, layer.mask)), dtype=bool)
        mutable[:, :-1] = mask.reshape(t.rows, t.cols - 1)
        mutable[:, -1] = layer.bias_mutable
        self.mutable = mutable

    def load(self, entries: Vec) -> np.ndarray:
        return np.fromiter(entries, dtype=float, count=len(entries)).reshape(self.shape)

    @staticmethod
    def store(weights: np.ndarray) -> Vec:
        return tuple(weights.ravel().tolist())

    @staticmethod
    def affine(weights: np.ndarray, x: Vec) -> Vec:
        with np.errstate(all="ignore"):
            products = weights[:, :-1] * np.asarray(x, dtype=float)
            acc = np.zeros(len(weights))
            for column in products.T:
                acc += column
            acc += weights[:, -1]
        return tuple(acc.tolist())

    @staticmethod
    def pushback(weights: np.ndarray, s: Vec) -> Vec:
        with np.errstate(all="ignore"):
            products = np.asarray(s, dtype=float)[:, None] * weights[:, :-1]
            acc = np.zeros(weights.shape[1] - 1)
            for row in products:
                acc += row
        return tuple(acc.tolist())

    def update(self, weights: np.ndarray, s: Vec, inp: Vec) -> np.ndarray:
        """`weights`, updated in place: the step owns the array it loaded or
        copied, never one that a layer carries."""
        with np.errstate(all="ignore"):
            new = np.multiply.outer(s, inp)
            np.subtract(weights, new, out=new)
            np.copyto(weights, new, where=self.mutable)
            if not np.isfinite(weights).all():
                _require_finite(weights.ravel().tolist(), "matrix entry")
        return weights
