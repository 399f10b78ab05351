"""A wide layer's step weights as a numpy array: the numpy
implementation of the step-weights interface, bit for bit.

A layer's step costs O(rows * cols) in three places: the affine map of
the forward loop, the pushback of the backward sweep and the masked
rank-one update.  Everything else costs O(rows + cols) and stays shared
with the pure path.  The step weights do those three through one
interface, `entries()`, `affine`, `pushback` and `update`, which
`algebra.EntryWeights` implements on the entry tuple.  `ArrayWeights`
implements it on numpy and computes the same values as `EntryWeights`
in the same order.  IEEE 754 rounds each elementwise `+`, `-` and `*`
correctly, so the same operations on the same operands in the same
order give the same bits:

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

Importing this module imports numpy; `network.Layer._step_weights`
imports it only when a layer wide enough to gain first runs forward or
steps, and loads that layer's `ArrayWeights` once.
"""

from __future__ import annotations

import numpy as np

from .algebra import Vec, _require_finite
from .network import Layer


class ArrayWeights:
    """One layer's step weights on the numpy kernels, a value with the
    methods of `EntryWeights`: its entries as a rows x cols float64
    array and its frozen positions (`Layer.mutable` off) as a boolean
    array of the same shape, both read-only from construction.  The
    kernels read them; `update` returns new weights and writes only
    the array it allocates, so no step changes weights that a layer
    holds."""

    __slots__ = ("array", "frozen")

    def __init__(self, array: np.ndarray, frozen: np.ndarray) -> None:
        array.flags.writeable = frozen.flags.writeable = False
        self.array = array
        self.frozen = frozen

    @classmethod
    def of(cls, layer: Layer) -> ArrayWeights:
        """New weights loaded from `layer`'s row-major entries and its
        `mutable` flags."""
        t = layer.transition
        frozen = ~np.frombuffer(bytes(layer.mutable), dtype=bool).reshape(t.rows, t.cols)
        array = np.fromiter(t.entries, dtype=float, count=len(t.entries))
        return cls(array.reshape(t.rows, t.cols), frozen)

    def entries(self) -> Vec:
        """The row-major entry tuple."""
        return tuple(self.array.ravel().tolist())

    def affine(self, x: Vec) -> Vec:
        w = self.array
        with np.errstate(all="ignore"):
            products = w[:, :-1] * np.asarray(x, dtype=float)
            acc = np.zeros(len(w))
            for column in products.T:
                acc += column
            acc += w[:, -1]
        return tuple(acc.tolist())

    def pushback(self, s: Vec) -> Vec:
        w = self.array
        with np.errstate(all="ignore"):
            products = np.asarray(s, dtype=float)[:, None] * w[:, :-1]
            acc = np.zeros(w.shape[1] - 1)
            for row in products:
                acc += row
        return tuple(acc.tolist())

    def update(self, s: Vec, inp: Vec) -> ArrayWeights:
        w = self.array
        with np.errstate(all="ignore"):
            new = np.multiply.outer(s, inp)
            np.subtract(w, new, out=new)
            np.copyto(new, w, where=self.frozen)
            if not np.isfinite(new).all():
                _require_finite(new.ravel().tolist(), "matrix entry")
        return ArrayWeights(new, self.frozen)
