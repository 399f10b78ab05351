"""Minimal dense real vector/matrix kernel.

Exactly the handful of operations the engine needs, in plain 64-bit
floats.  Sums run left to right over ascending indices so repeated runs
produce identical bits; there is no blocking, no parallel reduction, and
no hidden library dispatch.

A layer's step weights have one interface, four methods: `entries()`,
`affine(x)`, `pushback(s)` and `update(s, inp)`, the layer's only
O(rows * cols) work.  `EntryWeights` here implements it on the entry
tuple; `_vectorized.ArrayWeights` implements it on a numpy array with
the same bits.  The forward loop, the sweep and the step call the four
methods and never ask which implementation they hold.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

Vec = tuple[float, ...]


class ShapeError(ValueError):
    """Operand dimensions do not fit the operation."""


class DomainError(ValueError):
    """A numeric argument is outside the operation's domain (NaN/inf)."""


def _require_finite(values: Sequence[float], what: str) -> None:
    """The engine's one finiteness rule: raise `DomainError("<what> is
    not finite: <v>")` for the first value v that is not finite.  A hot
    loop may test `math.isfinite` itself and call this only on failure,
    for the text."""
    if not all(map(math.isfinite, values)):
        bad = next(v for v in values if not math.isfinite(v))
        raise DomainError(f"{what} is not finite: {bad!r}")


def vec(values: Iterable[float]) -> Vec:
    """Build a vector, rejecting non-finite entries."""
    out = tuple(float(v) for v in values)
    _require_finite(out, "vector entry")
    return out


@dataclass(frozen=True)
class Mat:
    """Dense rows x cols matrix of finite floats, row-major entries."""

    rows: int
    cols: int
    entries: tuple[float, ...]

    def __post_init__(self) -> None:
        # a list would keep the matrix mutable and unhashable; for a
        # tuple this is free, as tuple(t) is t
        object.__setattr__(self, "entries", tuple(self.entries))
        if self.rows < 0 or self.cols < 0:
            raise ShapeError(f"negative dimensions {self.rows}x{self.cols}")
        if len(self.entries) != self.rows * self.cols:
            raise ShapeError(
                f"{self.rows}x{self.cols} matrix needs {self.rows * self.cols} "
                f"entries, got {len(self.entries)}"
            )
        _require_finite(self.entries, "matrix entry")

    @classmethod
    def from_rows(cls, rows: Sequence[Sequence[float]]) -> "Mat":
        """Build from a row-of-rows; no rows give the 0x0 matrix."""
        rows = [tuple(float(v) for v in r) for r in rows]
        width = len(rows[0]) if rows else 0
        for j, r in enumerate(rows):
            if len(r) != width:
                raise ShapeError(f"row 0 has {width} entries but row {j} has {len(r)}")
        return cls(len(rows), width, tuple(v for r in rows for v in r))

    def __getitem__(self, index: tuple[int, int]) -> float:
        j, i = index
        if not (0 <= j < self.rows and 0 <= i < self.cols):
            raise ShapeError(f"index ({j},{i}) outside {self.rows}x{self.cols}")
        return self.entries[j * self.cols + i]

    def row(self, j: int) -> Vec:
        if not 0 <= j < self.rows:
            raise ShapeError(f"row {j} outside {self.rows}x{self.cols}")
        return self.entries[j * self.cols : (j + 1) * self.cols]

    def to_rows(self) -> tuple[Vec, ...]:
        return tuple(self.row(j) for j in range(self.rows))


def kleisli_apply(t: Mat, x: Vec) -> Vec:
    """Affine action of a (weights | bias) matrix on a state.

    result_j = sum_i t[j,i] * x_i + t[j,last], with the sum taken left to
    right over columns.  The matrix must have len(x)+1 columns; the final
    column is the bias fed by the implicit trailing 1.
    """
    n = len(x)
    if t.cols != n + 1:
        raise ShapeError(
            f"matrix is {t.rows}x{t.cols} but input of length {n} needs {n + 1} columns"
        )
    return _affine(t.entries, x)


def _affine(entries: Sequence[float], x: Vec) -> Vec:
    """`kleisli_apply` on row-major entries with len(x) + 1 columns,
    unchecked."""
    cols = len(x) + 1
    out = []
    for k in range(0, len(entries), cols):
        row = entries[k : k + cols]
        acc = 0.0
        # zip stops before the bias column
        for w, xi in zip(row, x):
            acc += w * xi
        out.append(acc + row[-1])
    return tuple(out)


class EntryWeights:
    """One layer's step weights on the pure kernels, a value: its
    row-major entry tuple, its `cols` and its `Layer.mutable` flags.
    `update` returns new weights that share `cols` and the flags, so no
    step changes weights that a layer holds."""

    __slots__ = ("_entries", "cols", "mutable")

    def __init__(self, entries: Vec, cols: int, mutable: Sequence[bool]) -> None:
        self._entries = entries
        self.cols = cols
        self.mutable = mutable

    def entries(self) -> Vec:
        """The row-major entry tuple."""
        return self._entries

    def affine(self, x: Vec) -> Vec:
        return _affine(self._entries, x)

    def pushback(self, s: Vec) -> Vec:
        """The input erosion: e_in[i] sums s_j * t[j, i] over ascending j
        from 0.0, the order of `vec_mat`, reading column i in place as a
        strided slice; the bias column does not reach the input."""
        entries, cols = self._entries, self.cols
        e_in = []
        for i in range(cols - 1):
            acc = 0.0
            for sj, w in zip(s, entries[i::cols]):
                acc += sj * w
            e_in.append(acc)
        return tuple(e_in)

    def update(self, s: Vec, inp: Vec) -> "EntryWeights":
        """Each entry that `mutable` flags becomes w - s_j * inp_i, each
        other one stays w.  The first new entry that is not finite raises
        the error the updated matrix would have raised."""
        entries, cols, mutable = self._entries, self.cols, self.mutable
        new = [
            w - sj * ai if f else w
            for sj, k in zip(s, range(0, len(entries), cols))
            for w, ai, f in zip(entries[k : k + cols], inp, mutable[k : k + cols])
        ]
        if not all(map(math.isfinite, new)):
            _require_finite(new, "matrix entry")
        return EntryWeights(tuple(new), cols, mutable)


def hadamard(u: Vec, v: Vec) -> Vec:
    """Elementwise product of two equal-length vectors."""
    if len(u) != len(v):
        raise ShapeError(f"vector lengths differ: {len(u)} vs {len(v)}")
    return tuple(a * b for a, b in zip(u, v))


def outer(s: Vec, w: Vec) -> Mat:
    """Outer product: result[j,i] = s_j * w_i."""
    return Mat(len(s), len(w), tuple([sj * wi for sj in s for wi in w]))


def weights_part(t: Mat) -> Mat:
    """Drop the bias column, keeping the first cols-1 columns."""
    if t.cols < 1:
        raise ShapeError(f"matrix {t.rows}x{t.cols} has no bias column to drop")
    n = t.cols - 1
    kept = tuple(
        t.entries[j * t.cols + i] for j in range(t.rows) for i in range(n)
    )
    return Mat(t.rows, n, kept)


def vec_mat(s: Vec, a: Mat) -> Vec:
    """Row vector times matrix: result_i = sum_j s_j * a[j,i], ascending j."""
    if len(s) != a.rows:
        raise ShapeError(f"vector length {len(s)} vs matrix rows {a.rows}")
    out = []
    for i in range(a.cols):
        acc = 0.0
        for j in range(a.rows):
            acc += s[j] * a.entries[j * a.cols + i]
        out.append(acc)
    return tuple(out)
