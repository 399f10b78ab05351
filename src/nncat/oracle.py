"""Independent numeric ground truth via central finite differences.

Everything the engine computes analytically (layer gradients, erosions)
can be re-derived here from loss evaluations alone, so agreement between
the two routes is a real check and not a tautology.  Central differences
give O(eps^2) truncation; eps = 1e-6 balances truncation against
round-off in 64-bit floats.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .activation import act_map
from .algebra import Mat, Vec, kleisli_apply
from .backward import Gradient
from .loss import LossPredicate, validity
from .network import Layer, layer_forward


@dataclass(frozen=True)
class FdConfig:
    """Step size and comparison bound for finite-difference checks."""

    eps: float = 1e-6
    tolerance: float = 1e-5

    def __post_init__(self) -> None:
        if not self.eps > 0.0:
            raise ValueError(f"eps must be > 0, got {self.eps!r}")
        if not self.tolerance > 0.0:
            raise ValueError(f"tolerance must be > 0, got {self.tolerance!r}")

    def close(self, x: float, y: float) -> bool:
        """Mixed absolute/relative: |x - y| <= tolerance * max(1, |x|, |y|)."""
        return math.isclose(x, y, rel_tol=self.tolerance, abs_tol=self.tolerance)


def fd_layer_gradient(
    layer: Layer, a: Vec, loss: LossPredicate, cfg: FdConfig | None = None
) -> Gradient:
    """Central-difference gradient of (loss after the layer) in every
    transition entry, bias column included.

    The layer runs once; a perturbation in row j moves only output j, so
    each evaluation recomputes that output from a new, validated one-row
    matrix and splices it into the cached outputs.
    """
    cfg = cfg or FdConfig()
    t = layer.transition
    cols = t.cols
    cached = layer_forward(layer, a)
    outputs = list(cached)

    def value_at(j: int, row: list[float]) -> float:
        outputs[j] = act_map(layer.activation, kleisli_apply(Mat(1, cols, tuple(row)), a))[0]
        return validity(tuple(outputs), loss)

    entries = []
    for j, y in enumerate(cached):
        row = list(t.row(j))
        for i, v in enumerate(row):
            row[i] = v + cfg.eps
            up = value_at(j, row)
            row[i] = v - cfg.eps
            down = value_at(j, row)
            row[i] = v
            entries.append((up - down) / (2.0 * cfg.eps))
        outputs[j] = y
    return Gradient(Mat(t.rows, t.cols, tuple(entries)))


def fd_erosion(loss: LossPredicate, y: Vec, cfg: FdConfig | None = None) -> Vec:
    """Central-difference gradient of the loss evaluator around y."""
    cfg = cfg or FdConfig()
    out = []
    for i in range(len(y)):
        up = list(y)
        down = list(y)
        up[i] += cfg.eps
        down[i] -= cfg.eps
        out.append((validity(tuple(up), loss) - validity(tuple(down), loss)) / (2.0 * cfg.eps))
    return tuple(out)
