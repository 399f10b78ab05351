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

from .algebra import Mat, Vec
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
    transition entry, bias column included."""
    cfg = cfg or FdConfig()
    t = layer.transition

    def value_at(perturbed: list[float]) -> float:
        # a new, validated matrix for every evaluation
        transition = Mat(t.rows, t.cols, tuple(perturbed))
        return validity(layer_forward(layer._with_transition(transition), a), loss)

    perturbed = list(t.entries)
    entries = []
    for k, v in enumerate(t.entries):
        perturbed[k] = v + cfg.eps
        up = value_at(perturbed)
        perturbed[k] = v - cfg.eps
        down = value_at(perturbed)
        perturbed[k] = v
        entries.append((up - down) / (2.0 * cfg.eps))
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
