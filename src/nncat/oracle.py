"""Independent numeric ground truth via central finite differences.

Everything the engine computes analytically (layer gradients, erosions)
can be re-derived here from loss evaluations alone, so agreement between
the two routes is a real check and not a tautology.  Central differences
give O(eps^2) truncation; eps = 1e-6 balances truncation against
round-off in 64-bit floats.

`fd_layer_gradient` checks one layer of a network: `rest` carries the
layers after it, so that it can reuse the sums a one-entry perturbation
leaves alone.  Every sum runs left to right from 0.0, so the sum before
the perturbed term is the unperturbed run's, and resuming it in the same
order gives the bits of a full recomputation; the result equals that of
the loss pulled back through `rest` with `transform_loss`, which
evaluates the whole of `rest` for every perturbation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import accumulate
from operator import mul

from .activation import act_map
from .algebra import DomainError, Mat, ShapeError, Vec, _require_finite
from .backward import Gradient
from .loss import LossPredicate, validity
from .network import Layer, Network, identity_net, layer_forward


@dataclass(frozen=True)
class FdConfig:
    """Step size and comparison bound for finite-difference checks."""

    eps: float = 1e-6
    tolerance: float = 1e-5

    def __post_init__(self) -> None:
        if not self.eps > 0.0:
            raise ValueError(f"eps must be > 0, got {self.eps!r}")
        # the central difference divides by 2 * eps
        if not math.isfinite(2.0 * self.eps):
            raise ValueError(f"eps must leave 2 * eps finite, got {self.eps!r}")
        if not 0.0 < self.tolerance < math.inf:
            raise ValueError(f"tolerance must be finite and > 0, got {self.tolerance!r}")

    def close(self, x: float, y: float) -> bool:
        """Mixed absolute/relative: |x - y| <= tolerance * max(1, |x|, |y|)."""
        return math.isclose(x, y, rel_tol=self.tolerance, abs_tol=self.tolerance)


def fd_layer_gradient(
    layer: Layer,
    a: Vec,
    loss: LossPredicate,
    cfg: FdConfig | None = None,
    *,
    rest: Network | None = None,
) -> Gradient:
    """Central-difference gradient of (loss after `rest` after the layer)
    in every transition entry, bias column included.

    `rest` is the network between the layer's output and `loss`; `None`
    means no layers.  The result equals, bit for bit and error text for
    error text, `fd_layer_gradient(layer, a, transform_loss(rest, loss),
    cfg)`: both take every sum in the engine's order, left to right from
    0.0, and an entry's error is the first one its up (v + eps) and then
    its down (v - eps) evaluation meets.  `rest` must take the layer's
    output and `loss` must take `rest`'s, or `ShapeError` is raised.

    The layer runs once.  Perturbing entry (j, i) moves only output j,
    so the running sums that come before the perturbed term are read
    from the unperturbed run: row j's own sum over `a` and, for each row
    of `rest`'s first layer, its sum over outputs 0..j-1.  Each
    evaluation resumes those sums at the perturbed term, in the same
    order, runs `rest`'s later layers and evaluates `loss`.  It builds
    no matrix: a perturbed entry that is not finite raises `DomainError`
    with the text a matrix holding it would raise, and a layer of `rest`
    whose state leaves the finite floats is named as the forward loop
    names it, counted from 0 in `rest`.
    """
    cfg = cfg or FdConfig()
    eps = cfg.eps
    if rest is None:
        rest = identity_net(layer.out_dim)
    if rest.in_dim != layer.out_dim:
        raise ShapeError(f"rest expects {rest.in_dim} inputs, layer emits {layer.out_dim}")
    if loss.dim != rest.out_dim:
        raise ShapeError(
            f"loss of dimension {loss.dim} cannot follow a network producing {rest.out_dim}"
        )
    t = layer.transition
    y = layer_forward(layer, a)
    # the trailing 1 feeds the bias column: w * 1.0 == w, so a sum resumed
    # over it is `_affine`'s `acc + row[-1]`, bit for bit
    a1 = a + (1.0,)
    y1 = y + (1.0,)
    if rest.layers:
        first, *later = rest.layers
        first_rows = [(row, _running_sums(row, y1)) for row in first.transition.to_rows()]
    entries = []
    for j in range(t.rows):
        row = t.row(j)
        own = _running_sums(row, a1)
        if rest.layers:
            heads = [(sums[j], f_row[j], f_row[j + 1 :]) for f_row, sums in first_rows]
            y_tail = y1[j + 1 :]
        else:
            outputs = list(y)
        for i, v in enumerate(row):
            row_tail = row[i + 1 :]
            a_tail = a1[i + 1 :]
            values = []
            for w in (v + eps, v - eps):
                if not math.isfinite(w):
                    _require_finite((w,), "matrix entry")
                z = own[i] + w * a1[i]
                for wk, x in zip(row_tail, a_tail):
                    z += wk * x
                (yj,) = act_map(layer.activation, (z,))
                if rest.layers:
                    zs = []
                    for acc, fj, f_tail in heads:
                        acc += fj * yj
                        for fk, x in zip(f_tail, y_tail):
                            acc += fk * x
                        zs.append(acc)
                    k = 0
                    try:
                        state = act_map(first.activation, tuple(zs))
                        for k, later_layer in enumerate(later, 1):
                            state = layer_forward(later_layer, state)
                    except DomainError as exc:
                        # named as `net_forward(rest, ...)` names it
                        raise DomainError(f"{exc} (layer {k})") from exc
                else:
                    outputs[j] = yj
                    state = tuple(outputs)
                values.append(loss.evaluate(state))
            up, down = values
            entries.append((up - down) / (2.0 * eps))
    return Gradient(Mat(t.rows, t.cols, tuple(entries)))


def _running_sums(ws: Vec, xs: Vec) -> list[float]:
    """The left-to-right sum of ws[i] * xs[i] from 0.0, as it stands
    before each term and after the last."""
    return list(accumulate(map(mul, ws, xs), initial=0.0))


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
