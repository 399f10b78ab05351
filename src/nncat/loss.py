"""Loss predicates on output states and their backward transformation.

A loss predicate is a real-valued function on states together with its
gradient, called the erosion here because training erodes weights along
it.  Pulling a loss back through a network precomposes the evaluator
with the forward pass and routes the erosion through the layer-wise
backward transformation, so the transformed predicate's erosion is again
the exact gradient of its evaluator.

The learning rate is folded into the loss (squared error carries it as a
factor), never passed around separately.  Consequently gradients carry
the rate already and an update is a plain masked subtraction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

from .algebra import DomainError, ShapeError, Vec, vec
from .backward import erosion_transform_net
from .network import Network, net_forward


@dataclass(frozen=True)
class LossPredicate:
    """Real-valued predicate on k-states plus its gradient (erosion).

    The erosion must be the exact gradient of `evaluate`; the test suite
    holds every constructible predicate to finite differences.
    """

    dim: int
    evaluate: Callable[[Vec], float] = field(compare=False)
    erosion: Callable[[Vec], Vec] = field(compare=False)


def squared_error(target: Sequence[float], rate: float) -> LossPredicate:
    """Loss y -> 0.5 * rate * sum_i (y_i - target_i)^2, rate folded in."""
    t = vec(target)
    rate = float(rate)
    if not math.isfinite(rate) or rate < 0.0:
        raise DomainError(f"rate must be finite and >= 0, got {rate!r}")
    k = len(t)

    def evaluate(y: Vec) -> float:
        if len(y) != k:
            raise ShapeError(f"loss expects {k} values, got {len(y)}")
        acc = 0.0
        for yi, ti in zip(y, t):
            d = yi - ti
            acc += d * d
        return 0.5 * rate * acc

    def erosion(y: Vec) -> Vec:
        if len(y) != k:
            raise ShapeError(f"loss expects {k} values, got {len(y)}")
        return tuple(rate * (yi - ti) for yi, ti in zip(y, t))

    return LossPredicate(k, evaluate, erosion)


def validity(x: Vec, loss: LossPredicate) -> float:
    """The value of the loss predicate at a state."""
    if len(x) != loss.dim:
        raise ShapeError(f"state has length {len(x)}, loss expects {loss.dim}")
    return loss.evaluate(x)


def transform_loss(net: Network, loss: LossPredicate) -> LossPredicate:
    """Pull a loss on the network's outputs back to one on its inputs.

    Evaluation composes the loss with the forward pass; the erosion is
    the layer-wise backward transformation of the base erosion, which by
    construction is the gradient of the composed evaluator.
    """
    if loss.dim != net.out_dim:
        raise ShapeError(
            f"loss of dimension {loss.dim} cannot follow a network producing {net.out_dim}"
        )

    def evaluate(x: Vec) -> float:
        return loss.evaluate(net_forward(net, x))

    def erosion(x: Vec) -> Vec:
        return erosion_transform_net(net, loss.erosion, x)

    return LossPredicate(net.in_dim, evaluate, erosion)


def validity_equation_check(
    net: Network, x: Vec, loss: LossPredicate
) -> tuple[float, float]:
    """Both readings of loss-after-forward; contract: bitwise equal.

    Left: run the network, then evaluate the loss.  Right: evaluate the
    pulled-back loss at the input.  Both execute the same operations in
    the same order, so the floats must coincide exactly.
    """
    lhs = validity(net_forward(net, x), loss)
    rhs = validity(x, transform_loss(net, loss))
    return lhs, rhs
