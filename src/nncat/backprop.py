"""One backward-propagation training step over a whole network, and a
deterministic single-example SGD loop on top of it.

The step is the backward module's one sweep, `sweep`: a forward pass
that caches each layer's pre-activation and output, then a backward pass
from the last layer to the first that yields each layer's error signal
and the erosion one stage earlier.  The step does no arithmetic of its
own: a layer's gradient is `outer(signal, input + (1,))` and its update
is `masked_update`.  All gradients are taken against the original
weights, so the updated network is a function of (network, input, loss)
alone.  That discipline is what makes the step compose: stepping a
concatenated network equals concatenating the steps of its parts
against the appropriately pulled-back losses.

Each gradient and each updated matrix is validated once, as a new
`Mat`, from the last layer to the first; updated layers reuse the mask
and bias flags checked when the layer was built.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .algebra import DomainError, ShapeError, Vec, outer
from .backward import Gradient, masked_update, sweep
from .loss import LossPredicate, squared_error, transform_loss, validity
from .network import Layer, Network, compose, net_forward


@dataclass(frozen=True)
class BackpropTrace:
    """Intermediates of one step: states a_0..a_m, erosion vectors
    e_0..e_m (e_m at the output, e_0 at the input), and one gradient per
    layer."""

    states: tuple[Vec, ...]
    erosions: tuple[Vec, ...]
    gradients: tuple[Gradient, ...]


@dataclass(frozen=True)
class SgdConfig:
    """Loop bounds for train(); rows are visited in file order, no
    shuffling, one update per row."""

    epochs: int

    def __post_init__(self) -> None:
        if self.epochs < 0:
            raise ValueError(f"epochs must be >= 0, got {self.epochs}")


def backprop_step(
    net: Network, a: Vec, loss: LossPredicate
) -> tuple[Network, BackpropTrace]:
    """Apply one gradient update to every layer of the network.

    One sweep gives every layer's error signal against the pre-update
    weights; here each becomes a gradient and an updated layer.
    """
    if loss.dim != net.out_dim:
        raise ShapeError(f"loss of dimension {loss.dim} vs network output {net.out_dim}")
    states, erosions, signals = sweep(net, a, loss.erosion)
    gradients: list[Gradient] = []
    layers: list[Layer] = []
    # validated last layer first, the order in which the sweep found the signals
    for idx in range(len(net.layers) - 1, -1, -1):
        g = Gradient(outer(signals[idx], states[idx] + (1.0,)))
        layers.append(masked_update(net.layers[idx], g))
        gradients.append(g)
    trace = BackpropTrace(states, erosions, tuple(reversed(gradients)))
    return Network(tuple(reversed(layers)), net.in_dim, net.out_dim), trace


def functoriality_check(
    first: Network,
    second: Network,
    a: Vec,
    loss: LossPredicate,
    tol: float = 1e-12,
) -> bool:
    """Does stepping the composite equal composing the two steps?

    The left step of the pair sees the loss pulled back through the
    right part; the right step sees the state forwarded through the left
    part.  True iff every updated transition entry matches within tol
    and masks/activations are identical.
    """
    whole, _ = backprop_step(compose(first, second), a, loss)
    left, _ = backprop_step(first, a, transform_loss(second, loss))
    right, _ = backprop_step(second, net_forward(first, a), loss)
    split = compose(left, right)

    for got, want in zip(whole.layers, split.layers, strict=True):
        if got.activation != want.activation:
            return False
        if got.mask != want.mask or got.bias_mutable != want.bias_mutable:
            return False
        for x, y in zip(got.transition.entries, want.transition.entries):
            if abs(x - y) > tol:
                return False
    return True


def train(
    net: Network,
    dataset: Sequence[tuple[Vec, Vec]],
    rate: float,
    cfg: SgdConfig,
) -> tuple[Network, list[float]]:
    """Run single-example gradient steps over the dataset, epoch by epoch.

    Each row (input, target) builds a squared-error loss with the rate
    folded in; the loss of the current network on the row is recorded
    before its update applies.  Deterministic: fixed order, no shuffling.
    A step that leaves the finite floats raises `DomainError` naming its
    epoch and row, both counted from 1.
    """
    if not dataset:
        raise ValueError("dataset is empty")
    if not rate > 0.0:
        raise ValueError(f"learning rate must be > 0, got {rate!r}")
    for row, (x, t) in enumerate(dataset):
        if len(x) != net.in_dim or len(t) != net.out_dim:
            raise ShapeError(
                f"row {row}: expected {net.in_dim} inputs and {net.out_dim} targets, "
                f"got {len(x)} and {len(t)}"
            )

    losses: list[float] = []
    for epoch in range(1, cfg.epochs + 1):
        for row, (x, t) in enumerate(dataset, 1):
            loss = squared_error(t, rate)
            try:
                net, trace = backprop_step(net, x, loss)
            except DomainError as exc:
                raise DomainError(f"epoch {epoch}, row {row}: {exc}") from exc
            losses.append(validity(trace.states[-1], loss))
    return net, losses
