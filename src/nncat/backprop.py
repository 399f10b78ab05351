"""One backward-propagation training step over a whole network, and a
deterministic single-example SGD loop on top of it.

The step is the backward module's one sweep, `sweep`: a forward pass
that caches each layer's pre-activation and output, then a backward pass
from the last layer to the first that yields each layer's error signal
and the erosion one stage earlier.  A layer's gradient is the rank-one
`outer(signal, input + (1,))` and its update subtracts it at mutable
positions, as `masked_update` does; the step fuses the two, reading the
signal and the input directly, so it never builds the gradient matrix.
Each entry is the same product and the same subtraction, so the bits are
those of `masked_update(layer, Gradient(outer(...)))`, the reference
path.  All gradients are taken against the original weights, so the
updated network is a function of (network, input, loss) alone.  That
discipline is what makes the step compose: stepping a concatenated
network equals concatenating the steps of its parts against the
appropriately pulled-back losses.

Each updated matrix is validated once, as a new `Mat`, from the last
layer to the first; updated layers reuse the mask and bias flags checked
when the layer was built.  The trace keeps the signals and builds the
gradients only when they are read.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from itertools import chain, repeat
from operator import add
from typing import Sequence

from .algebra import DomainError, Mat, ShapeError, Vec, outer
from .backward import Gradient, sweep
from .loss import LossPredicate, squared_error, transform_loss, validity
from .network import Layer, Network, compose, net_forward


@dataclass(frozen=True)
class BackpropTrace:
    """Intermediates of one step: states a_0..a_m, erosion vectors
    e_0..e_m (e_m at the output, e_0 at the input), and one error signal
    per layer."""

    states: tuple[Vec, ...]
    erosions: tuple[Vec, ...]
    signals: tuple[Vec, ...]

    @cached_property
    def gradients(self) -> tuple[Gradient, ...]:
        """One gradient per layer, `outer(s_i, a_(i-1) + (1,))`, built on
        first access."""
        return tuple(Gradient(outer(s, a + (1.0,))) for s, a in zip(self.signals, self.states))


@dataclass(frozen=True)
class SgdConfig:
    """Loop bounds for train(); rows are visited in file order, no
    shuffling, one update per row."""

    epochs: int

    def __post_init__(self) -> None:
        if self.epochs < 0:
            raise ValueError(f"epochs must be >= 0, got {self.epochs}")


def _products_finite(s: Vec, inp: Vec) -> bool:
    """Is every product s_j * inp_i finite?  Rounding is monotone, so
    when every factor is finite the product of the largest magnitudes
    bounds all the others; O(len(s) + len(inp)) instead of their product."""
    return (
        all(map(math.isfinite, s))
        and all(map(math.isfinite, inp))
        and math.isfinite(max(map(abs, s), default=0.0) * max(map(abs, inp)))
    )


def _updated_layer(layer: Layer, s: Vec, a: Vec) -> Layer:
    """`masked_update(layer, Gradient(outer(s, a + (1,))))`, bit for bit,
    without building the gradient: each mutable entry becomes
    w - s_j * (a, 1)_i, each frozen one stays w."""
    t = layer.transition
    inp = a + (1.0,)
    if not _products_finite(s, inp):
        # raises the gradient matrix's own error, unless it has no entries
        outer(s, inp)
    signal = chain.from_iterable(map(repeat, s, repeat(t.cols)))
    flags = chain.from_iterable(map(add, layer.mask, zip(layer.bias_mutable)))
    entries = [
        w - sj * ai if f else w
        for w, sj, ai, f in zip(t.entries, signal, inp * t.rows, flags)
    ]
    return layer._with_transition(Mat(t.rows, t.cols, tuple(entries)))


def backprop_step(
    net: Network, a: Vec, loss: LossPredicate
) -> tuple[Network, BackpropTrace]:
    """Apply one gradient update to every layer of the network.

    One sweep gives every layer's error signal against the pre-update
    weights; here each updates its layer.  An update that leaves the
    finite floats raises `DomainError` naming the layer, counted from 0;
    the layers are updated, and so raise, last first.
    """
    if loss.dim != net.out_dim:
        raise ShapeError(f"loss of dimension {loss.dim} vs network output {net.out_dim}")
    states, erosions, signals = sweep(net, a, loss.erosion)
    layers = list(net.layers)
    for idx in range(len(layers) - 1, -1, -1):
        try:
            layers[idx] = _updated_layer(layers[idx], signals[idx], states[idx])
        except DomainError as exc:
            raise DomainError(f"{exc} (layer {idx})") from exc
    return net._with_layers(tuple(layers)), BackpropTrace(states, erosions, signals)


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

    Each row (input, target) builds its squared-error loss, with the rate
    folded in, once for all epochs; the loss of the current network on
    the row is recorded before its update applies.  Deterministic: fixed
    order, no shuffling.  A step that leaves the finite floats raises
    `DomainError` naming its epoch and row, both counted from 1, and its
    layer, counted from 0.
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

    # built only when a step reads them, so 0 epochs still accept any rate > 0
    rows = [(x, squared_error(t, rate)) for x, t in dataset] if cfg.epochs else []
    losses: list[float] = []
    for epoch in range(1, cfg.epochs + 1):
        for row, (x, loss) in enumerate(rows, 1):
            try:
                net, trace = backprop_step(net, x, loss)
            except DomainError as exc:
                raise DomainError(f"epoch {epoch}, row {row}: {exc}") from exc
            losses.append(validity(trace.states[-1], loss))
    return net, losses
