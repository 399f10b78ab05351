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

The step works on each layer's weights as one value, the layer's
`_step_weights`, through one interface for the layer's only
O(rows * cols) work: the affine map, the pushback and the masked
update.  It has two implementations with the same bits:
`algebra.EntryWeights` on the flat, row-major entry tuple and, for a
layer with at least `network.WIDE_SIDE` rows and columns when numpy can
be imported, `_vectorized.ArrayWeights` on a read-only array.  `_step`
never asks which one a layer holds: it sweeps against the weights and
replaces each, from the last layer to the first, with its `update`,
checking once that every product and every new entry is finite.  An
update returns new weights and never writes the ones it read, so
nothing is copied.
`backprop_step` hands the list of new weights, as it is, to
`Network._with_weights`, the one rebuild that reuses the shapes, masks
and bias flags already checked and does not scan the entries again.  It
stores each item's entry tuple and seeds the new layer's step weights
with the item itself, so a later step or forward pass on that layer, in
any network, starts from them, loads nothing from the entries and runs
the kind of kernel this step ran.  `network._loaded`, which
`net_forward` also calls, is the one reader of a layer's step weights;
a layer no step built chooses its kind once, at its first read.  `train`
reads the weights once and holds them for the whole run, and builds a
network from them once, for its last step, which is `backprop_step`; no
other step builds a matrix, layer, network or trace.  The trace keeps the
signals and builds the gradients only when they are read.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Any, Sequence

from .algebra import DomainError, ShapeError, Vec, _require_finite, outer
from .backward import ErosionFn, Gradient, sweep
from .loss import LossPredicate, squared_error, transform_loss, validity
from .network import Network, _loaded, compose, net_forward


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


def _step(
    net: Network, weights: list[Any], a: Vec, erosion: ErosionFn
) -> tuple[tuple[Vec, ...], tuple[Vec, ...], tuple[Vec, ...]]:
    """One step of `net` with layer i's step weights `weights[i]`; each
    list item is replaced with its `update`.  Returns the sweep's states,
    erosions and signals.

    One sweep gives every layer's error signal against the weights
    before the step, so replacing them changes no gradient.  A
    layer's update is `masked_update` of `Gradient(outer(s, a + (1,)))`,
    bit for bit, without building the gradient.  The first product, then
    the first new entry, that is not finite raises the error the gradient
    matrix, then the updated matrix, would have raised.  A forward pass
    or an update that leaves the finite floats raises `DomainError`
    naming the layer, counted from 0; the layers are updated, and so
    raise, last first.
    """
    states, erosions, signals = sweep(net, a, erosion, weights)
    for idx in range(len(weights) - 1, -1, -1):
        s, inp = signals[idx], states[idx] + (1.0,)
        try:
            if not _products_finite(s, inp):
                # raises unless there are no products
                _require_finite([sj * ai for sj in s for ai in inp], "matrix entry")
            weights[idx] = weights[idx].update(s, inp)
        except DomainError as exc:
            raise DomainError(f"{exc} (layer {idx})") from exc
    return states, erosions, signals


def backprop_step(
    net: Network, a: Vec, loss: LossPredicate
) -> tuple[Network, BackpropTrace]:
    """Apply one gradient update to every layer of the network.

    One sweep gives every layer's error signal against the pre-update
    weights; here each updates its layer.  A forward pass or an update
    that leaves the finite floats raises `DomainError` naming the layer,
    counted from 0; the layers are updated, and so raise, last first.
    """
    if loss.dim != net.out_dim:
        raise ShapeError(f"loss of dimension {loss.dim} vs network output {net.out_dim}")
    weights = _loaded(net)
    trace = BackpropTrace(*_step(net, weights, a, loss.erosion))
    return net._with_weights(weights), trace


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
    and activations and `Layer.mutable` flags are identical.
    """
    whole, _ = backprop_step(compose(first, second), a, loss)
    left, _ = backprop_step(first, a, transform_loss(second, loss))
    right, _ = backprop_step(second, net_forward(first, a), loss)
    split = compose(left, right)

    for got, want in zip(whole.layers, split.layers, strict=True):
        if got.activation != want.activation or got.mutable != want.mutable:
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
    the row is recorded before its update applies.  Every step but the
    last replaces the weights `train` holds, loaded once; the last is
    `backprop_step` on the network built from them.  Deterministic:
    fixed order, no shuffling.  A step that leaves the finite floats raises
    `DomainError` naming its epoch and row, both counted from 1, and its
    layer, counted from 0.  A row whose loss is not finite raises
    `DomainError` naming its epoch and row, after its step, so the
    step's own error comes first.
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
    # and load no weights
    rows = [(x, squared_error(t, rate)) for x, t in dataset] if cfg.epochs else []
    weights = _loaded(net) if cfg.epochs else []
    losses: list[float] = []
    for epoch in range(1, cfg.epochs + 1):
        for row, (x, loss) in enumerate(rows, 1):
            try:
                if epoch < cfg.epochs or row < len(rows):
                    states = _step(net, weights, x, loss.erosion)[0]
                else:
                    # The last step builds the network that is returned, so
                    # it is the public step; `benchmarks/run.py --trace 1`
                    # times `backprop_step` on every workload.
                    net, trace = backprop_step(net._with_weights(weights), x, loss)
                    states = trace.states
                value = validity(states[-1], loss)
                if not math.isfinite(value):
                    _require_finite((value,), "loss")
            except DomainError as exc:
                raise DomainError(f"epoch {epoch}, row {row}: {exc}") from exc
            losses.append(value)
    return net, losses
