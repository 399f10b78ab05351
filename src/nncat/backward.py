"""Backward-pass primitives: the one backward sweep, erosion
transformation, layer gradients, masked updates.

The central quantity is the per-layer error signal: the output erosion
weighted by the activation slope at each pre-activation.  A layer's
gradient is the outer product of that signal with the layer input
(extended by 1 for the bias), which makes single-layer gradients rank
one by construction.  Pushing the signal through the layer's weight
columns turns an output erosion into an input erosion, which is what a
multi-layer backward sweep iterates.

Every backward question is answered by one function, `sweep`.  Its
forward half is the network's one forward loop, `network._forward`,
which `net_forward` also runs: it caches each layer's pre-activation z
and output y, checks the input's length and each pre-activation once,
and names the layer of an overflow.  The sweep then walks the layers
from last to first, reading each error signal off the cached states and
pushing it back to the input erosion through the weight columns, read
in place.  It reads each layer's weights as the caller passes them,
which is how `train` steps weights that live in no `Mat` until its last
step, or else as `network._loaded` gives them: each layer's step
weights, of the kind chosen once for that layer, which `net_forward`
runs too.  The sweep builds no gradient and no update:
`backprop_step` updates each layer straight from its signal,
`layer_erosion_vector` is the one-layer sweep's signal, `layer_gradient`
is `outer` over it, and `erosion_transform_net` keeps the erosion at
the input.  The sweep checks the output erosion's length once, for
every caller, so the backward pass maps the activation's derivative
unchecked.  Each sum starts at 0.0 and runs over ascending indices, the
order of `vec_mat`.

The affine map, the pushback and the step's masked update are a layer's
only O(rows * cols) work, and a layer's step weights do all three
through one interface with two implementations: `algebra.EntryWeights`
on the entry tuple, whose affine map is `kleisli_apply`'s loop, and a
wide layer's `_vectorized.ArrayWeights`, numpy twins with the same
bits.  The forward loop and the sweep call the interface and share
everything else, whichever implementation a layer holds.

`masked_update` subtracts a gradient only at mutable positions; frozen
entries are returned untouched, bit for bit, so arithmetic cannot
perturb them.  With `outer` it is the reference path that
`backprop_step`'s fused update matches bit for bit, and it builds its
layer through the public constructors, which check it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Callable, Sequence

from .algebra import DomainError, Mat, ShapeError, Vec, _require_finite, hadamard, kleisli_apply, outer
from .activation import act_deriv_map
from .network import Layer, Network, _forward, _loaded

if TYPE_CHECKING:
    from .loss import LossPredicate

ErosionFn = Callable[[Vec], Vec]


@dataclass(frozen=True)
class Gradient:
    """A gradient with the same shape as a layer's transition matrix.

    The last column is the bias gradient.  Analytic single-layer
    gradients have rank one: every column is the bias column scaled by
    the corresponding input coordinate.
    """

    matrix: Mat


def _erosion_vector_generic(layer: Layer, a: Vec, e_out: Vec) -> Vec:
    """Error signal via the activation derivative at the pre-activation."""
    z = kleisli_apply(layer.transition, a)
    return hadamard(e_out, act_deriv_map(layer.activation, z))


def _error_signal(layer: Layer, z: Vec, y: Vec, e_out: Vec) -> Vec:
    if layer.activation.tag == "sigmoid":
        # the slope y * (1 - y) comes from the cached output
        return tuple([(e * v) * (1.0 - v) for e, v in zip(e_out, y)])
    return tuple([e * d for e, d in zip(e_out, map(layer.activation.deriv, z))])


def sweep(
    net: Network,
    a: Vec,
    erosion: ErosionFn,
    weights: Sequence[Any] | None = None,
) -> tuple[tuple[Vec, ...], tuple[Vec, ...], tuple[Vec, ...]]:
    """The forward and backward sweep of `net` at input `a`.

    `erosion` is the output loss's erosion.  Layer i's step weights are
    `weights[i]`, which the caller guarantees hold the layer's shape; by
    default, those that `_loaded` reads off each layer, as for
    `net_forward`.
    Returns the states a_0..a_m, the erosions e_0..e_m (e_m at the
    output, e_0 at the input) and the error signals s_1..s_m, one per
    layer, all against those weights.  Layer i's gradient is
    `outer(s_i, a_(i-1) + (1.0,))`.  The forward half is `_forward`: a
    forward pass that leaves the finite floats raises `DomainError`
    naming the layer, counted from 0.  Each loop runs over the layers,
    so depth costs no stack.
    """
    layers = net.layers
    if weights is None:
        weights = _loaded(net)
    states, pre_activations = _forward(net, a, weights)
    e = erosion(states[-1])
    # checked once: each pushed-back erosion has its layer's input length,
    # which `Network` guarantees is the previous layer's output length
    if len(e) != net.out_dim:
        raise ShapeError(f"erosion has length {len(e)}, network emits {net.out_dim}")
    erosions = [e]
    signals = []
    for idx in range(len(layers) - 1, -1, -1):
        s = _error_signal(layers[idx], pre_activations[idx], states[idx + 1], e)
        e = weights[idx].pushback(s)
        signals.append(s)
        erosions.append(e)
    return tuple(states), tuple(reversed(erosions)), tuple(reversed(signals))


def layer_erosion_vector(layer: Layer, a: Vec, e_out: Vec) -> Vec:
    """Per-output error signal for a layer at input `a`.

    `e_out` must be the output loss's erosion already evaluated at the
    layer's output.  For sigmoid layers the activation slope is recovered
    from the output itself (y * (1 - y)) instead of re-deriving it, the
    usual shortcut; both routes agree to well below 1e-12.  This is the
    one-layer sweep's signal: `sweep` checks both lengths, and a forward
    pass that overflows raises naming layer 0.
    """
    return sweep(Network.chain([layer]), a, lambda _: e_out)[2][0]


def layer_gradient(layer: Layer, a: Vec, loss: "LossPredicate") -> Gradient:
    """Gradient of (loss after this layer) in the transition matrix.

    Outer product of the error signal with (a, 1); the trailing 1 routes
    the signal into the bias column.
    """
    if loss.dim != layer.out_dim:
        raise ShapeError(f"loss of dimension {loss.dim} vs layer output {layer.out_dim}")
    s = sweep(Network.chain([layer]), a, loss.erosion)[2][0]
    return Gradient(outer(s, tuple(a) + (1.0,)))


def erosion_transform_net(net: Network, erosion: ErosionFn, x: Vec) -> Vec:
    """Erosion transformation through a whole network, output to input.

    The erosion at the input of the backward sweep; the empty network
    applies the erosion directly.  Forward states are recomputed from x,
    so the result is a pure function of (net, x).  An input erosion that
    is not finite raises `DomainError` naming the layer, counted from 0,
    whose pushback first left the floats.
    """
    erosions = sweep(net, x, erosion)[1]
    if net.layers and not all(map(math.isfinite, erosions[0])):
        # the sweep runs last layer first, and an erosion that left the
        # floats stays out of them down to the input
        idx = max(i for i, e in enumerate(erosions[:-1]) if not all(map(math.isfinite, e)))
        try:
            _require_finite(erosions[idx], "erosion")
        except DomainError as exc:
            raise DomainError(f"{exc} (layer {idx})") from exc
    return erosions[0]


def masked_update(layer: Layer, g: Gradient) -> Layer:
    """Subtract the gradient at the positions `layer.mutable` flags;
    freeze the rest.

    Frozen entries are copied bitwise rather than updated with a zeroed
    gradient, so no arithmetic (signed zeros, rounding) can touch them.
    """
    t = layer.transition
    m = g.matrix
    if (m.rows, m.cols) != (t.rows, t.cols):
        raise ShapeError(
            f"gradient is {m.rows}x{m.cols}, transition is {t.rows}x{t.cols}"
        )
    new = tuple(w - d if f else w for w, d, f in zip(t.entries, m.entries, layer.mutable))
    return Layer(Mat(t.rows, t.cols, new), layer.activation, layer.mask, layer.bias_mutable)
