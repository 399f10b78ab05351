"""Layers, dimension-checked sequential networks, and the forward pass.

A layer pairs an affine transition matrix (weights plus a trailing bias
column) with a mutability mask and an activation.  Networks are ordered
layer lists; composition is concatenation and the empty list is the
identity on its dimension.  Dimensions are validated at construction so
an ill-typed network is unrepresentable.

The mask never participates in the forward pass; it only decides which
entries a gradient update may touch.  A masked-off entry with a nonzero
weight is a frozen connection, a masked-off zero entry is no connection.

The forward loop, `_forward`, exists once.  It runs each layer's affine
map on the step's weights for that layer, through the one step-weights
interface (`algebra.EntryWeights` on the pure kernels, a wide layer's
`_vectorized.ArrayWeights` on numpy), then its activation, and keeps
every state and pre-activation.  `net_forward` is its last state, and
the backward sweep (`backward.sweep`) runs it before its backward half,
so the two agree bit for bit and name the layer of an overflow alike.
Both take each layer's weights from `_loaded`, the one reader of
`Layer._step_weights`.  That value applies the width rule once per
layer, at its first read, unless the step that built the layer seeded
it; so the kind of kernel is a fixed property of the layer, and that
value is the one place that decides it.
`layer_forward` is the one-layer map, `act_map` after `kleisli_apply`,
and names no layer.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache, cached_property
from typing import Any, Sequence

from .activation import Activation, act_map
from .algebra import DomainError, EntryWeights, Mat, ShapeError, Vec, kleisli_apply

BoolRow = tuple[bool, ...]
BoolMat = tuple[BoolRow, ...]


def full_mask(out_dim: int, in_dim: int) -> BoolMat:
    return tuple((True,) * in_dim for _ in range(out_dim))


@dataclass(frozen=True)
class Layer:
    """One network stage: transition matrix, mutability mask, activation.

    `transition` is out_dim x (in_dim + 1); its last column is the bias.
    `mask` covers the weight columns only; bias mutability is tracked
    separately per output node.  Both default to fully mutable, and this
    class checks both shapes.  `mutable` combines them, entry by entry,
    for every step's update.
    """

    transition: Mat
    activation: Activation
    mask: BoolMat | None = None
    bias_mutable: BoolRow | None = None

    def __post_init__(self) -> None:
        if self.transition.cols < 1:
            raise ShapeError("transition matrix needs at least a bias column")
        k, n = self.out_dim, self.in_dim
        mask = full_mask(k, n) if self.mask is None else tuple(
            tuple(bool(v) for v in row) for row in self.mask
        )
        bias_mutable = (
            (True,) * k
            if self.bias_mutable is None
            else tuple(bool(v) for v in self.bias_mutable)
        )
        if len(mask) != k or any(len(r) != n for r in mask):
            raise ShapeError(f"mask must be {k}x{n} to match transition {k}x{n + 1}")
        if len(bias_mutable) != k:
            raise ShapeError(f"bias_mutable must have length {k}, got {len(bias_mutable)}")
        object.__setattr__(self, "mask", mask)
        object.__setattr__(self, "bias_mutable", bias_mutable)

    @cached_property
    def mutable(self) -> BoolRow:
        """One flag per transition entry, row-major, True where a step
        may change it: each row's mask, then that row's bias flag.  Built
        on first read and kept on the instance, outside the fields, so
        equality, hashing and `repr` never see it."""
        return tuple(f for row, b in zip(self.mask, self.bias_mutable) for f in row + (b,))

    @cached_property
    def _step_weights(self) -> Any:
        """The immutable weights that this layer's forward passes and
        steps run on, chosen once, at first read: for a layer with at
        least `WIDE_SIDE` rows and columns when numpy can be imported,
        `ArrayWeights` loaded from its entries and flags; otherwise
        `EntryWeights` on its entry tuple and flags.  numpy is imported
        by `_array_weights`, for the first wide layer.
        `Network._with_weights` alone seeds it, with the step's new
        weights, and `_loaded` alone reads it.  Like `mutable`, it lives
        outside the fields, so equality, `repr` and serialization never
        see it."""
        t = self.transition
        if min(t.rows, t.cols) >= WIDE_SIDE and (arrays := _array_weights()):
            return arrays.of(self)
        return EntryWeights(t.entries, t.cols, self.mutable)

    @property
    def in_dim(self) -> int:
        return self.transition.cols - 1

    @property
    def out_dim(self) -> int:
        return self.transition.rows


def make_layer(
    weights: Sequence[Sequence[float]],
    bias: Sequence[float],
    activation: Activation,
    mask: BoolMat | None = None,
    bias_mutable: BoolRow | None = None,
    in_dim: int | None = None,
) -> Layer:
    """Assemble a layer from separate weight rows and a bias vector.

    This function checks that there are as many rows as bias entries,
    and `Mat.from_rows` that the rows have equal lengths, in the
    caller's counts; it also converts the entries to floats.  `in_dim`
    is the input width: a layer with no rows needs it, and a layer with
    rows, which reads its width from them, checks it when it is given.
    """
    if len(weights) != len(bias):
        raise ShapeError(f"{len(weights)} weight rows vs {len(bias)} bias entries")
    if weights:
        try:
            transition = Mat.from_rows([tuple(w) + (b,) for w, b in zip(weights, bias)])
        except ShapeError:
            # ragged rows: name their lengths as the caller gave them, without
            # the bias; checked only here, so good rows are converted once
            Mat.from_rows(weights)
            raise
        if in_dim not in (None, transition.cols - 1):
            raise ShapeError(f"{transition.cols - 1} weight columns vs in_dim {in_dim}")
    elif in_dim is None:
        raise ShapeError("zero-row weights need a declared in_dim")
    else:
        transition = Mat(0, in_dim + 1, ())
    return Layer(transition, activation, mask, bias_mutable)


@dataclass(frozen=True)
class Network:
    """A dimension-compatible layer sequence from in_dim to out_dim."""

    layers: tuple[Layer, ...]
    in_dim: int
    out_dim: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "layers", tuple(self.layers))
        if self.in_dim < 0 or self.out_dim < 0:
            raise ShapeError(f"network widths must be >= 0, got {self.in_dim}->{self.out_dim}")
        if not self.layers:
            if self.in_dim != self.out_dim:
                raise ShapeError(
                    f"empty network must have equal dims, got {self.in_dim}->{self.out_dim}"
                )
            return
        if self.layers[0].in_dim != self.in_dim:
            raise ShapeError(
                f"layer 0 expects {self.layers[0].in_dim} inputs, "
                f"network declares {self.in_dim}"
            )
        for pos, (cur, nxt) in enumerate(zip(self.layers, self.layers[1:])):
            if cur.out_dim != nxt.in_dim:
                raise ShapeError(
                    f"layer {pos} emits {cur.out_dim} values but layer {pos + 1} "
                    f"expects {nxt.in_dim}"
                )
        if self.layers[-1].out_dim != self.out_dim:
            raise ShapeError(
                f"last layer emits {self.layers[-1].out_dim}, network declares {self.out_dim}"
            )

    def _with_weights(self, weights: Sequence[Any]) -> "Network":
        """This network with layer i's transition entries replaced by the
        step's weights `weights[i]`, for the engine's own rebuilds
        (updates).  Each item is step weights, `EntryWeights` or
        `ArrayWeights`, whose `entries()` is stored as the new `Mat`'s
        entries.  Each item seeds the new layer's `_step_weights`, so a
        layer's entries and its step weights come from one object, and a
        stepped layer keeps the kind of kernel its step ran on.

        Precondition: each item holds layer i's rows x cols finite
        floats, as the step's update has checked once.  Each new `Mat`,
        `Layer` and the network are copies of their parents with only
        those values replaced, so they skip `__post_init__` and keep
        every other field, the layer's `mutable` flags once built
        among them; this is the engine's one unchecked construction.
        The network needs no check: its dims and layer count are its
        parent's, and each layer's shape is its parent layer's.  An item
        must be immutable, since it holds the layer's entries for the
        life of the layer.
        """
        layers = []
        for layer, w in zip(self.layers, weights, strict=True):
            t = object.__new__(type(layer.transition))
            vars(t).update(vars(layer.transition), entries=w.entries())
            new = object.__new__(type(layer))
            vars(new).update(vars(layer), transition=t, _step_weights=w)
            layers.append(new)
        net = object.__new__(type(self))
        vars(net).update(vars(self), layers=tuple(layers))
        return net

    @classmethod
    def chain(cls, layers: Sequence[Layer]) -> "Network":
        """Network from a non-empty layer sequence, dims read off the ends."""
        layers = tuple(layers)
        if not layers:
            raise ShapeError("cannot infer dimensions of an empty network; use identity_net")
        return cls(layers, layers[0].in_dim, layers[-1].out_dim)


def identity_net(n: int) -> Network:
    """The empty network on n nodes; forwards states unchanged."""
    return Network((), n, n)


def layer_forward(layer: Layer, x: Vec) -> Vec:
    """One forward step: activation applied to the affine transition."""
    return act_map(layer.activation, kleisli_apply(layer.transition, x))


# A layer whose transition has at least this many rows and at least this
# many columns runs forward and steps on the numpy kernels, when numpy
# can be imported.  Each layer reads it once, at its first use
# (`Layer._step_weights`), so a new value applies to layers not yet used.
# The affine loop makes one numpy call per column and the pushback one
# per row, so the shorter side decides whether they pay: a 1 x 601 layer
# steps at half the pure speed on numpy.  Square layers start to win at
# width 16 (1.1x per `backprop_step`, 1.4x per `train` step; 0.9x and
# 1.1x at width 12; Python 3.11, numpy 2.4, 2-vCPU VM), but nets whose
# layers are at most 16 x 17 must never import numpy, which costs more
# than their whole run.
WIDE_SIDE = 17


@cache
def _array_weights() -> Any:
    """`_vectorized.ArrayWeights`, or None when numpy cannot be imported.
    Imported at the first wide layer, never at module import, since
    `_vectorized` imports this module; cached, since Python does not
    cache a failed import and would search the path again for every
    wide layer."""
    try:
        from ._vectorized import ArrayWeights
    except ImportError:
        return None
    return ArrayWeights


def _loaded(net: Network) -> list[Any]:
    """Each layer's step weights, `Layer._step_weights`; the one reader."""
    return [layer._step_weights for layer in net.layers]


def _forward(
    net: Network, x: Vec, weights: Sequence[Any]
) -> tuple[list[Vec], list[Vec]]:
    """The one forward loop: the states a_0..a_m of `net` at input `x`
    and the pre-activations z_1..z_m, with layer i's affine map run on
    its step weights `weights[i]`, which the caller guarantees hold the
    layer's shape; both implementations give the same bits.  a_0 is `x`
    as a tuple, so every state extends by `+ (1.0,)` whether the caller
    gave a tuple or a list.  Checks the input's length once; a state
    that leaves the finite floats raises `DomainError` naming the layer,
    counted from 0.
    """
    if len(x) != net.in_dim:
        raise ShapeError(f"network expects {net.in_dim} inputs, got {len(x)}")
    states, pre_activations = [tuple(x)], []
    for idx, (layer, w) in enumerate(zip(net.layers, weights)):
        # `Network` guarantees the state has this layer's input length
        z = w.affine(states[-1])
        try:
            states.append(act_map(layer.activation, z))
        except DomainError as exc:
            raise DomainError(f"{exc} (layer {idx})") from exc
        pre_activations.append(z)
    return states, pre_activations


def net_forward(net: Network, x: Vec) -> Vec:
    """The forward loop's last state, each layer's weights taken under the
    width rule; the empty network returns x unchanged."""
    return _forward(net, x, _loaded(net))[0][-1]


def compose(first: Network, second: Network) -> Network:
    """Concatenate layer lists; `first` runs before `second`."""
    if first.out_dim != second.in_dim:
        raise ShapeError(
            f"cannot compose {first.in_dim}->{first.out_dim} with "
            f"{second.in_dim}->{second.out_dim}"
        )
    return Network(first.layers + second.layers, first.in_dim, second.out_dim)
