"""Shared constants and builders for the test suite.

The golden numbers live here exactly once, written as the 8-decimal
literals they must reproduce.  Derived constants were computed with the
independent recomputations in this file (plain math on floats, no engine
code) before being frozen.
"""

from __future__ import annotations

import dataclasses
import math
import random
import struct

from hypothesis import strategies as st

from nncat import Network, make_layer, network, squared_error
from nncat.activation import ACTIVATIONS, SIGMOID
from nncat.algebra import EntryWeights
from nncat.backprop import backprop_step
from nncat.loss import transform_loss
from nncat.network import compose, identity_net, net_forward

try:
    import numpy  # noqa: F401
except ImportError:
    HAVE_NUMPY = False
else:
    HAVE_NUMPY = True

# The worked two-layer example: weights, input, target, rate.
FIRST_WEIGHTS = ((0.15, 0.2), (0.25, 0.3))
FIRST_BIAS = (0.35, 0.35)
SECOND_WEIGHTS = ((0.4, 0.45), (0.5, 0.55))
SECOND_BIAS = (0.6, 0.6)
INPUT = (0.05, 0.1)
TARGET = (0.01, 0.99)
RATE = 0.5

# Published forward states and updated matrices (8 decimals).
GOLD_HIDDEN = (0.59326999, 0.59688438)
GOLD_OUTPUT = (0.75136507, 0.77292847)
GOLD_UPDATED_FIRST = (
    (0.14978072, 0.19956143, 0.34561432),
    (0.24975114, 0.29950229, 0.34502287),
)
GOLD_UPDATED_SECOND = (
    (0.35891648, 0.40866619, 0.53075072),
    (0.51130127, 0.56137012, 0.61904912),
)

# Gradient matrices as published, which omit the rate factor; the
# engine folds the rate into the loss, so it must produce RATE x these.
DISPLAYED_GRAD_SECOND = (
    (0.08216704, 0.08266763, 0.13849856),
    (-0.02260254, -0.02274024, -0.03809824),
)
DISPLAYED_GRAD_FIRST = (
    (0.00043857, 0.00087714, 0.00877135),
    (0.00049771, 0.00099543, 0.00995425),
)

TOL8 = 1e-8


def mazur_network() -> Network:
    return Network.chain(
        [
            make_layer(FIRST_WEIGHTS, FIRST_BIAS, SIGMOID),
            make_layer(SECOND_WEIGHTS, SECOND_BIAS, SIGMOID),
        ]
    )


def mazur_loss():
    return squared_error(TARGET, RATE)


# Engine-free recomputation of the example's intermediates, used as the
# independent route when deriving frozen constants.

def ref_sigmoid(z: float) -> float:
    return 1.0 / (1.0 + math.exp(-z))


def ref_affine(rows, x):
    out = []
    for row in rows:
        acc = 0.0
        for i, xi in enumerate(x):
            acc += row[i] * xi
        acc += row[len(x)]
        out.append(acc)
    return tuple(out)


def ref_forward_states():
    """Full-precision a, b, c of the worked example."""
    first = tuple(w + (b,) for w, b in zip(FIRST_WEIGHTS, FIRST_BIAS))
    second = tuple(w + (b,) for w, b in zip(SECOND_WEIGHTS, SECOND_BIAS))
    b = tuple(ref_sigmoid(z) for z in ref_affine(first, INPUT))
    c = tuple(ref_sigmoid(z) for z in ref_affine(second, b))
    return INPUT, b, c


def ref_second_layer_signal():
    """Error signal of the output layer, rate folded in."""
    _, _, c = ref_forward_states()
    e = tuple(RATE * (ci - ti) for ci, ti in zip(c, TARGET))
    return tuple((e[j] * c[j]) * (1.0 - c[j]) for j in range(2))


def random_loss(rng: random.Random, dim: int, rate_low: float = 0.05, rate_high: float = 2.0):
    target = tuple(rng.uniform(-1.5, 1.5) for _ in range(dim))
    return squared_error(target, rng.uniform(rate_low, rate_high))


def all_activations():
    return [ACTIVATIONS[tag] for tag in sorted(ACTIVATIONS)]


def max_entry_dev(a, b) -> float:
    """Largest absolute entry difference between two same-shape matrices."""
    assert (a.rows, a.cols) == (b.rows, b.cols)
    return max((abs(x - y) for x, y in zip(a.entries, b.entries)), default=0.0)


def bits(values) -> bytes:
    """`values` as IEEE 754 doubles, so 0.0 and -0.0 differ."""
    return struct.pack(f"<{len(values)}d", *values)


def law_sides(first, second, a, loss):
    """Both sides of the step's functor law as the bits of each layer's
    updated entries: the step of `compose(first, second)`, and the
    composite of the step of `first` against the loss pulled back through
    `second` with the step of `second` at the state `first` forwards."""
    whole, _ = backprop_step(compose(first, second), a, loss)
    left, _ = backprop_step(first, a, transform_loss(second, loss))
    right, _ = backprop_step(second, net_forward(first, a), loss)
    return tuple(
        [bits(layer.transition.entries) for layer in net.layers]
        for net in (whole, compose(left, right))
    )


def pullback_sides(first, second, a, loss):
    """Both sides of the pullback's functor law at `a`, the value and
    the erosion as bits: `transform_loss` through `compose(first,
    second)`, and through `first` after `second`."""
    composite = transform_loss(compose(first, second), loss)
    nested = transform_loss(first, transform_loss(second, loss))
    return tuple((bits((p.evaluate(a),)), bits(p.erosion(a))) for p in (composite, nested))


# The one strategy for drawn networks.  P(mutable) of 1, 0.5 and 0.1,
# keyed by mask density.
FLAGS = {
    1.0: st.just(True),
    0.5: st.booleans(),
    0.1: st.sampled_from((True,) + (False,) * 9),
}


@st.composite
def nets(draw, depths=(0, 3), widths=(0, 5), overflow=True):
    """A network and whether it is an overflow case.  Its layer count is
    in `depths` and every width, the input, the output and each hidden
    one, in `widths`, so a layer may have no rows or no columns; every
    activation, and one mask density of 1, 0.5 or 0.1.  Weights are in
    [-2, 2], or in [-1e154, 1e154] in an overflow case, which is drawn,
    half the time, only when `overflow` is true."""
    overflow = overflow and draw(st.booleans())
    scale = 1e154 if overflow else 2.0
    weight = st.floats(-scale, scale)
    flag = FLAGS[draw(st.sampled_from(sorted(FLAGS)))]
    dims = [draw(st.integers(*widths)) for _ in range(draw(st.integers(*depths)) + 1)]
    layers = [
        make_layer(
            [[draw(weight) for _ in range(n)] for _ in range(k)],
            [draw(weight) for _ in range(k)],
            draw(st.sampled_from(all_activations())),
            tuple(tuple(draw(flag) for _ in range(n)) for _ in range(k)),
            tuple(draw(flag) for _ in range(k)),
            in_dim=n,
        )
        for n, k in zip(dims, dims[1:])
    ]
    return (Network.chain(layers) if layers else identity_net(dims[0])), overflow


def rows(net):
    """(input, target) pairs for `net`, every entry in [-2, 2]."""
    state = st.floats(-2.0, 2.0)
    return st.tuples(st.tuples(*[state] * net.in_dim), st.tuples(*[state] * net.out_dim))


def rates(overflow):
    """The rate of an overflow case, 1e300, or one in [0, 2]."""
    return st.just(1e300) if overflow else st.floats(0.0, 2.0)


@st.composite
def step_cases(draw):
    """(net, a, loss): a network of `nets()`, an input and a loss."""
    net, overflow = draw(nets())
    a, target = draw(rows(net))
    return net, a, squared_error(target, draw(rates(overflow)))


# A layer chooses its kind of kernel, pure or numpy, once: at its first
# use under `network.WIDE_SIDE`, or by the step that built it.  A test
# that compares the two kinds runs each side on layers of its own.


def rebuilt(net):
    """`net` with each layer built anew through the public constructor,
    so each chooses its kind of kernel again, at its first use."""
    layers = tuple(dataclasses.replace(layer) for layer in net.layers)
    return Network(layers, net.in_dim, net.out_dim)


def on_numpy(net):
    """Which layers of `net` run on the numpy kernels: those whose step
    weights are no `EntryWeights`.  A layer not used yet chooses here."""
    return [not isinstance(w, EntryWeights) for w in network._loaded(net)]


def numpy_under(net, side):
    """Which layers of `net` the width rule sends to numpy when
    `WIDE_SIDE` is `side`: none without numpy."""
    return [
        HAVE_NUMPY and min(layer.transition.rows, layer.transition.cols) >= side
        for layer in net.layers
    ]
