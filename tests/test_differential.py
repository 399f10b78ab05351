"""The training step against its reference path, bit for bit.

`backprop_step` updates each layer straight from its error signal and
never builds the gradient matrix.  The reference builds it,
`Gradient(outer(s, a + (1,)))`, and applies it with `masked_update`.
Both must give the same floats, compared as IEEE 754 bits, and a step
that overflows must raise the reference path's error text, with the
layer named.  The pushback through a layer must equal
`vec_mat(s, weights_part(t))`.

Networks are drawn with in_dim 0-5, every activation and mask densities
1, 0.5 and 0.1; overflow cases use weights near 1e154 and a rate of
1e300.
"""

import struct

import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from nncat.activation import ACTIVATIONS, IDENTITY, SIGMOID, TANH
from nncat.algebra import DomainError, outer, vec_mat, weights_part
from nncat.backprop import backprop_step
from nncat.backward import Gradient, _pushback, masked_update, sweep
from nncat.loss import squared_error
from nncat.network import Network, identity_net, make_layer

ACTS = [ACTIVATIONS[tag] for tag in sorted(ACTIVATIONS)]
# P(mutable) of 1, 0.5 and 0.1
FLAGS = {
    1.0: st.just(True),
    0.5: st.booleans(),
    0.1: st.sampled_from((True,) + (False,) * 9),
}


def bits(values) -> bytes:
    return struct.pack(f"<{len(values)}d", *values)


@st.composite
def step_cases(draw):
    overflow = draw(st.booleans())
    scale = 1e154 if overflow else 2.0
    density = draw(st.sampled_from(sorted(FLAGS)))
    weight = st.floats(-scale, scale, allow_nan=False)
    flag = FLAGS[density]
    in_dim = draw(st.integers(0, 5))
    depth = draw(st.integers(0, 3))
    widths = [in_dim] + [draw(st.integers(1, 5)) for _ in range(depth - 1)]
    if depth:
        widths.append(draw(st.integers(0, 5)))
    layers = [
        make_layer(
            [[draw(weight) for _ in range(n)] for _ in range(k)],
            [draw(weight) for _ in range(k)],
            draw(st.sampled_from(ACTS)),
            tuple(tuple(draw(flag) for _ in range(n)) for _ in range(k)),
            tuple(draw(flag) for _ in range(k)),
            in_dim=n,
        )
        for n, k in zip(widths, widths[1:])
    ]
    net = Network.chain(layers) if layers else identity_net(in_dim)
    a = tuple(draw(st.floats(-2.0, 2.0)) for _ in range(net.in_dim))
    target = tuple(draw(st.floats(-2.0, 2.0)) for _ in range(net.out_dim))
    rate = 1e300 if overflow else draw(st.floats(0.0, 2.0))
    return net, a, squared_error(target, rate)


def reference_step(net, a, loss):
    """The step as the reference path takes it: a gradient matrix per
    layer and `masked_update`, last layer first.  Returns the layers and
    gradients, or the error text the step must raise."""
    try:
        states, _, signals = sweep(net, a, loss.erosion)
    except DomainError as exc:
        return str(exc)
    layers, gradients = list(net.layers), [None] * len(net.layers)
    for idx in range(len(layers) - 1, -1, -1):
        try:
            gradients[idx] = Gradient(outer(signals[idx], states[idx] + (1.0,)))
            layers[idx] = masked_update(layers[idx], gradients[idx])
        except DomainError as exc:
            return f"{exc} (layer {idx})"
    return layers, gradients


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(case=step_cases())
# the signal is 1e120 and the gradient overflows only at the frozen weight
@example(case=(
    Network.chain([make_layer(((1e-200,),), (0.0,), IDENTITY, ((False,),), (True,))]),
    (1e200,),
    squared_error((0.0,), 1e120),
))
# the gradient is finite and the updated weight, -1.9e308, is not
@example(case=(
    Network.chain([make_layer(((-1.5e308,),), (0.0,), IDENTITY)]),
    (1.0,),
    squared_error((-1.7e308,), 2.0),
))
# the signal is (0.25, nan): a saturated sigmoid meets an infinite
# erosion, and the NaN row, which no update reads, is frozen
@example(case=(
    Network.chain([make_layer(((0.0,), (0.0,)), (0.0, 1000.0), SIGMOID,
                              ((True,), (False,)), (True, False))]),
    (0.5,),
    squared_error((0.0, -1.7e308), 2.0),
))
# the forward pass overflows, before any layer is updated
@example(case=(
    Network.chain([make_layer(((1e308,),), (0.0,), TANH)]),
    (2.0,),
    squared_error((0.0,), 1.0),
))
def test_step_matches_reference_path(case):
    net, a, loss = case
    want = reference_step(net, a, loss)
    if isinstance(want, str):
        with pytest.raises(DomainError) as caught:
            backprop_step(net, a, loss)
        assert str(caught.value) == want
        return
    stepped, trace = backprop_step(net, a, loss)
    want_layers, want_gradients = want
    for got, ref in zip(stepped.layers, want_layers, strict=True):
        assert bits(got.transition.entries) == bits(ref.transition.entries)
        assert (got.mask, got.bias_mutable, got.activation) == (ref.mask, ref.bias_mutable, ref.activation)
    for got, ref in zip(trace.gradients, want_gradients, strict=True):
        assert bits(got.matrix.entries) == bits(ref.matrix.entries)


@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(case=step_cases(), data=st.data())
def test_pushback_matches_vec_mat(case, data):
    net, _, _ = case
    for layer in net.layers:
        s = tuple(data.draw(st.floats(-1e300, 1e300)) for _ in range(layer.out_dim))
        assert bits(_pushback(layer.transition, s)) == bits(vec_mat(s, weights_part(layer.transition)))
