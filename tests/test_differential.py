"""The training step against its reference path, bit for bit.

`backprop_step` updates each layer straight from its error signal and
never builds the gradient matrix.  The reference builds it,
`Gradient(outer(s, a + (1,)))`, and applies it with `masked_update`.
Both must give the same floats, compared as IEEE 754 bits, and a step
that overflows must raise the reference path's error text, with the
layer named.  The pushback through a layer must equal
`vec_mat(s, weights_part(t))`.  The sweep's states, signals and erosions
must equal the ones computed from the definitions, the sigmoid's slope
written as `(e * y) * (1 - y)`; `layer_erosion_vector` must give each
layer's signal and `net_forward` the last state.  `train`, which steps
the step weights it holds and calls `backprop_step` only for its last
step, must equal a fold of `backprop_step` and `validity`: the final
weights, every loss and the error text of a run that overflows or
records a loss that is not finite.  `fd_layer_gradient`, with the layers after it pulled
into the loss or passed as `rest`, must equal central differences taken
from the definitions, each entry perturbed in a whole new layer, as bits
or as the error text.

Networks are drawn by `helpers.nets`, the suite's one network
strategy: 0-3 layers and every width 0-5, hidden widths 0 among them
(1-4 layers and widths 0-6 for the finite differences), every
activation and mask densities 1, 0.5 and 0.1; overflow cases use
weights up to 1e154 and a rate of 1e300.
"""

import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from nncat.activation import IDENTITY, SIGMOID, TANH, act_map
from nncat.algebra import DomainError, EntryWeights, Mat, kleisli_apply, outer, vec_mat, weights_part
from nncat.backprop import SgdConfig, backprop_step, train
from nncat.backward import Gradient, layer_erosion_vector, masked_update, sweep
from nncat.loss import squared_error, transform_loss, validity
from nncat.network import Layer, Network, layer_forward, make_layer, net_forward
from nncat.oracle import FdConfig, fd_layer_gradient

from helpers import bits, nets, rates, rows, step_cases


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
        # small signals, so most sums stay finite and their order shows in the bits
        s = tuple(data.draw(st.floats(-2.0, 2.0)) for _ in range(layer.out_dim))
        t = layer.transition
        pushed = EntryWeights(t.entries, t.cols, layer.mutable).pushback(s)
        assert bits(pushed) == bits(vec_mat(s, weights_part(t)))


@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(case=step_cases())
def test_sweep_follows_the_definitions(case):
    """Each state is the layer's forward step, each signal is
    `(e * y) * (1 - y)` for sigmoid and `e * deriv(z)` otherwise, and
    each erosion is the signal times the weight columns, as bits; the
    one-layer signal and the forward pass read the same bits."""
    net, a, loss = case
    try:
        states, erosions, signals = sweep(net, a, loss.erosion)
    except DomainError:
        return
    assert bits(erosions[-1]) == bits(loss.erosion(states[-1]))
    assert bits(net_forward(net, a)) == bits(states[-1])
    for i, layer in enumerate(net.layers):
        t = layer.transition
        z = kleisli_apply(t, states[i])
        y, e = states[i + 1], erosions[i + 1]
        assert bits(y) == bits(act_map(layer.activation, z))
        if layer.activation == SIGMOID:
            want = [(ej * yj) * (1.0 - yj) for ej, yj in zip(e, y)]
        else:
            want = [ej * layer.activation.deriv(zj) for ej, zj in zip(e, z)]
        assert bits(signals[i]) == bits(want)
        assert bits(layer_erosion_vector(layer, states[i], e)) == bits(signals[i])
        assert bits(erosions[i]) == bits(vec_mat(tuple(want), weights_part(t)))


def reference_train(net, dataset, rate, epochs):
    """`train` as a fold of `backprop_step`, each row's loss read off the
    forward pass before its step.  Returns the network and the losses,
    or the error text the run must raise: the step's, or, after a step,
    that of a loss that is not finite."""
    losses = []
    for epoch in range(1, epochs + 1):
        for row, (x, t) in enumerate(dataset, 1):
            loss = squared_error(t, rate)
            try:
                stepped, _ = backprop_step(net, x, loss)
            except DomainError as exc:
                return f"epoch {epoch}, row {row}: {exc}"
            value = validity(net_forward(net, x), loss)
            if value == float("inf"):
                return f"epoch {epoch}, row {row}: loss is not finite: inf"
            losses.append(value)
            net = stepped
    return net, losses


@st.composite
def train_cases(draw):
    net, overflow = draw(nets())
    dataset = draw(st.lists(rows(net), min_size=1, max_size=3))
    rate = 1e300 if overflow else draw(st.floats(0.0, 2.0, exclude_min=True))
    return net, dataset, rate, draw(st.integers(0, 3))


@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(case=train_cases())
# the forward pass of the first step overflows in the second layer
@example(case=(
    Network.chain([make_layer(((1.0,),), (0.0,), IDENTITY), make_layer(((1e308,),), (0.0,), TANH)]),
    [((2.0,), (0.0,))],
    1.0,
    1,
))
# the second row's update overflows, after the first row's step
@example(case=(
    Network.chain([make_layer(((1.0,),), (0.0,), IDENTITY)]),
    [((0.5,), (0.0,)), ((1e200,), (0.0,))],
    1e200,
    2,
))
# the step stays finite and the loss, 0.5 * 1e300 * 1e10, is not
@example(case=(
    Network.chain([make_layer(((1.0,),), (1e5,), IDENTITY)]),
    [((1e-10,), (0.0,))],
    1e300,
    1,
))
def test_train_is_a_fold_of_steps(case):
    net, dataset, rate, epochs = case
    want = reference_train(net, dataset, rate, epochs)
    if isinstance(want, str):
        with pytest.raises(DomainError) as caught:
            train(net, dataset, rate, SgdConfig(epochs))
        assert str(caught.value) == want
        return
    trained, losses = train(net, dataset, rate, SgdConfig(epochs))
    want_net, want_losses = want
    assert bits(losses) == bits(want_losses)
    for got, ref in zip(trained.layers, want_net.layers, strict=True):
        assert bits(got.transition.entries) == bits(ref.transition.entries)
        assert (got.mask, got.bias_mutable, got.activation) == (ref.mask, ref.bias_mutable, ref.activation)
    assert (trained.in_dim, trained.out_dim) == (want_net.in_dim, want_net.out_dim)


def reference_fd(layer, a, rest, loss, eps):
    """Central differences from the definitions: each entry perturbed in
    a new, validated matrix, the whole perturbed layer and `rest` run
    from `a` and the loss read off, entries in row-major order, up
    before down.  Returns the gradient's entries, or the error text."""
    t = layer.transition

    def value(k, w):
        perturbed = Mat(t.rows, t.cols, t.entries[:k] + (w,) + t.entries[k + 1 :])
        y = layer_forward(Layer(perturbed, layer.activation), a)
        return loss.evaluate(net_forward(rest, y))

    entries = []
    try:
        layer_forward(layer, a)
        for k, v in enumerate(t.entries):
            up = value(k, v + eps)
            down = value(k, v - eps)
            entries.append((up - down) / (2.0 * eps))
        return Mat(t.rows, t.cols, tuple(entries)).entries
    except DomainError as exc:
        return str(exc)


@st.composite
def fd_cases(draw):
    """A network of 1-4 layers, one input per layer, a loss and an eps."""
    net, overflow = draw(nets(depths=(1, 4), widths=(0, 6)))
    state = st.floats(-2.0, 2.0)
    inputs = [draw(st.tuples(*[state] * layer.in_dim)) for layer in net.layers]
    target = draw(st.tuples(*[state] * net.out_dim))
    loss = squared_error(target, draw(rates(overflow)))
    return net, inputs, loss, draw(st.sampled_from((1e-6, 1e-3)))


@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(case=fd_cases())
# the second layer's pre-activation, 1.7976931348623157e308 at the cached
# output 1, overflows only when the first layer's weight moves up
@example(case=(
    Network.chain([make_layer(((0.0,),), (1.0,), IDENTITY),
                   make_layer(((1.7976931348623157e308,),), (0.0,), IDENTITY)]),
    [(1.0,), (1.0,)],
    squared_error((0.0,), 1.0),
    1e-3,
))
# v + eps leaves the finite floats
@example(case=(
    Network.chain([make_layer(((1.7976931348623157e308,),), (0.0,), TANH)]),
    [(0.5,)],
    squared_error((0.0,), 1.0),
    1e300,
))
def test_fd_layer_gradient_follows_the_definitions(case):
    """Every layer's finite differences, with the layers after it pulled
    into the loss or passed as `rest`, equal the definitions' as bits or
    as error text."""
    net, inputs, loss, eps = case
    for idx, (layer, a) in enumerate(zip(net.layers, inputs)):
        rest = Network(net.layers[idx + 1 :], layer.out_dim, net.out_dim)
        want = reference_fd(layer, a, rest, loss, eps)
        cfg = FdConfig(eps=eps)
        pulled = transform_loss(rest, loss)
        for route in (
            lambda: fd_layer_gradient(layer, a, pulled, cfg),
            lambda: fd_layer_gradient(layer, a, loss, cfg, rest=rest),
        ):
            if isinstance(want, str):
                with pytest.raises(DomainError) as caught:
                    route()
                assert str(caught.value) == want
            else:
                assert bits(route().matrix.entries) == bits(want)
