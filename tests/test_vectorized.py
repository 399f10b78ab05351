"""The numpy kernels against the pure ones, bit for bit.

A layer's step weights have one interface with two implementations.
A layer with at least `network.WIDE_SIDE` rows and columns runs forward
and steps on `_vectorized.ArrayWeights` when numpy can be imported;
every other layer runs on `algebra.EntryWeights`, the pure kernels and
the reference.  Both must give the same floats, compared as IEEE 754
bits: each of the four calls on its own, and the updated weights and
the step's states, erosions and signals, or the same `DomainError`
text, naming the same layer.
The tests reach each path by setting `WIDE_SIDE`: 0 sends every layer
to numpy, a size above every layer's keeps them all pure.  A layer
chooses its kind once, at its first use, so each side runs on layers
built for it (`helpers.rebuilt`), and each comparison asserts which
kind every layer ran, so no comparison can set numpy against numpy.
Every numpy kernel runs with warnings as errors, so an overflow that
numpy reported as a `RuntimeWarning` would fail.

Networks are drawn as in `test_differential`: in_dim 0-5, 1-3 layers,
every activation, mask densities 1, 0.5 and 0.1, and overflow cases with
weights near 1e154 and a rate of 1e300.

A wide layer loads its `ArrayWeights` once, at its first use, and a
layer that a step rebuilt starts from the weights that step made, of
the kind it ran; it keeps that kind whatever `WIDE_SIDE` says later.
Chains of steps on those weights must equal chains of pure steps, bit
for bit, and repeated forward passes on a parsed wide net load each
layer once.  The weights are values: every array is read-only from
construction and a step never changes weights that a layer holds.
`net_forward` runs the weights a layer holds too.
"""

import random
import struct
import warnings

import pytest

np = pytest.importorskip("numpy")

from hypothesis import HealthCheck, given, settings, strategies as st  # noqa: E402

from nncat import backprop, network  # noqa: E402
from nncat._vectorized import ArrayWeights  # noqa: E402
from nncat.activation import ACTIVATIONS, IDENTITY, SIGMOID, TANH  # noqa: E402
from nncat.algebra import DomainError, EntryWeights, Mat  # noqa: E402
from nncat.fileio import parse_network, serialize_network  # noqa: E402
from nncat.loss import squared_error, transform_loss, validity  # noqa: E402
from nncat.loss import validity_equation_check  # noqa: E402
from nncat.network import Layer, Network, compose, make_layer, net_forward  # noqa: E402
from nncat.randnet import random_layer, random_state  # noqa: E402

from helpers import law_sides, numpy_under, on_numpy, random_loss, rebuilt  # noqa: E402

ACTS = [ACTIVATIONS[tag] for tag in sorted(ACTIVATIONS)]
ALL_NUMPY = 0
ALL_PURE = 10**9
WIDE = network.WIDE_SIDE
FLAGS = {
    1.0: st.just(True),
    0.5: st.booleans(),
    0.1: st.sampled_from((True,) + (False,) * 9),
}


@pytest.fixture(autouse=True)
def warnings_are_errors():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        yield


def bits(values) -> bytes:
    return struct.pack(f"<{len(values)}d", *values)


def step_bits(stepped, trace):
    """The new weights, states, erosions and signals of a step as bits."""
    return (
        [bits(layer.transition.entries) for layer in stepped.layers],
        [bits(v) for v in trace.states],
        [bits(v) for v in trace.erosions],
        [bits(v) for v in trace.signals],
    )


def assert_read_only(weights):
    """A write to either array of `weights` raises."""
    for array in (weights.array, weights.frozen):
        with pytest.raises(ValueError, match="read-only"):
            array[...] = 0


def step(net, a, loss, side):
    """`backprop_step` on a rebuilt copy of `net` with `WIDE_SIDE` set
    to `side`: `step_bits`, or the error text.  Asserts that each layer
    ran the kind of kernel that `side` sends it to."""
    net = rebuilt(net)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(network, "WIDE_SIDE", side)
        try:
            stepped, trace = backprop.backprop_step(net, a, loss)
        except DomainError as exc:
            got = str(exc)
        else:
            got = step_bits(stepped, trace)
        assert on_numpy(net) == numpy_under(net, side)
    return got


@st.composite
def step_cases(draw):
    overflow = draw(st.booleans())
    scale = 1e154 if overflow else 2.0
    weight = st.floats(-scale, scale, allow_nan=False)
    flag = FLAGS[draw(st.sampled_from(sorted(FLAGS)))]
    widths = [draw(st.integers(0, 5))] + [
        draw(st.integers(0, 5)) for _ in range(draw(st.integers(1, 3)))
    ]
    net = Network.chain(
        [
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
    )
    state = st.floats(-2.0, 2.0)
    a = draw(st.tuples(*[state] * net.in_dim))
    target = draw(st.tuples(*[state] * net.out_dim))
    rate = 1e300 if overflow else draw(st.floats(0.0, 2.0))
    return net, a, squared_error(target, rate)


# 3 puts the layers with at least 3 rows and columns on numpy and
# leaves the rest pure, so one step mixes both kinds of kernel
@pytest.mark.parametrize("side", [ALL_NUMPY, 3])
@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(case=step_cases())
def test_numpy_step_equals_pure_step(side, case):
    net, a, loss = case
    assert step(net, a, loss, side) == step(net, a, loss, ALL_PURE)


@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_kernels_equal_pure_kernels(data):
    """Each kernel on its own, with weights that overflow as often as
    not; the update subtracts wherever the products are finite."""
    rows, n = data.draw(st.integers(0, 5)), data.draw(st.integers(0, 5))
    scale = data.draw(st.sampled_from([2.0, 1e154, 1.7e308]))
    value = st.floats(-scale, scale, allow_nan=False)
    flag = FLAGS[data.draw(st.sampled_from(sorted(FLAGS)))]
    layer = make_layer(
        [[data.draw(value) for _ in range(n)] for _ in range(rows)],
        [data.draw(value) for _ in range(rows)],
        IDENTITY,
        tuple(tuple(data.draw(flag) for _ in range(n)) for _ in range(rows)),
        tuple(data.draw(flag) for _ in range(rows)),
        in_dim=n,
    )
    x = tuple(data.draw(value) for _ in range(n))
    s = tuple(data.draw(value) for _ in range(rows))
    entries = layer.transition.entries
    (pure,) = network._loaded(Network.chain([layer]))
    assert isinstance(pure, EntryWeights)
    weights = ArrayWeights.of(layer)
    assert_read_only(weights)
    assert bits(weights.entries()) == bits(pure.entries()) == bits(entries)
    assert bits(weights.affine(x)) == bits(pure.affine(x))
    assert bits(weights.pushback(s)) == bits(pure.pushback(s))
    inp = x + (1.0,)
    if not backprop._products_finite(s, inp):
        return
    try:
        want = pure.update(s, inp)
    except DomainError as exc:
        with pytest.raises(DomainError) as caught:
            weights.update(s, inp)
        assert str(caught.value) == str(exc)
        return
    updated = weights.update(s, inp)
    assert_read_only(updated)
    assert bits(updated.entries()) == bits(want.entries())
    assert want.cols == pure.cols and want.mutable is pure.mutable
    assert bits(weights.entries()) == bits(pure.entries()) == bits(entries)


@pytest.mark.parametrize("side", [ALL_PURE, ALL_NUMPY])
def test_a_layer_built_from_a_list_steps_like_its_tuple_twin(side):
    """A `Mat` stores its entries as a tuple, so a layer built from a
    list steps, on either kind, like its twin built from a tuple."""
    net = Network.chain([Layer(Mat(1, 2, [0.5, 0.25]), SIGMOID)])
    assert type(net.layers[0].transition.entries) is tuple
    twin = Network.chain([Layer(Mat(1, 2, (0.5, 0.25)), SIGMOID)])
    a, loss = (-1.5,), squared_error((0.75,), 0.5)
    want = step(twin, a, loss, ALL_PURE)
    assert isinstance(want, tuple)
    assert step(net, a, loss, side) == want


def wide_net(rng, dims, density, weight_scale=None):
    """A chain of random layers through `dims`: sigmoid, tanh and
    identity in turn."""
    acts = (SIGMOID, TANH, IDENTITY)
    return Network.chain(
        [
            random_layer(
                rng, n, k, acts[i % 3],
                weight_scale=weight_scale or n ** -0.5, mask_density=density,
            )
            for i, (n, k) in enumerate(zip(dims, dims[1:]))
        ]
    )


@pytest.mark.parametrize("density", [1.0, 0.5, 0.1])
def test_widths_on_both_sides_of_the_constant(density):
    """The real constant: layers with WIDE_SIDE rows and columns take
    the numpy kernels, a layer with one row fewer stays pure, and three
    chained steps equal three pure steps."""
    rng = random.Random(7)
    net = wide_net(rng, (WIDE, WIDE, WIDE - 1, WIDE), density)
    assert on_numpy(net) == [True, False, True]
    for _ in range(3):
        a, target = random_state(rng, WIDE, 1.0), random_state(rng, WIDE, 0.9)
        loss = squared_error(target, 0.1)
        assert step(net, a, loss, WIDE) == step(net, a, loss, ALL_PURE)
        net, _ = backprop.backprop_step(net, a, loss)
        assert on_numpy(net) == [True, False, True]


def test_train_on_a_wide_net_equals_a_fold_of_pure_steps(monkeypatch):
    rng = random.Random(11)
    net = wide_net(rng, (WIDE + 3, WIDE + 1, WIDE + 2), 0.9)
    dataset = [
        (random_state(rng, WIDE + 3, 1.0), random_state(rng, WIDE + 2, 0.9)) for _ in range(3)
    ]
    assert on_numpy(net) == [True, True]
    trained, losses = backprop.train(net, dataset, 0.25, backprop.SgdConfig(epochs=2))

    monkeypatch.setattr(network, "WIDE_SIDE", ALL_PURE)
    folded, want = rebuilt(net), []
    for _ in range(2):
        for x, t in dataset:
            loss = squared_error(t, 0.25)
            want.append(validity(net_forward(folded, x), loss))
            folded, _ = backprop.backprop_step(folded, x, loss)
    assert on_numpy(folded) == [False, False]
    assert bits(losses) == bits(want)
    for got, ref in zip(trained.layers, folded.layers, strict=True):
        assert bits(got.transition.entries) == bits(ref.transition.entries)


@st.composite
def mixed_splits(draw):
    """(first, second, a, loss): 1-3 random layers on each side, each
    dim 1-5 or, twice as often, 17-24, so the layers between two wide
    dims step on numpy under the real `WIDE_SIDE` and the rest stay pure."""
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    density = draw(st.sampled_from(sorted(FLAGS)))
    dim = st.one_of(st.integers(1, 5), st.integers(17, 24), st.integers(17, 24))
    counts = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    dims = [draw(dim) for _ in range(sum(counts) + 1)]
    layers = [
        random_layer(
            rng, n, k, draw(st.sampled_from(ACTS)),
            weight_scale=n ** -0.5, mask_density=density,
        )
        for n, k in zip(dims, dims[1:])
    ]
    first = Network.chain(layers[: counts[0]])
    second = Network.chain(layers[counts[0] :])
    return first, second, random_state(rng, first.in_dim, 1.0), random_loss(rng, second.out_dim)


def pullback_sides(first, second, a, loss):
    """Both sides of the pullback's functor law at `a`, the value and
    the erosion as bits: `transform_loss` through `compose(first,
    second)`, and through `first` after `second`."""
    composite = transform_loss(compose(first, second), loss)
    nested = transform_loss(first, transform_loss(second, loss))
    return tuple((bits((p.evaluate(a),)), bits(p.erosion(a))) for p in (composite, nested))


@settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(case=mixed_splits())
def test_compositionality_is_bitwise_across_kernel_kinds(case):
    """Under the real width rule the steps, `transform_loss` and
    `net_forward` run the wide layers on numpy and the rest pure, so
    both laws, the step's and the pullback's, hold on networks that mix
    both kinds.  Rebuilt with every layer pure, the composite of the
    steps and both pullbacks have the same bits, so each law also holds
    one kernel kind to the other's bits."""
    first, second, a, loss = case
    whole, split = law_sides(*case)
    assert whole == split
    assert backprop.functoriality_check(*case, tol=0.0)
    composite, nested = pullback_sides(*case)
    assert composite == nested
    assert on_numpy(first) + on_numpy(second) == numpy_under(compose(first, second), WIDE)
    pure = rebuilt(first), rebuilt(second), a, loss
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(network, "WIDE_SIDE", ALL_PURE)
        assert law_sides(*pure)[1] == whole
        assert pullback_sides(*pure) == (composite, composite)
        assert not any(on_numpy(pure[0]) + on_numpy(pure[1]))


def uniform_net(scales):
    """Identity layers of width WIDE_SIDE, every weight of layer i equal
    to `scales[i]` and every bias 0."""
    return Network.chain(
        [make_layer([[c] * WIDE for _ in range(WIDE)], [0.0] * WIDE, IDENTITY) for c in scales]
    )


OVERFLOWS = [
    # the pushback 20 * 4e202 * 1e200 overflows: layer 0 only
    ((1e-200, 1e200), 1e200, 0),
    # the products 4e196 * 2e155 overflow: layer 1 only
    ((1e154, 1e-160), 1e200, 1),
    # the output erosion 1e300 * 2e11 overflows: both layers, and
    # layer 1 updates first
    ((5e8, 1.0), 1e300, 1),
]


@pytest.mark.parametrize("scales, rate, layer", OVERFLOWS)
def test_an_overflowing_wide_step_raises_the_pure_text(scales, rate, layer):
    net, a, loss = uniform_net(scales), (1.0,) * WIDE, squared_error((0.0,) * WIDE, rate)
    got = step(net, a, loss, WIDE)
    assert got == f"matrix entry is not finite: inf (layer {layer})"
    assert got == step(net, a, loss, ALL_PURE)


def test_a_diverging_wide_train_raises_the_pure_text(monkeypatch):
    """The second step overflows: its epoch, row and layer are named."""
    dataset = [((0.0,) * WIDE, (0.0,) * WIDE), ((1.0,) * WIDE, (0.0,) * WIDE)]
    texts = []
    for side in (WIDE, ALL_PURE):
        net = uniform_net((1e-200, 1e200))
        monkeypatch.setattr(network, "WIDE_SIDE", side)
        with pytest.raises(DomainError) as caught:
            backprop.train(net, dataset, 1e200, backprop.SgdConfig(epochs=1))
        assert on_numpy(net) == [side == WIDE] * 2
        texts.append(str(caught.value))
    assert texts[0] == texts[1] == "epoch 1, row 2: matrix entry is not finite: inf (layer 0)"


def test_an_update_that_leaves_the_floats_raises_the_pure_text():
    """Every product is finite and one new entry is not: the weights
    1.5e308 and -1.5e308 cancel in the forward pass, and the signal
    -1.5e308 pushes the first of them past the largest float."""
    rows = [[0.0] * WIDE for _ in range(WIDE)]
    rows[0][0], rows[0][1] = 1.5e308, -1.5e308
    net = Network.chain([make_layer(rows, [0.0] * WIDE, IDENTITY)])
    loss = squared_error((1e308,) + (0.0,) * (WIDE - 1), 1.5)
    got = step(net, (1.0,) * WIDE, loss, WIDE)
    assert got == "matrix entry is not finite: inf (layer 0)"
    assert got == step(net, (1.0,) * WIDE, loss, ALL_PURE)


def test_a_forward_pass_that_leaves_the_floats_raises_the_pure_text():
    rows = [[1e308] * WIDE for _ in range(WIDE)]
    net = Network.chain([make_layer(rows, [0.0] * WIDE, TANH)])
    loss = squared_error((0.0,) * WIDE, 1.0)
    got = step(net, (2.0,) * WIDE, loss, WIDE)
    assert got == "activation input is not finite: inf (layer 0)"
    assert got == step(net, (2.0,) * WIDE, loss, ALL_PURE)


# A wide layer loads its `ArrayWeights` at its first use, and a layer
# rebuilt by a step starts from the weights that step made.


def held(net):
    """Which layers of `net` run on numpy; each layer's step weights
    equal, as bits, its entries, and the numpy ones are read-only."""
    for layer, w in zip(net.layers, network._loaded(net)):
        if isinstance(w, ArrayWeights):
            assert_read_only(w)
        assert bits(w.entries()) == bits(layer.transition.entries)
    return on_numpy(net)


def counted_loads(monkeypatch):
    """A list that grows by the layer each time `ArrayWeights.of` loads
    a layer's entries into an array: once per wide layer, at its first
    use, and never for a layer whose step weights a step seeded."""
    loads = []
    of = ArrayWeights.of.__func__

    def counted(cls, layer):
        loads.append(layer)
        return of(cls, layer)

    monkeypatch.setattr(ArrayWeights, "of", classmethod(counted))
    return loads


def chained(net, cases, side):
    """`step_bits` of each `backprop_step` in a chain over `cases`, each
    step on the network the one before returned, from a rebuilt copy of
    `net`, with `WIDE_SIDE` set to `side`, and the last network."""
    got, net = [], rebuilt(net)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(network, "WIDE_SIDE", side)
        for a, loss in cases:
            net, trace = backprop.backprop_step(net, a, loss)
            got.append(step_bits(net, trace))
    return got, net


@pytest.mark.parametrize(
    "side, carried", [(WIDE, [True, False, True]), (ALL_NUMPY, [True, True, True])]
)
def test_a_chain_of_carried_steps_equals_the_pure_chain(monkeypatch, side, carried):
    """16 chained steps: only the first loads a numpy layer's entries,
    the other 15 start from the weights that the step before made."""
    rng = random.Random(23)
    net = wide_net(rng, (WIDE, WIDE, WIDE - 1, WIDE), 0.9)
    cases = [
        (random_state(rng, WIDE, 1.0), squared_error(random_state(rng, WIDE, 0.9), 0.1))
        for _ in range(16)
    ]
    loads = counted_loads(monkeypatch)
    got, last = chained(net, cases, side)
    assert len(loads) == carried.count(True)
    assert held(last) == carried
    want, pure = chained(net, cases, ALL_PURE)
    assert len(loads) == carried.count(True)
    assert got == want
    assert held(pure) == [False] * 3


def test_stepping_a_stepped_network_twice_gives_equal_bits(monkeypatch):
    """A step leaves the weights that its network's layers hold as they
    were, the same objects with the same bits, and its new layers hold
    new ones.  The step weights are not part of the network's value:
    its parsed copy is equal to it and loads its own at its first use."""
    rng = random.Random(29)
    net = wide_net(rng, (WIDE + 2, WIDE, WIDE + 1), 0.5)
    a, target = random_state(rng, WIDE + 2, 1.0), random_state(rng, WIDE + 1, 0.9)
    loss = squared_error(target, 0.1)
    stepped, _ = backprop.backprop_step(net, a, loss)
    assert held(stepped) == [True, True]
    weights = network._loaded(stepped)
    was = [bits(w.entries()) for w in weights]
    again, trace = backprop.backprop_step(stepped, a, loss)
    assert held(again) == [True, True]
    now, new = network._loaded(stepped), network._loaded(again)
    for old, kept, made, entries in zip(weights, now, new, was, strict=True):
        assert kept is old
        assert bits(old.entries()) == entries
        assert made is not old
    first = step_bits(again, trace)
    assert first == step_bits(*backprop.backprop_step(stepped, a, loss))
    parsed = parse_network(serialize_network(stepped))
    assert stepped == parsed
    loads = counted_loads(monkeypatch)
    assert held(parsed) == [True, True]
    assert len(loads) == 2
    assert first == step(parsed, a, loss, ALL_PURE)


@pytest.mark.parametrize("scales, rate, layer", OVERFLOWS)
def test_an_overflowing_step_leaves_the_carried_arrays_as_they_were(scales, rate, layer):
    """A step at rate 0 leaves the weights as they were and seeds the
    network's layers with new arrays; an overflowing step from it
    raises and changes no array the layers hold, and a good step from
    it equals the step from a freshly parsed copy."""
    a, zeros = (1.0,) * WIDE, (0.0,) * WIDE
    net, _ = backprop.backprop_step(uniform_net(scales), a, squared_error(zeros, 0.0))
    assert held(net) == [True, True]
    weights = network._loaded(net)
    was = [bits(w.entries()) for w in weights]
    with pytest.raises(DomainError) as caught:
        backprop.backprop_step(net, a, squared_error(zeros, rate))
    assert str(caught.value) == f"matrix entry is not finite: inf (layer {layer})"
    assert all(w is old for w, old in zip(network._loaded(net), weights, strict=True))
    assert [bits(w.entries()) for w in weights] == was
    fresh = parse_network(serialize_network(net))
    good = squared_error((0.5,) * WIDE, 1e-12)
    want = step(fresh, a, good, ALL_PURE)
    assert isinstance(want, tuple)
    assert step_bits(*backprop.backprop_step(net, a, good)) == step(fresh, a, good, WIDE) == want


@pytest.mark.parametrize(
    "first, later", [(ALL_NUMPY, ALL_PURE), (ALL_PURE, WIDE), (WIDE, ALL_PURE)]
)
def test_a_layer_keeps_the_kind_of_its_first_use(monkeypatch, first, later):
    """A layer's kind of kernel is fixed at its first use, under the
    `WIDE_SIDE` of that moment, or by the step that built it: a stepped
    layer keeps the kind of the weights its step ran, whatever
    `WIDE_SIDE` says later, with the pure bits either way."""
    rng = random.Random(31)
    net = wide_net(rng, (3, WIDE, WIDE, 4), 1.0)
    a, loss = random_state(rng, 3, 1.0), squared_error(random_state(rng, 4, 0.9), 0.1)
    want = chained(net, [(a, loss)] * 2, ALL_PURE)[0]
    monkeypatch.setattr(network, "WIDE_SIDE", first)
    kinds = held(net)
    assert kinds == numpy_under(net, first)
    monkeypatch.setattr(network, "WIDE_SIDE", later)
    assert kinds != numpy_under(net, later)
    assert held(net) == kinds
    got = []
    for _ in range(2):
        net, trace = backprop.backprop_step(net, a, loss)
        assert held(net) == kinds
        got.append(step_bits(net, trace))
    assert got == want


def test_net_forward_runs_the_weights_a_layer_carries(monkeypatch):
    """`net_forward` runs the weights a layer holds: on a network whose
    wide layers a step seeded it loads no entries and runs each wide
    layer's affine map on numpy, once, with the pure forward pass's
    bits."""
    rng = random.Random(43)
    net = wide_net(rng, (WIDE, WIDE + 1, WIDE, 3), 0.9)
    x = random_state(rng, WIDE, 1.0)
    stepped, _ = backprop.backprop_step(net, x, squared_error(random_state(rng, 3, 0.9), 0.1))
    assert held(stepped) == [True, True, False]
    loads, affines = counted_loads(monkeypatch), []
    affine = ArrayWeights.affine

    def counted(weights, state):
        affines.append(weights)
        return affine(weights, state)

    monkeypatch.setattr(ArrayWeights, "affine", counted)
    got = net_forward(stepped, x)
    assert loads == []
    assert affines == network._loaded(stepped)[:2]
    monkeypatch.setattr(network, "WIDE_SIDE", ALL_PURE)
    assert bits(got) == bits(net_forward(rebuilt(stepped), x))
    assert len(affines) == 2


def test_train_hands_its_arrays_to_the_network_it_returns(monkeypatch):
    """The last step of `train` is `backprop_step` on a network built
    from the arrays `train` held, so it loads no entries; a second
    `train` from the returned network loads none either."""
    rng = random.Random(41)
    net = wide_net(rng, (WIDE, WIDE + 1, WIDE), 0.9)
    dataset = [(random_state(rng, WIDE, 1.0), random_state(rng, WIDE, 0.9)) for _ in range(2)]
    loads = counted_loads(monkeypatch)
    trained, _ = backprop.train(net, dataset, 0.25, backprop.SgdConfig(epochs=2))
    assert len(loads) == 2
    assert held(trained) == [True, True]
    again, losses = backprop.train(trained, dataset, 0.25, backprop.SgdConfig(epochs=1))
    assert len(loads) == 2
    monkeypatch.setattr(network, "WIDE_SIDE", ALL_PURE)
    parsed = parse_network(serialize_network(trained))
    want, pure = backprop.train(parsed, dataset, 0.25, backprop.SgdConfig(epochs=1))
    assert on_numpy(parsed) == [False, False]
    assert bits(losses) == bits(pure)
    assert [bits(layer.transition.entries) for layer in again.layers] == [
        bits(layer.transition.entries) for layer in want.layers
    ]


def test_a_parsed_wide_net_loads_each_layer_once(monkeypatch):
    """Forward passes and validity checks on a parsed wide net: the
    first use loads each wide layer's array, the later ones run it
    without loading, and every result has the pure bits."""
    rng = random.Random(47)
    parsed = parse_network(serialize_network(wide_net(rng, (WIDE + 1, WIDE, WIDE + 2, 2), 0.9)))
    xs = [random_state(rng, WIDE + 1, 1.0) for _ in range(3)]
    loss = squared_error(random_state(rng, 2, 0.9), 0.1)
    loads = counted_loads(monkeypatch)
    got = [bits(net_forward(parsed, x)) for x in xs]
    got += [bits(validity_equation_check(parsed, x, loss)) for x in xs]
    assert held(parsed) == [True, True, False]
    assert loads == list(parsed.layers[:2])
    monkeypatch.setattr(network, "WIDE_SIDE", ALL_PURE)
    pure = rebuilt(parsed)
    want = [bits(net_forward(pure, x)) for x in xs]
    want += [bits(validity_equation_check(pure, x, loss)) for x in xs]
    assert on_numpy(pure) == [False] * 3
    assert got == want
