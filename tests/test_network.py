import random
import struct

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from nncat import network
from nncat.activation import ACTIVATIONS, IDENTITY, SIGMOID
from nncat.algebra import DomainError, EntryWeights, Mat, ShapeError
from nncat.backward import sweep
from nncat.network import (
    Layer,
    Network,
    compose,
    full_mask,
    identity_net,
    layer_forward,
    make_layer,
    net_forward,
)
from nncat.randnet import random_layer, random_network, random_state

from helpers import (
    FIRST_BIAS,
    FIRST_WEIGHTS,
    GOLD_HIDDEN,
    GOLD_OUTPUT,
    SECOND_BIAS,
    SECOND_WEIGHTS,
    TOL8,
    mazur_network,
    numpy_under,
    on_numpy,
    rebuilt,
)


class TestLayerConstruction:
    def test_dims_read_from_transition(self):
        layer = make_layer(FIRST_WEIGHTS, FIRST_BIAS, SIGMOID)
        assert (layer.in_dim, layer.out_dim) == (2, 2)
        assert layer.mask == full_mask(2, 2)
        assert layer.bias_mutable == (True, True)

    def test_mask_shape_checked(self):
        with pytest.raises(ShapeError, match="mask"):
            make_layer(FIRST_WEIGHTS, FIRST_BIAS, SIGMOID, mask=((True,),))

    def test_bias_mutable_length_checked(self):
        with pytest.raises(ShapeError, match="bias_mutable"):
            make_layer(FIRST_WEIGHTS, FIRST_BIAS, SIGMOID, bias_mutable=(True,))

    def test_transition_needs_bias_column(self):
        with pytest.raises(ShapeError):
            Layer(Mat(2, 0, ()), SIGMOID)

    def test_weights_bias_row_mismatch(self):
        with pytest.raises(ShapeError, match="^2 weight rows vs 1 bias entries$"):
            make_layer(FIRST_WEIGHTS, (0.35,), SIGMOID)
        with pytest.raises(ShapeError, match="^1 weight rows vs 2 bias entries$"):
            make_layer([[1.0, 2.0]], [0.1, 0.2], SIGMOID)

    def test_ragged_rows_reported_in_the_callers_counts(self):
        with pytest.raises(ShapeError, match="^row 0 has 2 entries but row 1 has 1$"):
            make_layer([[1.0, 2.0], [1.0]], [0.0, 0.0], SIGMOID)

    def test_declared_in_dim_checked_against_the_rows(self):
        with pytest.raises(ShapeError, match="^2 weight columns vs in_dim 5$"):
            make_layer([[1.0, 2.0]], [0.0], SIGMOID, in_dim=5)
        layer = make_layer([[1.0, 2.0]], [0.0], SIGMOID, in_dim=2)
        assert (layer.in_dim, layer.out_dim) == (2, 1)

    def test_zero_output_layer(self):
        layer = make_layer([], [], SIGMOID, in_dim=3)
        assert (layer.in_dim, layer.out_dim) == (3, 0)

    def test_zero_output_layer_needs_in_dim(self):
        with pytest.raises(ShapeError, match="^zero-row weights need a declared in_dim$"):
            make_layer([], [], SIGMOID)

    def test_zero_input_layer(self):
        layer = make_layer([(), ()], (0.5, -0.5), IDENTITY)
        assert (layer.in_dim, layer.out_dim) == (0, 2)

    def test_rebuild_with_transition(self):
        layer = make_layer(
            FIRST_WEIGHTS, FIRST_BIAS, SIGMOID,
            mask=((True, False), (False, True)), bias_mutable=(False, True),
        )
        t = Mat.from_rows([(1.0, 2.0, 3.0), (4.0, 5.0, 6.0)])
        weights = EntryWeights(t.entries, t.cols, layer.mutable)
        (rebuilt,) = Network.chain([layer])._with_weights([weights]).layers
        assert rebuilt == Layer(t, SIGMOID, layer.mask, layer.bias_mutable)
        assert rebuilt.mask is layer.mask
        assert rebuilt.bias_mutable is layer.bias_mutable
        assert rebuilt.activation is layer.activation


class TestMutableFlags:
    @pytest.mark.parametrize("rows, cols", [(0, 3), (3, 0), (1, 1), (2, 5), (4, 3)])
    def test_mask_then_bias_flag_per_row(self, rows, cols):
        rng = random.Random(rows * 10 + cols)
        for _ in range(10):
            mask = tuple(tuple(rng.random() < 0.5 for _ in range(cols)) for _ in range(rows))
            bias_mutable = tuple(rng.random() < 0.5 for _ in range(rows))
            layer = make_layer(
                [[0.5] * cols] * rows, [0.25] * rows, SIGMOID, mask, bias_mutable, in_dim=cols
            )
            want = tuple(f for row, b in zip(mask, bias_mutable) for f in row + (b,))
            assert layer.mutable == want
            assert len(layer.mutable) == rows * (cols + 1)
            assert layer.mutable is layer.mutable

    def test_default_layer_is_mutable_everywhere(self):
        assert make_layer(FIRST_WEIGHTS, FIRST_BIAS, SIGMOID).mutable == (True,) * 6

    def test_not_part_of_equality_hash_or_repr(self):
        read, twin = (
            make_layer(FIRST_WEIGHTS, FIRST_BIAS, SIGMOID, mask=((True, False), (False, True)))
            for _ in range(2)
        )
        before = repr(read)
        assert read.mutable == (True, False, True, False, True, True)
        assert read == twin and hash(read) == hash(twin)
        assert repr(read) == before == repr(twin)


class TestRandomLayer:
    def test_density_one_is_the_default_layer(self):
        layer = random_layer(random.Random(5), 3, 2, SIGMOID, mask_density=1.0)
        t = layer.transition
        assert layer == Layer(t, SIGMOID)
        assert layer.mask == full_mask(2, 3) and layer.bias_mutable == (True, True)

    def test_density_one_draws_no_flags(self):
        rng = random.Random(5)
        random_layer(rng, 3, 2, SIGMOID, mask_density=1.0)
        assert rng.random() == 0.9433567169983137


class TestNetworkConstruction:
    def test_chain_reads_end_dims(self):
        net = mazur_network()
        assert (net.in_dim, net.out_dim) == (2, 2)

    def test_rebuild_with_layers(self):
        mask, flags = ((True, False), (False, True)), (False, True)

        def build():
            first = make_layer(FIRST_WEIGHTS, FIRST_BIAS, SIGMOID, mask=mask, bias_mutable=flags)
            return Network.chain([first, make_layer(SECOND_WEIGHTS, SECOND_BIAS, IDENTITY)])

        net = build()
        entries = [(1.0, 2.0, 3.0, 4.0, 5.0, 6.0), (-1.0, -2.0, -3.0, -4.0, -5.0, -6.0)]
        weights = [
            EntryWeights(e, 3, layer.mutable) for e, layer in zip(entries, net.layers, strict=True)
        ]
        rebuilt = net._with_weights(weights)
        assert rebuilt == Network.chain([
            Layer(Mat(2, 3, entries[0]), SIGMOID, mask, flags),
            Layer(Mat(2, 3, entries[1]), IDENTITY),
        ])
        for new, old in zip(rebuilt.layers, net.layers, strict=True):
            assert new.mask is old.mask
            assert new.bias_mutable is old.bias_mutable
            assert new.activation is old.activation
        assert net == build()
        assert identity_net(2)._with_weights([]) == identity_net(2)

    def test_incompatible_layers_rejected(self):
        wide = make_layer([(1.0, 2.0, 3.0)], (0.0,), SIGMOID)  # 3 -> 1
        with pytest.raises(ShapeError, match="layer 0"):
            Network.chain([mazur_network().layers[0], wide])

    def test_declared_dims_checked(self):
        layer = make_layer(FIRST_WEIGHTS, FIRST_BIAS, SIGMOID)
        with pytest.raises(ShapeError):
            Network((layer,), 3, 2)
        with pytest.raises(ShapeError):
            Network((layer,), 2, 3)

    def test_empty_needs_equal_dims(self):
        with pytest.raises(ShapeError):
            Network((), 2, 3)

    def test_negative_widths_rejected(self):
        # the file format has no negative width, so such a network could
        # be written but never read back
        with pytest.raises(ShapeError, match=r"^network widths must be >= 0, got -2->-2$"):
            identity_net(-2)
        layer = make_layer(FIRST_WEIGHTS, FIRST_BIAS, SIGMOID)
        with pytest.raises(ShapeError, match=r"^network widths must be >= 0, got 2->-1$"):
            Network((layer,), 2, -1)

    def test_chain_rejects_empty(self):
        with pytest.raises(ShapeError):
            Network.chain([])


class TestRandomNetwork:
    def test_depth_zero_is_the_empty_network(self):
        rng = random.Random(1)
        before = rng.getstate()
        assert random_network(rng, 3, 3, depth=0) == identity_net(3)
        assert rng.getstate() == before
        with pytest.raises(ShapeError, match="empty network must have equal dims"):
            random_network(rng, 2, 3, depth=0)

    def test_negative_depth_rejected(self):
        with pytest.raises(ValueError, match="depth must be >= 0, got -1"):
            random_network(random.Random(1), 2, 3, depth=-1)


class TestLayerForward:
    def test_worked_example_first_layer(self):
        layer = make_layer(FIRST_WEIGHTS, FIRST_BIAS, SIGMOID)
        assert layer_forward(layer, (0.05, 0.1)) == pytest.approx(GOLD_HIDDEN, abs=TOL8)

    def test_worked_example_second_layer(self):
        layer = make_layer(SECOND_WEIGHTS, SECOND_BIAS, SIGMOID)
        assert layer_forward(layer, GOLD_HIDDEN) == pytest.approx(GOLD_OUTPUT, abs=TOL8)

    def test_identity_layer_passthrough(self):
        layer = make_layer(((1.0, 0.0), (0.0, 1.0)), (0.0, 0.0), IDENTITY)
        x = (3.25, -1.5)
        assert layer_forward(layer, x) == x

    def test_wrong_input_length(self):
        layer = make_layer(FIRST_WEIGHTS, FIRST_BIAS, SIGMOID)
        with pytest.raises(ShapeError):
            layer_forward(layer, (1.0, 2.0, 3.0))

    def test_output_length_is_out_dim(self):
        rng = random.Random(6006)
        for _ in range(20):
            net = random_network(rng, rng.randint(1, 4), rng.randint(1, 4))
            for layer in net.layers:
                out = layer_forward(layer, random_state(rng, layer.in_dim))
                assert len(out) == layer.out_dim

    def test_degenerate_widths(self):
        collapse = make_layer([], [], SIGMOID, in_dim=2)  # 2 -> 0
        assert layer_forward(collapse, (1.0, 2.0)) == ()
        expand = make_layer([(), ()], (0.0, 1.0), IDENTITY)  # 0 -> 2
        assert layer_forward(expand, ()) == (0.0, 1.0)


class TestNetForward:
    def test_worked_example_network(self):
        assert net_forward(mazur_network(), (0.05, 0.1)) == pytest.approx(
            GOLD_OUTPUT, abs=TOL8
        )

    def test_empty_network_is_identity(self):
        x = (1.0, -2.0, 0.5)
        assert net_forward(identity_net(3), x) == x

    def test_functor_law_bitwise(self):
        rng = random.Random(7007)
        for _ in range(30):
            mid = rng.randint(1, 4)
            first = random_network(rng, rng.randint(1, 4), mid)
            second = random_network(rng, mid, rng.randint(1, 4))
            x = random_state(rng, first.in_dim)
            assert net_forward(compose(first, second), x) == net_forward(
                second, net_forward(first, x)
            )

    def test_mask_never_read_by_forward(self):
        layer = make_layer(FIRST_WEIGHTS, FIRST_BIAS, SIGMOID)
        frozen = make_layer(
            FIRST_WEIGHTS,
            FIRST_BIAS,
            SIGMOID,
            mask=((False, False), (False, False)),
            bias_mutable=(False, False),
        )
        x = (0.05, 0.1)
        assert layer_forward(layer, x) == layer_forward(frozen, x)


@st.composite
def forward_cases(draw):
    """(net, x): in_dim 0-5, 1-3 layers, every activation, and each later
    width 0-5 or, twice as often, `WIDE_SIDE` to `WIDE_SIDE` + 3, so a
    layer between two wide widths runs on numpy when numpy is installed.
    Half the nets have weights near 1e154, so their forward passes may
    leave the finite floats."""
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    side = network.WIDE_SIDE
    wide = st.integers(side, side + 3)
    width = st.one_of(st.integers(0, 5), wide, wide)
    dims = [draw(st.integers(0, 5))] + [draw(width) for _ in range(draw(st.integers(1, 3)))]
    scale = draw(st.sampled_from((1.0, 1e154)))
    acts = [ACTIVATIONS[tag] for tag in sorted(ACTIVATIONS)]
    net = Network.chain(
        [
            random_layer(rng, n, k, draw(st.sampled_from(acts)), weight_scale=scale)
            for n, k in zip(dims, dims[1:])
        ]
    )
    return net, random_state(rng, net.in_dim)


def bits_or_error(run):
    """The bits of the state `run` returns, or its `DomainError` text."""
    try:
        state = run()
    except DomainError as exc:
        return str(exc)
    return struct.pack(f"<{len(state)}d", *state)


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(case=forward_cases())
def test_net_forward_is_the_sweeps_last_state(case):
    """One forward loop: `net_forward` and the sweep's forward half give
    the same bits, or name the same layer, under the real width rule and
    on a rebuilt copy with every layer pure; and the two rules agree."""
    net, x = case
    got = []
    for side in (network.WIDE_SIDE, 10**9):
        copy = rebuilt(net)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(network, "WIDE_SIDE", side)
            forward = bits_or_error(lambda: net_forward(copy, x))
            swept = bits_or_error(lambda: sweep(copy, x, lambda y: (0.0,) * len(y))[0][-1])
            assert on_numpy(copy) == numpy_under(copy, side)
        assert forward == swept
        got.append(forward)
    assert got[0] == got[1]


class TestCompose:
    def test_worked_example_shape(self):
        first = Network.chain([make_layer(FIRST_WEIGHTS, FIRST_BIAS, SIGMOID)])
        second = Network.chain([make_layer(SECOND_WEIGHTS, SECOND_BIAS, SIGMOID)])
        assert compose(first, second).layers == mazur_network().layers

    def test_identity_laws(self):
        net = mazur_network()
        assert compose(identity_net(2), net) == net
        assert compose(net, identity_net(2)) == net

    def test_associativity(self):
        rng = random.Random(8008)
        for _ in range(10):
            a = random_network(rng, 2, 3)
            b = random_network(rng, 3, 2)
            c = random_network(rng, 2, 4)
            assert compose(compose(a, b), c) == compose(a, compose(b, c))

    def test_dimension_mismatch(self):
        with pytest.raises(ShapeError):
            compose(random_network(random.Random(0), 2, 3), identity_net(2))


class TestIdentityNet:
    def test_forward(self):
        x = (1.0, 2.0, 3.0, 4.0)
        assert net_forward(identity_net(4), x) == x

    def test_composes_to_itself(self):
        assert compose(identity_net(2), identity_net(2)) == identity_net(2)

    def test_zero_dimension(self):
        assert net_forward(identity_net(0), ()) == ()
