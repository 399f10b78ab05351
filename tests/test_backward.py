import random

import pytest

from nncat.activation import IDENTITY, SIGMOID, TANH
from nncat.algebra import DomainError, Mat, ShapeError
from nncat.backprop import backprop_step
from nncat.backward import (
    Gradient,
    _erosion_vector_generic,
    erosion_transform_net,
    layer_erosion_vector,
    layer_gradient,
    masked_update,
)
from nncat.loss import squared_error, transform_loss, validity
from nncat.network import Network, identity_net, layer_forward, make_layer, net_forward
from nncat.oracle import FdConfig, fd_layer_gradient
from nncat.randnet import random_layer, random_network, random_state

from helpers import (
    DISPLAYED_GRAD_SECOND,
    GOLD_HIDDEN,
    GOLD_UPDATED_SECOND,
    INPUT,
    RATE,
    SECOND_BIAS,
    SECOND_WEIGHTS,
    TOL8,
    all_activations,
    mazur_loss,
    mazur_network,
    random_loss,
    ref_forward_states,
)


def second_layer():
    return make_layer(SECOND_WEIGHTS, SECOND_BIAS, SIGMOID)


class TestLayerErosionVector:
    def test_worked_example_signal(self):
        # half the published bias column, because the rate is folded in
        _, b, c = ref_forward_states()
        e_out = tuple(RATE * (ci - ti) for ci, ti in zip(c, (0.01, 0.99)))
        s = layer_erosion_vector(second_layer(), b, e_out)
        assert s == pytest.approx((0.06924928, -0.01904912), abs=TOL8)
        assert s == pytest.approx(
            (0.5 * 0.13849856, 0.5 * -0.03809824), abs=TOL8
        )

    def test_zero_erosion_gives_zero_signal(self):
        s = layer_erosion_vector(second_layer(), (0.5, 0.5), (0.0, 0.0))
        assert s == (0.0, 0.0)

    def test_identity_activation_passes_erosion_through(self):
        layer = make_layer(((2.0, 1.0), (0.5, 3.0)), (1.0, -1.0), IDENTITY)
        e_out = (0.25, -0.75)
        assert layer_erosion_vector(layer, (0.1, 0.2), e_out) == e_out

    def test_shape_errors(self):
        with pytest.raises(ShapeError, match="^network expects 2 inputs, got 1$"):
            layer_erosion_vector(second_layer(), (0.5,), (0.0, 0.0))
        with pytest.raises(ShapeError, match="^erosion has length 1, network emits 2$"):
            layer_erosion_vector(second_layer(), (0.5, 0.5), (0.0,))

    def test_overflowing_forward_names_layer_0(self):
        layer = make_layer(((1e308,),), (0.0,), TANH)
        with pytest.raises(
            DomainError, match=r"^activation input is not finite: inf \(layer 0\)$"
        ):
            layer_erosion_vector(layer, (2.0,), (0.0,))

    def test_sigmoid_shortcut_agrees_with_generic_path(self):
        rng = random.Random(1313)
        for _ in range(50):
            layer = random_layer(rng, rng.randint(1, 5), rng.randint(1, 5), SIGMOID)
            a = random_state(rng, layer.in_dim)
            e_out = random_state(rng, layer.out_dim)
            fast = layer_erosion_vector(layer, a, e_out)
            slow = _erosion_vector_generic(layer, a, e_out)
            for f, s in zip(fast, slow):
                assert abs(f - s) <= 1e-12


class TestLayerGradient:
    def test_worked_example_gradient_is_rate_times_displayed(self):
        _, b, _ = ref_forward_states()
        g = layer_gradient(second_layer(), b, mazur_loss())
        for j in range(2):
            for i in range(3):
                assert g.matrix[j, i] == pytest.approx(
                    RATE * DISPLAYED_GRAD_SECOND[j][i], abs=TOL8
                )

    def test_loss_of_wrong_dimension(self):
        with pytest.raises(ShapeError, match=r"^loss of dimension 3 vs layer output 2$"):
            layer_gradient(second_layer(), (0.5, 0.5), squared_error((0.0, 0.0, 0.0), 1.0))

    def test_zero_gradient_at_loss_minimum(self):
        layer = second_layer()
        a = (0.4, 0.6)
        loss = squared_error(layer_forward(layer, a), 0.8)
        g = layer_gradient(layer, a, loss)
        assert all(v == 0.0 for v in g.matrix.entries)

    def test_zero_input_isolates_bias_column(self):
        layer = second_layer()
        a = (0.0, 0.0)
        loss = squared_error((0.9, 0.1), 1.0)
        e_out = loss.erosion(layer_forward(layer, a))
        s = layer_erosion_vector(layer, a, e_out)
        g = layer_gradient(layer, a, loss)
        for j in range(2):
            assert g.matrix.row(j) == (0.0, 0.0, s[j])

    def test_rank_one_structure(self):
        rng = random.Random(1414)
        for _ in range(30):
            layer = random_layer(rng, rng.randint(1, 5), rng.randint(1, 5))
            a = random_state(rng, layer.in_dim)
            g = layer_gradient(layer, a, random_loss(rng, layer.out_dim)).matrix
            n = layer.in_dim
            for j in range(g.rows):
                bias_entry = g[j, n]
                for i in range(n):
                    bound = 1e-10 * max(1.0, abs(g[j, i]), abs(bias_entry))
                    assert abs(g[j, i] - a[i] * bias_entry) <= bound

    def test_matches_finite_differences_all_activations(self):
        rng = random.Random(1515)
        cfg = FdConfig()
        for activation in all_activations():
            for _ in range(10):
                layer = random_layer(
                    rng, rng.randint(1, 6), rng.randint(1, 6), activation
                )
                a = random_state(rng, layer.in_dim, scale=1.5)
                loss = random_loss(rng, layer.out_dim)
                g = layer_gradient(layer, a, loss)
                fd = fd_layer_gradient(layer, a, loss, cfg)
                for x, y in zip(g.matrix.entries, fd.matrix.entries):
                    assert cfg.close(x, y)


class TestErosionTransformLayer:
    def test_worked_example_value(self):
        # frozen from the finite-difference derivative, checked again here
        _, b, _ = ref_forward_states()
        loss = mazur_loss()
        got = erosion_transform_net(Network.chain([second_layer()]), loss.erosion, b)
        assert got == pytest.approx((0.01817515, 0.02068516), abs=TOL8)

        eps = 1e-6
        fd = []
        for i in range(2):
            up = list(b)
            down = list(b)
            up[i] += eps
            down[i] -= eps
            fd.append(
                (
                    validity(layer_forward(second_layer(), tuple(up)), loss)
                    - validity(layer_forward(second_layer(), tuple(down)), loss)
                )
                / (2 * eps)
            )
        assert got == pytest.approx(tuple(fd), abs=1e-5)

    def test_zero_erosion(self):
        got = erosion_transform_net(
            Network.chain([second_layer()]), lambda y: (0.0, 0.0), (0.3, 0.7)
        )
        assert got == (0.0, 0.0)

    def test_semantic_identity_layer(self):
        layer = make_layer(((1.0, 0.0), (0.0, 1.0)), (0.0, 0.0), IDENTITY)
        erosion = squared_error((0.2, -0.4), 1.5).erosion
        x = (0.9, -0.1)
        assert erosion_transform_net(Network.chain([layer]), erosion, x) == erosion(x)


class TestErosionTransformNet:
    def test_empty_network(self):
        erosion = squared_error((1.0, 2.0), 0.5).erosion
        x = (0.5, 0.5)
        assert erosion_transform_net(identity_net(2), erosion, x) == erosion(x)

    @pytest.mark.parametrize("net", [identity_net(2), mazur_network()], ids=["empty", "mazur"])
    def test_erosion_length_checked(self, net):
        with pytest.raises(ShapeError, match="erosion has length 1, network emits 2"):
            erosion_transform_net(net, lambda y: (1.0,), (0.0, 0.0))

    def test_worked_example_against_finite_differences(self):
        net = mazur_network()
        loss = mazur_loss()
        got = erosion_transform_net(net, loss.erosion, INPUT)
        eps = 1e-6
        for i in range(2):
            up = list(INPUT)
            down = list(INPUT)
            up[i] += eps
            down[i] -= eps
            fd = (
                validity(net_forward(net, tuple(up)), loss)
                - validity(net_forward(net, tuple(down)), loss)
            ) / (2 * eps)
            assert abs(got[i] - fd) <= 1e-5

    def test_transformed_loss_erosion_is_same_code_path(self):
        rng = random.Random(1717)
        for _ in range(10):
            net = random_network(rng, rng.randint(1, 3), rng.randint(1, 3))
            loss = random_loss(rng, net.out_dim)
            through = transform_loss(net, loss)
            x = random_state(rng, net.in_dim)
            assert through.erosion(x) == erosion_transform_net(net, loss.erosion, x)

    def test_deep_network_needs_no_recursion(self):
        # deeper than the interpreter's default recursion limit of 1000
        layer = make_layer(((1.0,),), (0.0,), IDENTITY)
        net = Network.chain([layer] * 1200)
        loss = squared_error((0.25,), 0.5)
        x = (0.75,)
        _, trace = backprop_step(net, x, loss)
        assert transform_loss(net, loss).erosion(x) == trace.erosions[0] == (0.25,)


class TestMaskedUpdate:
    def test_worked_example_update(self):
        _, b, _ = ref_forward_states()
        layer = second_layer()
        g = layer_gradient(layer, b, mazur_loss())
        updated = masked_update(layer, g)
        for j in range(2):
            assert updated.transition.row(j) == pytest.approx(
                GOLD_UPDATED_SECOND[j], abs=TOL8
            )
        assert updated.mask == layer.mask
        assert updated.bias_mutable == layer.bias_mutable
        assert updated.activation == layer.activation

    def test_fully_frozen_layer_unchanged(self):
        layer = make_layer(
            SECOND_WEIGHTS,
            SECOND_BIAS,
            SIGMOID,
            mask=((False, False), (False, False)),
            bias_mutable=(False, False),
        )
        g = layer_gradient(layer, (0.3, 0.9), squared_error((0.0, 1.0), 2.0))
        assert masked_update(layer, g) == layer

    def test_zero_gradient_leaves_layer_unchanged(self):
        layer = second_layer()
        g = Gradient(Mat(2, 3, (0.0,) * 6))
        assert masked_update(layer, g) == layer

    def test_frozen_entries_bitwise_mutable_change_by_gradient(self):
        rng = random.Random(1818)
        for _ in range(30):
            layer = random_layer(
                rng, rng.randint(1, 5), rng.randint(1, 5), mask_density=0.5
            )
            a = random_state(rng, layer.in_dim)
            g = layer_gradient(layer, a, random_loss(rng, layer.out_dim))
            updated = masked_update(layer, g)
            n = layer.in_dim
            for j in range(layer.out_dim):
                for i in range(n):
                    old, new = layer.transition[j, i], updated.transition[j, i]
                    if layer.mask[j][i]:
                        assert new == old - g.matrix[j, i]
                    else:
                        assert new == old
                old, new = layer.transition[j, n], updated.transition[j, n]
                if layer.bias_mutable[j]:
                    assert new == old - g.matrix[j, n]
                else:
                    assert new == old

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            masked_update(second_layer(), Gradient(Mat(2, 2, (0.0,) * 4)))


class TestCompositeGradient:
    def test_two_layer_chain_rule_against_finite_differences(self):
        # gradient of the first layer against the loss pulled back
        # through the second equals the fd gradient of the composite
        rng = random.Random(1919)
        cfg = FdConfig()
        for _ in range(15):
            m, n, k = rng.randint(1, 4), rng.randint(1, 4), rng.randint(1, 4)
            inner = random_layer(rng, m, n)
            outer_layer = random_layer(rng, n, k)
            a = random_state(rng, m, scale=1.5)
            loss = random_loss(rng, k)
            pulled = transform_loss(Network.chain([outer_layer]), loss)
            g = layer_gradient(inner, a, pulled)
            fd = fd_layer_gradient(inner, a, pulled, cfg)
            for x, y in zip(g.matrix.entries, fd.matrix.entries):
                assert abs(x - y) <= 1e-5 * max(1.0, abs(x), abs(y))
