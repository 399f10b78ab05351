import random
import struct

import pytest

from nncat.activation import IDENTITY, SIGMOID, SOFTPLUS, TANH
from nncat.algebra import ShapeError
from nncat.backward import layer_gradient
from nncat.loss import LossPredicate, squared_error, transform_loss
from nncat.network import Network, identity_net, make_layer
from nncat.oracle import FdConfig, fd_erosion, fd_layer_gradient
from nncat.randnet import random_layer, random_network, random_state

from helpers import (
    FIRST_BIAS,
    FIRST_WEIGHTS,
    INPUT,
    SECOND_BIAS,
    SECOND_WEIGHTS,
    mazur_loss,
    mazur_network,
    random_loss,
    ref_forward_states,
)


def bits(values) -> bytes:
    return struct.pack(f"<{len(values)}d", *values)


class TestFdConfig:
    def test_defaults(self):
        cfg = FdConfig()
        assert cfg.eps == 1e-6
        assert cfg.tolerance == 1e-5

    @pytest.mark.parametrize("kwargs", [{"eps": 0.0}, {"eps": -1e-9}, {"tolerance": 0.0}])
    def test_rejects_non_positive(self, kwargs):
        with pytest.raises(ValueError):
            FdConfig(**kwargs)

    @pytest.mark.parametrize("eps", [float("inf"), 1e308, float("nan")])
    def test_rejects_eps_whose_double_is_not_finite(self, eps):
        with pytest.raises(ValueError, match=r"^eps must"):
            FdConfig(eps=eps)

    def test_large_eps_with_finite_double_accepted(self):
        assert FdConfig(eps=8e307).eps == 8e307

    @pytest.mark.parametrize("tolerance", [float("inf"), float("nan")])
    def test_rejects_non_finite_tolerance(self, tolerance):
        with pytest.raises(ValueError, match=r"^tolerance must be finite and > 0, got "):
            FdConfig(tolerance=tolerance)

    def test_mixed_comparison(self):
        cfg = FdConfig(tolerance=1e-3)
        # absolute branch around small values
        assert cfg.close(0.0, 0.5e-3)
        assert not cfg.close(0.0, 2e-3)
        # relative branch around large values
        assert cfg.close(1000.0, 1000.9)
        assert not cfg.close(1000.0, 1002.0)


class TestFdLayerGradient:
    def test_matches_analytic_on_worked_example(self):
        _, b, _ = ref_forward_states()
        layer = make_layer(SECOND_WEIGHTS, SECOND_BIAS, SIGMOID)
        cfg = FdConfig()
        fd = fd_layer_gradient(layer, b, mazur_loss(), cfg)
        analytic = layer_gradient(layer, b, mazur_loss())
        for x, y in zip(analytic.matrix.entries, fd.matrix.entries):
            assert cfg.close(x, y)

    def test_zero_erosion_loss_gives_zero_matrix(self):
        layer = make_layer(SECOND_WEIGHTS, SECOND_BIAS, SIGMOID)
        constant = LossPredicate(2, lambda y: 4.25, lambda y: (0.0, 0.0))
        fd = fd_layer_gradient(layer, (0.3, 0.7), constant)
        assert all(abs(v) <= 1e-9 for v in fd.matrix.entries)

    def test_linear_case_is_exact(self):
        # identity activation with a linear loss: every row of the
        # gradient is rate * (a, 1), and fd has no truncation error
        rate = 0.75
        linear = LossPredicate(
            2,
            lambda y: rate * (y[0] + y[1]),
            lambda y: (rate, rate),
        )
        layer = make_layer(((0.2, -0.4), (1.0, 0.3)), (0.1, -0.2), IDENTITY)
        a = (0.6, -1.2)
        fd = fd_layer_gradient(layer, a, linear)
        want = tuple(rate * v for v in a + (1.0,))
        for j in range(2):
            for i, w in enumerate(want):
                assert fd.matrix[j, i] == pytest.approx(w, abs=1e-8)

    def test_halving_eps_is_stable(self):
        rng = random.Random(2626)
        for activation in (SIGMOID, TANH, SOFTPLUS):
            layer = random_layer(rng, 3, 3, activation)
            a = random_state(rng, 3, scale=1.0)
            loss = random_loss(rng, 3)
            coarse = fd_layer_gradient(layer, a, loss, FdConfig(eps=1e-6))
            fine = fd_layer_gradient(layer, a, loss, FdConfig(eps=5e-7))
            for x, y in zip(coarse.matrix.entries, fine.matrix.entries):
                assert abs(x - y) < 10 * FdConfig().tolerance


class TestFdLayerGradientRest:
    def test_rest_must_take_the_layer_output(self):
        layer = make_layer(SECOND_WEIGHTS, SECOND_BIAS, SIGMOID)
        rest = random_network(random.Random(5), 3, 2, depth=1)
        with pytest.raises(ShapeError, match="rest expects 3 inputs, layer emits 2"):
            fd_layer_gradient(layer, (0.3, 0.7), mazur_loss(), rest=rest)

    @pytest.mark.parametrize("rest", [None, identity_net(2), mazur_network()])
    def test_loss_must_take_the_rest_output(self, rest):
        layer = make_layer(FIRST_WEIGHTS, FIRST_BIAS, SIGMOID)
        loss = squared_error((0.1, 0.2, 0.3), 0.5)
        with pytest.raises(ShapeError, match="loss of dimension 3 cannot follow a network producing 2"):
            fd_layer_gradient(layer, INPUT, loss, rest=rest)

    def test_empty_rest_is_no_rest(self):
        rng = random.Random(4242)
        for activation in (SIGMOID, TANH, IDENTITY, SOFTPLUS):
            n, k = rng.randint(0, 4), rng.randint(0, 4)
            layer = random_layer(rng, n, k, activation)
            a = random_state(rng, n, scale=1.0)
            loss = random_loss(rng, k)
            for eps in (1e-6, 1e-3):
                cfg = FdConfig(eps=eps)
                bare = fd_layer_gradient(layer, a, loss, cfg)
                empty = fd_layer_gradient(layer, a, loss, cfg, rest=identity_net(k))
                assert bits(empty.matrix.entries) == bits(bare.matrix.entries)

    def test_rest_is_keyword_only(self):
        layer = make_layer(SECOND_WEIGHTS, SECOND_BIAS, SIGMOID)
        with pytest.raises(TypeError):
            fd_layer_gradient(layer, (0.3, 0.7), mazur_loss(), FdConfig(), identity_net(2))


class TestFdErosion:
    def test_squared_error_analytic(self):
        cfg = FdConfig()
        loss = squared_error((0.1, -0.4), 1.5)
        y = (0.8, 0.2)
        fd = fd_erosion(loss, y, cfg)
        for f, e in zip(fd, loss.erosion(y)):
            assert cfg.close(f, e)

    def test_transformed_loss_matches_backward_transform(self):
        cfg = FdConfig()
        through = transform_loss(mazur_network(), mazur_loss())
        fd = fd_erosion(through, INPUT, cfg)
        for f, e in zip(fd, through.erosion(INPUT)):
            assert cfg.close(f, e)

    def test_constant_loss(self):
        constant = LossPredicate(3, lambda y: -2.0, lambda y: (0.0,) * 3)
        assert fd_erosion(constant, (1.0, 2.0, 3.0)) == (0.0, 0.0, 0.0)
