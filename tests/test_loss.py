import random
import re

import pytest

from nncat.activation import IDENTITY
from nncat.algebra import DomainError, ShapeError
from nncat.loss import (
    LossPredicate,
    squared_error,
    transform_loss,
    validity,
    validity_equation_check,
)
from nncat.network import Network, compose, identity_net, make_layer
from nncat.oracle import FdConfig, fd_erosion
from nncat.randnet import random_network, random_state

from helpers import GOLD_OUTPUT, RATE, TARGET, mazur_loss, mazur_network, random_loss


class TestSquaredError:
    def test_validity_at_worked_example_output(self):
        # oracle: direct evaluation of 0.5 * rate * sum of squares
        expected = 0.5 * RATE * (
            (GOLD_OUTPUT[0] - TARGET[0]) ** 2 + (GOLD_OUTPUT[1] - TARGET[1]) ** 2
        )
        got = validity(GOLD_OUTPUT, mazur_loss())
        assert got == expected
        assert got == pytest.approx(0.14918555, abs=1e-8)

    def test_zero_at_target(self):
        loss = squared_error((0.3, -0.7), 1.25)
        assert validity((0.3, -0.7), loss) == 0.0

    def test_zero_rate_collapses(self):
        loss = squared_error((1.0, 2.0), 0.0)
        assert validity((55.0, -3.0), loss) == 0.0

    def test_erosion_formula(self):
        loss = squared_error((1.0, -1.0), 2.0)
        assert loss.erosion((1.5, -0.5)) == (2.0 * 0.5, 2.0 * 0.5)

    def test_rejects_bad_rate(self):
        with pytest.raises(DomainError):
            squared_error((0.0,), -0.1)
        with pytest.raises(DomainError):
            squared_error((0.0,), float("nan"))

    def test_rejects_bad_target(self):
        with pytest.raises(DomainError):
            squared_error((float("inf"),), 0.5)

    def test_dimension_checked(self):
        loss = squared_error((0.1, 0.2), 0.5)
        with pytest.raises(ShapeError):
            validity((1.0,), loss)
        with pytest.raises(ShapeError):
            loss.erosion((1.0, 2.0, 3.0))

    def test_evaluator_checks_length_itself(self):
        # `validity` checks first; a direct call meets the evaluator's own check
        loss = squared_error((0.1, 0.2), 0.5)
        with pytest.raises(ShapeError, match=r"^loss expects 2 values, got 1$"):
            loss.evaluate((1.0,))


class TestTransformLoss:
    def test_identity_network_is_no_op(self):
        loss = squared_error((0.25, -0.5, 1.0), 0.75)
        through = transform_loss(identity_net(3), loss)
        rng = random.Random(9009)
        for _ in range(10):
            y = random_state(rng, 3)
            assert through.evaluate(y) == loss.evaluate(y)
            assert through.erosion(y) == loss.erosion(y)

    def test_descriptor_records_structure(self):
        net = mazur_network()
        through = transform_loss(net, mazur_loss())
        assert through.dim == net.in_dim

    def test_dimension_mismatch(self):
        with pytest.raises(ShapeError):
            transform_loss(mazur_network(), squared_error((0.1, 0.2, 0.3), 0.5))

    def test_nested_equals_composed_bitwise(self):
        rng = random.Random(1010)
        for _ in range(20):
            mid = rng.randint(1, 4)
            first = random_network(rng, rng.randint(1, 4), mid)
            second = random_network(rng, mid, rng.randint(1, 4))
            loss = random_loss(rng, second.out_dim)
            nested = transform_loss(first, transform_loss(second, loss))
            composed = transform_loss(compose(first, second), loss)
            for _ in range(5):
                x = random_state(rng, first.in_dim)
                assert nested.evaluate(x) == composed.evaluate(x)
                assert nested.erosion(x) == composed.erosion(x)

    @pytest.mark.parametrize(
        "weights, rate, text",
        [
            # the output erosion is -1e10; layer 1 pushes it back to -inf
            ((1e300, 1e300), 1e10, "-inf (layer 1)"),
            # layer 1 pushes back -1e10 and layer 0 overflows
            ((1e300, 1.0), 1e10, "-inf (layer 0)"),
        ],
    )
    def test_an_erosion_that_leaves_the_floats_names_its_layer(self, weights, rate, text):
        """1 x 1 identity layers, bias 0, at input 0: the pulled-back
        value is finite, and its erosion names the layer whose pushback
        first left the floats."""
        net = Network.chain([make_layer([[w]], [0.0], IDENTITY) for w in weights])
        pulled = transform_loss(net, squared_error((1.0,), rate))
        assert pulled.evaluate((0.0,)) == 0.5 * rate
        with pytest.raises(DomainError, match=f"^{re.escape('erosion is not finite: ' + text)}$"):
            pulled.erosion((0.0,))

    def test_erosion_matches_finite_differences(self):
        # gradient coherence for plain and transformed predicates
        rng = random.Random(1111)
        cfg = FdConfig()
        cases = []
        for _ in range(5):
            dim = rng.randint(1, 4)
            cases.append((random_loss(rng, dim), dim))
            net = random_network(rng, rng.randint(1, 3), dim)
            cases.append((transform_loss(net, random_loss(rng, dim)), net.in_dim))
        checked = 0
        for loss, dim in cases:
            for _ in range(5):
                y = random_state(rng, dim, scale=1.5)
                fd = fd_erosion(loss, y, cfg)
                got = loss.erosion(y)
                for g, f in zip(got, fd):
                    assert abs(g - f) <= 1e-5
                checked += 1
        assert checked == 50


class TestValidityEquation:
    def test_worked_example_bitwise(self):
        lhs, rhs = validity_equation_check(mazur_network(), (0.05, 0.1), mazur_loss())
        assert lhs == rhs

    def test_worked_example_against_published_output(self):
        # pulled-back validity at the input equals the loss at the
        # published output state, up to that state's 8-decimal rounding
        through = transform_loss(mazur_network(), mazur_loss())
        assert validity((0.05, 0.1), through) == pytest.approx(
            validity(GOLD_OUTPUT, mazur_loss()), abs=1e-8
        )

    def test_identity_network(self):
        loss = squared_error((0.5, 0.5), 1.0)
        x = (0.2, 0.8)
        lhs, rhs = validity_equation_check(identity_net(2), x, loss)
        assert lhs == rhs == validity(x, loss)

    def test_random_triples_bitwise(self):
        rng = random.Random(1212)
        for _ in range(100):
            net = random_network(rng, rng.randint(1, 4), rng.randint(1, 4))
            x = random_state(rng, net.in_dim)
            loss = random_loss(rng, net.out_dim)
            lhs, rhs = validity_equation_check(net, x, loss)
            assert lhs == rhs


class TestOpaqueLoss:
    def test_direct_construction(self):
        loss = LossPredicate(2, lambda y: y[0] * y[1], lambda y: (y[1], y[0]))
        assert validity((3.0, 4.0), loss) == 12.0
        lhs, rhs = validity_equation_check(mazur_network(), (0.05, 0.1), loss)
        assert lhs == rhs
