import math
import random

import pytest
from hypothesis import given, strategies as st

from nncat.activation import (
    ACTIVATIONS,
    IDENTITY,
    SIGMOID,
    SOFTPLUS,
    TANH,
    act_deriv_map,
    act_map,
    activation_from_tag,
)
from nncat.algebra import DomainError

from helpers import TOL8, all_activations


def act_value(alpha, z):
    """`act_map` on one coordinate."""
    (y,) = act_map(alpha, (z,))
    return y


def act_deriv(alpha, z):
    """`act_deriv_map` on one coordinate."""
    (d,) = act_deriv_map(alpha, (z,))
    return d


def central_diff(alpha, z, eps=1e-6):
    return (act_value(alpha, z + eps) - act_value(alpha, z - eps)) / (2.0 * eps)


class TestRegistry:
    def test_tags(self):
        assert sorted(ACTIVATIONS) == ["identity", "sigmoid", "softplus", "tanh"]

    def test_lookup(self):
        assert activation_from_tag("tanh") is TANH

    def test_unknown_tag(self):
        with pytest.raises(ValueError, match="relu"):
            activation_from_tag("relu")

    def test_equality_is_by_tag(self):
        assert activation_from_tag("sigmoid") == SIGMOID
        assert SIGMOID != TANH


class TestValues:
    def test_sigmoid_at_zero(self):
        assert act_value(SIGMOID, 0.0) == 0.5

    def test_sigmoid_at_worked_example_preactivation(self):
        assert act_value(SIGMOID, 0.3775) == pytest.approx(0.59326999, abs=TOL8)

    def test_identity_passthrough(self):
        for z in (-3.25, 0.0, 17.5):
            assert act_value(IDENTITY, z) == z

    def test_softplus_known_point(self):
        assert act_value(SOFTPLUS, 0.0) == pytest.approx(math.log(2.0), abs=1e-15)

    def test_extreme_arguments_stay_finite(self):
        for alpha in all_activations():
            for z in (-745.0, -50.0, 50.0, 745.0):
                assert math.isfinite(act_value(alpha, z))
                assert math.isfinite(act_deriv(alpha, z))

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_non_finite_rejected(self, bad):
        with pytest.raises(DomainError, match=rf"^activation input is not finite: {bad!r}$"):
            act_value(SIGMOID, bad)
        with pytest.raises(
            DomainError, match=rf"^activation derivative input is not finite: {bad!r}$"
        ):
            act_deriv(SIGMOID, bad)


class TestDerivatives:
    def test_sigmoid_deriv_at_zero(self):
        assert act_deriv(SIGMOID, 0.0) == 0.25

    def test_identity_deriv(self):
        for z in (-9.0, 0.0, 2.5):
            assert act_deriv(IDENTITY, z) == 1.0

    def test_sigmoid_deriv_at_worked_example_preactivation(self):
        # frozen from the central difference of the value (eps=1e-6);
        # also equals y*(1-y) at the example's first hidden coordinate
        z = 0.3775
        assert act_deriv(SIGMOID, z) == pytest.approx(0.24130071, abs=TOL8)
        assert act_deriv(SIGMOID, z) == pytest.approx(central_diff(SIGMOID, z), abs=1e-10)

    def test_tanh_softplus_closed_forms(self):
        for z in (-2.0, 0.1, 3.0):
            t = math.tanh(z)
            assert act_deriv(TANH, z) == 1.0 - t * t
            assert act_deriv(SOFTPLUS, z) == act_value(SIGMOID, z)

    def test_matches_central_differences_on_grid(self):
        # type-level bound: 1e-8 absolute across [-10, 10]
        for alpha in all_activations():
            for k in range(101):
                z = -10.0 + 0.2 * k
                assert abs(act_deriv(alpha, z) - central_diff(alpha, z)) <= 1e-8

    def test_matches_central_differences_sampled(self):
        rng = random.Random(5005)
        points = [rng.uniform(-10.0, 10.0) for _ in range(1000)]
        for alpha in all_activations():
            for z in points:
                assert abs(act_deriv(alpha, z) - central_diff(alpha, z)) <= 1e-6


class TestMaps:
    def test_sigmoid_over_worked_example_preactivations(self):
        got = act_map(SIGMOID, (0.3775, 0.3925))
        assert got == pytest.approx((0.59326999, 0.59688438), abs=TOL8)

    def test_identity_map(self):
        x = (1.0, -2.0, 3.5)
        assert act_map(IDENTITY, x) == x

    def test_sigmoid_of_zeros(self):
        assert act_map(SIGMOID, (0.0, 0.0)) == (0.5, 0.5)

    def test_deriv_map_componentwise(self):
        z = (-1.0, 0.5)
        assert act_deriv_map(TANH, z) == tuple(1.0 - t * t for t in map(math.tanh, z))

    def test_empty_vector(self):
        assert act_map(SIGMOID, ()) == ()


class TestRanges:
    @given(st.floats(min_value=-30.0, max_value=30.0))
    def test_sigmoid_strictly_inside_unit_interval(self, z):
        y = act_value(SIGMOID, z)
        assert 0.0 < y < 1.0

    @given(st.floats(min_value=-19.0, max_value=19.0))
    def test_tanh_strictly_inside_symmetric_interval(self, z):
        # 64-bit tanh saturates to exactly 1.0 past |z| ~ 19.06
        y = act_value(TANH, z)
        assert -1.0 < y < 1.0
