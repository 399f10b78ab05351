import random

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from nncat.algebra import DomainError, ShapeError, hadamard, kleisli_apply, outer, vec_mat, weights_part
from nncat.activation import IDENTITY, TANH, act_deriv_map
from nncat.backprop import SgdConfig, backprop_step, functoriality_check, train
from nncat.backward import layer_gradient, masked_update
from nncat.loss import squared_error, transform_loss, validity
from nncat.network import Network, compose, identity_net, make_layer, net_forward
from nncat.randnet import random_network, random_state

from helpers import (
    GOLD_UPDATED_FIRST,
    GOLD_UPDATED_SECOND,
    INPUT,
    TARGET,
    TOL8,
    all_activations,
    law_sides,
    mazur_loss,
    mazur_network,
    max_entry_dev,
    random_loss,
)


class TestBackpropStep:
    def test_worked_example_updates_both_matrices(self):
        updated, _ = backprop_step(mazur_network(), INPUT, mazur_loss())
        golden = (GOLD_UPDATED_FIRST, GOLD_UPDATED_SECOND)
        for layer, want in zip(updated.layers, golden):
            for j, row in enumerate(layer.transition.to_rows()):
                assert row == pytest.approx(want[j], abs=TOL8)

    def test_zero_rate_changes_nothing(self):
        net = mazur_network()
        updated, _ = backprop_step(net, INPUT, squared_error(TARGET, 0.0))
        assert updated == net

    def test_single_layer_agrees_with_direct_update(self):
        rng = random.Random(2020)
        for _ in range(10):
            net = random_network(rng, rng.randint(1, 4), rng.randint(1, 4), depth=1)
            a = random_state(rng, net.in_dim)
            loss = random_loss(rng, net.out_dim)
            stepped, _ = backprop_step(net, a, loss)
            direct = masked_update(net.layers[0], layer_gradient(net.layers[0], a, loss))
            assert stepped.layers[0] == direct

    def test_empty_network(self):
        net = identity_net(3)
        loss = random_loss(random.Random(21), 3)
        updated, trace = backprop_step(net, (1.0, 2.0, 3.0), loss)
        assert updated == net
        assert trace.states == ((1.0, 2.0, 3.0),)
        assert trace.erosions == (loss.erosion((1.0, 2.0, 3.0)),)
        assert trace.gradients == ()

    def test_shape_errors(self):
        with pytest.raises(ShapeError):
            backprop_step(mazur_network(), (0.05,), mazur_loss())
        with pytest.raises(ShapeError):
            backprop_step(mazur_network(), INPUT, squared_error((0.1,), 0.5))

    def test_non_finite_gradient_raises(self):
        # the erosion overflows to inf, so the gradient matrix cannot be built
        net = Network.chain([make_layer(((1.0,),), (0.0,), IDENTITY)])
        with pytest.raises(DomainError, match="matrix entry is not finite: inf"):
            backprop_step(net, (1e200,), squared_error((0.0,), 1e200))

    def test_non_finite_update_names_its_layer(self):
        # only the last layer's gradient overflows, and the layers raise last first
        net = Network.chain([
            make_layer(((1.0,),), (0.0,), IDENTITY),
            make_layer(((1e-200,),), (0.0,), IDENTITY),
        ])
        with pytest.raises(DomainError, match=r"^matrix entry is not finite: inf \(layer 1\)$"):
            backprop_step(net, (1e200,), squared_error((0.0,), 1e120))

    def test_non_finite_forward_names_its_layer(self):
        # the second layer's pre-activation overflows before any update
        net = Network.chain([
            make_layer(((1.0,),), (0.0,), IDENTITY),
            make_layer(((1e308,),), (0.0,), TANH),
        ])
        with pytest.raises(DomainError, match=r"^activation input is not finite: inf \(layer 1\)$"):
            backprop_step(net, (2.0,), squared_error((0.0,), 1.0))
        # the forward pass alone runs the same forward loop and names the same layer
        with pytest.raises(DomainError, match=r"^activation input is not finite: inf \(layer 1\)$"):
            net_forward(net, (2.0,))

    def test_gradients_built_on_first_access(self):
        _, trace = backprop_step(mazur_network(), INPUT, mazur_loss())
        assert "gradients" not in vars(trace)
        gradients = trace.gradients
        assert trace.gradients is gradients
        for g, s, a in zip(gradients, trace.signals, trace.states):
            assert g.matrix == outer(s, a + (1.0,))


class TestTraceInvariants:
    def test_states_and_erosions_recursion(self):
        # the fused step must equal the primitives it replaces, bitwise
        rng = random.Random(2121)
        nets = [
            random_network(
                rng, rng.randint(1, 4), rng.randint(1, 4),
                activations=all_activations(), mask_density=0.5,
            )
            for _ in range(15)
        ] + [identity_net(3)]
        for net in nets:
            a = random_state(rng, net.in_dim)
            loss = random_loss(rng, net.out_dim)
            stepped, trace = backprop_step(net, a, loss)

            m = len(net.layers)
            assert len(trace.states) == m + 1
            assert len(trace.erosions) == m + 1
            assert len(trace.gradients) == m

            assert trace.states[0] == a
            assert trace.states[-1] == net_forward(net, a)
            assert trace.erosions[-1] == loss.erosion(trace.states[-1])

            for i, layer in enumerate(net.layers):
                assert len(trace.states[i + 1]) == layer.out_dim
                # recompute the signal and check the backward recursion
                z = kleisli_apply(layer.transition, trace.states[i])
                if layer.activation.tag == "sigmoid":
                    y = trace.states[i + 1]
                    s = hadamard(
                        hadamard(trace.erosions[i + 1], y), tuple(1.0 - v for v in y)
                    )
                else:
                    s = hadamard(
                        trace.erosions[i + 1], act_deriv_map(layer.activation, z)
                    )
                assert trace.erosions[i] == vec_mat(s, weights_part(layer.transition))
                gradient = trace.gradients[i]
                assert gradient.matrix.entries == outer(s, trace.states[i] + (1.0,)).entries
                assert stepped.layers[i] == masked_update(layer, gradient)

    def test_gradients_match_suffix_loss_definition(self):
        rng = random.Random(2222)
        for _ in range(15):
            net = random_network(rng, rng.randint(1, 5), rng.randint(1, 5), depth=rng.randint(1, 4), max_width=5)
            a = random_state(rng, net.in_dim)
            loss = random_loss(rng, net.out_dim)
            _, trace = backprop_step(net, a, loss)
            for i, layer in enumerate(net.layers):
                suffix = Network(net.layers[i + 1 :], layer.out_dim, net.out_dim)
                direct = layer_gradient(layer, trace.states[i], transform_loss(suffix, loss))
                assert max_entry_dev(trace.gradients[i].matrix, direct.matrix) <= 1e-12

    def test_pulled_back_loss_endpoint(self):
        # the loss chain built by pulling back one layer at a time ends
        # at a predicate whose validity at the input matches the output
        # loss bitwise
        rng = random.Random(2323)
        for _ in range(10):
            net = random_network(rng, rng.randint(1, 4), rng.randint(1, 4))
            a = random_state(rng, net.in_dim)
            loss = random_loss(rng, net.out_dim)
            start = loss
            for layer in reversed(net.layers):
                start = transform_loss(Network.chain([layer]), start)
            assert validity(a, start) == validity(net_forward(net, a), loss)
            assert validity(a, transform_loss(net, loss)) == validity(
                net_forward(net, a), loss
            )


class TestFunctoriality:
    def test_worked_example_split(self):
        net = mazur_network()
        first = Network.chain(net.layers[:1])
        second = Network.chain(net.layers[1:])
        assert functoriality_check(first, second, INPUT, mazur_loss())

    def test_identity_suffix_trivial(self):
        net = mazur_network()
        assert functoriality_check(net, identity_net(2), INPUT, mazur_loss())
        assert functoriality_check(identity_net(2), net, INPUT, mazur_loss())

    def test_random_pairs(self):
        rng = random.Random(2424)
        for _ in range(30):
            mid = rng.randint(1, 4)
            first = random_network(rng, rng.randint(1, 4), mid)
            second = random_network(rng, mid, rng.randint(1, 4))
            a = random_state(rng, first.in_dim)
            loss = random_loss(rng, second.out_dim)
            assert functoriality_check(first, second, a, loss)

    def test_exact_on_pure_composites(self):
        # the law is bitwise, so a bound of 0 holds
        net = mazur_network()
        assert functoriality_check(
            Network.chain(net.layers[:1]), Network.chain(net.layers[1:]), INPUT, mazur_loss(),
            tol=0.0,
        )
        rng = random.Random(2425)
        for _ in range(10):
            mid = rng.randint(1, 4)
            first = random_network(rng, rng.randint(1, 4), mid)
            second = random_network(rng, mid, rng.randint(1, 4))
            a = random_state(rng, first.in_dim)
            assert functoriality_check(first, second, a, random_loss(rng, second.out_dim), tol=0.0)

    def test_detects_disagreement(self):
        # sanity check that the comparison can fail: compare against a
        # deliberately different loss on one side
        net = mazur_network()
        first = Network.chain(net.layers[:1])
        second = Network.chain(net.layers[1:])
        stepped, _ = backprop_step(compose(first, second), INPUT, mazur_loss())
        other, _ = backprop_step(compose(first, second), INPUT, squared_error((0.9, 0.1), 0.5))
        assert any(
            max_entry_dev(a.transition, b.transition) > 1e-12
            for a, b in zip(stepped.layers, other.layers)
        )


# a mutable flag at mask density 1, 0.5 and 0.1
FLAGS = [st.just(True), st.booleans(), st.sampled_from((True,) + (False,) * 9)]


@st.composite
def pure_splits(draw):
    """(first, second, a, loss): 1-3 layers on each side, dims 1-5, any
    activation, one mask density."""
    weight, state = st.floats(-2.0, 2.0), st.floats(-2.0, 2.0)
    flag = draw(st.sampled_from(FLAGS))
    sides = []
    dim = draw(st.integers(1, 5))
    for _ in range(2):
        layers = []
        for _ in range(draw(st.integers(1, 3))):
            n, dim = dim, draw(st.integers(1, 5))
            layers.append(
                make_layer(
                    [[draw(weight) for _ in range(n)] for _ in range(dim)],
                    [draw(weight) for _ in range(dim)],
                    draw(st.sampled_from(all_activations())),
                    tuple(tuple(draw(flag) for _ in range(n)) for _ in range(dim)),
                    tuple(draw(flag) for _ in range(dim)),
                )
            )
        sides.append(Network.chain(layers))
    first, second = sides
    a = draw(st.tuples(*[state] * first.in_dim))
    target = draw(st.tuples(*[state] * second.out_dim))
    return first, second, a, squared_error(target, draw(st.floats(0.0, 2.0)))


@settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(case=pure_splits())
def test_compositionality_is_bitwise(case):
    """Backprop is functorial by construction: the step of a composite
    has, entry for entry, the bits of the composite of its parts' steps,
    so 0.0 and -0.0 differ too."""
    whole, split = law_sides(*case)
    assert whole == split


class TestTrain:
    def test_single_row_epoch_equals_one_step(self):
        net = mazur_network()
        trained, losses = train(net, [(INPUT, TARGET)], 0.5, SgdConfig(1))
        stepped, _ = backprop_step(net, INPUT, mazur_loss())
        assert trained == stepped
        assert losses == [validity(net_forward(net, INPUT), mazur_loss())]

    def test_zero_epochs(self):
        net = mazur_network()
        trained, losses = train(net, [(INPUT, TARGET)], 0.5, SgdConfig(0))
        assert trained == net
        assert losses == []

    def test_zero_epochs_builds_no_loss(self):
        # an infinite rate makes no loss, and zero epochs need none
        net = mazur_network()
        trained, losses = train(net, [(INPUT, TARGET)], float("inf"), SgdConfig(0))
        assert trained is net
        assert losses == []

    def test_loss_recorded_before_update(self):
        net = mazur_network()
        _, losses = train(net, [(INPUT, TARGET)], 0.5, SgdConfig(3))
        assert losses[0] == validity(net_forward(net, INPUT), mazur_loss())
        assert losses[0] > losses[1] > losses[2]

    def test_one_step_strictly_decreases_validity(self):
        net = mazur_network()
        loss = mazur_loss()
        before = validity(net_forward(net, INPUT), loss)
        stepped, _ = backprop_step(net, INPUT, loss)
        after = validity(net_forward(stepped, INPUT), loss)
        assert after < before

    def test_multi_row_fixed_order(self):
        rng = random.Random(2525)
        net = random_network(rng, 2, 2, depth=2)
        rows = [
            (random_state(rng, 2, scale=1.0), random_state(rng, 2, scale=0.8))
            for _ in range(3)
        ]
        trained, losses = train(net, rows, 0.3, SgdConfig(2))
        assert len(losses) == 6
        # replay by hand in the same order
        replay = net
        expected = []
        for _ in range(2):
            for x, t in rows:
                loss = squared_error(t, 0.3)
                expected.append(validity(net_forward(replay, x), loss))
                replay, _ = backprop_step(replay, x, loss)
        assert losses == expected
        assert trained == replay

    def test_diverging_forward_names_epoch_row_and_layer(self):
        net = Network.chain([make_layer(((1e308,),), (0.0,), TANH)])
        rows = [((0.0,), (0.0,)), ((2.0,), (0.0,))]
        with pytest.raises(
            DomainError, match=r"^epoch 1, row 2: activation input is not finite: inf \(layer 0\)$"
        ):
            train(net, rows, 1.0, SgdConfig(1))

    def test_rejects_empty_dataset(self):
        with pytest.raises(ValueError, match="empty"):
            train(mazur_network(), [], 0.5, SgdConfig(1))

    def test_rejects_bad_rate(self):
        with pytest.raises(ValueError):
            train(mazur_network(), [(INPUT, TARGET)], 0.0, SgdConfig(1))

    def test_rejects_bad_rows(self):
        with pytest.raises(ShapeError, match="row 0"):
            train(mazur_network(), [((0.1,), TARGET)], 0.5, SgdConfig(1))

    def test_config_validation(self):
        with pytest.raises(ValueError):
            SgdConfig(-1)
