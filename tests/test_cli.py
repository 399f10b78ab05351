import contextlib
import hashlib
import io
import json
import tempfile
from pathlib import Path

import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

import nncat.demo
from nncat.activation import IDENTITY, TANH
from nncat.cli import main
from nncat.fileio import parse_network, read_network, serialize_network, write_network
from nncat.network import Network, identity_net, make_layer

from helpers import (
    GOLD_UPDATED_FIRST,
    GOLD_UPDATED_SECOND,
    TOL8,
    mazur_network,
)


@pytest.fixture()
def mazur_file(tmp_path):
    path = tmp_path / "mazur.json"
    write_network(path, mazur_network())
    return str(path)


@pytest.fixture()
def mazur_data(tmp_path):
    path = tmp_path / "mazur.csv"
    path.write_text("0.05,0.1,0.01,0.99\n")
    return str(path)


def run(argv):
    try:
        return main(argv)
    except SystemExit as exc:  # argparse usage errors
        return exc.code


class TestForward:
    def test_worked_example_output(self, mazur_file, capsys):
        assert run(["forward", "--net", mazur_file, "--input", "0.05,0.1"]) == 0
        assert capsys.readouterr().out == "0.75136507,0.77292847\n"

    def test_identity_network(self, tmp_path, capsys):
        path = tmp_path / "id.json"
        write_network(path, identity_net(2))
        assert run(["forward", "--net", str(path), "--input", "1,2"]) == 0
        assert capsys.readouterr().out == "1.00000000,2.00000000\n"

    def test_wrong_input_length(self, mazur_file, capsys):
        assert run(["forward", "--net", mazur_file, "--input", "1,2,3"]) == 2
        assert "expects 2 inputs" in capsys.readouterr().err

    def test_unparsable_network(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{broken")
        assert run(["forward", "--net", str(bad), "--input", "1,2"]) == 2
        assert "bad.json" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "text",
        [
            '{"in_dim": 1, "layers": [{"weights": [[1' + "0" * 400 + ']], '
            '"bias": [0.0], "activation": "identity"}]}',
            '{"in_dim": 1, "layers": [{"weights": [[1' + "0" * 5000 + ']], '
            '"bias": [0.0], "activation": "identity"}]}',
            "[" * 100_000,
        ],
        ids=["integer-too-big-for-float", "integer-over-digit-limit", "nested-too-deep"],
    )
    def test_unrepresentable_network_is_parse_error(self, tmp_path, capsys, text):
        bad = tmp_path / "bad.json"
        bad.write_text(text)
        assert run(["forward", "--net", str(bad), "--input=0.5"]) == 2
        assert "bad.json" in capsys.readouterr().err

    def test_malformed_layer_names_file_and_layer(self, tmp_path, capsys):
        # CI runs the same file through `python -m nncat`
        bad = tmp_path / "bad.json"
        layer = '{"weights": [[1.0]], "bias": [0.0], "activation": "identity"'
        bad.write_text(f'{{"layers": [{layer}}}, {layer}, "mask": [[1]]}}]}}')
        assert run(["forward", "--net", str(bad), "--input", "1"]) == 2
        err = capsys.readouterr().err
        assert err == f"nncat: error: {bad}: layer 1: mask must be an array of boolean arrays\n"

    def test_missing_network_file(self, tmp_path, capsys):
        missing = tmp_path / "nowhere.json"
        assert run(["forward", "--net", str(missing), "--input", "1,2"]) == 2
        assert "nowhere.json" in capsys.readouterr().err

    def test_bad_input_literal(self, mazur_file, capsys):
        assert run(["forward", "--net", mazur_file, "--input", "1,x"]) == 2
        assert capsys.readouterr().err == "nncat: error: --input: entry 1 is not a number: 'x'\n"

    def test_missing_argument_is_usage_error(self):
        assert run(["forward", "--net", "whatever"]) == 2

    def test_overflowing_forward_pass_is_error(self, tmp_path, capsys):
        path = tmp_path / "big.json"
        write_network(path, Network.chain([make_layer(((1e300,),), (0.0,), IDENTITY)]))
        assert run(["forward", "--net", str(path), "--input", "1e300"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("nncat: error: ")
        # `forward` runs the sweep's forward loop, so its message names the layer
        assert err == f"nncat: error: {path}: activation input is not finite: inf (layer 0)\n"


class TestTrain:
    def test_one_epoch_reproduces_worked_example(self, mazur_file, mazur_data, tmp_path, capsys):
        out = tmp_path / "out.json"
        trace = tmp_path / "trace.csv"
        code = run(
            ["train", "--net", mazur_file, "--data", mazur_data, "--eta", "0.5",
             "--epochs", "1", "--out", str(out), "--trace", str(trace)]
        )
        assert code == 0
        trained = read_network(out)
        golden = (GOLD_UPDATED_FIRST, GOLD_UPDATED_SECOND)
        for layer, want in zip(trained.layers, golden):
            for j, row in enumerate(layer.transition.to_rows()):
                assert row == pytest.approx(want[j], abs=TOL8)
        assert trace.read_text() == "1,0.14918555\n"

    def test_an_inner_step_records_its_loss_before_the_update(
        self, mazur_file, mazur_data, tmp_path
    ):
        # with two epochs the first step is not `train`'s last, which is
        # `backprop_step`, so this reads the loss of an inner step
        out = tmp_path / "out.json"
        trace = tmp_path / "trace.csv"
        assert run(
            ["train", "--net", mazur_file, "--data", mazur_data, "--eta", "0.5",
             "--epochs", "2", "--out", str(out), "--trace", str(trace)]
        ) == 0
        assert trace.read_text().splitlines()[0] == "1,0.14918555"

    def test_zero_epochs_keeps_network(self, mazur_file, mazur_data, tmp_path):
        out = tmp_path / "out.json"
        trace = tmp_path / "trace.csv"
        assert run(
            ["train", "--net", mazur_file, "--data", mazur_data, "--eta", "0.5",
             "--epochs", "0", "--out", str(out), "--trace", str(trace)]
        ) == 0
        assert read_network(out) == mazur_network()
        assert trace.read_text() == ""

    def test_byte_deterministic(self, mazur_file, mazur_data, tmp_path):
        outputs = []
        for tag in ("a", "b"):
            out = tmp_path / f"out{tag}.json"
            trace = tmp_path / f"trace{tag}.csv"
            assert run(
                ["train", "--net", mazur_file, "--data", mazur_data, "--eta", "0.5",
                 "--epochs", "7", "--out", str(out), "--trace", str(trace)]
            ) == 0
            outputs.append((out.read_bytes(), trace.read_bytes()))
        assert outputs[0] == outputs[1]

    def test_long_run_trace_converges(self, mazur_file, mazur_data, tmp_path):
        out = tmp_path / "out.json"
        trace = tmp_path / "trace.csv"
        assert run(
            ["train", "--net", mazur_file, "--data", mazur_data, "--eta", "0.5",
             "--epochs", "10000", "--out", str(out), "--trace", str(trace)]
        ) == 0
        last = trace.read_text().splitlines()[-1]
        step, loss = last.split(",")
        assert step == "10000"
        assert float(loss) < 1e-4

    def test_empty_dataset(self, mazur_file, tmp_path, capsys):
        data = tmp_path / "empty.csv"
        data.write_text("")
        assert run(
            ["train", "--net", mazur_file, "--data", str(data), "--eta", "0.5",
             "--epochs", "1", "--out", str(tmp_path / "o.json"),
             "--trace", str(tmp_path / "t.csv")]
        ) == 2
        assert "empty" in capsys.readouterr().err

    def test_bad_eta(self, mazur_file, mazur_data, tmp_path, capsys):
        assert run(
            ["train", "--net", mazur_file, "--data", mazur_data, "--eta", "0",
             "--epochs", "1", "--out", str(tmp_path / "o.json"),
             "--trace", str(tmp_path / "t.csv")]
        ) == 2

    def test_malformed_row(self, mazur_file, tmp_path, capsys):
        data = tmp_path / "bad.csv"
        data.write_text("0.05,0.1,0.01\n")
        assert run(
            ["train", "--net", mazur_file, "--data", str(data), "--eta", "0.5",
             "--epochs", "1", "--out", str(tmp_path / "o.json"),
             "--trace", str(tmp_path / "t.csv")]
        ) == 2
        assert "4 values" in capsys.readouterr().err

    def test_diverging_step_fails_without_output(self, tmp_path, capsys):
        net = tmp_path / "id.json"
        write_network(net, Network.chain([make_layer(((1.0,),), (0.0,), IDENTITY)]))
        data = tmp_path / "rows.csv"
        data.write_text("1e200,0\n")
        out = tmp_path / "o.json"
        assert run(
            ["train", "--net", str(net), "--data", str(data), "--eta", "1e200",
             "--epochs", "1", "--out", str(out), "--trace", str(tmp_path / "t.csv")]
        ) == 2
        assert "epoch 1, row 1: matrix entry is not finite: inf" in capsys.readouterr().err
        assert not out.exists()

    def test_diverging_forward_names_its_layer(self, tmp_path, capsys):
        net = tmp_path / "tanh.json"
        write_network(net, Network.chain([make_layer(((1e308,),), (0.0,), TANH)]))
        data = tmp_path / "rows.csv"
        data.write_text("2.0,0\n")
        out = tmp_path / "o.json"
        trace = tmp_path / "t.csv"
        assert run(
            ["train", "--net", str(net), "--data", str(data), "--eta", "1",
             "--epochs", "1", "--out", str(out), "--trace", str(trace)]
        ) == 2
        captured = capsys.readouterr()
        assert captured.err == (
            "nncat: error: epoch 1, row 1: activation input is not finite: inf (layer 0)\n"
        )
        assert captured.out == ""
        assert not out.exists() and not trace.exists()

    def test_non_finite_loss_fails_without_output(self, tmp_path, capsys):
        # the step stays finite; the loss, 0.5 * 1e300 * 1e10, is not
        net = tmp_path / "id.json"
        write_network(net, Network.chain([make_layer(((1.0,),), (1e5,), IDENTITY)]))
        data = tmp_path / "rows.csv"
        data.write_text("1e-10,0\n")
        out = tmp_path / "o.json"
        trace = tmp_path / "t.csv"
        assert run(
            ["train", "--net", str(net), "--data", str(data), "--eta", "1e300",
             "--epochs", "1", "--out", str(out), "--trace", str(trace)]
        ) == 2
        captured = capsys.readouterr()
        assert captured.err == "nncat: error: epoch 1, row 1: loss is not finite: inf\n"
        assert captured.out == ""
        assert not out.exists() and not trace.exists()


class TestGradcheck:
    def args(self, mazur_file, **overrides):
        base = {
            "--net": mazur_file,
            "--input": "0.05,0.1",
            "--target": "0.01,0.99",
            "--eta": "0.5",
        }
        base.update(overrides)
        out = ["gradcheck"]
        for key, value in base.items():
            if value is not None:
                out.extend([key, value])
        return out

    def test_worked_example_passes(self, mazur_file, capsys):
        assert run(self.args(mazur_file)) == 0
        out = capsys.readouterr().out
        assert "layer 0" in out and "layer 1" in out and "FAIL" not in out

    def test_zero_tolerance_fails(self, mazur_file, capsys):
        assert run(self.args(mazur_file, **{"--tol": "0"})) == 1
        assert "FAIL" in capsys.readouterr().out

    @pytest.mark.parametrize("tol", ["-1", "nan"])
    def test_bad_tolerance_is_usage_error(self, mazur_file, capsys, tol):
        assert run(self.args(mazur_file, **{"--tol": tol})) == 2
        captured = capsys.readouterr()
        assert f"--tol must be >= 0, got {float(tol)}" in captured.err
        assert captured.out == ""

    def test_seeded_random_network(self, capsys):
        argv = ["gradcheck", "--seed", "42", "--input", "0.2,-0.4",
                "--target", "0.3,0.6,0.1", "--eta", "0.25"]
        assert run(argv) == 0
        out = capsys.readouterr().out
        assert out.count("layer") == 3  # three random layers

    def test_env_var_overrides_seed(self, capsys, monkeypatch):
        argv = ["gradcheck", "--seed", "1", "--input", "0.2,-0.4",
                "--target", "0.3,0.6", "--eta", "0.25"]
        monkeypatch.setenv("NNCAT_SEED", "99")
        assert run(argv) == 0
        with_env = capsys.readouterr().out
        monkeypatch.delenv("NNCAT_SEED")
        assert run(["gradcheck", "--seed", "99", "--input", "0.2,-0.4",
                    "--target", "0.3,0.6", "--eta", "0.25"]) == 0
        assert capsys.readouterr().out == with_env

    def test_requires_some_network_source(self, capsys, monkeypatch):
        monkeypatch.delenv("NNCAT_SEED", raising=False)
        argv = ["gradcheck", "--input", "0.1", "--target", "0.2", "--eta", "0.5"]
        assert run(argv) == 2
        assert "--seed" in capsys.readouterr().err

    def test_net_and_seed_conflict(self, mazur_file):
        assert run(self.args(mazur_file, **{"--seed": "3"})) == 2

    @pytest.mark.parametrize(
        "option, value, text",
        [("--input", "x,1", "entry 0 is not a number: 'x'"),
         ("--target", "0.1,zz", "entry 1 is not a number: 'zz'")],
    )
    def test_bad_vector_names_its_option(self, mazur_file, capsys, option, value, text):
        assert run(self.args(mazur_file, **{option: value})) == 2
        assert capsys.readouterr().err == f"nncat: error: {option}: {text}\n"

    @pytest.mark.parametrize(
        "option, value, text",
        [("--input", "0.1,1,3", "network expects 2 inputs, got 3"),
         ("--target", "0.1", "loss of dimension 1 vs network output 2")],
    )
    def test_shape_error_names_the_network_file(self, mazur_file, capsys, option, value, text):
        assert run(self.args(mazur_file, **{option: value})) == 2
        assert capsys.readouterr() == ("", f"nncat: error: {mazur_file}: {text}\n")

    def test_overflowing_finite_difference_is_error(self, capsys):
        argv = ["gradcheck", "--seed", "1", "--input", "1e10,1e10", "--target", "0.5",
                "--eta", "0.1", "--eps", "1e300"]
        assert run(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("nncat: error: layer 0: ")
        assert "not finite" in err

    def test_overflowing_finite_difference_names_the_network_file(self, mazur_file, capsys):
        """With `--net` the file comes first; with `--seed`, above, there is none."""
        argv = self.args(mazur_file, **{"--input": "1e10,1e10", "--eps": "1e300"})
        assert run(argv) == 2
        assert capsys.readouterr().err == (
            f"nncat: error: {mazur_file}: layer 0: finite differences at --eps 1e+300: "
            "activation input is not finite: inf\n"
        )

    def test_values_may_start_with_minus(self, capsys):
        argv = ["gradcheck", "--seed", "42", "--input", "-0.2,0.4",
                "--target", "0.3,0.6,0.1", "--eta", "0.25"]
        assert run(argv) == 0
        assert capsys.readouterr().out.count(" ok\n") == 3

    def test_seeded_stdout_is_pinned(self, capsys, monkeypatch):
        # README's seeded command; the deviations it prints pin the
        # oracle's bits to four significant digits
        monkeypatch.delenv("NNCAT_SEED", raising=False)
        argv = ["gradcheck", "--seed", "42", "--input=-0.2,0.4",
                "--target=0.3,0.6,0.1", "--eta", "0.25"]
        assert run(argv) == 0
        out = capsys.readouterr().out.encode()
        assert hashlib.sha256(out).hexdigest() == (
            "1c8d6ad21190e59657a5f83d8ada1e475d993eca0503d46690dc73e671cf087c"
        )

    def test_negative_eps_reaches_its_check(self, mazur_file, capsys):
        assert run(self.args(mazur_file, **{"--eps": "-1e-6"})) == 2
        assert "eps must be > 0, got -1e-06" in capsys.readouterr().err

    @pytest.mark.parametrize("eps", ["inf", "1e308"])
    def test_eps_whose_double_overflows_is_usage_error(self, capsys, monkeypatch, eps):
        # README's seeded command; the message blames --eps, not a weight
        monkeypatch.delenv("NNCAT_SEED", raising=False)
        argv = ["gradcheck", "--seed", "42", "--input=-0.2,0.4",
                "--target=0.3,0.6,0.1", "--eta", "0.25", "--eps", eps]
        assert run(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            f"nncat: error: eps must leave 2 * eps finite, got {float(eps)!r}\n"
        )

    def test_network_without_layers_has_nothing_to_check(self, tmp_path, capsys):
        path = tmp_path / "empty.json"
        write_network(path, identity_net(2))
        argv = ["gradcheck", "--net", str(path), "--input", "0.05,0.1",
                "--target", "0.01,0.99", "--eta", "0.5"]
        assert run(argv) == 0
        assert capsys.readouterr().out == "network has no layers; nothing to check\n"

    def test_abbreviated_option_takes_minus_value(self, capsys):
        tail = ["--target", "0.3,0.6,0.1", "--eta", "0.25"]
        assert run(["gradcheck", "--seed", "42", "--input=-0.2,0.4", *tail]) == 0
        spelled_out = capsys.readouterr().out
        assert run(["gradcheck", "--se", "42", "--inp", "-0.2,0.4", *tail]) == 0
        assert capsys.readouterr().out == spelled_out

    def test_bad_env_seed_is_usage_error(self, capsys, monkeypatch):
        monkeypatch.setenv("NNCAT_SEED", "forty-two")
        argv = ["gradcheck", "--input", "0.1", "--target", "0.2", "--eta", "0.5"]
        assert run(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("nncat: error: ") and "'forty-two'" in err

    def test_option_is_not_taken_for_a_value(self, mazur_file, capsys):
        assert run(self.args(mazur_file, **{"--input": "--target"})) == 2
        assert "--input: expected one argument" in capsys.readouterr().err


def test_every_command_names_the_layer_that_overflows(tmp_path, capsys):
    """One file whose layer 0 overflows in the forward pass: `forward`,
    `train` and `gradcheck` run the same forward loop, so each names the
    layer alike; `forward` and `gradcheck` also name their file and
    `train` the row."""
    net = tmp_path / "ovf.json"
    write_network(net, Network.chain([make_layer(((1e308,),), (0.0,), TANH)]))
    data = tmp_path / "rows.csv"
    data.write_text("2.0,0\n")
    text = "activation input is not finite: inf (layer 0)\n"
    commands = [
        (["forward", "--net", str(net), "--input", "2.0"], f"{net}: {text}"),
        (["train", "--net", str(net), "--data", str(data), "--eta", "1", "--epochs", "1",
          "--out", str(tmp_path / "o.json"), "--trace", str(tmp_path / "t.csv")],
         f"epoch 1, row 1: {text}"),
        (["gradcheck", "--net", str(net), "--input", "2.0", "--target", "0", "--eta", "1"],
         f"{net}: {text}"),
    ]
    for argv, want in commands:
        assert run(argv) == 2
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == ("", f"nncat: error: {want}")


class TestUnreadableInput:
    @pytest.mark.parametrize("command", ["forward", "train", "gradcheck"])
    def test_file_not_utf8_is_parse_error(self, mazur_file, tmp_path, capsys, command):
        bad = tmp_path / "latin.bin"
        bad.write_bytes(b"\xff0.5")
        argv = {
            "forward": ["forward", "--net", str(bad), "--input", "0.5"],
            "train": ["train", "--net", mazur_file, "--data", str(bad), "--eta", "0.5",
                      "--epochs", "1", "--out", str(tmp_path / "o.json"),
                      "--trace", str(tmp_path / "t.csv")],
            "gradcheck": ["gradcheck", "--net", str(bad), "--input", "0.5",
                          "--target", "0.5", "--eta", "0.5"],
        }[command]
        assert run(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("nncat: error: ") and "latin.bin" in err


class TestDemo:
    def test_all_values_match(self, capsys):
        assert run(["demo", "mazur"]) == 0
        out = capsys.readouterr().out
        assert "result: all values match" in out
        assert "MISMATCH" not in out

    def test_byte_identical_runs(self, capsys):
        assert run(["demo", "mazur"]) == 0
        first = capsys.readouterr().out
        assert run(["demo", "mazur"]) == 0
        assert capsys.readouterr().out == first

    def test_perturbed_constants_detected(self, capsys, monkeypatch):
        tweaked = dict(nncat.demo.GOLDEN)
        tweaked["hidden"] = (0.5, tweaked["hidden"][1])
        monkeypatch.setattr(nncat.demo, "GOLDEN", tweaked)
        assert run(["demo", "mazur"]) == 1
        assert "MISMATCH" in capsys.readouterr().out

    def test_unknown_example_rejected(self):
        assert run(["demo", "other"]) == 2


class TestSerializedBytes:
    def test_network_file_is_shortest_round_trip_json(self):
        net = mazur_network()
        text = serialize_network(net)
        doc = json.loads(text)
        assert doc["layers"][0]["weights"][0] == [0.15, 0.2]
        assert serialize_network(parse_network(text)) == text


# finite floats, weighted towards magnitudes that overflow a sum or a product
big_floats = st.one_of(
    st.floats(-2.0, 2.0),
    st.sampled_from([1e308, -1e308, 1e300, -1e300, 1e154, -1e154, 5e-324, 0.0]),
    st.floats(-1e308, 1e308),
)


@st.composite
def network_cases(draw):
    """A well-formed network document and finite --input, --target, --eta, --eps."""
    widths = draw(st.lists(st.integers(0, 3), min_size=2, max_size=4))
    layers = []
    for n, k in zip(widths, widths[1:]):
        layers.append({
            "weights": [draw(st.lists(big_floats, min_size=n, max_size=n)) for _ in range(k)],
            "bias": draw(st.lists(big_floats, min_size=k, max_size=k)),
            "activation": draw(st.sampled_from(["sigmoid", "tanh", "identity", "softplus"])),
        })
    x = draw(st.lists(big_floats, min_size=widths[0], max_size=widths[0]))
    target = draw(st.lists(big_floats, min_size=widths[-1], max_size=widths[-1]))
    doc = {"in_dim": widths[0], "layers": layers}
    return doc, x, target, draw(big_floats), draw(big_floats)


def literal(values):
    return ",".join(repr(v) for v in values)


class TestExitCodeContract:
    """Any well-formed network and finite arguments end in exit 0, 1 or 2,
    never in an exception."""

    def run_quietly(self, argv):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            return run(argv)

    @settings(max_examples=80, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(case=network_cases())
    @example(
        case=(
            {"in_dim": 1, "layers": [
                {"weights": [[1e300]], "bias": [0.0], "activation": "identity"}]},
            [1e300], [0.5], 0.1, 1e-6,
        )
    ).via("forward overflow")
    def test_forward_and_gradcheck(self, case):
        doc, x, target, eta, eps = case
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "net.json"
            path.write_text(json.dumps(doc))
            code = self.run_quietly(["forward", "--net", str(path), f"--input={literal(x)}"])
            assert code in (0, 1, 2)
            code = self.run_quietly(
                ["gradcheck", "--net", str(path), f"--input={literal(x)}",
                 f"--target={literal(target)}", f"--eta={eta!r}", f"--eps={eps!r}"]
            )
            assert code in (0, 1, 2)

    @settings(max_examples=80, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(
        case=network_cases(),
        rows=st.lists(st.lists(st.floats(-2.0, 2.0) | big_floats, min_size=6, max_size=6),
                      min_size=1, max_size=3),
        eta=st.floats(0.0, 1.0) | big_floats,
        epochs=st.integers(0, 2),
    )
    def test_train(self, case, rows, eta, epochs):
        doc = case[0]
        width = doc["in_dim"] + len(doc["layers"][-1]["bias"])
        with tempfile.TemporaryDirectory() as tmp:
            net, data, out = Path(tmp) / "net.json", Path(tmp) / "rows.csv", Path(tmp) / "out.json"
            net.write_text(json.dumps(doc))
            data.write_text("".join(literal(row[:width]) + "\n" for row in rows))
            code = self.run_quietly(
                ["train", "--net", str(net), "--data", str(data), "--eta", repr(eta),
                 "--epochs", str(epochs), "--out", str(out), "--trace", str(Path(tmp) / "t.csv")]
            )
            assert code in (0, 2)
            assert out.exists() == (code == 0)
