import json
import os
import random
import stat
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import nncat
from nncat.fileio import (
    FileFormatError,
    parse_network,
    parse_vector,
    read_dataset,
    read_network,
    serialize_network,
    write_network,
    write_trace,
)
from nncat.network import identity_net
from nncat.randnet import random_network

from helpers import mazur_network

NETWORK_KEYS = ["in_dim", "layers", "weights", "bias", "mask", "bias_mutable", "activation"]


class TestNetworkRoundTrip:
    def test_worked_example_network(self):
        net = mazur_network()
        assert parse_network(serialize_network(net)) == net

    def test_random_networks_bitwise(self):
        rng = random.Random(2727)
        for _ in range(30):
            net = random_network(
                rng,
                rng.randint(1, 5),
                rng.randint(1, 5),
                depth=rng.randint(1, 4),
                mask_density=rng.choice([1.0, 0.5]),
            )
            assert parse_network(serialize_network(net)) == net

    def test_identity_network(self):
        net = identity_net(4)
        again = parse_network(serialize_network(net))
        assert again == net

    def test_serialization_is_deterministic(self):
        net = mazur_network()
        assert serialize_network(net) == serialize_network(net)

    def test_file_round_trip(self, tmp_path):
        path = tmp_path / "net.json"
        net = mazur_network()
        write_network(path, net)
        assert read_network(path) == net


class TestNetworkParsing:
    def base_doc(self):
        return {
            "in_dim": 2,
            "layers": [
                {
                    "weights": [[0.15, 0.2], [0.25, 0.3]],
                    "bias": [0.35, 0.35],
                    "activation": "sigmoid",
                }
            ],
        }

    def parse(self, doc):
        return parse_network(json.dumps(doc))

    def test_mask_and_bias_mutable_default_to_all_true(self):
        net = self.parse(self.base_doc())
        assert net.layers[0].mask == ((True, True), (True, True))
        assert net.layers[0].bias_mutable == (True, True)

    def test_unknown_activation_rejected(self):
        doc = self.base_doc()
        doc["layers"][0]["activation"] = "relu"
        with pytest.raises(FileFormatError, match="relu"):
            self.parse(doc)

    def test_not_json(self):
        with pytest.raises(FileFormatError, match="JSON"):
            parse_network("{nope")

    def test_top_level_must_be_object(self):
        with pytest.raises(FileFormatError):
            parse_network("[1, 2]")

    def test_missing_layers(self):
        with pytest.raises(FileFormatError, match="layers"):
            parse_network("{}")

    def test_empty_layers_need_in_dim(self):
        with pytest.raises(FileFormatError, match="in_dim"):
            parse_network('{"layers": []}')

    def test_zero_row_first_layer_needs_in_dim(self):
        text = '{"layers": [{"weights": [], "bias": [], "activation": "tanh"}]}'
        with pytest.raises(FileFormatError, match="layer 0: zero-row weights need a declared"):
            parse_network(text)

    def test_weight_bias_length_mismatch(self):
        doc = self.base_doc()
        doc["layers"][0]["bias"] = [0.35]
        with pytest.raises(FileFormatError, match="layer 0"):
            self.parse(doc)

    def test_non_finite_entries_rejected(self):
        doc = self.base_doc()
        doc["layers"][0]["bias"] = [0.35, float("inf")]
        text = json.dumps(doc)  # json emits Infinity
        with pytest.raises(FileFormatError):
            parse_network(text)

    def test_boolean_weights_rejected(self):
        doc = self.base_doc()
        doc["layers"][0]["bias"] = [0.35, True]
        with pytest.raises(FileFormatError, match="finite numbers"):
            self.parse(doc)

    def test_chain_mismatch_names_layer(self):
        doc = self.base_doc()
        doc["layers"].append(
            {"weights": [[1.0, 2.0, 3.0]], "bias": [0.0], "activation": "tanh"}
        )
        with pytest.raises(
            FileFormatError, match="^layer 0 emits 2 values but layer 1 expects 3$"
        ):
            self.parse(doc)

    def test_declared_in_dim_checked(self):
        doc = self.base_doc()
        doc["in_dim"] = 5
        with pytest.raises(FileFormatError, match="^layer 0 expects 2 inputs, network declares 5$"):
            self.parse(doc)

    # the parser checks JSON types only; `make_layer` and `Layer` check
    # the shapes, and the parser reports their errors with the layer
    @pytest.mark.parametrize(
        "key, value, expected",
        [
            ("mask", [[True], [True]], "mask must be 2x2 to match transition 2x3"),
            ("mask", [[True, True]], "mask must be 2x2 to match transition 2x3"),
            ("mask", [[True, True], [True]], "mask must be 2x2 to match transition 2x3"),
            ("bias_mutable", [True], "bias_mutable must have length 2, got 1"),
            ("weights", [[1, 2], [1]], "row 0 has 2 entries but row 1 has 1"),
            ("bias", [0.35, 0.35, 0.35], "2 weight rows vs 3 bias entries"),
        ],
        ids=["short-rows", "row-count", "one-short-row", "bias-flags", "ragged", "bias-count"],
    )
    def test_bad_mask_shape(self, key, value, expected):
        doc = self.base_doc()
        doc["layers"][0][key] = value
        with pytest.raises(FileFormatError, match=f"^layer 0: {expected}$"):
            self.parse(doc)

    def test_mask_entries_must_be_booleans(self):
        doc = self.base_doc()
        doc["layers"][0]["mask"] = [[1, 0], [1, 1]]
        with pytest.raises(
            FileFormatError, match="^layer 0: mask must be an array of boolean arrays$"
        ):
            self.parse(doc)

    def test_bias_flags_must_be_booleans(self):
        doc = self.base_doc()
        doc["layers"][0]["bias_mutable"] = [1, 0]
        with pytest.raises(
            FileFormatError, match="^layer 0: bias_mutable must be an array of booleans$"
        ):
            self.parse(doc)

    def test_missing_file_mentions_path(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            read_network(tmp_path / "missing.json")


def layer_doc(**fields):
    """A valid 2-in, 2-out sigmoid layer, with `fields` replaced; a field
    given as None is dropped."""
    doc = {"weights": [[0.15, 0.2], [0.25, 0.3]], "bias": [0.35, 0.35], "activation": "sigmoid"}
    doc.update(fields)
    return {key: value for key, value in doc.items() if value is not None}


WIDER = {"weights": [[1.0, 2.0, 3.0]], "bias": [0.0], "activation": "tanh"}
KNOWN = "(known: identity, sigmoid, softplus, tanh)"

# every text the parser gives for a malformed network document, exactly;
# the rows marked "two faults" hold two and pin which one is reported
MALFORMED_NETWORKS = [
    ("top-level", [1, 2], "top level must be a JSON object"),
    ("layers-type", {"layers": 5}, 'missing or invalid "layers" array'),
    ("layers-missing", {"in_dim": 2}, 'missing or invalid "layers" array'),
    ("in-dim-negative", {"in_dim": -1, "layers": [layer_doc()]}, '"in_dim" must be a count'),
    ("in-dim-bool", {"in_dim": True, "layers": [layer_doc()]}, '"in_dim" must be a count'),
    ("in-dim-float", {"in_dim": 2.0, "layers": [layer_doc()]}, '"in_dim" must be a count'),
    ("empty-no-in-dim", {"layers": []}, 'empty "layers" needs an explicit "in_dim"'),
    ("layer-type", {"layers": [[1.0]]}, "layer 0: must be an object"),
    ("weights-missing", {"layers": [layer_doc(weights=None)]}, 'layer 0: missing "weights"'),
    ("bias-type", {"layers": [layer_doc(bias="b")]}, 'layer 0: missing "bias"'),
    ("row-type", {"layers": [layer_doc(weights=[[1.0, 2.0], 3.0])]}, "layer 0: weight rows must be arrays"),
    ("weight-string", {"layers": [layer_doc(weights=[[1.0, "x"], [1.0, 2.0]])]}, "layer 0: entries must be finite numbers"),
    ("bias-bool", {"layers": [layer_doc(bias=[0.1, True])]}, "layer 0: entries must be finite numbers"),
    ("bias-huge-int", {"layers": [layer_doc(bias=[0.1, 10**400])]}, "layer 0: entries must be finite numbers"),
    ("tag-type", {"layers": [layer_doc(activation=3)]}, 'layer 0: missing "activation" tag'),
    ("tag-unknown", {"layers": [layer_doc(activation="relu")]}, f"layer 0: unknown activation tag 'relu' {KNOWN}"),
    ("mask-ints", {"layers": [layer_doc(mask=[[1, 0], [1, 1]])]}, "layer 0: mask must be an array of boolean arrays"),
    ("mask-type", {"layers": [layer_doc(mask="m")]}, "layer 0: mask must be an array of boolean arrays"),
    ("mask-flat", {"layers": [layer_doc(mask=[True, True])]}, "layer 0: mask must be an array of boolean arrays"),
    ("flags-ints", {"layers": [layer_doc(bias_mutable=[1, 0])]}, "layer 0: bias_mutable must be an array of booleans"),
    ("flags-type", {"layers": [layer_doc(bias_mutable=True)]}, "layer 0: bias_mutable must be an array of booleans"),
    ("bias-count", {"layers": [layer_doc(bias=[0.35])]}, "layer 0: 2 weight rows vs 1 bias entries"),
    ("ragged-short", {"layers": [layer_doc(weights=[[1.0, 2.0], [1.0]])]}, "layer 0: row 0 has 2 entries but row 1 has 1"),
    ("ragged-long", {"layers": [layer_doc(weights=[[1.0], [1.0, 2.0]])]}, "layer 0: row 0 has 1 entries but row 1 has 2"),
    ("zero-rows", {"layers": [layer_doc(weights=[], bias=[])]}, "layer 0: zero-row weights need a declared in_dim"),
    ("mask-shape", {"layers": [layer_doc(mask=[[True], [True]])]}, "layer 0: mask must be 2x2 to match transition 2x3"),
    ("flags-length", {"layers": [layer_doc(bias_mutable=[True])]}, "layer 0: bias_mutable must have length 2, got 1"),
    ("second-layer", {"layers": [layer_doc(), layer_doc(mask=[[1]])]}, "layer 1: mask must be an array of boolean arrays"),
    ("chain", {"layers": [layer_doc(), WIDER]}, "layer 0 emits 2 values but layer 1 expects 3"),
    ("declared-width", {"in_dim": 5, "layers": [layer_doc()]}, "layer 0 expects 2 inputs, network declares 5"),
    # two faults
    ("layers-and-in-dim", {"in_dim": -3, "layers": 5}, 'missing or invalid "layers" array'),
    ("in-dim-and-empty", {"in_dim": -3, "layers": []}, '"in_dim" must be a count'),
    ("weights-and-bias", {"layers": [layer_doc(weights=None, bias=None)]}, 'layer 0: missing "weights"'),
    ("row-and-entry", {"layers": [layer_doc(weights=[[1.0, "x"], 3.0])]}, "layer 0: weight rows must be arrays"),
    ("row-and-bias-entry", {"layers": [layer_doc(weights=[[1.0, 2.0], 3.0], bias=[0.1, None])]}, "layer 0: weight rows must be arrays"),
    ("entry-and-tag", {"layers": [layer_doc(bias=[0.1, None], activation="relu")]}, "layer 0: entries must be finite numbers"),
    ("tag-and-mask", {"layers": [layer_doc(activation="relu", mask=[[1]])]}, f"layer 0: unknown activation tag 'relu' {KNOWN}"),
    ("mask-and-flags", {"layers": [layer_doc(mask=[[1, 0], [1, 1]], bias_mutable=[0])]}, "layer 0: mask must be an array of boolean arrays"),
    ("flags-and-count", {"layers": [layer_doc(bias=[0.35], bias_mutable=[0])]}, "layer 0: bias_mutable must be an array of booleans"),
    ("count-and-mask-shape", {"layers": [layer_doc(bias=[0.35], mask=[[True]])]}, "layer 0: 2 weight rows vs 1 bias entries"),
    ("ragged-and-flags-length", {"layers": [layer_doc(weights=[[1.0, 2.0], [1.0]], bias_mutable=[True])]}, "layer 0: row 0 has 2 entries but row 1 has 1"),
    ("mask-shape-and-flags-length", {"layers": [layer_doc(mask=[[True]], bias_mutable=[True])]}, "layer 0: mask must be 2x2 to match transition 2x3"),
    ("first-layer-first", {"layers": [layer_doc(activation="relu"), layer_doc(weights=None)]}, f"layer 0: unknown activation tag 'relu' {KNOWN}"),
    ("layer-before-chain", {"layers": [layer_doc(), WIDER, layer_doc(bias=[0.1, "x"])]}, "layer 2: entries must be finite numbers"),
    ("declared-before-chain", {"in_dim": 5, "layers": [layer_doc(), WIDER]}, "layer 0 expects 2 inputs, network declares 5"),
]


@pytest.mark.parametrize(
    "doc, text", [row[1:] for row in MALFORMED_NETWORKS], ids=[row[0] for row in MALFORMED_NETWORKS]
)
def test_malformed_network_text(doc, text):
    with pytest.raises(FileFormatError) as caught:
        parse_network(json.dumps(doc))
    assert str(caught.value) == text


class TestParseVector:
    def test_basic(self):
        assert parse_vector("0.05, 0.1") == (0.05, 0.1)

    def test_empty(self):
        assert parse_vector("") == ()

    def test_bad_literal(self):
        with pytest.raises(FileFormatError, match="entry 1"):
            parse_vector("1.5,abc")

    def test_non_finite(self):
        with pytest.raises(FileFormatError, match="finite"):
            parse_vector("1.0,inf")


class TestDataset:
    def write(self, tmp_path, text):
        path = tmp_path / "data.csv"
        path.write_text(text)
        return path

    def test_rows_split_into_inputs_and_targets(self, tmp_path):
        path = self.write(tmp_path, "0.05,0.1,0.01,0.99\n1,2,3,4\n")
        rows = read_dataset(path, 2, 2)
        assert rows == [((0.05, 0.1), (0.01, 0.99)), ((1.0, 2.0), (3.0, 4.0))]

    def test_blank_lines_skipped(self, tmp_path):
        path = self.write(tmp_path, "\n0.05,0.1,0.01,0.99\n\n")
        assert len(read_dataset(path, 2, 2)) == 1

    def test_wrong_width_names_line(self, tmp_path):
        path = self.write(tmp_path, "0.05,0.1,0.01,0.99\n1,2,3\n")
        with pytest.raises(FileFormatError, match=":2"):
            read_dataset(path, 2, 2)

    @pytest.mark.parametrize(
        "line, text",
        [
            ("1,2,3", "expected 4 values (2 inputs + 2 targets), got 3"),
            ("1,2,x,4", "entry 2 is not a number: 'x'"),
        ],
        ids=["width", "literal"],
    )
    def test_error_text_names_path_and_line(self, tmp_path, line, text):
        path = self.write(tmp_path, f"0.05,0.1,0.01,0.99\n\n{line}\n")
        with pytest.raises(FileFormatError) as caught:
            read_dataset(path, 2, 2)
        assert str(caught.value) == f"{path}:3: {text}"

    def test_empty_file_gives_no_rows(self, tmp_path):
        path = self.write(tmp_path, "")
        assert read_dataset(path, 2, 2) == []


class TestTrace:
    def test_format(self, tmp_path):
        path = tmp_path / "trace.csv"
        write_trace(path, [0.25, 0.125])
        assert path.read_text() == "1,0.25000000\n2,0.12500000\n"

    def test_steps_strictly_increase_from_one(self, tmp_path):
        path = tmp_path / "trace.csv"
        write_trace(path, [0.5] * 5)
        steps = [int(line.split(",")[0]) for line in path.read_text().splitlines()]
        assert steps == [1, 2, 3, 4, 5]

    def test_empty_trace(self, tmp_path):
        path = tmp_path / "trace.csv"
        write_trace(path, [])
        assert path.read_text() == ""


class TestUtf8:
    def test_network_file_not_utf8_names_path(self, tmp_path):
        path = tmp_path / "net.json"
        path.write_bytes(b"\xff{}")
        with pytest.raises(FileFormatError, match="net.json: 'utf-8' codec can't decode"):
            read_network(path)

    def test_dataset_not_utf8_names_path(self, tmp_path):
        path = tmp_path / "rows.csv"
        path.write_bytes(b"0.5,\xff\n")
        with pytest.raises(FileFormatError, match="rows.csv: 'utf-8' codec can't decode"):
            read_dataset(path, 1, 1)

    def test_read_as_utf8_under_an_ascii_locale(self, tmp_path):
        path = tmp_path / "rows.csv"
        path.write_bytes("0.5,\u00a00.25\n".encode("utf-8"))  # a no-break space
        env = {
            **os.environ,
            "PYTHONPATH": str(Path(nncat.__file__).parents[1]),
            "LC_ALL": "C", "PYTHONCOERCECLOCALE": "0", "PYTHONUTF8": "0",
        }
        script = "import sys; from nncat.fileio import read_dataset; print(read_dataset(sys.argv[1], 1, 1))"
        done = subprocess.run(
            [sys.executable, "-c", script, str(path)], env=env, capture_output=True, text=True
        )
        assert (done.returncode, done.stdout) == (0, "[((0.5,), (0.25,))]\n"), done.stderr


class TestAtomicWrites:
    @pytest.mark.parametrize(
        "write",
        [lambda p: write_network(p, identity_net(1)), lambda p: write_trace(p, [0.5])],
        ids=["network", "trace"],
    )
    def test_failed_replace_keeps_old_file(self, tmp_path, monkeypatch, write):
        path = tmp_path / "out"
        path.write_bytes(b"old contents\n")

        def refuse(src, dst):
            raise PermissionError(f"cannot replace {dst}")

        monkeypatch.setattr(os, "replace", refuse)
        with pytest.raises(PermissionError):
            write(path)
        assert path.read_bytes() == b"old contents\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["out"]

    def test_missing_directory_leaves_nothing(self, tmp_path):
        with pytest.raises(FileNotFoundError, match="nowhere/trace.csv'$"):
            write_trace(tmp_path / "nowhere" / "trace.csv", [0.5])
        assert list(tmp_path.iterdir()) == []

    def test_overwrites_whole_file(self, tmp_path):
        path = tmp_path / "trace.csv"
        path.write_text("1,0.1\n2,0.2\n3,0.3\n")
        write_trace(path, [0.25])
        assert path.read_text() == "1,0.25000000\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["trace.csv"]

    def test_writes_through_a_fifo(self, tmp_path):
        fifo = tmp_path / "trace.fifo"
        os.mkfifo(fifo)
        reader = os.open(fifo, os.O_RDONLY | os.O_NONBLOCK)
        try:
            write_trace(fifo, [0.25])
            assert os.read(reader, 4096) == b"1,0.25000000\n"
        finally:
            os.close(reader)
        assert stat.S_ISFIFO(os.stat(fifo).st_mode)
        assert [p.name for p in tmp_path.iterdir()] == ["trace.fifo"]

    def test_symlink_target_is_replaced(self, tmp_path):
        real = tmp_path / "real.csv"
        real.write_text("1,0.1\n")
        link = tmp_path / "link.csv"
        link.symlink_to(real)
        write_trace(link, [0.25])
        assert link.is_symlink() and real.read_text() == "1,0.25000000\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["link.csv", "real.csv"]


# JSON values of any shape
json_scalars = st.one_of(
    st.none(), st.booleans(), st.integers(), st.floats(), st.text(max_size=8),
    st.integers(min_value=10**300, max_value=10**320),
)
json_values = st.recursive(
    json_scalars,
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(st.sampled_from(NETWORK_KEYS) | st.text(max_size=4), children, max_size=6),
    max_leaves=20,
)
numbers = st.floats(allow_nan=False, allow_infinity=False) | st.integers(-3, 3)


@st.composite
def network_docs(draw):
    """A network document with consistent shapes, then up to three of its
    slots (fields, weight rows or weights) dropped or replaced by any JSON
    value."""
    widths = draw(st.lists(st.integers(0, 3), min_size=1, max_size=4))
    layers = [
        {
            "weights": [draw(st.lists(numbers, min_size=n, max_size=n)) for _ in range(k)],
            "bias": draw(st.lists(numbers, min_size=k, max_size=k)),
            "mask": [draw(st.lists(st.booleans(), min_size=n, max_size=n)) for _ in range(k)],
            "bias_mutable": draw(st.lists(st.booleans(), min_size=k, max_size=k)),
            "activation": draw(st.sampled_from(["sigmoid", "tanh", "identity", "softplus"])),
        }
        for n, k in zip(widths, widths[1:])
    ]
    doc = {"in_dim": widths[0], "layers": layers}
    containers = [doc, *layers, *(row for layer in layers for row in layer["weights"])]
    for _ in range(draw(st.integers(0, 3))):
        slots = draw(st.sampled_from(containers))
        if slots:
            key = draw(st.sampled_from(sorted(slots) if isinstance(slots, dict) else range(len(slots))))
            if draw(st.booleans()):
                del slots[key]
            else:
                slots[key] = draw(json_values)
    return doc


network_texts = st.one_of(st.text(), json_values.map(json.dumps), network_docs().map(json.dumps))


def succeeds_or_format_error(parse, *args):
    try:
        parse(*args)
    except FileFormatError:
        pass


class TestParseBoundaryFuzz:
    """Whatever the text or bytes, parsing returns or raises FileFormatError."""

    @settings(max_examples=300, deadline=None)
    @given(text=network_texts)
    def test_parse_network(self, text):
        succeeds_or_format_error(parse_network, text)

    @settings(max_examples=300, deadline=None)
    @given(text=st.text() | st.lists(json_scalars.map(str), max_size=4).map(",".join))
    def test_parse_vector(self, text):
        succeeds_or_format_error(parse_vector, text)

    @settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(
        content=st.binary() | st.text().map(str.encode) | network_texts.map(str.encode),
        dims=st.tuples(st.integers(0, 3), st.integers(0, 3)),
    )
    def test_read_files(self, tmp_path, content, dims):
        path = tmp_path / "input"
        path.write_bytes(content)
        succeeds_or_format_error(read_network, path)
        succeeds_or_format_error(read_dataset, path, *dims)
