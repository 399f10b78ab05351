"""File formats: JSON network files, flat CSV datasets, loss traces.

Network files are a single JSON document because masks, biases and
activation tags need nesting; weights round-trip bitwise since JSON
serialization uses shortest-round-trip decimal literals.  Datasets stay
headerless CSV, n input columns then k target columns, with n and k
supplied by the network in use.  Trace files are "step,loss" rows with
the loss fixed at 8 decimals.  Files are read as UTF-8; written files
appear whole or not at all.
"""

from __future__ import annotations

import contextlib
import json
import math
import os
from itertools import chain
from pathlib import Path
from typing import Sequence

from .activation import activation_from_tag
from .algebra import ShapeError, Vec
from .network import Layer, Network, identity_net, make_layer


class FileFormatError(ValueError):
    """A network or dataset file does not match the expected format."""


def network_to_json(net: Network) -> dict:
    layers = []
    for layer in net.layers:
        t = layer.transition
        n = layer.in_dim
        layers.append(
            {
                "weights": [list(t.row(j)[:n]) for j in range(t.rows)],
                "bias": [t[j, n] for j in range(t.rows)],
                "mask": [list(row) for row in layer.mask],
                "bias_mutable": list(layer.bias_mutable),
                "activation": layer.activation.tag,
            }
        )
    return {"in_dim": net.in_dim, "layers": layers}


def serialize_network(net: Network) -> str:
    """Deterministic JSON text for a network; parse undoes it bitwise."""
    return json.dumps(network_to_json(net), indent=2, sort_keys=True) + "\n"


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise FileFormatError(message)


def _finite_number(value: object) -> bool:
    """A JSON number with a finite float value; an integer literal too big
    for a float is not one."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return False
    try:
        return math.isfinite(value)
    except OverflowError:
        return False


def _bools(value: object) -> bool:
    """A JSON array of booleans: a mask row, or a layer's bias flags."""
    return isinstance(value, list) and all(isinstance(v, bool) for v in value)


def network_from_json(doc: object) -> Network:
    """The network a parsed JSON document describes, or the first error.

    The checks run in this order, and the first that fails is reported:
    the top level is an object, "layers" an array and "in_dim", when
    given, a count; an empty "layers" needs "in_dim".  Then each layer
    in turn: it is an object, "weights" and "bias" are arrays, every
    weight row is an array, every entry a finite number, "activation" a
    known tag, "mask" an array of boolean arrays and "bias_mutable" an
    array of booleans, both when given; then `make_layer` and `Layer`
    check the shapes.  Each of these errors is prefixed with "layer N: ",
    N counting from 0.  Last, `Network` checks the chain of widths and
    the declared "in_dim".
    """
    _require(isinstance(doc, dict), "top level must be a JSON object")
    raw_layers = doc.get("layers")
    _require(isinstance(raw_layers, list), 'missing or invalid "layers" array')
    declared = doc.get("in_dim")
    _require(
        declared is None
        or isinstance(declared, int) and not isinstance(declared, bool) and declared >= 0,
        '"in_dim" must be a count',
    )
    if not raw_layers:
        _require(declared is not None, 'empty "layers" needs an explicit "in_dim"')
        return identity_net(declared)

    layers: list[Layer] = []
    for pos, entry in enumerate(raw_layers):
        try:
            _require(isinstance(entry, dict), "must be an object")
            weights, bias = entry.get("weights"), entry.get("bias")
            _require(isinstance(weights, list), 'missing "weights"')
            _require(isinstance(bias, list), 'missing "bias"')
            _require(all(isinstance(row, list) for row in weights), "weight rows must be arrays")
            entries = chain(bias, *weights)
            _require(all(map(_finite_number, entries)), "entries must be finite numbers")
            tag = entry.get("activation")
            _require(isinstance(tag, str), 'missing "activation" tag')
            activation = activation_from_tag(tag)
            mask, flags = entry.get("mask"), entry.get("bias_mutable")
            _require(
                mask is None or isinstance(mask, list) and all(map(_bools, mask)),
                "mask must be an array of boolean arrays",
            )
            _require(flags is None or _bools(flags), "bias_mutable must be an array of booleans")
            # a layer with rows reads its width from them; `Network` checks the chain
            in_dim = None if weights else layers[-1].out_dim if layers else declared
            layers.append(make_layer(weights, bias, activation, mask, flags, in_dim))
        except ValueError as exc:
            raise FileFormatError(f"layer {pos}: {exc}") from None

    try:
        return Network(
            layers, layers[0].in_dim if declared is None else declared, layers[-1].out_dim
        )
    except ShapeError as exc:
        raise FileFormatError(str(exc)) from None


def parse_network(text: str) -> Network:
    try:
        doc = json.loads(text)
    except (ValueError, RecursionError) as exc:
        # ValueError covers JSONDecodeError and integer literals past the
        # interpreter's digit limit; RecursionError covers deep nesting
        raise FileFormatError(f"not valid JSON: {exc}") from None
    return network_from_json(doc)


def read_network(path: str | Path) -> Network:
    try:
        return parse_network(Path(path).read_text(encoding="utf-8"))
    except (FileFormatError, UnicodeDecodeError) as exc:
        raise FileFormatError(f"{path}: {exc}") from None


def _write_atomic(path: str | Path, text: str) -> None:
    """Write a regular file by way of a new file beside it, renamed over it,
    so a failed run never leaves a half-written file.  No fsync: the aim is
    all-or-nothing, not durability.  A symlink's target is replaced, not the
    link; a target that exists but is no regular file (/dev/null, a pipe, a
    terminal) is written through, since nothing may be renamed over it."""
    if os.path.exists(path) and not os.path.isfile(path):
        with open(path, "w", encoding="utf-8") as out:
            out.write(text)
        return
    target = os.path.realpath(path)
    # a str, not a Path: pathlib would intern each new random name, and the
    # interpreter's table of interned strings does not shrink
    name = f".{os.path.basename(target)}.{os.urandom(8).hex()}.tmp"
    tmp = os.path.join(os.path.dirname(target), name)
    try:
        out = open(tmp, "x", encoding="utf-8")
    except OSError as exc:  # name the file asked for, not the temporary one
        raise OSError(exc.errno, exc.strerror, os.fspath(path)) from None
    try:
        with out:
            out.write(text)
        os.replace(tmp, target)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.unlink(tmp)
        raise


def write_network(path: str | Path, net: Network) -> None:
    _write_atomic(path, serialize_network(net))


def parse_vector(text: str) -> Vec:
    """Comma-separated decimal literals -> vector; rejects non-finite."""
    parts = [p.strip() for p in text.split(",")] if text.strip() else []
    out = []
    for pos, part in enumerate(parts):
        try:
            value = float(part)
        except ValueError:
            raise FileFormatError(f"entry {pos} is not a number: {part!r}") from None
        if not math.isfinite(value):
            raise FileFormatError(f"entry {pos} is not finite: {part!r}")
        out.append(value)
    return tuple(out)


def read_dataset(path: str | Path, in_dim: int, out_dim: int) -> list[tuple[Vec, Vec]]:
    """Parse CSV rows of in_dim inputs followed by out_dim targets."""
    rows: list[tuple[Vec, Vec]] = []
    width = in_dim + out_dim
    try:
        text = Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise FileFormatError(f"{path}: {exc}") from None
    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        try:
            values = parse_vector(line)
            if len(values) != width:
                raise FileFormatError(
                    f"expected {width} values ({in_dim} inputs + {out_dim} targets), "
                    f"got {len(values)}"
                )
        except FileFormatError as exc:
            raise FileFormatError(f"{path}:{lineno}: {exc}") from None
        rows.append((values[:in_dim], values[in_dim:]))
    return rows


def write_trace(path: str | Path, losses: Sequence[float]) -> None:
    """Rows "step,loss", step counting from 1, loss at 8 decimals."""
    lines = [f"{step},{value:.8f}" for step, value in enumerate(losses, start=1)]
    _write_atomic(path, "\n".join(lines) + ("\n" if lines else ""))
