"""The benchmark's three workloads.

Each workload is built from a seed (its set-up, which writes the input
files and parses them once), runs one op at a time through nncat's
public API, and checks every op's output outside the timed region.
`check` and `finish` return the problems they find; an op with any
problem counts as failed.
"""

from __future__ import annotations

import hashlib
import io
import math
import random
import struct
from array import array
from contextlib import redirect_stdout
from pathlib import Path

# Mazur's published E_total 0.298371109 times the rate 0.5, as `train`
# writes the first trace row.
MAZUR_TRACE_LINE1 = "1,0.14918555"


def _literal(values) -> str:
    """Comma-separated shortest round-trip literals, as the CLI parses them."""
    return ",".join(repr(v) for v in values)


def _bits(x: float) -> bytes:
    return struct.pack("<d", x)


class DigestBook:
    """sha256 digests of op outputs that are equal by construction.

    Op i must reproduce the digest first seen for op i % period.
    """

    def __init__(self, period: int) -> None:
        self.period = period
        self.seen: dict[int, str] = {}

    def check(self, i: int, data: bytes) -> list[str]:
        got = hashlib.sha256(data).hexdigest()
        want = self.seen.setdefault(i % self.period, got)
        if got != want:
            return [f"op {i}: output digest {got[:16]} differs from {want[:16]}"]
        return []

    def digest(self) -> str:
        h = hashlib.sha256()
        for key in sorted(self.seen):
            h.update(self.seen[key].encode())
        return h.hexdigest()


class Workload:
    """Interface the runner drives; subclasses fill in the class attributes.

    steps_per_op: training steps (backprop_step calls) one op completes.
    entries_per_op: transition entries one op steps or checks.
    min_ops: ops every phase runs, however short, so the digests cover
    a whole period.
    """

    name = ""
    steps_per_op = 0
    entries_per_op = 0
    min_ops = 1

    def setup_problems(self) -> list[str]:
        """Checks on the set-up, run once after it is timed."""
        return []

    def op(self, i: int):
        raise NotImplementedError

    def check(self, i: int, out) -> list[str]:
        raise NotImplementedError

    def finish(self) -> list[str]:
        return []

    def digest(self) -> str:
        raise NotImplementedError

    def forward_probe(self):
        """(network, inputs) on which net_forward is timed for the step/forward ratio."""
        raise NotImplementedError


def _run_cli(nn, argv: list[str]) -> tuple[int, str]:
    buf = io.StringIO()
    with redirect_stdout(buf):
        rc = nn.cli.main(argv)
    return rc, buf.getvalue()


def _transition_entries(net) -> int:
    return sum(layer.transition.rows * layer.transition.cols for layer in net.layers)


class MazurTrain(Workload):
    """`nncat train` on the Mazur 2-2-2 sigmoid net: per-call overhead."""

    name = "mazur-train"
    EPOCHS = 100
    RATE = "0.5"

    def __init__(self, nn, seed: int, workdir: Path) -> None:
        self.nn = nn
        rng = random.Random(seed)
        demo = nn.demo
        rows = [demo.INPUT + demo.TARGET] + [
            tuple(rng.uniform(0.0, 1.0) for _ in range(2))
            + tuple(rng.uniform(0.05, 0.95) for _ in range(2))
            for _ in range(3)
        ]
        self.net_path = workdir / "mazur.json"
        self.data_path = workdir / "mazur.csv"
        self.out_path = workdir / "mazur-out.json"
        self.trace_path = workdir / "mazur-trace.csv"
        nn.fileio.write_network(self.net_path, demo.mazur_network())
        self.data_path.write_text("".join(_literal(r) + "\n" for r in rows))
        self.net = nn.fileio.read_network(self.net_path)
        self.dataset = nn.fileio.read_dataset(self.data_path, 2, 2)
        self.demo_rc, _ = _run_cli(nn, ["demo", "mazur"])
        self.argv = [
            "train", "--net", str(self.net_path), "--data", str(self.data_path),
            "--eta", self.RATE, "--epochs", str(self.EPOCHS),
            "--out", str(self.out_path), "--trace", str(self.trace_path),
        ]
        self.steps_per_op = self.EPOCHS * len(self.dataset)
        self.entries_per_op = self.steps_per_op * _transition_entries(self.net)
        self.book = DigestBook(1)

    def setup_problems(self) -> list[str]:
        return [] if self.demo_rc == 0 else [f"demo mazur exited {self.demo_rc}"]

    def op(self, i: int):
        return _run_cli(self.nn, self.argv)

    def check(self, i: int, out) -> list[str]:
        rc, _ = out
        if rc != 0:
            return [f"op {i}: train exited {rc}"]
        trace = self.trace_path.read_bytes()
        first = trace.decode().split("\n", 1)[0]
        problems = []
        if first != MAZUR_TRACE_LINE1:
            problems.append(f"op {i}: trace line 1 is {first!r}, want {MAZUR_TRACE_LINE1!r}")
        return problems + self.book.check(i, self.out_path.read_bytes() + trace)

    def digest(self) -> str:
        return self.book.digest()

    def forward_probe(self):
        return self.net, [x for x, _ in self.dataset]


class WideSgd(Workload):
    """One `train`-style step on a 4-layer width-128 net: O(width^2) kernels.

    Steps form chains of POOL steps over the row pool, each step feeding
    the next; every chain starts from the parsed net, so every chain's
    final net is equal by construction.
    """

    name = "wide-sgd"
    WIDTH = 128
    DEPTH = 4
    POOL = 16
    RATE = 0.1
    MASK_DENSITY = 0.9
    # Steps whose gradients are held to finite differences and whose
    # validity equation is checked bitwise.
    SAMPLED_STEPS = (0, 7)
    # The gradients here are ~1e-4 to 1e-1, so the oracle's default 1e-5
    # floor would pass a 1e-4 relative error in them; central differences
    # at eps 1e-6 agree with the analytic gradient to ~2e-9 on these nets.
    FD_TOLERANCE = 1e-7

    def __init__(self, nn, seed: int, workdir: Path) -> None:
        self.nn = nn
        rng = random.Random(seed)
        acts = (nn.activation.SIGMOID, nn.activation.TANH)
        scale = 1.0 / math.sqrt(self.WIDTH)
        generated = nn.network.Network.chain(
            [
                nn.randnet.random_layer(
                    rng, self.WIDTH, self.WIDTH, acts[k % 2],
                    weight_scale=scale, mask_density=self.MASK_DENSITY,
                )
                for k in range(self.DEPTH)
            ]
        )
        self.pool = [
            (
                tuple(rng.uniform(-1.0, 1.0) for _ in range(self.WIDTH)),
                tuple(rng.uniform(-0.9, 0.9) for _ in range(self.WIDTH)),
            )
            for _ in range(self.POOL)
        ]
        self.fd_rows = [rng.randrange(self.WIDTH) for _ in range(self.DEPTH)]
        path = workdir / "wide.json"
        nn.fileio.write_network(path, generated)
        self.initial = nn.fileio.read_network(path)
        self.round_trip_ok = self.initial == generated
        self.entries_per_op = _transition_entries(self.initial)
        self.steps_per_op = 1
        self.min_ops = self.POOL
        self.net = self.initial
        self.chain_net = None
        self.book = DigestBook(1)

    def setup_problems(self) -> list[str]:
        self.frozen = [
            [
                j * (layer.in_dim + 1) + i
                for j in range(layer.out_dim)
                for i in range(layer.in_dim + 1)
                if not (layer.mask[j][i] if i < layer.in_dim else layer.bias_mutable[j])
            ]
            for layer in self.initial.layers
        ]
        return [] if self.round_trip_ok else ["wide net does not survive a file round trip"]

    def op(self, i: int):
        if i % self.POOL == 0:
            self.net = self.initial
        self.before = self.net
        x, target = self.pool[i % self.POOL]
        loss = self.nn.loss.squared_error(target, self.RATE)
        self.net, trace = self.nn.backprop.backprop_step(self.net, x, loss)
        return trace

    def check(self, i: int, trace) -> list[str]:
        problems = []
        if i in self.SAMPLED_STEPS:
            problems += self._check_step(i, trace)
        if i % self.POOL == self.POOL - 1:
            problems += self._frozen_problems(f"op {i}", self.net)
            data = b"".join(array("d", layer.transition.entries).tobytes()
                            for layer in self.net.layers)
            problems += self.book.check(0, data)
            self.chain_net = self.net
        return problems

    def _check_step(self, i: int, trace) -> list[str]:
        nn = self.nn
        net = self.before
        x, target = self.pool[i % self.POOL]
        loss = nn.loss.squared_error(target, self.RATE)
        lhs, rhs = nn.loss.validity_equation_check(net, x, loss)
        problems = []
        if _bits(lhs) != _bits(rhs):
            problems.append(f"op {i}: validity equation {lhs!r} != {rhs!r}")
        cfg = nn.oracle.FdConfig(tolerance=self.FD_TOLERANCE)
        for idx, layer in enumerate(net.layers):
            j = self.fd_rows[idx]
            fd = self._fd_row(net, idx, j, trace.states[idx], loss, cfg)
            analytic = trace.gradients[idx].matrix.row(j)
            worst = max(abs(p - q) for p, q in zip(analytic, fd))
            if not all(cfg.close(p, q) for p, q in zip(analytic, fd)):
                problems.append(
                    f"op {i}: layer {idx} row {j}: gradient differs from finite "
                    f"differences by up to {worst:.3e}"
                )
        return problems

    def _fd_row(self, net, idx: int, j: int, a, loss, cfg):
        """fd_layer_gradient on row j of layer idx alone.

        Row j's gradient depends on the other outputs only as constants,
        so the one-row layer's loss plugs its output into the layer's
        full output before the rest of the net and the loss.
        """
        nn = self.nn
        layer = net.layers[idx]
        rest = nn.network.Network(net.layers[idx + 1:], layer.out_dim, net.out_dim)
        pulled = nn.loss.transform_loss(rest, loss)
        y = nn.network.layer_forward(layer, a)

        def full(v):
            return y[:j] + tuple(v) + y[j + 1:]

        row_loss = nn.loss.LossPredicate(
            1,
            lambda v: pulled.evaluate(full(v)),
            lambda v: pulled.erosion(full(v))[j:j + 1],
        )
        t = layer.transition
        row_layer = nn.network.Layer(nn.algebra.Mat(1, t.cols, t.row(j)), layer.activation)
        return nn.oracle.fd_layer_gradient(row_layer, a, row_loss, cfg).matrix.entries

    def _frozen_problems(self, where: str, net) -> list[str]:
        changed = sum(
            _bits(new.transition.entries[k]) != _bits(old.transition.entries[k])
            for new, old, frozen in zip(net.layers, self.initial.layers, self.frozen)
            for k in frozen
        )
        return [f"{where}: {changed} masked-off entries changed"] if changed else []

    def finish(self) -> list[str]:
        return self._frozen_problems("end of run", self.net)

    def digest(self) -> str:
        if self.chain_net is None:
            return "none"
        text = self.nn.fileio.serialize_network(self.chain_net)
        return hashlib.sha256(text.encode()).hexdigest()

    def forward_probe(self):
        return self.initial, [x for x, _ in self.pool]


class OracleGradcheck(Workload):
    """`nncat gradcheck` on an 8-16-16-8 net: forward and validation heavy."""

    name = "oracle-gradcheck"
    DIMS = (8, 16, 16, 8)
    POOL = 8
    RATE = "0.1"
    MASK_DENSITY = 0.9

    def __init__(self, nn, seed: int, workdir: Path) -> None:
        self.nn = nn
        rng = random.Random(seed)
        acts = (nn.activation.SIGMOID, nn.activation.TANH, nn.activation.SOFTPLUS)
        generated = nn.network.Network.chain(
            [
                nn.randnet.random_layer(
                    rng, n, k, act, weight_scale=1.0, mask_density=self.MASK_DENSITY
                )
                for n, k, act in zip(self.DIMS, self.DIMS[1:], acts)
            ]
        )
        self.pool = [
            (
                _literal(rng.uniform(-1.0, 1.0) for _ in range(self.DIMS[0])),
                _literal(rng.uniform(0.0, 1.0) for _ in range(self.DIMS[-1])),
            )
            for _ in range(self.POOL)
        ]
        self.net_path = workdir / "gradcheck.json"
        nn.fileio.write_network(self.net_path, generated)
        self.net = nn.fileio.read_network(self.net_path)
        self.steps_per_op = 1
        self.entries_per_op = _transition_entries(self.net)
        self.min_ops = self.POOL
        self.book = DigestBook(self.POOL)

    def op(self, i: int):
        x, target = self.pool[i % self.POOL]
        return _run_cli(
            self.nn,
            ["gradcheck", "--net", str(self.net_path),
             f"--input={x}", f"--target={target}", "--eta", self.RATE],
        )

    def check(self, i: int, out) -> list[str]:
        rc, stdout = out
        if rc != 0:
            return [f"op {i}: gradcheck exited {rc}"]
        lines = stdout.splitlines()
        if len(lines) != len(self.net.layers) or not all(ln.endswith(" ok") for ln in lines):
            return [f"op {i}: not every layer reports ok: {stdout!r}"]
        return self.book.check(i, stdout.encode())

    def digest(self) -> str:
        return self.book.digest()

    def forward_probe(self):
        return self.net, [tuple(float(v) for v in x.split(",")) for x, _ in self.pool]


WORKLOADS = {w.name: w for w in (MazurTrain, WideSgd, OracleGradcheck)}
