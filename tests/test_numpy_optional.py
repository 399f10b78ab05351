"""numpy is optional and imported only when a wide layer runs.

`import nncat` must not import numpy, and neither may training the
Mazur net, or stepping, running forward, checking the validity equation
of or checking the gradients of an 8-16-16-8 net: importing numpy costs
a short run more time and memory than its whole step.  So the import
happens inside the kernel choice, `network.Layer._step_weights`, which
each layer makes once, at its first use, for the forward loop and the
step alike, and `network.WIDE_SIDE` keeps every layer of those nets, at
most 16 x 17, on the pure kernels; none of their layers runs on numpy
weights, stepped or not.
Without numpy, a wide layer steps on the pure kernels too.  Neither
test needs numpy installed.
"""

import os
import random
import subprocess
import sys
from pathlib import Path

from nncat import backprop, network
from nncat.algebra import EntryWeights
from nncat.loss import squared_error
from nncat.network import Network
from nncat.randnet import random_layer

from helpers import on_numpy, rebuilt

SRC = Path(__file__).resolve().parents[1] / "src"

SMALL_NETS = """
import random, sys
import nncat
from nncat import cli, demo, fileio, network
from nncat.algebra import EntryWeights
from nncat.network import Network
from nncat.randnet import random_layer

assert "numpy" not in sys.modules, "import nncat"
net, losses = nncat.train(
    demo.mazur_network(), [(demo.INPUT, demo.TARGET)] * 3, 0.5, nncat.SgdConfig(epochs=20)
)
assert "numpy" not in sys.modules, "train"
assert all(isinstance(w, EntryWeights) for w in network._loaded(net)), "train runs numpy weights"
rng = random.Random(5)
dims = (8, 16, 16, 8)
net = Network.chain([random_layer(rng, n, k, mask_density=0.9) for n, k in zip(dims, dims[1:])])
stepped, _ = nncat.backprop_step(net, (0.5,) * 8, nncat.squared_error((0.25,) * 8, 0.1))
assert all(isinstance(w, EntryWeights) for w in network._loaded(stepped)), "the step runs numpy weights"
assert "numpy" not in sys.modules, "backprop_step"
fileio.write_network(sys.argv[1], net)
rc = cli.main([
    "gradcheck", "--net", sys.argv[1], "--input", ",".join(["0.5"] * 8),
    "--target", ",".join(["0.25"] * 8), "--eta", "0.1",
])
assert rc == 0, rc
assert "numpy" not in sys.modules, "gradcheck"
rc = cli.main(["forward", "--net", sys.argv[1], "--input", ",".join(["0.5"] * 8)])
assert rc == 0, rc
assert "numpy" not in sys.modules, "forward"
lhs, rhs = nncat.validity_equation_check(net, (0.5,) * 8, nncat.squared_error((0.25,) * 8, 0.1))
assert lhs == rhs, (lhs, rhs)
assert "numpy" not in sys.modules, "validity_equation_check"
"""


def test_small_nets_never_import_numpy(tmp_path):
    done = subprocess.run(
        [sys.executable, "-c", SMALL_NETS, str(tmp_path / "net.json")],
        env={**os.environ, "PYTHONPATH": str(SRC)},
        capture_output=True,
        text=True,
    )
    assert done.returncode == 0, done.stderr


def test_without_numpy_a_wide_layer_steps_on_the_pure_kernels(monkeypatch):
    rng = random.Random(2)
    side = network.WIDE_SIDE
    net = Network.chain([random_layer(rng, side, side, mask_density=0.5)])
    x, loss = (0.5,) * side, squared_error((0.25,) * side, 0.1)
    monkeypatch.setattr(network, "WIDE_SIDE", 10**9)
    pure = rebuilt(net)
    want, _ = backprop.backprop_step(pure, x, loss)
    assert on_numpy(pure) == [False]

    monkeypatch.setattr(network, "WIDE_SIDE", side)
    monkeypatch.setitem(sys.modules, "numpy", None)
    monkeypatch.setitem(sys.modules, "nncat._vectorized", None)
    monkeypatch.delattr("nncat._vectorized", raising=False)
    monkeypatch.setattr(network, "_vectorized", None)
    (weights,) = network._loaded(net)
    assert isinstance(weights, EntryWeights)
    assert weights.entries() == net.layers[0].transition.entries
    assert network._vectorized is False
    got, _ = backprop.backprop_step(net, x, loss)
    assert on_numpy(got) == [False]
    assert got == want
