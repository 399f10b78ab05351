"""A golden sha256 over the float bits of a fixed, seeded corpus.

The corpus holds identity-activation networks only.  Their forward and
backward passes, squared-error losses and updates use nothing but `+`,
`-` and `*`, which IEEE 754 rounds correctly, so the digest is the same
on every platform and Python version.  The libm-backed activations
(`exp`, `tanh`, `log1p`) may differ between platforms; they are covered
by the differential tests in `test_differential.py`, which store no
value.

The digest covers, per network: the updated transition entries of one
step, its states, erosions and gradients, the pulled-back loss at the
input (value and erosion), and the losses and final entries of a short
`train` run.  A change that regroups any sum or product changes it.
"""

import hashlib
import random
import struct

from nncat.activation import IDENTITY
from nncat.backprop import SgdConfig, backprop_step, train
from nncat.loss import squared_error, transform_loss
from nncat.network import identity_net
from nncat.randnet import random_network, random_state

# Computed from the engine before the update loop was fused; see CHANGES.md.
GOLDEN_SHA256 = "d073698c116523f2eb738cda5851a5b0a895a9f07bd40051693ef729062cfe0b"

NETS = 240
DENSITIES = (1.0, 0.5, 0.1)


def _put(h, values) -> None:
    values = tuple(values)
    h.update(struct.pack("<q", len(values)))
    h.update(b"".join(struct.pack("<d", v) for v in values))


def corpus_digest() -> str:
    rng = random.Random(20180611)
    h = hashlib.sha256()
    for k in range(NETS):
        in_dim = k % 6
        depth = rng.randint(0, 4)
        if depth == 0:
            net = identity_net(in_dim)
        else:
            net = random_network(
                rng, in_dim, rng.randint(0, 5), depth=depth, max_width=5,
                activations=[IDENTITY], weight_scale=1.0,
                mask_density=DENSITIES[k % 3],
            )
        a = random_state(rng, net.in_dim)
        target = random_state(rng, net.out_dim, scale=1.5)
        loss = squared_error(target, rng.uniform(0.05, 1.0))

        stepped, trace = backprop_step(net, a, loss)
        for layer in stepped.layers:
            _put(h, layer.transition.entries)
        for v in trace.states + trace.erosions:
            _put(h, v)
        for g in trace.gradients:
            _put(h, g.matrix.entries)

        pulled = transform_loss(net, loss)
        _put(h, (pulled.evaluate(a),))
        _put(h, pulled.erosion(a))

        rows = [
            (random_state(rng, net.in_dim, scale=1.0), random_state(rng, net.out_dim, scale=1.0))
            for _ in range(3)
        ]
        trained, losses = train(net, rows, rng.uniform(0.01, 0.1), SgdConfig(2))
        _put(h, losses)
        for layer in trained.layers:
            _put(h, layer.transition.entries)
    return h.hexdigest()


def test_golden_digest():
    assert corpus_digest() == GOLDEN_SHA256
