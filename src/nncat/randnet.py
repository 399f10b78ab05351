"""Seeded random networks and states, for gradcheck and property tests.

Everything here is driven by an explicit random.Random so a seed pins
the exact network produced, across runs and platforms.
"""

from __future__ import annotations

import random
from typing import Sequence

from .activation import ACTIVATIONS, Activation
from .algebra import Vec
from .network import Layer, Network, make_layer


def random_state(rng: random.Random, dim: int, scale: float = 2.0) -> Vec:
    return tuple(rng.uniform(-scale, scale) for _ in range(dim))


def random_layer(
    rng: random.Random,
    in_dim: int,
    out_dim: int,
    activation: Activation | None = None,
    weight_scale: float = 2.0,
    mask_density: float = 1.0,
) -> Layer:
    """A layer with uniform weights in [-weight_scale, weight_scale].

    mask_density is the probability that a weight (or bias) position is
    mutable; 1.0 gives the default fully mutable layer.
    """
    if activation is None:
        activation = rng.choice(sorted(ACTIVATIONS.values(), key=lambda a: a.tag))
    weights = [
        [rng.uniform(-weight_scale, weight_scale) for _ in range(in_dim)]
        for _ in range(out_dim)
    ]
    bias = [rng.uniform(-weight_scale, weight_scale) for _ in range(out_dim)]
    if mask_density >= 1.0:
        mask = bias_mutable = None
    else:
        mask = tuple(
            tuple(rng.random() < mask_density for _ in range(in_dim))
            for _ in range(out_dim)
        )
        bias_mutable = tuple(rng.random() < mask_density for _ in range(out_dim))
    return make_layer(weights, bias, activation, mask, bias_mutable, in_dim=in_dim)


def random_network(
    rng: random.Random,
    in_dim: int,
    out_dim: int,
    depth: int | None = None,
    max_width: int = 6,
    activations: Sequence[Activation] | None = None,
    weight_scale: float = 2.0,
    mask_density: float = 1.0,
) -> Network:
    """A random chain of `depth` layers from in_dim to out_dim.

    Depth 0 is the empty network, which needs in_dim == out_dim; a
    negative depth raises `ValueError`.  `None` draws a depth from 1..3.
    """
    if depth is None:
        depth = rng.randint(1, 3)
    elif depth < 0:
        raise ValueError(f"depth must be >= 0, got {depth}")
    elif depth == 0:
        return Network((), in_dim, out_dim)
    widths = [in_dim] + [rng.randint(1, max_width) for _ in range(depth - 1)] + [out_dim]
    layers = []
    for n, k in zip(widths, widths[1:]):
        act = rng.choice(list(activations)) if activations else None
        layers.append(
            random_layer(rng, n, k, act, weight_scale=weight_scale, mask_density=mask_density)
        )
    return Network.chain(layers)
