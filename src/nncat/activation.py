"""Registry of differentiable scalar activations, applied coordinate-wise.

Every activation here is differentiable on all of R and carries an
analytic derivative; the derivative is held to central finite differences
by the test suite.  Activations are identified by tag so networks stay
serializable.  ReLU is deliberately absent: it is not differentiable at
zero and the engine's invariants do not adopt subgradient conventions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

from .algebra import Vec, _require_finite


@dataclass(frozen=True)
class Activation:
    """A named scalar function with its derivative; equality is by tag."""

    tag: str
    value: Callable[[float], float] = field(compare=False, repr=False)
    deriv: Callable[[float], float] = field(compare=False, repr=False)


def _sigmoid(z: float) -> float:
    # 1/(1+e^-z), branched so exp never overflows for finite z
    if z >= 0.0:
        return 1.0 / (1.0 + math.exp(-z))
    e = math.exp(z)
    return e / (1.0 + e)


def _sigmoid_deriv(z: float) -> float:
    s = _sigmoid(z)
    return s * (1.0 - s)


def _tanh_deriv(z: float) -> float:
    t = math.tanh(z)
    return 1.0 - t * t


def _softplus(z: float) -> float:
    # log(1+e^z) = max(z,0) + log1p(e^-|z|), stable for large |z|
    return max(z, 0.0) + math.log1p(math.exp(-abs(z)))


SIGMOID = Activation("sigmoid", _sigmoid, _sigmoid_deriv)
TANH = Activation("tanh", math.tanh, _tanh_deriv)
IDENTITY = Activation("identity", lambda z: z, lambda z: 1.0)
SOFTPLUS = Activation("softplus", _softplus, _sigmoid)

ACTIVATIONS: dict[str, Activation] = {
    a.tag: a for a in (SIGMOID, TANH, IDENTITY, SOFTPLUS)
}


def activation_from_tag(tag: str) -> Activation:
    try:
        return ACTIVATIONS[tag]
    except KeyError:
        known = ", ".join(sorted(ACTIVATIONS))
        raise ValueError(f"unknown activation tag {tag!r} (known: {known})") from None


def act_map(alpha: Activation, z: Vec) -> Vec:
    """Apply the activation to every coordinate; a non-finite coordinate
    raises "activation input is not finite" for the first one."""
    _require_finite(z, "activation input")
    return tuple(map(alpha.value, z))


def act_deriv_map(alpha: Activation, z: Vec) -> Vec:
    """Apply the activation's derivative to every coordinate; a
    non-finite coordinate raises "activation derivative input is not
    finite" for the first one."""
    _require_finite(z, "activation derivative input")
    return tuple(map(alpha.deriv, z))
