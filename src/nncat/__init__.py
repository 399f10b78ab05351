"""nncat: a two-pass multilayer perceptron engine.

Forward passes transform states; backward passes transform losses and
their gradients (erosions).  Layer gradients are rank-one outer
products, updates respect per-connection mutability masks, and a
finite-difference oracle cross-checks every analytic derivative.
"""

from .activation import (
    ACTIVATIONS,
    IDENTITY,
    SIGMOID,
    SOFTPLUS,
    TANH,
    Activation,
    act_deriv_map,
    act_map,
    activation_from_tag,
)
from .algebra import (
    DomainError,
    Mat,
    ShapeError,
    Vec,
    kleisli_apply,
    outer,
    vec,
)
from .backprop import BackpropTrace, SgdConfig, backprop_step, functoriality_check, train
from .backward import (
    Gradient,
    erosion_transform_net,
    layer_erosion_vector,
    layer_gradient,
)
from .loss import (
    LossPredicate,
    squared_error,
    transform_loss,
    validity,
    validity_equation_check,
)
from .network import (
    Layer,
    Network,
    compose,
    identity_net,
    layer_forward,
    make_layer,
    net_forward,
)
from .oracle import FdConfig, fd_erosion, fd_layer_gradient

__all__ = [
    "ACTIVATIONS",
    "Activation",
    "BackpropTrace",
    "DomainError",
    "FdConfig",
    "Gradient",
    "IDENTITY",
    "Layer",
    "LossPredicate",
    "Mat",
    "Network",
    "SIGMOID",
    "SOFTPLUS",
    "SgdConfig",
    "ShapeError",
    "TANH",
    "Vec",
    "act_deriv_map",
    "act_map",
    "activation_from_tag",
    "backprop_step",
    "compose",
    "erosion_transform_net",
    "fd_erosion",
    "fd_layer_gradient",
    "functoriality_check",
    "identity_net",
    "kleisli_apply",
    "layer_erosion_vector",
    "layer_forward",
    "layer_gradient",
    "make_layer",
    "net_forward",
    "outer",
    "squared_error",
    "train",
    "transform_loss",
    "validity",
    "validity_equation_check",
    "vec",
]
