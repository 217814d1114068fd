"""Exact Renyi entropies of D-dimensional hydrogenic bound states.

Closed forms built from terminating multivariate hypergeometric sums, an
independent brute-force moment oracle that checks them structurally, and a
floating quadrature path for real entropy orders.
"""

from hydrenyi.entropy import (
    EntropyValue,
    RenyiBreakdown,
    UncertaintySum,
    angular_entropy,
    momentum_entropy,
    position_entropy,
    radial_momentum_entropy,
    radial_position_entropy,
    uncertainty_sum,
)
from hydrenyi.exactnum import ExactScalar, parse_scalar
from hydrenyi.oracle import renyi_float, verify_state
from hydrenyi.states import HydrogenicState, ValidationError, validate

__version__ = "0.1.0"

__all__ = [
    "EntropyValue",
    "ExactScalar",
    "HydrogenicState",
    "RenyiBreakdown",
    "UncertaintySum",
    "ValidationError",
    "angular_entropy",
    "momentum_entropy",
    "parse_scalar",
    "position_entropy",
    "radial_momentum_entropy",
    "radial_position_entropy",
    "renyi_float",
    "uncertainty_sum",
    "validate",
    "verify_state",
]
