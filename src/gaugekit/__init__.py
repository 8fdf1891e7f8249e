"""Worst-case expectation bounds over gauge-set neighborhoods of a discrete
distribution: gauge algebra, dual reformulations, envelope programs, and the
small conic solver backing them."""

from .errors import (
    BasisError,
    ConfigError,
    ContractError,
    DimensionError,
    EncodingError,
    GaugekitError,
    InstanceError,
    ParameterError,
)
from .space import (
    DiscreteSpace,
    Reweighting,
    expectation,
    sample_uniform_box,
    uniform_space,
    validate,
    weighted_inner,
)

__version__ = "0.1.0"

__all__ = [
    "BasisError",
    "ConfigError",
    "ContractError",
    "DimensionError",
    "DiscreteSpace",
    "EncodingError",
    "GaugekitError",
    "InstanceError",
    "ParameterError",
    "Reweighting",
    "expectation",
    "sample_uniform_box",
    "uniform_space",
    "validate",
    "weighted_inner",
    "__version__",
]
