"""Dense-tensor engine: reverse-mode autodiff primitives and Adam."""

from .tensor import DimensionError, GradTape, Tensor, active_tape
from . import ops
from .ops import *  # noqa: F401,F403 -- every op, as listed in ops.__all__
from .optim import Adam, NonFiniteGradientError
from .gradcheck import grad_check

__all__ = [
    "DimensionError", "GradTape", "Tensor", "active_tape", *ops.__all__,
    "Adam", "NonFiniteGradientError", "grad_check",
]
