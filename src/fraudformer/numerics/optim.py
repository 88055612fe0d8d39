"""Adaptive-moment optimizer with bias correction."""

from __future__ import annotations

from typing import Dict, Optional

import numpy as np

from .tensor import Tensor

__all__ = ["Adam", "NonFiniteGradientError"]

BETA1 = 0.9
BETA2 = 0.999
EPS = 1e-8


class NonFiniteGradientError(RuntimeError):
    """A gradient contained NaN or inf; names the offending parameter."""


class Adam:
    """Adam over a named parameter dict, with optional lr multipliers keyed by
    exact parameter name (1.0 for a name not listed).

    Parameters with a zero multiplier are frozen (their moments do not
    advance either, so they stay bit-identical).
    """

    def __init__(self, params: Dict[str, Tensor], lr: float = 1e-3,
                 lr_mult: Optional[Dict[str, float]] = None):
        self.params = params
        self.lr = lr
        self.lr_mult = lr_mult or {}
        self.t = 0
        # First and second moments, allocated per parameter in turn.
        self.m: Dict[str, np.ndarray] = {}
        self.v: Dict[str, np.ndarray] = {}
        for name, p in params.items():
            self.m[name] = np.zeros_like(p.data)
            self.v[name] = np.zeros_like(p.data)

    def step(self) -> None:
        """One in-place update of every live parameter, in name order; a
        non-finite gradient raises before any parameter moves."""
        live = [name for name in sorted(self.params)
                if self.lr_mult.get(name, 1.0) != 0.0 and self.params[name].grad is not None]
        for name in live:
            if not np.all(np.isfinite(self.params[name].grad)):
                raise NonFiniteGradientError(f"non-finite gradient for parameter {name!r}")
        self.t += 1
        for name in live:
            param, grad = self.params[name].data, self.params[name].grad
            lr = self.lr * self.lr_mult.get(name, 1.0)
            self.m[name] = BETA1 * self.m[name] + (1.0 - BETA1) * grad
            self.v[name] = BETA2 * self.v[name] + (1.0 - BETA2) * grad * grad
            mhat = self.m[name] / (1.0 - BETA1 ** self.t)
            vhat = self.v[name] / (1.0 - BETA2 ** self.t)
            param -= (lr * mhat / (np.sqrt(vhat) + EPS)).astype(param.dtype)
            del mhat, vhat  # freed before the next parameter's update allocates

    def zero_grad(self) -> None:
        for p in self.params.values():
            p.zero_grad()
