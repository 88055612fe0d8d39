"""Adaptive-moment optimizer with bias correction."""

from __future__ import annotations

import math
from typing import Callable, Dict, Optional

import numpy as np

from .tensor import GradTape, Tensor

__all__ = ["AdamState", "adam_step", "Adam", "NonFiniteGradientError"]


class NonFiniteGradientError(RuntimeError):
    """A gradient contained NaN or inf; names the offending parameter."""


class AdamState:
    """First/second moment accumulators plus the shared step counter."""

    def __init__(self, param: np.ndarray):
        self.m = np.zeros_like(param)
        self.v = np.zeros_like(param)


def adam_step(param: np.ndarray, grad: np.ndarray, state: AdamState, *,
              lr: float = 1e-3, beta1: float = 0.9, beta2: float = 0.999,
              eps: float = 1e-8, t: int = 1, name: str = "<param>") -> None:
    """One in-place update. Deterministic given inputs."""
    if param.shape != grad.shape or param.shape != state.m.shape:
        raise ValueError(f"adam_step: shape mismatch for {name}: "
                         f"param {param.shape}, grad {grad.shape}, state {state.m.shape}")
    if not np.all(np.isfinite(grad)):
        raise NonFiniteGradientError(f"non-finite gradient for parameter {name!r}")
    state.m = beta1 * state.m + (1.0 - beta1) * grad
    state.v = beta2 * state.v + (1.0 - beta2) * grad * grad
    mhat = state.m / (1.0 - beta1 ** t)
    vhat = state.v / (1.0 - beta2 ** t)
    param -= (lr * mhat / (np.sqrt(vhat) + eps)).astype(param.dtype)


class Adam:
    """Adam over a named parameter dict, with optional lr multipliers keyed by
    exact parameter name (1.0 for a name not listed).

    Parameters with a zero multiplier are frozen (their state does not
    advance either, so they stay bit-identical).
    """

    def __init__(self, params: Dict[str, Tensor], lr: float = 1e-3,
                 beta1: float = 0.9, beta2: float = 0.999, eps: float = 1e-8,
                 lr_mult: Optional[Dict[str, float]] = None):
        self.params = params
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.lr_mult = lr_mult or {}
        self.t = 0
        self.state = {name: AdamState(p.data) for name, p in params.items()}

    def step(self) -> None:
        self.t += 1
        for name in sorted(self.params):
            p = self.params[name]
            mult = self.lr_mult.get(name, 1.0)
            if mult == 0.0 or p.grad is None:
                continue
            adam_step(p.data, p.grad, self.state[name],
                      lr=self.lr * mult, beta1=self.beta1, beta2=self.beta2,
                      eps=self.eps, t=self.t, name=name)

    def zero_grad(self) -> None:
        for p in self.params.values():
            p.zero_grad()

    def minimize(self, loss_fn: Callable[[], Tensor]) -> float:
        """One training step: build ``loss_fn()`` on a fresh tape, then zero the
        gradients, backpropagate and step. Returns the loss value; a non-finite
        loss raises before any parameter changes."""
        with GradTape() as tape:
            loss = loss_fn()
        value = float(loss.data)
        if not math.isfinite(value):
            raise RuntimeError(f"non-finite loss at step {self.t}")
        self.zero_grad()
        tape.backward(loss)
        self.step()
        return value
