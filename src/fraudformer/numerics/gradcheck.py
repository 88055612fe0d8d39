"""Central finite-difference verification of reverse-mode gradients.

Run in float64 (verification mode); float32 cannot hit the 1e-4 target.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

from .tensor import GradTape, Tensor

__all__ = ["grad_check"]


def grad_check(loss_fn: Callable[[], Tensor], wiggle: Sequence[Tensor],
               rng: np.random.Generator, n_probes: int = 20) -> float:
    """Max relative error between tape gradients and central differences.

    ``loss_fn`` must be a deterministic closure over the ``wiggle`` tensors
    (re-seed any dropout inside it). Probes n_probes random coordinates per
    tensor, each with a relative step of 1e-5.
    """
    for t in wiggle:
        if t.data.dtype != np.float64:
            raise ValueError("grad_check requires float64 tensors (verification mode)")
        t.zero_grad()
    with GradTape() as tape:
        loss = loss_fn()
        tape.backward(loss)
    analytic = [t.grad.copy() if t.grad is not None else np.zeros_like(t.data)
                for t in wiggle]

    worst = 0.0
    for t, an in zip(wiggle, analytic):
        flat = t.data.reshape(-1)
        n = min(n_probes, flat.size)
        picks = rng.choice(flat.size, size=n, replace=False)
        for i in picks:
            step = 1e-5 * max(1.0, abs(flat[i]))
            orig = flat[i]
            flat[i] = orig + step
            up = float(loss_fn().data)
            flat[i] = orig - step
            down = float(loss_fn().data)
            flat[i] = orig
            fd = (up - down) / (2.0 * step)
            ag = an.reshape(-1)[i]
            denom = max(abs(fd), abs(ag))
            if denom < 1e-7:  # below fd noise floor; nothing to compare
                continue
            worst = max(worst, abs(fd - ag) / denom)
    return worst
