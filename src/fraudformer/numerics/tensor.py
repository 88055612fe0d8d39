"""Dense tensors with tape-based reverse-mode differentiation.

Everything is backed by contiguous numpy arrays, float32 by default and
float64 in verification mode (pass ``dtype=np.float64`` at creation). A
gradient graph lives on a single :class:`GradTape` and is confined to one
thread; tensors with no tape attachment are plain immutable values.
"""

from __future__ import annotations

import threading
from typing import Callable, Optional

import numpy as np

__all__ = ["Tensor", "GradTape", "DimensionError", "active_tape"]


class DimensionError(ValueError):
    """Raised when operand shapes are incompatible."""


_STATE = threading.local()


def active_tape() -> Optional["GradTape"]:
    return getattr(_STATE, "tape", None)


class Tensor:
    """N-dimensional array node. ``grad`` is None until a backward reaches it."""

    __slots__ = ("data", "requires_grad", "grad")

    def __init__(self, data, requires_grad: bool = False, dtype=None):
        arr = np.asarray(data, dtype=dtype)
        if arr.dtype not in (np.float32, np.float64):
            arr = arr.astype(np.float32)
        self.data = np.ascontiguousarray(arr) if arr.ndim else arr
        self.requires_grad = requires_grad
        self.grad: Optional[np.ndarray] = None

    @property
    def shape(self) -> tuple:
        return self.data.shape

    def zero_grad(self) -> None:
        self.grad = None

    def item(self) -> float:
        return float(self.data)

    def copy(self) -> "Tensor":
        return Tensor(self.data.copy(), requires_grad=self.requires_grad)

    def __repr__(self) -> str:
        return f"Tensor(shape={self.data.shape}, dtype={self.data.dtype.name}, requires_grad={self.requires_grad})"


class GradTape:
    """Ordered record of executed primitives.

    Ops append a backward closure while the tape is active; ``backward``
    pops and runs each record once, in reverse, accumulating gradients
    additively on fan-out. A record, and the forward arrays it captured, is
    freed as soon as it has run, so a tape serves one backward only.
    """

    def __init__(self):
        self._records: list[Callable[[], None]] = []
        self._consumed = False

    def __enter__(self) -> "GradTape":
        if active_tape() is not None:
            raise RuntimeError("nested gradient tapes are not supported")
        _STATE.tape = self
        return self

    def __exit__(self, *exc) -> None:
        _STATE.tape = None

    def record(self, backward_fn: Callable[[], None]) -> None:
        self._records.append(backward_fn)

    def backward(self, loss: Tensor) -> None:
        if loss.data.ndim != 0:
            raise DimensionError(f"backward expects a scalar loss, got shape {loss.data.shape}")
        if self._consumed:
            raise RuntimeError("tape already consumed")
        self._consumed = True
        loss.grad = np.ones_like(loss.data)
        records = self._records
        while records:
            records.pop()()

    def __len__(self) -> int:
        return len(self._records)
