"""Differentiable primitives.

Each op computes its numpy forward and hands the result to ``_record`` with
its inputs and ``grads``, a function from the output's gradient to one
contribution per input; ``_record`` does all gradient bookkeeping. No
implicit broadcasting beyond the patterns spelled out per op (``matmul``'s
bias and its stack of single rows, ``scale``'s and ``add_const``'s constants); reshape explicitly
otherwise.
"""

from __future__ import annotations

from typing import Callable, Iterable, Optional, Sequence

import numpy as np

from .tensor import DimensionError, Tensor, active_tape

__all__ = [
    "add", "add_n", "scale", "add_const", "mul",
    "matmul", "matmul_t", "split_heads", "merge_heads",
    "relu", "layer_norm", "dropout",
    "softmax_rows", "softmax_ce", "conv1d", "max_over_time",
    "concat_cols", "slice_cols", "take_rows", "concat_rows",
    "normalize_rows", "row_diff", "reshape", "sum_all",
]


def _accumulate(grad: np.ndarray, contribution) -> None:
    """Add one contribution of ``grads`` to an input's gradient, in place."""
    if isinstance(contribution, tuple):
        index, values = contribution
        if isinstance(index, np.ndarray):
            np.add.at(grad, index, values)  # repeated rows accumulate
        else:
            grad[index] += values
    else:
        grad += contribution


def _record(out: Tensor, inputs: Sequence[Tensor],
            grads: Callable[[np.ndarray], Iterable]) -> Tensor:
    """Put ``out``'s backward on the active tape when any input needs a gradient.

    ``grads(g)`` maps out's gradient ``g`` to one contribution per input, in
    order: an array (or scalar) added to the input's gradient, or an
    ``(index, values)`` pair added in place at ``index``, where an integer
    array index accumulates repeated rows. ``grads`` may be a generator; it
    is drawn once per input, in order.
    """
    tape = active_tape()
    if tape is not None and any(t.requires_grad for t in inputs):
        out.requires_grad = True

        def run():
            if out.grad is not None:
                # Input gradients are allocated before the contributions are
                # computed, the order of the old per-op backwards: computing
                # the contributions first raised the train benchmark's peak
                # RSS by about 1% (heap placement, not a larger live heap).
                for t in inputs:
                    if t.requires_grad:
                        t.ensure_grad()
                for t, contribution in zip(inputs, grads(out.grad)):
                    if t.requires_grad:
                        _accumulate(t.grad, contribution)
            # The tape runs in reverse, so every consumer of out has run.
            out.grad = None

        tape.record(run)
    return out


def add(a: Tensor, b: Tensor) -> Tensor:
    """Elementwise sum of equal shapes; a linear layer's bias goes to ``matmul``."""
    if a.data.shape != b.data.shape:
        raise DimensionError(f"add: incompatible shapes {a.data.shape} and {b.data.shape}")
    return _record(Tensor(a.data + b.data), (a, b), lambda g: (g, g))


def add_n(tensors: Sequence[Tensor]) -> Tensor:
    """Sum of same-shape tensors (typically scalar loss terms)."""
    tensors = list(tensors)
    return _record(Tensor(sum(t.data for t in tensors)), tensors, lambda g: [g] * len(tensors))


def scale(x: Tensor, c) -> Tensor:
    """x times a non-learned constant: a float, or an array that broadcasts to
    x's shape (e.g. a 0/1 mask)."""
    return _record(Tensor(x.data * c), (x,), lambda g: (g * c,))


def add_const(x: Tensor, arr: np.ndarray) -> Tensor:
    """Add a non-learned constant (e.g. an additive attention mask)."""
    return _record(Tensor(x.data + arr), (x,), lambda g: (g,))


def mul(a: Tensor, b: Tensor) -> Tensor:
    if a.data.shape != b.data.shape:
        raise DimensionError(f"mul: incompatible shapes {a.data.shape} and {b.data.shape}")

    def grads(g):
        yield g * b.data
        yield g * a.data

    return _record(Tensor(a.data * b.data), (a, b), grads)


def matmul(a: Tensor, b: Tensor, bias: Optional[Tensor] = None) -> Tensor:
    """Matrix product a[..., m, k] @ b[..., k, n] over equal leading axes, if
    any; there is no broadcasting but one form: a stack of single rows
    a[..., 1, k] times one weight b[k, n]. numpy computes each of those rows
    alone, with the kernel it uses for a lone 2-D row, so a row's bits do not
    depend on the stack's size. An optional 1-D ``bias[n]`` is added on the
    last axis, the same bits as ``add(matmul(a, b), bias)``."""
    rows = a.data.ndim > 2 and a.data.shape[-2] == 1 and b.data.ndim == 2
    if (a.data.ndim < 2 or b.data.ndim < 2 or a.data.shape[-1] != b.data.shape[-2]
            or not rows and a.data.shape[:-2] != b.data.shape[:-2]):
        raise DimensionError(f"matmul: incompatible shapes {a.data.shape} and {b.data.shape}")
    k, n = b.data.shape[-2:]
    if bias is not None and bias.data.shape != (n,):
        raise DimensionError(f"matmul: bias must have shape ({n},), got {bias.data.shape}")
    y = a.data @ b.data
    if bias is not None:
        y += bias.data

    def grads(g):
        yield g @ b.data.swapaxes(-1, -2)
        if rows:  # one weight for every row of the stack: sum over them
            yield a.data.reshape(-1, k).T @ g.reshape(-1, n)
        else:
            yield a.data.swapaxes(-1, -2) @ g
        yield g.reshape(-1, n).sum(axis=0)  # drawn only when bias is an input

    return _record(Tensor(y), (a, b) if bias is None else (a, b, bias), grads)


def matmul_t(a: Tensor, b: Tensor) -> Tensor:
    """a[..., m, k] @ b[..., n, k]^T over equal leading axes, if any; used for
    attention scores and tied decoding."""
    if (a.data.ndim < 2 or a.data.ndim != b.data.ndim or a.data.shape[:-2] != b.data.shape[:-2]
            or a.data.shape[-1] != b.data.shape[-1]):
        raise DimensionError(f"matmul_t: incompatible shapes {a.data.shape} and {b.data.shape}")

    def grads(g):
        yield g @ b.data
        yield g.swapaxes(-1, -2) @ a.data

    return _record(Tensor(a.data @ b.data.swapaxes(-1, -2)), (a, b), grads)


def split_heads(x: Tensor, n_seq: int, n_heads: int) -> Tensor:
    """[n_seq*R, n_heads*dh] rows -> [n_seq, n_heads, R, dh] blocks, one per sequence and head."""
    n, w = x.data.shape
    if n % n_seq or w % n_heads:
        raise DimensionError(f"split_heads: {x.data.shape} does not split into "
                             f"{n_seq} sequences x {n_heads} heads")
    r, dh = n // n_seq, w // n_heads
    out = Tensor(x.data.reshape(n_seq, r, n_heads, dh).transpose(0, 2, 1, 3))
    return _record(out, (x,), lambda g: (g.transpose(0, 2, 1, 3).reshape(n, w),))


def merge_heads(x: Tensor) -> Tensor:
    """[n_seq, n_heads, R, dh] -> [n_seq*R, n_heads*dh]; the inverse of split_heads."""
    if x.data.ndim != 4:
        raise DimensionError(f"merge_heads expects [B, H, R, dh], got {x.data.shape}")
    b, h, r, dh = x.data.shape
    out = Tensor(x.data.transpose(0, 2, 1, 3).reshape(b * r, h * dh))
    return _record(out, (x,), lambda g: (g.reshape(b, r, h, dh).transpose(0, 2, 1, 3),))


def relu(x: Tensor) -> Tensor:
    return _record(Tensor(np.maximum(x.data, 0)), (x,), lambda g: (g * (x.data > 0),))


def layer_norm(x: Tensor, gain: Tensor, bias: Tensor) -> Tensor:
    """Normalize the last axis to zero mean / unit variance (eps 1e-5), then scale+shift."""
    d = x.data.shape[-1]
    if gain.data.shape != (d,) or bias.data.shape != (d,):
        raise DimensionError(f"layer_norm: gain/bias must have shape ({d},)")
    mu = x.data.mean(axis=-1, keepdims=True)
    var = x.data.var(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + 1e-5)
    xhat = (x.data - mu) * inv

    def grads(g):
        gh = g * gain.data
        m1 = gh.mean(axis=-1, keepdims=True)
        m2 = (gh * xhat).mean(axis=-1, keepdims=True)
        yield inv * (gh - m1 - xhat * m2)
        yield (g * xhat).reshape(-1, d).sum(axis=0)
        yield g.reshape(-1, d).sum(axis=0)

    return _record(Tensor(xhat * gain.data + bias.data), (x, gain, bias), grads)


def dropout(x: Tensor, p: float, rng: Optional[np.random.Generator]) -> Tensor:
    """Zero entries with probability p, rescale survivors by 1/(1-p).

    Dropout runs iff an rng is passed: with ``rng=None`` (evaluation) or at
    p == 0 it is the identity and returns ``x`` itself. There is no ambient RNG.
    """
    if not 0.0 <= p < 1.0:
        raise ValueError(f"dropout rate must be in [0, 1), got {p}")
    if rng is None or p == 0.0:
        return x
    mask = (rng.random(x.data.shape) >= p) / (1.0 - p)
    mask = mask.astype(x.data.dtype)
    return _record(Tensor(x.data * mask), (x,), lambda g: (g * mask,))


def softmax_rows(x: Tensor) -> Tensor:
    """Softmax over the last axis. Rows may contain -inf (masked) entries."""
    z = x.data - x.data.max(axis=-1, keepdims=True)
    e = np.exp(z)
    p = e / e.sum(axis=-1, keepdims=True)
    return _record(Tensor(p), (x,), lambda g: (p * (g - (p * g).sum(axis=-1, keepdims=True)),))


def softmax_ce(logits: Tensor, targets: np.ndarray) -> Tensor:
    """Mean over rows of -log softmax(logits)[target]."""
    if logits.data.ndim != 2:
        raise DimensionError(f"softmax_ce expects 2-D logits, got {logits.data.shape}")
    n, v = logits.data.shape
    targets = np.asarray(targets, dtype=np.int64)
    if targets.shape != (n,):
        raise DimensionError(f"softmax_ce: {n} logit rows vs targets shape {targets.shape}")
    if targets.min(initial=0) < 0 or targets.max(initial=0) >= v:
        bad = targets[(targets < 0) | (targets >= v)][0]
        raise IndexError(f"target id {bad} out of range [0, {v})")
    z = logits.data - logits.data.max(axis=-1, keepdims=True)
    e = np.exp(z)
    p = e / e.sum(axis=-1, keepdims=True)
    rows = np.arange(n)
    nll = -np.log(p[rows, targets])

    def grads(g):
        gl = p.copy()
        gl[rows, targets] -= 1.0
        return ((float(g) / n) * gl,)

    return _record(Tensor(np.asarray(nll.mean(), dtype=logits.data.dtype)), (logits,), grads)


def conv1d(x: Tensor, kernels: Tensor, bias: Optional[Tensor] = None) -> Tensor:
    """Valid (no-pad) convolution over the time axis, axis -2.

    x: [..., T, C], kernels: [K, C, F] -> [..., T-K+1, F];
    out[..., t, f] = sum_{k,c} x[..., t+k, c] * kernels[k, c, f].
    All taps are one GEMM, y = x @ W with W[c, k*F + f] = kernels[k, c, f],
    and tap k's output is y shifted back by k rows.
    """
    if x.data.ndim < 2 or kernels.data.ndim != 3:
        raise DimensionError(f"conv1d: need x[..., T, C] and kernels[K, C, F], got {x.data.shape}, {kernels.data.shape}")
    t_len, c = x.data.shape[-2:]
    k, kc, f = kernels.data.shape
    if kc != c:
        raise DimensionError(f"conv1d: channel mismatch {c} vs {kc}")
    if k > t_len:
        raise DimensionError(f"conv1d: sequence length {t_len} shorter than kernel size {k}")
    if bias is not None and bias.data.shape != (f,):
        raise DimensionError(f"conv1d: bias must have shape ({f},)")
    t_out = t_len - k + 1
    w = kernels.data.transpose(1, 0, 2).reshape(c, k * f)
    y = (x.data.reshape(-1, c) @ w).reshape(*x.data.shape[:-1], k, f)
    out_data = y[..., 0:t_out, 0, :]
    for j in range(1, k):
        out_data = out_data + y[..., j:j + t_out, j, :]
    if bias is not None:
        out_data = out_data + bias.data

    def grads(g):
        # gy is the adjoint of the shifted tap sum: tap j of row t + j gets g[t].
        gy = np.zeros_like(y)
        for j in range(k):
            gy[..., j:j + t_out, j, :] = g
        gy = gy.reshape(-1, k * f)
        yield (gy @ w.T).reshape(x.data.shape)
        yield (x.data.reshape(-1, c).T @ gy).reshape(c, k, f).transpose(1, 0, 2)
        yield g.reshape(-1, f).sum(axis=0)  # drawn only when bias is an input

    return _record(Tensor(out_data), (x, kernels) if bias is None else (x, kernels, bias), grads)


def max_over_time(x: Tensor) -> Tensor:
    """Global max pool over axis -2: [..., T, F] -> [..., F]. Ties go to the earliest t."""
    if x.data.ndim < 2:
        raise DimensionError(f"max_over_time expects [..., T, F] input, got {x.data.shape}")
    idx = np.expand_dims(np.argmax(x.data, axis=-2), -2)

    def grads(g):
        gx = np.zeros_like(x.data)
        np.put_along_axis(gx, idx, g[..., None, :], axis=-2)
        return (gx,)

    return _record(Tensor(np.take_along_axis(x.data, idx, axis=-2)[..., 0, :]), (x,), grads)


def concat_cols(parts: Sequence[Tensor]) -> Tensor:
    parts = list(parts)
    offsets = np.cumsum([0] + [p.data.shape[-1] for p in parts])
    out = Tensor(np.concatenate([p.data for p in parts], axis=-1))
    return _record(out, parts, lambda g: [g[..., lo:hi] for lo, hi in zip(offsets[:-1], offsets[1:])])


def slice_cols(x: Tensor, start: int, stop: int) -> Tensor:
    out = Tensor(x.data[..., start:stop].copy())
    return _record(out, (x,), lambda g: (((Ellipsis, slice(start, stop)), g),))


def take_rows(x: Tensor, idx: np.ndarray) -> Tensor:
    """Gather rows by integer index (also the embedding lookup primitive).

    ``idx`` may have any shape; the result is [*idx.shape, *x.shape[1:]].
    """
    idx = np.asarray(idx, dtype=np.int64)
    if idx.min(initial=0) < 0 or (idx.size and idx.max() >= x.data.shape[0]):
        raise IndexError(f"row index out of range [0, {x.data.shape[0]})")
    return _record(Tensor(x.data[idx]), (x,), lambda g: ((idx, g),))


def concat_rows(parts: Sequence[Tensor]) -> Tensor:
    """Concatenate 2-D tensors along axis 0."""
    parts = list(parts)
    offsets = np.cumsum([0] + [p.data.shape[0] for p in parts])
    out = Tensor(np.concatenate([p.data for p in parts], axis=0))
    return _record(out, parts, lambda g: [g[lo:hi] for lo, hi in zip(offsets[:-1], offsets[1:])])


def normalize_rows(x: Tensor) -> Tensor:
    """L2-normalize each row; zero rows are rejected."""
    norms = np.linalg.norm(x.data, axis=-1, keepdims=True)
    if np.any(norms == 0):
        raise ValueError("cannot L2-normalize a zero row")
    y = x.data / norms
    return _record(Tensor(y), (x,), lambda g: ((g - y * (y * g).sum(axis=-1, keepdims=True)) / norms,))


def row_diff(x: Tensor) -> Tensor:
    """First-order difference over axis -2: out[..., t, :] = x[..., t+1, :] - x[..., t, :]."""
    if x.data.ndim < 2 or x.data.shape[-2] < 2:
        raise DimensionError(f"row_diff needs at least 2 rows, got shape {x.data.shape}")

    def grads(g):
        gx = np.zeros_like(x.data)
        gx[..., 1:, :] += g
        gx[..., :-1, :] -= g
        return (gx,)

    return _record(Tensor(np.diff(x.data, axis=-2)), (x,), grads)


def sum_all(x: Tensor) -> Tensor:
    """Sum of all entries, as a scalar tensor."""
    return _record(Tensor(np.asarray(x.data.sum(), dtype=x.data.dtype)), (x,), lambda g: (float(g),))


def reshape(x: Tensor, shape: tuple) -> Tensor:
    return _record(Tensor(x.data.reshape(shape)), (x,), lambda g: (g.reshape(x.data.shape),))
