"""Differentiable primitives.

Each op computes its numpy forward, and when a tape is active and any
input requires a gradient, records a backward closure. No implicit
broadcasting beyond the patterns spelled out per op (``matmul``'s bias,
``scale``'s and ``add_const``'s constants); reshape explicitly otherwise.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from .tensor import DimensionError, GradTape, Tensor, active_tape

__all__ = [
    "add", "add_n", "scale", "add_const", "mul",
    "matmul", "matmul_t", "split_heads", "merge_heads",
    "relu", "layer_norm", "dropout",
    "softmax_rows", "softmax_ce", "conv1d", "max_over_time",
    "concat_cols", "slice_cols", "take_rows", "concat_rows",
    "normalize_rows", "row_diff", "reshape", "sum_all",
]


def _maybe_record(out: Tensor, inputs: Sequence[Tensor], backward) -> Tensor:
    tape = active_tape()
    if tape is not None and any(t.requires_grad for t in inputs):
        out.requires_grad = True

        def run():
            backward()
            # The tape runs in reverse, so every consumer of out has run.
            out.grad = None

        tape.record(run)
    return out


def add(a: Tensor, b: Tensor) -> Tensor:
    """Elementwise sum of equal shapes; a linear layer's bias goes to ``matmul``."""
    if a.data.shape != b.data.shape:
        raise DimensionError(f"add: incompatible shapes {a.data.shape} and {b.data.shape}")
    out = Tensor(a.data + b.data)

    def backward():
        g = out.grad
        if g is None:
            return
        if a.requires_grad:
            a.ensure_grad()
            a.grad += g
        if b.requires_grad:
            b.ensure_grad()
            b.grad += g

    return _maybe_record(out, (a, b), backward)


def add_n(tensors: Sequence[Tensor]) -> Tensor:
    """Sum of same-shape tensors (typically scalar loss terms)."""
    tensors = list(tensors)
    out = Tensor(sum(t.data for t in tensors))

    def backward():
        g = out.grad
        if g is None:
            return
        for t in tensors:
            if t.requires_grad:
                t.ensure_grad()
                t.grad += g

    return _maybe_record(out, tensors, backward)


def scale(x: Tensor, c) -> Tensor:
    """x times a non-learned constant: a float, or an array that broadcasts to
    x's shape (e.g. a 0/1 mask)."""
    out = Tensor(x.data * c)

    def backward():
        if out.grad is not None and x.requires_grad:
            x.ensure_grad()
            x.grad += out.grad * c

    return _maybe_record(out, (x,), backward)


def add_const(x: Tensor, arr: np.ndarray) -> Tensor:
    """Add a non-learned constant (e.g. an additive attention mask)."""
    out = Tensor(x.data + arr)

    def backward():
        if out.grad is not None and x.requires_grad:
            x.ensure_grad()
            x.grad += out.grad

    return _maybe_record(out, (x,), backward)


def mul(a: Tensor, b: Tensor) -> Tensor:
    if a.data.shape != b.data.shape:
        raise DimensionError(f"mul: incompatible shapes {a.data.shape} and {b.data.shape}")
    out = Tensor(a.data * b.data)

    def backward():
        g = out.grad
        if g is None:
            return
        if a.requires_grad:
            a.ensure_grad()
            a.grad += g * b.data
        if b.requires_grad:
            b.ensure_grad()
            b.grad += g * a.data

    return _maybe_record(out, (a, b), backward)


def matmul(a: Tensor, b: Tensor, bias: Optional[Tensor] = None) -> Tensor:
    """Matrix product a[..., m, k] @ b[..., k, n] over equal leading axes, if
    any; there is no broadcasting. An optional 1-D ``bias[n]`` is added on the
    last axis, the same bits as ``add(matmul(a, b), bias)``."""
    if (a.data.ndim < 2 or a.data.ndim != b.data.ndim or a.data.shape[:-2] != b.data.shape[:-2]
            or a.data.shape[-1] != b.data.shape[-2]):
        raise DimensionError(f"matmul: incompatible shapes {a.data.shape} and {b.data.shape}")
    n = b.data.shape[-1]
    if bias is not None and bias.data.shape != (n,):
        raise DimensionError(f"matmul: bias must have shape ({n},), got {bias.data.shape}")
    y = a.data @ b.data
    if bias is not None:
        y += bias.data
    out = Tensor(y)
    inputs = (a, b) if bias is None else (a, b, bias)

    def backward():
        g = out.grad
        if g is None:
            return
        if a.requires_grad:
            a.ensure_grad()
            a.grad += g @ b.data.swapaxes(-1, -2)
        if b.requires_grad:
            b.ensure_grad()
            b.grad += a.data.swapaxes(-1, -2) @ g
        if bias is not None and bias.requires_grad:
            bias.ensure_grad()
            bias.grad += g.reshape(-1, n).sum(axis=0)

    return _maybe_record(out, inputs, backward)


def matmul_t(a: Tensor, b: Tensor) -> Tensor:
    """a[..., m, k] @ b[..., n, k]^T over equal leading axes, if any; used for
    attention scores and tied decoding."""
    if (a.data.ndim < 2 or a.data.ndim != b.data.ndim or a.data.shape[:-2] != b.data.shape[:-2]
            or a.data.shape[-1] != b.data.shape[-1]):
        raise DimensionError(f"matmul_t: incompatible shapes {a.data.shape} and {b.data.shape}")
    out = Tensor(a.data @ b.data.swapaxes(-1, -2))

    def backward():
        g = out.grad
        if g is None:
            return
        if a.requires_grad:
            a.ensure_grad()
            a.grad += g @ b.data
        if b.requires_grad:
            b.ensure_grad()
            b.grad += g.swapaxes(-1, -2) @ a.data

    return _maybe_record(out, (a, b), backward)


def split_heads(x: Tensor, n_seq: int, n_heads: int) -> Tensor:
    """[n_seq*R, n_heads*dh] rows -> [n_seq, n_heads, R, dh] blocks, one per sequence and head."""
    n, w = x.data.shape
    if n % n_seq or w % n_heads:
        raise DimensionError(f"split_heads: {x.data.shape} does not split into "
                             f"{n_seq} sequences x {n_heads} heads")
    r, dh = n // n_seq, w // n_heads
    out = Tensor(x.data.reshape(n_seq, r, n_heads, dh).transpose(0, 2, 1, 3))

    def backward():
        if out.grad is not None and x.requires_grad:
            x.ensure_grad()
            x.grad += out.grad.transpose(0, 2, 1, 3).reshape(n, w)

    return _maybe_record(out, (x,), backward)


def merge_heads(x: Tensor) -> Tensor:
    """[n_seq, n_heads, R, dh] -> [n_seq*R, n_heads*dh]; the inverse of split_heads."""
    if x.data.ndim != 4:
        raise DimensionError(f"merge_heads expects [B, H, R, dh], got {x.data.shape}")
    b, h, r, dh = x.data.shape
    out = Tensor(x.data.transpose(0, 2, 1, 3).reshape(b * r, h * dh))

    def backward():
        if out.grad is not None and x.requires_grad:
            x.ensure_grad()
            x.grad += out.grad.reshape(b, r, h, dh).transpose(0, 2, 1, 3)

    return _maybe_record(out, (x,), backward)


def relu(x: Tensor) -> Tensor:
    out = Tensor(np.maximum(x.data, 0))

    def backward():
        if out.grad is not None and x.requires_grad:
            x.ensure_grad()
            x.grad += out.grad * (x.data > 0)

    return _maybe_record(out, (x,), backward)


def layer_norm(x: Tensor, gain: Tensor, bias: Tensor, eps: float = 1e-5) -> Tensor:
    """Normalize the last axis to zero mean / unit variance, then scale+shift."""
    d = x.data.shape[-1]
    if gain.data.shape != (d,) or bias.data.shape != (d,):
        raise DimensionError(f"layer_norm: gain/bias must have shape ({d},)")
    mu = x.data.mean(axis=-1, keepdims=True)
    var = x.data.var(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + eps)
    xhat = (x.data - mu) * inv
    out = Tensor(xhat * gain.data + bias.data)

    def backward():
        g = out.grad
        if g is None:
            return
        gh = g * gain.data
        if x.requires_grad:
            x.ensure_grad()
            m1 = gh.mean(axis=-1, keepdims=True)
            m2 = (gh * xhat).mean(axis=-1, keepdims=True)
            x.grad += inv * (gh - m1 - xhat * m2)
        lead = g.reshape(-1, d)
        if gain.requires_grad:
            gain.ensure_grad()
            gain.grad += (g * xhat).reshape(-1, d).sum(axis=0)
        if bias.requires_grad:
            bias.ensure_grad()
            bias.grad += lead.sum(axis=0)

    return _maybe_record(out, (x, gain, bias), backward)


def dropout(x: Tensor, p: float, rng: Optional[np.random.Generator], training: bool) -> Tensor:
    """Zero entries with probability p, rescale survivors by 1/(1-p).

    In eval mode or at p == 0 it is the identity and returns ``x`` itself.
    The random source is always passed explicitly; there is no ambient RNG.
    """
    if not 0.0 <= p < 1.0:
        raise ValueError(f"dropout rate must be in [0, 1), got {p}")
    if not training or p == 0.0:
        return x
    if rng is None:
        raise ValueError("dropout in training mode needs an explicit rng")
    mask = (rng.random(x.data.shape) >= p) / (1.0 - p)
    mask = mask.astype(x.data.dtype)
    out = Tensor(x.data * mask)

    def backward():
        if out.grad is not None and x.requires_grad:
            x.ensure_grad()
            x.grad += out.grad * mask

    return _maybe_record(out, (x,), backward)


def softmax_rows(x: Tensor) -> Tensor:
    """Softmax over the last axis. Rows may contain -inf (masked) entries."""
    z = x.data - x.data.max(axis=-1, keepdims=True)
    e = np.exp(z)
    p = e / e.sum(axis=-1, keepdims=True)
    out = Tensor(p)

    def backward():
        g = out.grad
        if g is None or not x.requires_grad:
            return
        x.ensure_grad()
        x.grad += p * (g - (p * g).sum(axis=-1, keepdims=True))

    return _maybe_record(out, (x,), backward)


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
    out = Tensor(np.asarray(nll.mean(), dtype=logits.data.dtype))

    def backward():
        g = out.grad
        if g is None or not logits.requires_grad:
            return
        logits.ensure_grad()
        gl = p.copy()
        gl[rows, targets] -= 1.0
        logits.grad += (float(g) / n) * gl

    return _maybe_record(out, (logits,), backward)


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
    out = Tensor(out_data)
    inputs = (x, kernels) if bias is None else (x, kernels, bias)

    def backward():
        g = out.grad
        if g is None:
            return
        # gy is the adjoint of the shifted tap sum: tap j of row t + j gets g[t].
        gy = np.zeros_like(y)
        for j in range(k):
            gy[..., j:j + t_out, j, :] = g
        gy = gy.reshape(-1, k * f)
        if kernels.requires_grad:
            kernels.ensure_grad()
            kernels.grad += (x.data.reshape(-1, c).T @ gy).reshape(c, k, f).transpose(1, 0, 2)
        if x.requires_grad:
            x.ensure_grad()
            x.grad += (gy @ w.T).reshape(x.data.shape)
        if bias is not None and bias.requires_grad:
            bias.ensure_grad()
            bias.grad += g.reshape(-1, f).sum(axis=0)

    return _maybe_record(out, inputs, backward)


def max_over_time(x: Tensor) -> Tensor:
    """Global max pool over axis -2: [..., T, F] -> [..., F]. Ties go to the earliest t."""
    if x.data.ndim < 2:
        raise DimensionError(f"max_over_time expects [..., T, F] input, got {x.data.shape}")
    idx = np.expand_dims(np.argmax(x.data, axis=-2), -2)
    out = Tensor(np.take_along_axis(x.data, idx, axis=-2)[..., 0, :])

    def backward():
        g = out.grad
        if g is None or not x.requires_grad:
            return
        x.ensure_grad()
        # One index per column, so the gather-add-scatter adds each gradient once.
        np.put_along_axis(x.grad, idx, np.take_along_axis(x.grad, idx, axis=-2)
                          + g[..., None, :], axis=-2)

    return _maybe_record(out, (x,), backward)


def concat_cols(parts: Sequence[Tensor]) -> Tensor:
    parts = list(parts)
    out = Tensor(np.concatenate([p.data for p in parts], axis=-1))
    widths = [p.data.shape[-1] for p in parts]
    offsets = np.cumsum([0] + widths)

    def backward():
        g = out.grad
        if g is None:
            return
        for p, lo, hi in zip(parts, offsets[:-1], offsets[1:]):
            if p.requires_grad:
                p.ensure_grad()
                p.grad += g[..., lo:hi]

    return _maybe_record(out, parts, backward)


def slice_cols(x: Tensor, start: int, stop: int) -> Tensor:
    out = Tensor(x.data[..., start:stop].copy())

    def backward():
        if out.grad is not None and x.requires_grad:
            x.ensure_grad()
            x.grad[..., start:stop] += out.grad

    return _maybe_record(out, (x,), backward)


def take_rows(x: Tensor, idx: np.ndarray) -> Tensor:
    """Gather rows by integer index (also the embedding lookup primitive).

    ``idx`` may have any shape; the result is [*idx.shape, *x.shape[1:]].
    """
    idx = np.asarray(idx, dtype=np.int64)
    if idx.min(initial=0) < 0 or (idx.size and idx.max() >= x.data.shape[0]):
        raise IndexError(f"row index out of range [0, {x.data.shape[0]})")
    out = Tensor(x.data[idx])

    def backward():
        if out.grad is not None and x.requires_grad:
            x.ensure_grad()
            np.add.at(x.grad, idx, out.grad)

    return _maybe_record(out, (x,), backward)


def concat_rows(parts: Sequence[Tensor]) -> Tensor:
    """Concatenate 2-D tensors along axis 0."""
    parts = list(parts)
    out = Tensor(np.concatenate([p.data for p in parts], axis=0))
    heights = [p.data.shape[0] for p in parts]
    offsets = np.cumsum([0] + heights)

    def backward():
        g = out.grad
        if g is None:
            return
        for p, lo, hi in zip(parts, offsets[:-1], offsets[1:]):
            if p.requires_grad:
                p.ensure_grad()
                p.grad += g[lo:hi]

    return _maybe_record(out, parts, backward)


def normalize_rows(x: Tensor) -> Tensor:
    """L2-normalize each row; zero rows are rejected."""
    norms = np.linalg.norm(x.data, axis=-1, keepdims=True)
    if np.any(norms == 0):
        raise ValueError("cannot L2-normalize a zero row")
    y = x.data / norms
    out = Tensor(y)

    def backward():
        g = out.grad
        if g is None or not x.requires_grad:
            return
        x.ensure_grad()
        x.grad += (g - y * (y * g).sum(axis=-1, keepdims=True)) / norms

    return _maybe_record(out, (x,), backward)


def row_diff(x: Tensor) -> Tensor:
    """First-order difference over axis -2: out[..., t, :] = x[..., t+1, :] - x[..., t, :]."""
    if x.data.ndim < 2 or x.data.shape[-2] < 2:
        raise DimensionError(f"row_diff needs at least 2 rows, got shape {x.data.shape}")
    out = Tensor(np.diff(x.data, axis=-2))

    def backward():
        g = out.grad
        if g is None or not x.requires_grad:
            return
        x.ensure_grad()
        x.grad[..., 1:, :] += g
        x.grad[..., :-1, :] -= g

    return _maybe_record(out, (x,), backward)


def sum_all(x: Tensor) -> Tensor:
    """Sum of all entries, as a scalar tensor."""
    out = Tensor(np.asarray(x.data.sum(), dtype=x.data.dtype))

    def backward():
        if out.grad is not None and x.requires_grad:
            x.ensure_grad()
            x.grad += float(out.grad)

    return _maybe_record(out, (x,), backward)


def reshape(x: Tensor, shape: tuple) -> Tensor:
    out = Tensor(x.data.reshape(shape))

    def backward():
        if out.grad is not None and x.requires_grad:
            x.ensure_grad()
            x.grad += out.grad.reshape(x.data.shape)

    return _maybe_record(out, (x,), backward)
