"""Differentiable primitives.

Each op computes its numpy forward and hands the result to ``_record`` with
its inputs and ``grads``, a function from the output's gradient to one dense
array per input, of that input's shape. ``_record`` does all gradient
bookkeeping: an input's first contribution becomes its gradient (as a copy),
and each later one is added to it. No implicit broadcasting beyond the
patterns spelled out per op (``matmul``'s bias and its stack of single rows,
``scale``'s and ``add_const``'s constants); reshape explicitly otherwise.
Causal multi-head attention is one op, ``attention``, with its backward
written out: of its [B, H, R, R] intermediates it keeps only the
probabilities.
"""

from __future__ import annotations

import math
from typing import Callable, Iterable, Optional, Sequence

import numpy as np

from .tensor import DimensionError, Tensor, active_tape

__all__ = [
    "add", "add_n", "scale", "add_const", "mul",
    "matmul", "matmul_t", "attention",
    "relu", "layer_norm", "dropout",
    "softmax_rows", "softmax_ce", "conv1d", "max_over_time",
    "concat_cols", "slice_cols", "take_rows", "concat_rows",
    "normalize_rows", "row_diff", "reshape", "sum_all",
]


def _record(out: Tensor, inputs: Sequence[Tensor],
            grads: Callable[[np.ndarray], Iterable]) -> Tensor:
    """Put ``out``'s backward on the active tape when any input needs a gradient.

    ``grads(g)`` maps out's gradient ``g`` to one dense array per input, in
    order, of that input's shape. ``grads`` may be a generator; it is drawn
    once per input, in order. An input's first contribution is copied into a
    fresh gradient, the bits of ``0 + c``, because ops may hand one array, or
    views of it, to several inputs. Each later contribution is added to it in
    place.
    """
    tape = active_tape()
    if tape is not None and any(t.requires_grad for t in inputs):
        out.requires_grad = True

        def run():
            if out.grad is not None:
                for t, contribution in zip(inputs, grads(out.grad)):
                    if t.requires_grad and t.grad is None:
                        t.grad = np.add(contribution, 0.0, out=np.empty_like(t.data))
                    elif t.requires_grad:
                        t.grad += contribution
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
    """Add a non-learned constant. No program path calls it; it stays while
    the benchmark's tracer times it by name."""
    return _record(Tensor(x.data + arr), (x,), lambda g: (g,))


def mul(a: Tensor, b: Tensor) -> Tensor:
    if a.data.shape != b.data.shape:
        raise DimensionError(f"mul: incompatible shapes {a.data.shape} and {b.data.shape}")

    def grads(g):
        yield g * b.data
        yield g * a.data

    return _record(Tensor(a.data * b.data), (a, b), grads)


def matmul(a: Tensor, b: Tensor, bias: Optional[Tensor] = None) -> Tensor:
    """Matrix product a[m, k] @ b[k, n], or a stack of single rows
    a[..., 1, k] times one weight b[k, n]. numpy computes each of those rows
    alone, with the kernel it uses for a lone 2-D row, so a row's bits do not
    depend on the stack's size. An optional 1-D ``bias[n]`` is added on the
    last axis, the same bits as ``add(matmul(a, b), bias)``."""
    rows = a.data.ndim > 2 and a.data.shape[-2] == 1
    if (b.data.ndim != 2 or not (a.data.ndim == 2 or rows)
            or a.data.shape[-1] != b.data.shape[0]):
        raise DimensionError(f"matmul: incompatible shapes {a.data.shape} and {b.data.shape}")
    k, n = b.data.shape
    if bias is not None and bias.data.shape != (n,):
        raise DimensionError(f"matmul: bias must have shape ({n},), got {bias.data.shape}")
    y = a.data @ b.data
    if bias is not None:
        y += bias.data

    def grads(g):
        yield g @ b.data.T
        # one weight for every row of a stack: sum over them
        yield a.data.reshape(-1, k).T @ g.reshape(-1, n)
        yield g.reshape(-1, n).sum(axis=0)  # drawn only when bias is an input

    return _record(Tensor(y), (a, b) if bias is None else (a, b, bias), grads)


def matmul_t(a: Tensor, b: Tensor) -> Tensor:
    """a[m, k] @ b[n, k]^T; used for tied decoding and InfoNCE similarities."""
    if a.data.ndim != 2 or b.data.ndim != 2 or a.data.shape[1] != b.data.shape[1]:
        raise DimensionError(f"matmul_t: incompatible shapes {a.data.shape} and {b.data.shape}")

    def grads(g):
        yield g @ b.data
        yield g.T @ a.data

    return _record(Tensor(a.data @ b.data.T), (a, b), grads)


def attention(q: Tensor, k: Tensor, v: Tensor, n_heads: int, seq_len: int,
              query_rows: Optional[np.ndarray] = None) -> Tensor:
    """Causal multi-head self-attention over B sequences of ``seq_len`` rows.

    ``k`` and ``v`` are [B * seq_len, d] rows, sequence b at rows
    b * seq_len onwards; each of the ``n_heads`` heads reads a d / n_heads
    column block. A query at position t of its sequence sees the keys at
    positions 0..t of that sequence. Without ``query_rows`` every row is a
    query: ``q`` has k's shape, and so has the result. ``query_rows`` gives
    one query position per sequence instead, an int array [B]: ``q`` is the
    stack of those rows, [B, 1, d], and so is the result.

    The forward is split heads, q @ k^T, scale by 1/sqrt(d / n_heads), mask,
    softmax, @ v and merge heads, as one tape record; the backward is written
    out and keeps only the probabilities. Each step is the numpy expression
    that step's single op uses, so the bits equal those of the chain of ops.
    """
    if k.data.ndim != 2 or v.data.shape != k.data.shape:
        raise DimensionError(f"attention: keys {k.data.shape} and values {v.data.shape} "
                             f"must be the same [N, d] rows")
    n, d = k.data.shape
    if n % seq_len or d % n_heads:
        raise DimensionError(f"attention: {k.data.shape} does not split into sequences of "
                             f"{seq_len} rows x {n_heads} heads")
    b, dh = n // seq_len, d // n_heads

    def split(t):  # [B * R, d] rows -> [B, H, R, dh] blocks
        return t.reshape(b, seq_len, n_heads, dh).transpose(0, 2, 1, 3)

    def merge(t):  # the inverse of split
        return t.transpose(0, 2, 1, 3).reshape(n, d)

    if query_rows is None:
        q_shape, pos, split_q, merge_q = (n, d), np.arange(seq_len)[:, None], split, merge
    else:
        query_rows = np.asarray(query_rows, dtype=np.int64)
        if query_rows.shape != (b,) or query_rows.min() < 0 or query_rows.max() >= seq_len:
            raise DimensionError(f"attention: query_rows must be one position in "
                                 f"[0, {seq_len}) per sequence, got {query_rows}")
        q_shape, pos = (b, 1, d), query_rows.reshape(b, 1, 1, 1)
        # With one query row per sequence, splitting and merging heads are reshapes.
        split_q = lambda t: t.reshape(b, n_heads, 1, dh)  # noqa: E731
        merge_q = lambda t: t.reshape(b, 1, d)  # noqa: E731
    if q.data.shape != q_shape:
        raise DimensionError(f"attention: queries must be {q_shape}, got {q.data.shape}")
    scale_by = 1.0 / math.sqrt(dh)
    q4, k4, v4 = split_q(q.data), split(k.data), split(v.data)
    s = q4 @ k4.swapaxes(-1, -2)
    s *= scale_by
    s += np.where(np.arange(seq_len) > pos, -np.inf, 0.0).astype(s.dtype)
    p = _softmax(s)

    def grads(g):
        g4 = split_q(g)
        gs = g4 @ v4.swapaxes(-1, -2)
        gv = p.swapaxes(-1, -2) @ g4
        gs -= (p * gs).sum(axis=-1, keepdims=True)  # the softmax backward
        gs *= p
        gs *= scale_by
        yield merge_q(gs @ k4)
        yield merge(gs.swapaxes(-1, -2) @ q4)
        yield merge(gv)

    return _record(Tensor(merge_q(p @ v4)), (q, k, v), grads)


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


def _softmax(x: np.ndarray) -> np.ndarray:
    """The stable softmax over the last axis, as a fresh array: subtract the
    row max, exp, divide by the row sum. Rows may hold -inf (masked) entries."""
    e = x - x.max(axis=-1, keepdims=True)
    np.exp(e, out=e)
    e /= e.sum(axis=-1, keepdims=True)
    return e


def softmax_rows(x: Tensor) -> Tensor:
    """Softmax over the last axis. Rows may contain -inf (masked) entries.
    No program path calls it (``attention`` and ``softmax_ce`` use
    ``_softmax``); it stays while the benchmark's tracer times it by name."""
    p = _softmax(x.data)
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
    p = _softmax(logits.data)
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
    def grads(g):
        gx = np.zeros_like(x.data)
        gx[..., start:stop] = g
        return (gx,)

    return _record(Tensor(x.data[..., start:stop].copy()), (x,), grads)


def take_rows(x: Tensor, idx: np.ndarray) -> Tensor:
    """Gather rows by integer index (also the embedding lookup primitive).

    ``idx`` may have any shape; the result is [*idx.shape, *x.shape[1:]].
    """
    idx = np.asarray(idx, dtype=np.int64)
    if idx.min(initial=0) < 0 or (idx.size and idx.max() >= x.data.shape[0]):
        raise IndexError(f"row index out of range [0, {x.data.shape[0]})")

    def grads(g):
        # Repeated rows accumulate: one 1-D np.add.at on a flat view of fresh
        # zeros, numpy's fast path. Cell j of row i is flat cell i*w + j, and
        # each cell still sums its rows in index order, so the bits are those
        # of np.add.at(gx, idx, g).
        gx = np.zeros_like(x.data)
        w = math.prod(x.data.shape[1:])
        np.add.at(gx.reshape(-1), (idx.reshape(-1, 1) * w + np.arange(w)).reshape(-1),
                  g.reshape(-1))
        return (gx,)

    return _record(Tensor(x.data[idx]), (x,), grads)


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
    out = Tensor(np.asarray(x.data.sum(), dtype=x.data.dtype))
    return _record(out, (x,), lambda g: (np.full_like(x.data, g),))


def reshape(x: Tensor, shape: tuple) -> Tensor:
    return _record(Tensor(x.data.reshape(shape)), (x,), lambda g: (g.reshape(x.data.shape),))
