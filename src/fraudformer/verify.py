"""64-bit finite-difference verification suite.

``CHECKS`` is the one registry of gradient checks: an entry ``op`` or
``op_<form>`` for every primitive in ``numerics.ops``, each under a weighted
sum of its output, plus the four composite losses. ``gradient_suite`` runs
them all, for the ``gradcheck`` CLI subcommand and the tests alike.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Sequence, Tuple

import numpy as np

from . import numerics as nm
from .contrastive import embed_batch, infonce_loss
from .model import ModelConfig, batch_reconstruction_loss, init_params
from .rng import child_rng
from .sft import (AnomalyHeadConfig, batch_class_logits, init_head_params)

__all__ = ["CHECKS", "gradient_suite", "TOLERANCE"]

TOLERANCE = 1e-4
F64 = np.float64


def _t(rng, *shape) -> nm.Tensor:
    return nm.Tensor(rng.uniform(-1.0, 1.0, size=shape).astype(F64), requires_grad=True)


def _weighted(op: Callable, xs: Sequence[nm.Tensor], rng) -> float:
    """Check of ``op`` on the inputs ``xs`` under the loss sum(op(*xs) * w),
    with a fixed random w so that each output entry has its own weight."""
    w = nm.Tensor(rng.uniform(-1.0, 1.0, size=op(*xs).data.shape))
    return nm.grad_check(lambda: nm.sum_all(nm.mul(op(*xs), w)), xs, rng)


def _weighted_check(op: Callable, *shapes) -> Callable:
    """``_weighted`` on random inputs of ``shapes``."""
    return lambda rng: _weighted(op, [_t(rng, *shape) for shape in shapes], rng)


def _check_relu(rng) -> float:
    x = _t(rng, 6, 6)
    x.data += 0.1 * np.sign(x.data)  # keep values away from the kink at 0
    return _weighted(nm.relu, [x], rng)


def _tiny_model(rng_label: str, n_layers: int = 1) -> Tuple[ModelConfig, Dict[str, nm.Tensor]]:
    cfg = ModelConfig(cardinalities=(4, 5), d_k=(4, 4), d_model=8,
                      n_layers=n_layers, n_heads=2, t_max=6, dropout=0.0)
    params = init_params(cfg, child_rng(7, rng_label), dtype=F64)
    return cfg, params


def _check_reconstruction(rng) -> float:
    cfg, params = _tiny_model("gc-recon")
    ids = [np.stack([rng.integers(1, v, size=t) for v in cfg.cardinalities], axis=1)
           for t in (4, 3)]
    wiggle = [params[k] for k in sorted(params)]
    return nm.grad_check(lambda: batch_reconstruction_loss(ids, params, cfg), wiggle, rng)


def _check_infonce(rng) -> float:
    v, vp = _t(rng, 4, 6), _t(rng, 4, 6)
    return nm.grad_check(lambda: infonce_loss(v, vp, 0.05), [v, vp], rng)


def _check_embed_infonce(rng) -> float:
    """InfoNCE between two windows of each sequence, through ``embed_batch``'s
    last-row-only last layer; two layers, so that one runs in full."""
    cfg, params = _tiny_model("gc-embed", n_layers=2)
    ids = [np.stack([rng.integers(1, v, size=t) for v in cfg.cardinalities], axis=1)
           for t in (6, 4, 3)]
    wiggle = [params[k] for k in sorted(params)]
    return nm.grad_check(lambda: infonce_loss(embed_batch(ids, params, cfg),
                                              embed_batch([a[1:] for a in ids], params, cfg),
                                              0.05), wiggle, rng)


def _check_sft_pipeline(rng) -> float:
    cfg, params = _tiny_model("gc-sft")
    head_cfg = AnomalyHeadConfig(kernel_sizes=(2, 3), filters=3, hidden=4, dropout=0.0)
    head = init_head_params(head_cfg, cfg.d_model, child_rng(7, "gc-sft-head"), dtype=F64)
    params = dict(params, **head)
    ids = [np.stack([rng.integers(1, v, size=t) for v in cfg.cardinalities], axis=1)
           for t in (6, 5)]
    wiggle = [params[k] for k in sorted(params)]
    return nm.grad_check(
        lambda: nm.softmax_ce(batch_class_logits(ids, params, cfg, head_cfg), np.array([1, 0])),
        wiggle, rng)


CHECKS: Dict[str, Callable] = {
    # add_n, concat_cols and concat_rows take [a, b, a]: a's gradient sums
    # its two uses, as take_rows's does over a repeated row.
    "add": _weighted_check(nm.add, (4, 3), (4, 3)),
    "add_n": _weighted_check(lambda a, b: nm.add_n([a, b, a]), (3, 4), (3, 4)),
    "scale": _weighted_check(lambda x: nm.scale(x, -1.7), (4, 5)),
    # an array that broadcasts, as the anomaly head's validity mask does
    "scale_array": _weighted_check(lambda x: nm.scale(x, (np.arange(4.0) - 1.5)[:, None]), (4, 5)),
    "add_const": _weighted_check(lambda x: nm.add_const(x, np.eye(4, 5)), (4, 5)),
    "mul": _weighted_check(nm.mul, (4, 4), (4, 4)),
    "matmul": _weighted_check(nm.matmul, (4, 6), (6, 5)),
    # attention's forms: 2 sequences x 3 heads on leading axes
    "matmul_batched": _weighted_check(nm.matmul, (2, 3, 4, 5), (2, 3, 5, 4)),
    # the linear layers: a bias on the last axis, folded into the product
    "matmul_bias": _weighted_check(nm.matmul, (4, 6), (6, 5), (5,)),
    "matmul_bias_batched": _weighted_check(nm.matmul, (2, 3, 4, 5), (2, 3, 5, 4), (4,)),
    # the last layer's form at one row per sequence: a stack of rows, one weight
    "matmul_rows": _weighted_check(nm.matmul, (3, 1, 5), (5, 4), (4,)),
    "matmul_t": _weighted_check(nm.matmul_t, (3, 4), (5, 4)),
    "matmul_t_batched": _weighted_check(nm.matmul_t, (2, 3, 4, 5), (2, 3, 6, 5)),
    # 2 sequences of 3 rows, 2 heads of width 4
    "split_heads": _weighted_check(lambda x: nm.split_heads(x, 2, 2), (6, 8)),
    "merge_heads": _weighted_check(nm.merge_heads, (2, 2, 3, 4)),
    "relu": _check_relu,
    "layer_norm": _weighted_check(nm.layer_norm, (5, 8), (8,), (8,)),
    # a fresh generator of one seed on every call: the same mask each time
    "dropout": _weighted_check(lambda x: nm.dropout(x, 0.3, np.random.default_rng(1234)), (6, 8)),
    "softmax_rows": _weighted_check(nm.softmax_rows, (4, 5)),
    "softmax_ce": _weighted_check(lambda x: nm.softmax_ce(x, np.array([0, 3, 6, 2, 5, 3])), (6, 7)),
    "conv1d": _weighted_check(nm.conv1d, (8, 3), (3, 3, 4), (4,)),
    # the anomaly head's batched forms: 2-3 sequences on a leading axis
    "conv1d_batched": _weighted_check(nm.conv1d, (2, 7, 3), (3, 3, 4), (4,)),
    "max_over_time": _weighted_check(nm.max_over_time, (7, 5)),
    "max_over_time_batched": _weighted_check(nm.max_over_time, (3, 6, 4)),
    "concat_cols": _weighted_check(lambda a, b: nm.concat_cols([a, b, a]), (4, 3), (4, 2)),
    "slice_cols": _weighted_check(lambda x: nm.slice_cols(x, 1, 4), (4, 5)),
    "take_rows": _weighted_check(lambda x: nm.take_rows(x, np.array([0, 2, 2, 5])), (6, 3)),
    # an index matrix gives a [2, 3] block; row 3 is in both
    "take_rows_2d": _weighted_check(
        lambda x: nm.take_rows(x, np.array([[1, 2, 3], [3, 4, 5]])), (6, 3)),
    "concat_rows": _weighted_check(lambda a, b: nm.concat_rows([a, b, a]), (2, 3), (4, 3)),
    "normalize_rows": _weighted_check(nm.normalize_rows, (5, 4)),
    "row_diff": _weighted_check(nm.row_diff, (6, 3)),
    "row_diff_batched": _weighted_check(nm.row_diff, (2, 5, 3)),
    "reshape": _weighted_check(lambda x: nm.reshape(x, (2, 12)), (4, 6)),
    "sum_all": _weighted_check(nm.sum_all, (3, 5)),
    "reconstruction_loss": _check_reconstruction,
    "infonce_loss": _check_infonce,
    "embed_infonce": _check_embed_infonce,
    "sft_pipeline": _check_sft_pipeline,
}


def gradient_suite(seed: int = 0) -> List[Tuple[str, float]]:
    """Run all checks; returns (name, max relative error) pairs."""
    return [(name, fn(child_rng(seed, f"gradcheck-{name}"))) for name, fn in CHECKS.items()]
