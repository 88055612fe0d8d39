"""64-bit finite-difference verification suite.

Every differentiable primitive and both composite losses are checked
against central differences on small random shapes. Used by the
``gradcheck`` CLI subcommand and the test suite.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Tuple

import numpy as np

from . import numerics as nm
from .contrastive import infonce_loss
from .model import ModelConfig, batch_reconstruction_loss, init_params
from .rng import child_rng
from .sft import (AnomalyHeadConfig, batch_class_logits, init_head_params)

__all__ = ["gradient_suite", "TOLERANCE"]

TOLERANCE = 1e-4
F64 = np.float64


def _t(rng, *shape) -> nm.Tensor:
    return nm.Tensor(rng.uniform(-1.0, 1.0, size=shape).astype(F64), requires_grad=True)


def _check_matmul(rng) -> float:
    a, b = _t(rng, 4, 6), _t(rng, 6, 5)
    return nm.grad_check(lambda: nm.sum_all(nm.matmul(a, b)), [a, b], rng)


def _weighted_check(op: Callable, *shapes) -> Callable:
    """Check of ``op`` on random inputs of ``shapes`` under the loss sum(op(...) * w),
    with a fixed random w so that each output entry has its own weight."""
    def check(rng) -> float:
        xs = [_t(rng, *shape) for shape in shapes]
        w = nm.Tensor(rng.uniform(-1.0, 1.0, size=op(*xs).data.shape))
        return nm.grad_check(lambda: nm.sum_all(nm.mul(op(*xs), w)), xs, rng)
    return check


def _check_softmax_ce(rng) -> float:
    logits = _t(rng, 6, 7)
    targets = rng.integers(0, 7, size=6)
    return nm.grad_check(lambda: nm.softmax_ce(logits, targets), [logits], rng)


def _check_layer_norm(rng) -> float:
    x, g, b = _t(rng, 5, 8), _t(rng, 8), _t(rng, 8)
    w = _t(rng, 8, 3)
    return nm.grad_check(
        lambda: nm.sum_all(nm.matmul(nm.layer_norm(x, g, b), w)), [x, g, b, w], rng)


def _check_relu(rng) -> float:
    # keep values away from the kink at 0
    x = nm.Tensor(np.where(rng.uniform(-1, 1, (6, 6)) > 0, 1, -1)
                  * rng.uniform(0.1, 1.0, (6, 6)), requires_grad=True)
    w = _t(rng, 6, 2)
    return nm.grad_check(lambda: nm.sum_all(nm.matmul(nm.relu(x), w)), [x, w], rng)


def _check_dropout(rng) -> float:
    x = _t(rng, 6, 8)
    w = _t(rng, 8, 3)

    def loss():
        drng = np.random.default_rng(1234)  # same mask on every call
        return nm.sum_all(nm.matmul(nm.dropout(x, 0.3, drng), w))

    return nm.grad_check(loss, [x, w], rng)


def _check_conv1d(rng) -> float:
    x, k, b = _t(rng, 8, 3), _t(rng, 3, 3, 4), _t(rng, 4)
    w = _t(rng, 4, 2)
    return nm.grad_check(
        lambda: nm.sum_all(nm.matmul(nm.conv1d(x, k, b), w)), [x, k, b], rng)


def _check_max_pool(rng) -> float:
    x = _t(rng, 7, 5)
    return nm.grad_check(
        lambda: nm.sum_all(nm.reshape(nm.max_over_time(x), (1, 5))), [x], rng)


def _tiny_model(rng_label: str) -> Tuple[ModelConfig, Dict[str, nm.Tensor]]:
    cfg = ModelConfig(cardinalities=(4, 5), d_k=(4, 4), d_model=8,
                      n_layers=1, n_heads=2, t_max=6, dropout=0.0)
    params = init_params(cfg, child_rng(7, rng_label), dtype=F64)
    return cfg, params


def _check_reconstruction(rng) -> float:
    cfg, params = _tiny_model("gc-recon")
    ids = [np.stack([rng.integers(1, v, size=t) for v in cfg.cardinalities], axis=1)
           for t in (4, 3)]
    wiggle = [params[k] for k in sorted(params)]
    return nm.grad_check(lambda: batch_reconstruction_loss(ids, params, cfg), wiggle, rng,
                         n_probes=20)


def _check_infonce(rng) -> float:
    v, vp = _t(rng, 4, 6), _t(rng, 4, 6)
    return nm.grad_check(lambda: infonce_loss(v, vp, 0.05), [v, vp], rng)


def _check_sft_pipeline(rng) -> float:
    cfg, params = _tiny_model("gc-sft")
    head_cfg = AnomalyHeadConfig(kernel_sizes=(2, 3), filters=3, hidden=4, dropout=0.0)
    head = init_head_params(head_cfg, cfg.d_model, child_rng(7, "gc-sft-head"), dtype=F64)
    params = dict(params, **head)
    ids = [np.stack([rng.integers(1, v, size=t) for v in cfg.cardinalities], axis=1)
           for t in (6, 5)]
    labels = np.array([1, 0])
    wiggle = [params[k] for k in sorted(params)]

    def loss():
        logits = batch_class_logits(ids, params, cfg, head_cfg)
        return nm.softmax_ce(logits, labels)

    return nm.grad_check(loss, wiggle, rng, n_probes=20)


CHECKS: Dict[str, Callable] = {
    "matmul": _check_matmul,
    # attention's forms: 2 sequences x 3 heads on leading axes
    "matmul_batched": _weighted_check(nm.matmul, (2, 3, 4, 5), (2, 3, 5, 4)),
    # the linear layers: a bias on the last axis, folded into the product
    "matmul_bias": _weighted_check(nm.matmul, (4, 6), (6, 5), (5,)),
    "matmul_bias_batched": _weighted_check(nm.matmul, (2, 3, 4, 5), (2, 3, 5, 4), (4,)),
    "matmul_t_batched": _weighted_check(nm.matmul_t, (2, 3, 4, 5), (2, 3, 6, 5)),
    # 2 sequences of 3 rows, 2 heads of width 4
    "split_heads": _weighted_check(lambda x: nm.split_heads(x, 2, 2), (6, 8)),
    "merge_heads": _weighted_check(nm.merge_heads, (2, 2, 3, 4)),
    "softmax_ce": _check_softmax_ce,
    "layer_norm": _check_layer_norm,
    "relu": _check_relu,
    "dropout": _check_dropout,
    "conv1d": _check_conv1d,
    "max_over_time": _check_max_pool,
    # the anomaly head's batched forms: 2-3 sequences on a leading axis
    "conv1d_batched": _weighted_check(nm.conv1d, (2, 7, 3), (3, 3, 4), (4,)),
    "max_over_time_batched": _weighted_check(nm.max_over_time, (3, 6, 4)),
    "row_diff_batched": _weighted_check(nm.row_diff, (2, 5, 3)),
    "reconstruction_loss": _check_reconstruction,
    "infonce_loss": _check_infonce,
    "sft_pipeline": _check_sft_pipeline,
}


def gradient_suite(seed: int = 0) -> List[Tuple[str, float]]:
    """Run all checks; returns (name, max relative error) pairs."""
    results = []
    for name, fn in CHECKS.items():
        rng = child_rng(seed, f"gradcheck-{name}")
        results.append((name, fn(rng)))
    return results
